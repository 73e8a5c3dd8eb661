"""Beam-search n-best generation, cosine re-ranking against the input
units, and final summary assembly with entity restoration."""

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .attnseq2seq import attention_keys, decode_step, encode
from .sampler import select_test_input
from .textcorpus import (
    content_words,
    cosine_weight_maps,
    detokenize,
    restore_entity,
)


# Test inputs encoded together: each encoder chain steps a block's inputs
# as rows, one stepper call per position for the whole block. A row's bits
# depend on how many rows share its products, so every block has this many.
ENCODE_ROWS = 8


@dataclass(frozen=True)
class BeamHypothesis:
    """Completed output sequence (tokens start after BOS, end with EOS)."""

    tokens: tuple
    logp: float


def banned_indices(vocab, cluster):
    """Vocabulary ids never expanded: SEG, BOS, and the generic entity
    label when the cluster has no entity to restore it to."""
    banned = {vocab.seg, vocab.bos}
    if not cluster.entity:
        banned.add(vocab.entity)
    return banned


def beam_search(model, contexts, width, max_len, banned):
    """Top-`width` beam search over the encoded input `contexts` (one of
    the arrays `encode` returns); returns completed hypotheses, best first.

    Each step expands every live hypothesis over the allowed vocabulary
    and keeps the top-`width` expansions, ordered by (-logp, tokens); the
    completed ones among those retire to the result pool. Stops when
    nothing is live or at max_len, where the survivors are force-completed
    with EOS (at its actual log-prob). The pool is ordered by (-logp,
    length, tokens). The ids in `banned` are never expanded; EOS always is.

    The live beam is held as the B x d_h states h and c, advanced by one
    decode_step per time step, the running log-probs, and the token tuple
    of every live hypothesis.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    vocab = model.vocab
    banned_set = set(banned)
    banned_set.discard(vocab.eos)
    allowed = np.array([i for i in range(len(vocab)) if i not in banned_set])
    keys = attention_keys(model, contexts)
    h, c = np.zeros((1, model.d_h)), np.zeros((1, model.d_h))
    prev = np.array([vocab.bos])
    live_logp = np.zeros(1)
    # rank of each live hypothesis's token tuple in lexicographic order; all
    # live tuples have the same length, so (parent rank, token) orders the
    # expansions exactly as comparing their tuples does
    lex_rank = np.zeros(1, dtype=np.int64)
    live = [()]  # token tuple of every live row
    pool = []
    for step in range(1, max_len + 1):
        h, c, probs = decode_step(model, prev, h, c, contexts, keys)
        expansion = np.array([vocab.eos]) if step == max_len else allowed
        with np.errstate(divide="ignore"):  # underflowed probs rank last
            logp = (live_logp[:, None] + np.log(probs[:, expansion])).ravel()
        # every candidate tied with the width-th best stays in the final sort;
        # with no more than `width` candidates, the k-th is the worst of them
        k = min(width, logp.size) - 1
        cand = np.flatnonzero(-logp <= np.partition(-logp, k)[k])
        row, col = np.divmod(cand, len(expansion))
        word = expansion[col]
        order = np.lexsort((word, lex_rank[row], -logp[cand]))[:width]
        cand, row, word = cand[order], row[order], word[order]
        done = word == vocab.eos
        for r, lp in zip(row[done], logp[cand[done]]):
            pool.append(BeamHypothesis(live[r] + (vocab.eos,), float(lp)))
        keep = ~done
        if not keep.any():
            break
        cand, row, word = cand[keep], row[keep], word[keep]
        parent_rank = lex_rank[row]
        lex_rank = np.empty(len(row), dtype=np.int64)
        lex_rank[np.lexsort((word, parent_rank))] = np.arange(len(row))
        live = [live[r] + (int(w),) for r, w in zip(row, word)]
        h, c = h[row], c[row]
        prev = word
        live_logp = logp[cand]
    pool.sort(key=lambda h: (-h.logp, len(h.tokens), h.tokens))
    return pool


def greedy_decode(model, z, max_len, banned):
    """Step-wise argmax chain (beam of width 1) over the input z, encoded
    alone."""
    contexts = encode(model, [z])[0]
    return beam_search(model, contexts, width=1, max_len=max_len, banned=banned)[0]


def _content_map(norms, stopwords, idf):
    counts = Counter(content_words(norms, stopwords))
    return {term: k * idf(term) for term, k in counts.items()}


def rerank_similarities(nbest, cluster, tfidf, stopwords, vocab):
    """IDF-weighted content-word cosine of each candidate against the
    concatenated input units; candidates containing UNK are halved."""
    input_norms = [t.norm for u in cluster.units for t in u.tokens]
    input_map = _content_map(input_norms, stopwords, tfidf.idf)
    sims = []
    for hyp in nbest:
        norms = [vocab.word_of(t) for t in hyp.tokens if t != vocab.eos]
        sim = cosine_weight_maps(_content_map(norms, stopwords, tfidf.idf), input_map)
        if any(t == vocab.unk for t in hyp.tokens):
            sim *= 0.5
        sims.append(sim)
    return sims


def cosine_rerank(nbest, sims):
    """Index of the best hypothesis given its input cosines `sims`: the
    highest cosine, ties to the higher log-prob, then to the earlier
    (better-ranked) hypothesis."""
    if not nbest:
        raise ValueError("empty n-best list")
    return max(range(len(nbest)), key=lambda i: (sims[i], nbest[i].logp, -i))


def decode_split(model, clusters, unit_scores, K, width, max_len, tfidf, stopwords):
    """Full decode of a split of entity-substituted clusters, with one
    score vector per cluster; yields the record the CLI writes for each
    cluster, in order.

    The clusters go ENCODE_ROWS at a time: select_test_input for each, one
    encode call for the block, then per cluster beam_search ->
    cosine_rerank -> restore_entity. A short block is padded with copies
    of its first input, whose contexts are dropped, so a cluster's record
    does not depend on the clusters around it. record["summary"] is the
    one-sentence abstract. A score list of another length than clusters
    raises ValueError before the first cluster is decoded.
    """
    if len(unit_scores) != len(clusters):
        raise ValueError(f"{len(clusters)} clusters but {len(unit_scores)} score arrays")
    vocab = model.vocab
    for start in range(0, len(clusters), ENCODE_ROWS):
        block = clusters[start : start + ENCODE_ROWS]
        zs = [
            select_test_input(c, scores, K, vocab, tfidf)
            for c, scores in zip(block, unit_scores[start : start + ENCODE_ROWS])
        ]
        padded = zs + zs[:1] * (ENCODE_ROWS - len(zs))
        for cluster, contexts in zip(block, encode(model, padded)):
            nbest = beam_search(model, contexts, width, max_len, banned_indices(vocab, cluster))
            sims = rerank_similarities(nbest, cluster, tfidf, stopwords, vocab)
            texts = [
                detokenize(restore_entity([vocab.word_of(t) for t in h.tokens[:-1]], cluster))
                for h in nbest
            ]
            yield {
                "id": cluster.id,
                "summary": texts[cosine_rerank(nbest, sims)],
                "nbest": [
                    {"text": text, "logp": h.logp, "cosine": sim}
                    for text, h, sim in zip(texts, nbest, sims)
                ],
            }

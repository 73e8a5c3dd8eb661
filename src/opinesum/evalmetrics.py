"""Corpus evaluation: BLEU (up to 4-grams, smoothed, brevity penalty),
ROUGE-SU4 recall, MRR and NDCG@k."""

import math
from collections import Counter
from dataclasses import dataclass

BLEU_N = 4  # BLEU pools 1- to BLEU_N-grams
MAX_GAP = 4  # ROUGE-SU4: skip-bigrams with at most MAX_GAP tokens between


def ngram_counts(tokens, n):
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu(hypotheses, references):
    """Corpus-level BLEU with one reference per hypothesis.

    Clipped n-gram counts are pooled over the corpus; precisions for
    n >= 2 get +1 smoothing on numerator and denominator (one-sentence
    summaries rarely share 4-grams); brevity penalty exp(1 - r/c) for c < r.
    """
    if len(hypotheses) != len(references):
        raise ValueError(
            f"{len(hypotheses)} hypotheses vs {len(references)} references"
        )
    if not hypotheses:
        raise ValueError("empty corpus")
    c = sum(len(h) for h in hypotheses)
    r = sum(len(g) for g in references)
    if c == 0:
        return 0.0
    log_sum = 0.0
    for n in range(1, BLEU_N + 1):
        matched = 0
        total = 0
        for hyp, ref in zip(hypotheses, references):
            hyp_counts = ngram_counts(hyp, n)
            ref_counts = ngram_counts(ref, n)
            matched += sum(min(k, ref_counts[g]) for g, k in hyp_counts.items())
            total += max(len(hyp) - n + 1, 0)
        if n == 1:
            if matched == 0:
                return 0.0
            p = matched / total
        else:
            p = (matched + 1) / (total + 1)
        log_sum += math.log(p)
    bp = 1.0 if c >= r else math.exp(1.0 - r / c)
    return bp * math.exp(log_sum / BLEU_N)


def skip_bigram_units(tokens):
    """Unigrams plus ordered skip-bigrams with <= MAX_GAP intervening tokens."""
    units = Counter()
    for i, tok in enumerate(tokens):
        units[(tok,)] += 1
        for j in range(i + 1, min(i + MAX_GAP + 2, len(tokens))):
            units[(tok, tokens[j])] += 1
    return units


def rouge_su4(hypothesis, reference):
    """Recall of the reference's unigram+skip-bigram multiset (clipped)."""
    ref_units = skip_bigram_units(reference)
    total = sum(ref_units.values())
    if total == 0:
        return 0.0
    hyp_units = skip_bigram_units(hypothesis)
    matched = sum(min(k, hyp_units[u]) for u, k in ref_units.items())
    return matched / total


def rouge_su4_corpus(hypotheses, references):
    if len(hypotheses) != len(references):
        raise ValueError("hypothesis/reference length mismatch")
    if not hypotheses:
        raise ValueError("empty corpus")
    return sum(rouge_su4(h, r) for h, r in zip(hypotheses, references)) / len(hypotheses)


def mrr(relevance_lists):
    """Mean reciprocal rank of the first relevant item; 0 when none is."""
    if not relevance_lists:
        raise ValueError("no queries")
    total = 0.0
    for rels in relevance_lists:
        if not len(rels):
            raise ValueError("empty ranking")
        for rank, rel in enumerate(rels, start=1):
            if rel:
                total += 1.0 / rank
                break
    return total / len(relevance_lists)


def ndcg_at(k, gains):
    """Discounted cumulative gain at k, normalized by the ideal ranking."""
    if k < 1:
        raise ValueError("k must be >= 1")
    gains = list(gains)
    dcg = sum(g / math.log2(i + 2) for i, g in enumerate(gains[:k]))
    ideal = sum(g / math.log2(i + 2) for i, g in enumerate(sorted(gains, reverse=True)[:k]))
    return dcg / ideal if ideal > 0 else 0.0


def mean_ndcg_at(k, relevance_lists):
    if not relevance_lists:
        raise ValueError("no queries")
    return sum(ndcg_at(k, rels) for rels in relevance_lists) / len(relevance_lists)


@dataclass
class EvalReport:
    """Per-system summary metrics."""

    bleu: float
    rouge_su4: float
    mean_length: float


def summarize_system(hypotheses, references):
    """BLEU, ROUGE-SU4, and mean hypothesis length for one system."""
    return EvalReport(
        bleu=bleu(hypotheses, references),
        rouge_su4=rouge_su4_corpus(hypotheses, references),
        mean_length=sum(len(h) for h in hypotheses) / len(hypotheses),
    )

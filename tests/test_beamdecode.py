import itertools
from dataclasses import dataclass, replace

import numpy as np
import pytest

from conftest import decode_one, make_cluster, randomize, tiny_setup
from opinesum import beamdecode
from opinesum.attnseq2seq import (
    TokenFeatureSet,
    attention_keys,
    encode,
    new_model,
    sequence_log_prob,
)
from opinesum.beamdecode import (
    BeamHypothesis,
    banned_indices,
    beam_search,
    cosine_rerank,
    decode_split,
    greedy_decode,
    rerank_similarities,
)
from opinesum.sampler import build_input
from opinesum.textcorpus import TfidfStats, build_vocab, default_stopwords, substitute_entity


@dataclass(frozen=True)
class RefHypothesis:
    tokens: tuple
    logp: float
    state: tuple  # (h, c)
    completed: bool


def reference_beam_search(model, z, width, max_len, banned):
    """Object-per-hypothesis beam search: one one-row decode_step per live
    hypothesis, and a full sort of every expansion at each step."""
    vocab = model.vocab
    banned_set = set(banned)
    banned_set.discard(vocab.eos)
    allowed = [i for i in range(len(vocab)) if i not in banned_set]
    contexts = encode(model, [z])[0]
    keys = attention_keys(model, contexts)
    zeros = np.zeros(model.d_h)
    live = [RefHypothesis((), 0.0, (zeros, zeros), False)]
    pool = []
    for step in range(1, max_len + 1):
        candidates = []
        for hyp in live:
            prev = hyp.tokens[-1] if hyp.tokens else vocab.bos
            h_new, c_new, probs = decode_one(model, prev, *hyp.state, contexts, keys)
            with np.errstate(divide="ignore"):
                logp = np.log(probs)
            expansion = (vocab.eos,) if step == max_len else allowed
            for w in expansion:
                candidates.append(RefHypothesis(
                    hyp.tokens + (w,), hyp.logp + float(logp[w]), (h_new, c_new), w == vocab.eos
                ))
        candidates.sort(key=lambda h: (-h.logp, h.tokens))
        live = []
        for h in candidates[:width]:
            (pool if h.completed else live).append(h)
        if not live:
            break
    pool.sort(key=lambda h: (-h.logp, len(h.tokens), h.tokens))
    return pool


def assert_matches_reference(model, z, width, max_len, banned):
    got = beam_search(model, encode(model, [z])[0], width, max_len, banned)
    want = reference_beam_search(model, z, width, max_len, banned)
    assert [h.tokens for h in got] == [h.tokens for h in want]
    for g, w in zip(got, want):
        assert g.logp == w.logp or abs(g.logp - w.logp) <= 1e-12
    return got


def wide_vocab_setup(seed, with_features=False):
    """Random model over 25 words (|V| = 30), optionally with token
    features, its input and its banned ids."""
    words = [f"w{i:02d}" for i in range(25)]
    cluster = make_cluster([" ".join(words[:13]), " ".join(words[13:])], summary="w01 w02")
    vocab = build_vocab([cluster])
    features = None
    if with_features:
        features = TokenFeatureSet(
            pos_tags=(),
            lex_categories=("Negativ", "Positiv"),
            word_lex={"w01": "Positiv", "w05": "Negativ"},
            word_sent={"w02": "positive", "w07": "negative"},
            dim=2,
        )
    model = randomize(new_model(vocab, features, 5, 4, 3), seed=seed, scale=0.9)
    z = build_input(cluster, [0, 1], vocab, TfidfStats([cluster]))
    return model, vocab, z, banned_indices(vocab, cluster)


def six_word_setup(seed):
    """|V| = 6: the five reserved tokens plus one word. The cluster has an
    entity, so only SEG and BOS are banned."""
    cluster = make_cluster(["ww ww", "ww"], summary="ww", cid="six", entity="boo")
    vocab = build_vocab([cluster])
    assert len(vocab) == 6
    model = randomize(new_model(vocab, None, 4, 3, 2), seed=seed, scale=0.8)
    z = build_input(cluster, [0, 1], vocab, TfidfStats([cluster]))
    return model, vocab, z, banned_indices(vocab, cluster)


def greedy_oracle(model, z, max_len, banned):
    """Step-wise argmax chain, independent of the beam implementation."""
    vocab = model.vocab
    allowed = [i for i in range(len(vocab)) if i not in banned]
    contexts = encode(model, [z])[0]
    keys = attention_keys(model, contexts)
    h = c = np.zeros(model.d_h)
    prev = vocab.bos
    tokens = []
    logp = 0.0
    for step in range(1, max_len + 1):
        h, c, p = decode_one(model, prev, h, c, contexts, keys)
        if step == max_len:
            choice = vocab.eos
        else:
            choice = max(allowed, key=lambda w: (p[w], -w))
        tokens.append(choice)
        logp += float(np.log(p[choice]))
        if choice == vocab.eos:
            break
        prev = choice
    return tuple(tokens), logp


def exhaustive_best(model, z, max_len, banned):
    """Max over all EOS-terminated sequences, scored by sequence_log_prob."""
    vocab = model.vocab
    inner = [i for i in range(len(vocab)) if i not in banned and i != vocab.eos]
    best = (-np.inf, None)
    for length in range(1, max_len + 1):
        for prefix in itertools.product(inner, repeat=length - 1):
            y = list(prefix) + [vocab.eos]
            ll, _ = sequence_log_prob(model, z, y)
            if ll > best[0]:
                best = (ll, tuple(y))
    return best


class TestBeamSearch:
    def test_width_one_equals_greedy_oracle(self):
        for seed in range(5):
            model, vocab, z, banned = six_word_setup(seed)
            pool = beam_search(model, encode(model, [z])[0], width=1, max_len=6, banned=banned)
            tokens, logp = greedy_oracle(model, z, 6, banned)
            assert pool[0].tokens == tokens
            assert pool[0].logp == pytest.approx(logp, abs=1e-12)

    def test_recovers_exhaustive_optimum(self):
        for seed in range(2):
            model, vocab, z, banned = six_word_setup(seed)
            pool = beam_search(model, encode(model, [z])[0], width=1296, max_len=4, banned=banned)
            best_ll, best_tokens = exhaustive_best(model, z, 4, banned)
            assert pool[0].logp == pytest.approx(best_ll, abs=1e-10)
            assert pool[0].tokens == best_tokens

    def test_deterministic(self):
        model, vocab, z, banned = six_word_setup(3)
        a = beam_search(model, encode(model, [z])[0], width=4, max_len=5, banned=banned)
        b = beam_search(model, encode(model, [z])[0], width=4, max_len=5, banned=banned)
        assert [(h.tokens, h.logp) for h in a] == [(h.tokens, h.logp) for h in b]

    def test_every_hypothesis_ends_with_single_eos(self):
        model, vocab, z, banned = six_word_setup(1)
        for h in beam_search(model, encode(model, [z])[0], width=5, max_len=6, banned=banned):
            assert h.tokens[-1] == vocab.eos
            assert h.tokens.count(vocab.eos) == 1

    def test_pool_size_bound(self):
        for width, max_len in ((1, 4), (3, 5), (8, 3)):
            model, vocab, z, banned = six_word_setup(2)
            contexts = encode(model, [z])[0]
            pool = beam_search(model, contexts, width=width, max_len=max_len, banned=banned)
            assert len(pool) <= width * max_len + width

    def test_banned_tokens_absent(self):
        model, vocab, z, banned = six_word_setup(4)
        for h in beam_search(model, encode(model, [z])[0], width=6, max_len=5, banned=banned):
            assert vocab.seg not in h.tokens
            assert vocab.bos not in h.tokens

    def test_incremental_matches_batch_scores(self):
        model, vocab, z, banned = six_word_setup(5)
        pool = beam_search(model, encode(model, [z])[0], width=6, max_len=5, banned=banned)
        assert pool
        for h in pool:
            ll, _ = sequence_log_prob(model, z, list(h.tokens))
            assert abs(h.logp - ll) <= 1e-10

    def test_sorted_by_logp_then_length(self):
        model, vocab, z, banned = six_word_setup(6)
        pool = beam_search(model, encode(model, [z])[0], width=6, max_len=5, banned=banned)
        keys = [(-h.logp, len(h.tokens), h.tokens) for h in pool]
        assert keys == sorted(keys)

    def test_width_validation(self):
        model, vocab, z, banned = six_word_setup(0)
        with pytest.raises(ValueError):
            beam_search(model, encode(model, [z])[0], width=0, max_len=3, banned=banned)
        with pytest.raises(ValueError):
            beam_search(model, encode(model, [z])[0], width=1, max_len=0, banned=banned)

    def test_greedy_decode_helper(self):
        model, vocab, z, banned = six_word_setup(7)
        best = greedy_decode(model, z, max_len=5, banned=banned)
        contexts = encode(model, [z])[0]
        assert best.tokens == beam_search(model, contexts, width=1, max_len=5, banned=banned)[0].tokens

    def test_max_len_one_forces_eos(self):
        model, vocab, z, banned = six_word_setup(8)
        pool = beam_search(model, encode(model, [z])[0], width=4, max_len=1, banned=banned)
        assert [h.tokens for h in pool] == [(vocab.eos,)]


class TestMatchesReferenceBeam:
    """The array beam returns the reference beam's pool: the same token
    tuples in the same order, log-probs within 1e-12."""

    def test_random_models(self):
        for seed in range(3):
            for width in (1, 3, 20):
                model, vocab, z, banned = wide_vocab_setup(seed, with_features=seed == 1)
                assert_matches_reference(model, z, width, 6, banned)

    def test_zero_model_all_candidates_tied(self):
        model, vocab, z, banned = wide_vocab_setup(0)
        model = new_model(vocab, None, model.d_emb, model.d_h, model.d_a)
        for width in (1, 3, 20):
            pool = assert_matches_reference(model, z, width, 4, banned)
            assert len({h.logp for h in pool if len(h.tokens) == 4}) == 1

    def test_exact_ties_across_parents_break_by_tokens(self):
        # W_out = 0: every step has the same distribution, so (hi, lo) and
        # (lo, hi) tie exactly; the better parent (hi) has the larger id
        model, vocab, z, banned = wide_vocab_setup(4)
        lo, hi = sorted(vocab.index_of(w) for w in ("w03", "w10"))
        model.W_out[...] = 0.0
        model.b_out[...] = 0.0
        model.b_out[hi], model.b_out[lo] = 2.0, 1.0
        pool = assert_matches_reference(model, z, 2, 3, banned)
        assert (lo, hi, vocab.eos) in [h.tokens for h in pool]

    def test_six_words_width_above_candidates(self):
        for seed in range(3):
            model, vocab, z, banned = six_word_setup(seed)
            assert_matches_reference(model, z, 20, 5, banned)

    def test_underflowed_word_kept_like_reference(self):
        model, vocab, z, banned = six_word_setup(2)
        word = vocab.index_of("ww")
        model.b_out[word] = -1e4  # exp underflows: probability exactly 0
        pool = assert_matches_reference(model, z, 20, 4, banned)
        assert any(h.logp == -np.inf and word in h.tokens for h in pool)


class TestCosineRerank:
    def setup_method(self):
        self.cluster = make_cluster(
            ["great fun ride", "dull boring slog"], summary="great fun", cid="r0"
        )
        self.vocab = build_vocab([self.cluster])
        self.tfidf = TfidfStats([self.cluster])
        self.stopwords = frozenset({"the", "a"})

    def hyp(self, words, logp):
        tokens = tuple(self.vocab.index_of(w) for w in words) + (self.vocab.eos,)
        return BeamHypothesis(tokens=tokens, logp=logp)

    def best(self, nbest):
        sims = rerank_similarities(nbest, self.cluster, self.tfidf, self.stopwords, self.vocab)
        return nbest[cosine_rerank(nbest, sims)]

    def test_singleton(self):
        only = self.hyp(["dull"], -1.0)
        assert self.best([only]) is only

    def test_overlapping_beats_disjoint(self):
        good = self.hyp(["great", "fun"], -5.0)
        bad = self.hyp(["zzz"], -0.1)  # OOV -> UNK, shares nothing
        best = self.best([bad, good])
        assert best is good

    def test_matches_hand_cosines(self):
        import math

        candidates = [
            self.hyp(["great", "fun"], -2.0),
            self.hyp(["great", "dull"], -1.0),
            self.hyp(["ride", "slog", "boring"], -3.0),
        ]
        sims = rerank_similarities(candidates, self.cluster, self.tfidf, self.stopwords, self.vocab)
        idf = math.log(2)  # every content word appears in exactly 1 of 2 units
        input_vec = {w: idf for w in ("great", "fun", "ride", "dull", "boring", "slog")}
        for cand, sim in zip([["great", "fun"], ["great", "dull"], ["ride", "slog", "boring"]], sims):
            vec = {w: idf for w in cand}
            dot = sum(v * input_vec[w] for w, v in vec.items())
            expected = dot / (
                math.sqrt(sum(v * v for v in vec.values()))
                * math.sqrt(sum(v * v for v in input_vec.values()))
            )
            assert sim == pytest.approx(expected)

    def test_unk_penalty(self):
        clean = self.hyp(["great", "fun"], -10.0)
        unked = self.hyp(["great", "fun", "zzz"], -0.5)  # zzz -> UNK
        best = self.best([unked, clean])
        assert best is clean

    def test_tie_broken_by_logp(self):
        a = self.hyp(["great"], -3.0)
        b = self.hyp(["great", "great"], -1.0)  # same direction, higher logp
        best = self.best([a, b])
        assert best is b

    def test_empty_nbest(self):
        with pytest.raises(ValueError):
            self.best([])


class TestGenerateSummary:
    def test_no_seg_bos_or_entity_label_in_text(self):
        model, cluster, z, y = tiny_setup(seed=11)
        record = list(decode_split(
            model, [cluster], [np.ones(len(cluster.units))], K=2, width=3, max_len=5,
            tfidf=TfidfStats([cluster]), stopwords=default_stopwords(),
        ))[0]
        text = record["summary"]
        for forbidden in ("SEG", "BOS"):
            assert forbidden not in text.split()

    def test_entity_restored(self):
        cluster = make_cluster(
            ["the martian is smart", "a fun ride"],
            summary="the martian wins",
            cid="g0",
            entity="The Martian",
        )
        sub = substitute_entity(cluster)
        vocab = build_vocab([sub])
        model = new_model(vocab, None, 4, 3, 2)
        # constant logits: generic label then forced EOS
        model.b_out[vocab.entity] = 2.0
        model.b_out[vocab.eos] = 1.0
        text = list(decode_split(
            model, [sub], [np.ones(2)], K=2, width=2, max_len=3,
            tfidf=TfidfStats([sub]), stopwords=default_stopwords(),
        ))[0]["summary"]
        assert "ENTITY" not in text
        assert "the martian" in text

    @pytest.mark.parametrize("n_scores", [2, 4], ids=["short", "long"])
    def test_score_count_mismatch_rejected_before_decoding(self, monkeypatch, n_scores):
        model, cluster, _, _ = tiny_setup(seed=12)
        clusters = [replace(cluster, id=f"c{k}") for k in range(3)]
        monkeypatch.setattr(beamdecode, "encode", lambda *args: pytest.fail("decoding started"))
        scores = [np.ones(len(cluster.units))] * n_scores
        records = decode_split(
            model, clusters, scores, 2, 3, 5, TfidfStats(clusters), default_stopwords()
        )
        with pytest.raises(ValueError, match=f"^3 clusters but {n_scores} score arrays$"):
            next(records)

    def test_record_shape(self):
        model, cluster, z, y = tiny_setup(seed=12)
        record = list(decode_split(
            model, [cluster], [np.ones(len(cluster.units))], 2, 3, 5,
            TfidfStats([cluster]), default_stopwords(),
        ))[0]
        assert record["id"] == cluster.id
        assert isinstance(record["summary"], str)
        assert record["nbest"]
        for item in record["nbest"]:
            assert set(item) == {"text", "logp", "cosine"}
        # n-best is logp-sorted; the chosen summary maximizes cosine
        logps = [i["logp"] for i in record["nbest"]]
        assert logps == sorted(logps, reverse=True)
        best_cos = max(i["cosine"] for i in record["nbest"])
        chosen = [i for i in record["nbest"] if i["cosine"] == best_cos]
        assert record["summary"] in {i["text"] for i in chosen}

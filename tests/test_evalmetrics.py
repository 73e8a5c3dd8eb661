import math
from collections import Counter

import numpy as np
import pytest

from opinesum.evalmetrics import (
    bleu,
    mean_ndcg_at,
    mrr,
    ndcg_at,
    ngram_counts,
    rouge_su4,
    rouge_su4_corpus,
    skip_bigram_units,
)


def bleu_oracle(hypotheses, references, max_n=4):
    """Definitional corpus BLEU via brute-force counting tables."""
    c = sum(len(h) for h in hypotheses)
    r = sum(len(g) for g in references)
    if c == 0:
        return 0.0
    precisions = []
    for n in range(1, max_n + 1):
        matched = total = 0
        for hyp, ref in zip(hypotheses, references):
            hyp_grams = [tuple(hyp[i : i + n]) for i in range(len(hyp) - n + 1)]
            ref_grams = Counter(tuple(ref[i : i + n]) for i in range(len(ref) - n + 1))
            used = Counter()
            for g in hyp_grams:
                total += 1
                if used[g] < ref_grams[g]:
                    used[g] += 1
                    matched += 1
        if n == 1:
            if matched == 0:
                return 0.0
            precisions.append(matched / total)
        else:
            precisions.append((matched + 1) / (total + 1))
    bp = 1.0 if c >= r else math.exp(1 - r / c)
    return bp * math.exp(sum(math.log(p) for p in precisions) / max_n)


class TestBleu:
    def test_perfect_match(self):
        corpus = [["smart", "and", "funny"], ["a", "thrill"]]
        assert bleu(corpus, [list(h) for h in corpus]) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_is_zero(self):
        assert bleu([["aa", "bb"]], [["cc", "dd"]]) == 0.0

    def test_hand_counted_example(self):
        hyp = "the cat sat on the mat".split()
        ref = "the cat sat on a mat".split()
        # clipped counts by hand: p1=5/6, p2=(3+1)/(5+1), p3=(2+1)/(4+1), p4=(1+1)/(3+1)
        expected = (5 / 6 * 4 / 6 * 3 / 5 * 2 / 4) ** 0.25
        got = bleu([hyp], [ref])
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(bleu_oracle([hyp], [ref]), abs=1e-12)

    def test_matches_oracle_on_random_corpora(self):
        rng = np.random.default_rng(0)
        vocab = list("abcdefg")
        for _ in range(50):
            hyps = [list(rng.choice(vocab, size=rng.integers(1, 10))) for _ in range(4)]
            refs = [list(rng.choice(vocab, size=rng.integers(1, 10))) for _ in range(4)]
            assert bleu(hyps, refs) == pytest.approx(bleu_oracle(hyps, refs), abs=1e-12)

    def test_brevity_penalty(self):
        hyp = [["the", "cat"]]
        ref = [["the", "cat", "sat", "on"]]
        got = bleu(hyp, ref)
        assert got == pytest.approx(bleu_oracle(hyp[0:1], ref[0:1]), abs=1e-12)
        # doubled-length references halve c/r: penalty must appear
        no_bp = bleu([["the", "cat"]], [["the", "cat"]])
        assert got < no_bp

    def test_corpus_order_invariance(self):
        hyps = [["a", "b"], ["c"], ["a", "c", "b"]]
        refs = [["a", "b"], ["c", "d"], ["b", "c"]]
        assert bleu(hyps, refs) == pytest.approx(bleu(hyps[::-1], refs[::-1]), abs=1e-15)

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            bleu([["a"]], [["a"], ["b"]])

    def test_empty_hypotheses_zero(self):
        assert bleu([[]], [["a"]]) == 0.0

    def test_bounded(self):
        rng = np.random.default_rng(1)
        vocab = list("abc")
        for _ in range(50):
            hyps = [list(rng.choice(vocab, size=rng.integers(0, 6))) for _ in range(3)]
            refs = [list(rng.choice(vocab, size=rng.integers(1, 6))) for _ in range(3)]
            assert 0.0 <= bleu(hyps, refs) <= 1.0


class TestRougeSu4:
    def test_identical(self):
        tokens = "smart thrilling and funny".split()
        assert rouge_su4(tokens, list(tokens)) == pytest.approx(1.0)

    def test_disjoint(self):
        assert rouge_su4(["aa"], ["bb", "cc"]) == 0.0

    def test_hand_enumeration(self):
        # ref "a b c d": units = 4 unigrams + 6 skip-bigrams (all gaps <= 2)
        # hyp "a b d": unigrams a,b,d; bigrams (a,b),(a,d),(b,d)
        # matches: 3 unigrams + 3 bigrams = 6 of 10
        assert rouge_su4("a b d".split(), "a b c d".split()) == pytest.approx(0.6)

    def test_gap_limit(self):
        ref = "a x x x x b".split()  # gap(a,b) = 4 -> included
        assert (("a", "b") in skip_bigram_units(ref))
        ref = "a x x x x x b".split()  # gap 5 -> excluded
        assert (("a", "b") not in skip_bigram_units(ref))

    def test_multiset_clipping(self):
        # hyp has "a" once; ref twice -> only one unigram match
        got = rouge_su4(["a"], ["a", "a"])
        # ref units: (a) x2, (a,a) x1 -> 3 units, matched 1
        assert got == pytest.approx(1 / 3)

    def test_corpus_average(self):
        pairs = [(["a"], ["a"]), (["b"], ["c"])]
        hyps, refs = zip(*pairs)
        assert rouge_su4_corpus(list(hyps), list(refs)) == pytest.approx(0.5)

    def test_bounded(self):
        rng = np.random.default_rng(2)
        vocab = list("abcd")
        for _ in range(50):
            hyp = list(rng.choice(vocab, size=rng.integers(0, 8)))
            ref = list(rng.choice(vocab, size=rng.integers(1, 8)))
            assert 0.0 <= rouge_su4(hyp, ref) <= 1.0


class TestMrr:
    def test_first_always_relevant(self):
        assert mrr([[1, 0], [1, 1, 0]]) == 1.0

    def test_second_position(self):
        assert mrr([[0, 1, 0]]) == 0.5

    def test_hand_average(self):
        # ranks of first relevant: 1, 3, none
        assert mrr([[1, 0], [0, 0, 1], [0, 0]]) == pytest.approx((1 + 1 / 3 + 0) / 3)

    def test_empty_queries_rejected(self):
        with pytest.raises(ValueError):
            mrr([])


class TestNdcg:
    def test_all_relevant(self):
        assert ndcg_at(3, [1, 1, 1]) == pytest.approx(1.0)

    def test_worked_example(self):
        assert ndcg_at(2, [0, 1]) == pytest.approx(1 / math.log2(3), abs=1e-12)
        assert ndcg_at(2, [0, 1]) == pytest.approx(0.6309297535714574, abs=1e-12)

    def test_no_relevant_zero(self):
        assert ndcg_at(5, [0, 0, 0]) == 0.0

    def test_below_k_permutation_invariance(self):
        gains = [1, 0, 1, 0, 1, 0]
        base = ndcg_at(3, gains)
        assert ndcg_at(3, gains[:3] + gains[3:][::-1]) == pytest.approx(base)

    def test_brute_force_recomputation(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(1, 12))
            gains = list((rng.random(n) < 0.4).astype(float))
            k = int(rng.integers(1, 8))
            dcg = sum(g / math.log2(i + 2) for i, g in enumerate(gains[:k]))
            ideal = sum(
                g / math.log2(i + 2)
                for i, g in enumerate(sorted(gains, reverse=True)[:k])
            )
            expected = dcg / ideal if ideal > 0 else 0.0
            assert ndcg_at(k, gains) == pytest.approx(expected, abs=1e-12)
            assert 0.0 <= ndcg_at(k, gains) <= 1.0

    def test_mrr_brute_force(self):
        rng = np.random.default_rng(4)
        lists = [list((rng.random(rng.integers(1, 9)) < 0.5).astype(int)) for _ in range(100)]
        total = 0.0
        for rels in lists:
            rr = 0.0
            for rank, rel in enumerate(rels, start=1):
                if rel:
                    rr = 1.0 / rank
                    break
            total += rr
        assert mrr(lists) == pytest.approx(total / len(lists), abs=1e-12)

    def test_mean_ndcg(self):
        lists = [[1, 0], [0, 1]]
        expected = (ndcg_at(2, lists[0]) + ndcg_at(2, lists[1])) / 2
        assert mean_ndcg_at(2, lists) == pytest.approx(expected)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            ndcg_at(0, [1])


class TestReports:
    def test_ngram_counts(self):
        counts = ngram_counts(["a", "b", "a", "b"], 2)
        assert counts[("a", "b")] == 2
        assert counts[("b", "a")] == 1

import itertools

import numpy as np
import pytest

from opinesum.numkit import SeededRng
from opinesum.sampler import (
    build_input,
    sample_training_input,
    select_test_input,
    uniform_training_input,
)
from opinesum.textcorpus import Cluster, TfidfStats, build_vocab, text_unit


def make_cluster(texts, summary="great stuff", cid="c0"):
    return Cluster(
        id=cid, units=tuple(text_unit(t) for t in texts), summary=text_unit(summary)
    )


@pytest.fixture
def cluster4():
    return make_cluster(["aa bb", "cc dd", "ee ff", "gg hh"])


@pytest.fixture
def vocab4(cluster4):
    return build_vocab([cluster4])


@pytest.fixture
def tfidf4(cluster4):
    return TfidfStats([cluster4])


def inclusion_enumeration(weights, k):
    """Exact unit-inclusion probabilities of the sequential
    without-replacement draw, by enumerating ordered draw sequences."""
    weights = np.asarray(weights, dtype=float)
    n = len(weights)
    include = np.zeros(n)
    for seq in itertools.permutations(range(n), k):
        prob = 1.0
        remaining = weights.copy()
        for idx in seq:
            prob *= remaining[idx] / remaining.sum()
            remaining[idx] = 0.0
        for idx in seq:
            include[idx] += prob
    return include


class TestTrainingSampling:
    def test_single_unit_no_seg(self, vocab4):
        cluster = make_cluster(["aa bb"])
        z = sample_training_input(cluster, [1.0], 3, SeededRng(0), vocab4, TfidfStats([cluster]))
        assert np.count_nonzero(z.indices == vocab4.seg) == 0
        assert z.source_units == (0,)

    def test_k_covers_all_descending(self, cluster4, vocab4, tfidf4):
        z = sample_training_input(cluster4, [0.1, 0.9, 0.5, 0.2], 99, SeededRng(1), vocab4, tfidf4)
        assert z.source_units == (1, 2, 3, 0)
        assert np.count_nonzero(z.indices == vocab4.seg) == 3

    def test_seg_pattern(self, cluster4, vocab4, tfidf4):
        for seed in range(30):
            z = sample_training_input(cluster4, [4, 2, 1, 1], 2, SeededRng(seed), vocab4, tfidf4)
            assert np.count_nonzero(z.indices == vocab4.seg) == len(z.source_units) - 1
            assert z.indices[0] != vocab4.seg and z.indices[-1] != vocab4.seg
            # no adjacent SEGs
            segs = np.nonzero(z.indices == vocab4.seg)[0]
            assert np.all(np.diff(segs) > 1) if len(segs) > 1 else True

    def test_inclusion_matches_enumeration(self, cluster4, vocab4, tfidf4):
        scores = [4.0, 2.0, 1.0, 1.0]
        n = 20000
        counts = np.zeros(4)
        for seed in range(n):
            z = sample_training_input(cluster4, scores, 2, SeededRng(seed), vocab4, tfidf4)
            for k in z.source_units:
                counts[k] += 1
        expected = inclusion_enumeration(scores, 2)
        assert np.abs(counts / n - expected).max() <= 0.02

    def test_nonpositive_scores_clamped(self, cluster4, vocab4, tfidf4):
        # all-nonpositive scores clamp to the same floor -> uniform support
        seen = set()
        for seed in range(200):
            z = sample_training_input(cluster4, [-1.0, 0.0, -0.5, 0.0], 1, SeededRng(seed), vocab4, tfidf4)
            seen.update(z.source_units)
        assert seen == {0, 1, 2, 3}

    def test_order_descending_by_score(self, cluster4, vocab4, tfidf4):
        scores = [0.3, 0.9, 0.1, 0.5]
        for seed in range(50):
            z = sample_training_input(cluster4, scores, 3, SeededRng(seed), vocab4, tfidf4)
            drawn_scores = [scores[k] for k in z.source_units]
            assert drawn_scores == sorted(drawn_scores, reverse=True)

    def test_scores_misaligned(self, cluster4, vocab4, tfidf4):
        with pytest.raises(ValueError):
            sample_training_input(cluster4, [1.0], 1, SeededRng(0), vocab4, tfidf4)


class TestUniformSampling:
    def test_two_units_half(self):
        cluster = make_cluster(["aa", "bb"])
        vocab = build_vocab([cluster])
        tfidf = TfidfStats([cluster])
        hits = 0
        n = 10000
        for seed in range(n):
            z = uniform_training_input(cluster, 1, SeededRng(seed), vocab, tfidf)
            hits += z.source_units == (0,)
        assert abs(hits / n - 0.5) <= 0.02

    def test_k_exhausts(self, cluster4, vocab4, tfidf4):
        z = uniform_training_input(cluster4, 10, SeededRng(0), vocab4, tfidf4)
        assert sorted(z.source_units) == [0, 1, 2, 3]

    def test_single_unit(self):
        cluster = make_cluster(["aa bb"])
        vocab = build_vocab([cluster])
        z = uniform_training_input(cluster, 1, SeededRng(0), vocab, TfidfStats([cluster]))
        assert z.source_units == (0,)

    def test_matches_importance_with_equal_scores(self, cluster4, vocab4, tfidf4):
        # seed-matched: identical draw sequences for identical weights
        for seed in range(100):
            a = uniform_training_input(cluster4, 2, SeededRng(seed), vocab4, tfidf4)
            b = sample_training_input(cluster4, np.ones(4), 2, SeededRng(seed), vocab4, tfidf4)
            assert a.source_units == b.source_units


class TestSelectTestInput:
    def test_top_k(self, cluster4, vocab4):
        abc = make_cluster(["a", "b", "c"])
        z = select_test_input(abc, [0.1, 0.9, 0.5], 2, vocab4, TfidfStats([abc]))
        assert z.source_units == (1, 2)

    def test_tie_stability(self, cluster4, vocab4, tfidf4):
        z = select_test_input(cluster4, [0.5, 0.5, 0.5, 0.5], 2, vocab4, tfidf4)
        assert z.source_units == (0, 1)

    def test_matches_sort_oracle_many_units(self):
        rng = np.random.default_rng(7)
        texts = [f"w{i} w{(i + 1) % 66}" for i in range(66)]
        cluster = make_cluster(texts)
        vocab = build_vocab([cluster])
        scores = rng.normal(size=66)
        z = select_test_input(cluster, scores, 5, vocab, TfidfStats([cluster]))
        oracle = sorted(range(66), key=lambda i: (-scores[i], i))[:5]
        assert list(z.source_units) == oracle

    def test_pure_function(self, cluster4, vocab4, tfidf4):
        a = select_test_input(cluster4, [1, 3, 2, 0], 2, vocab4, tfidf4)
        b = select_test_input(cluster4, [1, 3, 2, 0], 2, vocab4, tfidf4)
        assert a.source_units == b.source_units
        np.testing.assert_array_equal(a.indices, b.indices)


class TestBuildInput:
    def test_token_indices_and_boundaries(self, cluster4, vocab4, tfidf4):
        z = build_input(cluster4, [2, 0], vocab4, tfidf4)
        norms = [vocab4.word_of(i) for i in z.indices]
        assert norms == ["ee", "ff", "SEG", "aa", "bb"]
        assert z.tokens[2] is None

    def test_tfidf_values(self, cluster4, vocab4, tfidf4):
        z = build_input(cluster4, [0], vocab4, tfidf4)
        expected = tfidf4.unit_weights(cluster4.units[0])
        assert z.tfidf[0] == pytest.approx(expected["aa"])

    def test_oov_maps_to_unk(self, cluster4, tfidf4):
        small_vocab = build_vocab([make_cluster(["aa"])])
        z = build_input(cluster4, [1], small_vocab, tfidf4)
        assert all(i == small_vocab.unk for i in z.indices)

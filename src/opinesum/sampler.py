"""Encoder-input construction: pick text units from a cluster and collapse
them into one token sequence with SEG delimiters.

Training uses multinomial importance sampling (or uniform sampling as an
ablation); testing uses deterministic top-K. Selected units are always
ordered by descending score.
"""

from dataclasses import dataclass

import numpy as np

from .numkit import multinomial_draw

SCORE_FLOOR = 1e-6  # linear scores can be non-positive; multinomials cannot


@dataclass(frozen=True)
class ConcatenatedInput:
    """Token-level encoder input: unit (SEG unit)* with no trailing SEG."""

    indices: np.ndarray      # vocab ids, SEG between units
    tokens: tuple            # Token per position, None at SEG positions
    tfidf: np.ndarray        # per-position token tf-idf (0 at SEG)
    source_units: tuple      # original unit indices in concatenation order

    def __len__(self):
        return int(self.indices.shape[0])


def _order_by_score(chosen, scores):
    # descending score, ties by original unit index
    return sorted(chosen, key=lambda k: (-scores[k], k))


def _checked_scores(cluster, scores, K):
    """`scores` as a float array, which must hold one score per unit, and
    the number of units to pick, min(K, M) with K >= 1."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape[0] != len(cluster.units):
        raise ValueError("scores are not aligned with cluster units")
    if K < 1:
        raise ValueError("K must be >= 1")
    return scores, min(int(K), len(cluster.units))


def build_input(cluster, unit_order, vocab, tfidf):
    """Concatenate the given units (already ordered) with SEG between them."""
    indices = []
    tokens = []
    weights = []
    for pos, k in enumerate(unit_order):
        unit = cluster.units[k]
        if pos > 0:
            indices.append(vocab.seg)
            tokens.append(None)
            weights.append(0.0)
        unit_w = tfidf.unit_weights(unit)
        for t in unit.tokens:
            indices.append(vocab.index_of(t.norm))
            tokens.append(t)
            weights.append(unit_w.get(t.norm, 0.0))
    return ConcatenatedInput(
        indices=np.array(indices, dtype=np.int64),
        tokens=tuple(tokens),
        tfidf=np.array(weights, dtype=np.float64),
        source_units=tuple(unit_order),
    )


def sample_training_input(cluster, scores, K, rng, vocab, tfidf):
    """Draw min(K, M) units from the normalized importance distribution.

    Scores are clamped at 1e-6 from below so every unit keeps support.
    The draws are sequential, without replacement, with renormalization;
    the drawn units are ordered by descending score.
    """
    scores, k = _checked_scores(cluster, scores, K)
    chosen = multinomial_draw(np.maximum(scores, SCORE_FLOOR), k, rng)
    return build_input(cluster, _order_by_score(chosen, scores), vocab, tfidf)


def uniform_training_input(cluster, K, rng, vocab, tfidf):
    """Ablation sampler: equal weight on every unit."""
    ones = np.ones(len(cluster.units))
    return sample_training_input(cluster, ones, K, rng, vocab, tfidf)


def select_test_input(cluster, scores, K, vocab, tfidf):
    """Deterministic top-min(K, M) units by score, descending, stable ties."""
    scores, k = _checked_scores(cluster, scores, K)
    return build_input(cluster, _order_by_score(range(len(scores)), scores)[:k], vocab, tfidf)


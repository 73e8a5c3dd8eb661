"""Text-unit importance estimation.

Feature extraction over text units, overlap-based gold labels, the
preference-regularized ridge regression with its closed-form solve,
scoring, baseline rankers, and grid search over the two hyperparameters.
"""

import hashlib
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import numkit
from .evalmetrics import mrr
from .textcorpus import TfidfStats, content_norms, cosine_weight_maps, read_artifact, write_block

SENTIMENT_CATEGORIES = ("positive", "negative", "neutral")

DENSE_NAMES = (
    "num_words",
    "num_pos_tags",
    "num_ner_tokens",
    "centroidness",
    "avg_tfidf",
    "max_tfidf",
)


@dataclass(frozen=True)
class LexiconSet:
    """Lexicon inputs for feature extraction.

    general: norm -> categories (General Inquirer / MPQA style);
    sentiment: norm -> positive|negative|neutral; stopwords define content words.
    """

    general: dict = field(default_factory=dict)
    sentiment: dict = field(default_factory=dict)
    stopwords: frozenset = frozenset()


@dataclass(frozen=True)
class FeatureRegistry:
    """Shared feature-name registry: dense block, lexicon categories,
    sentiment counts, then the top-U training content unigrams."""

    lexicon_categories: tuple
    top_unigrams: tuple

    @cached_property
    def names(self):
        return (
            DENSE_NAMES
            + tuple(f"lex:{c}" for c in self.lexicon_categories)
            + tuple(f"sent:{c}" for c in SENTIMENT_CATEGORIES)
            + tuple(f"unigram:{w}" for w in self.top_unigrams)
        )

    @property
    def d(self):
        return len(self.names)

    @cached_property
    def columns(self):
        """Feature column of each lexicon category, sentiment polarity and
        top unigram, as three dicts."""
        off = len(DENSE_NAMES)
        cats = {c: off + i for i, c in enumerate(self.lexicon_categories)}
        off += len(self.lexicon_categories)
        sents = {c: off + i for i, c in enumerate(SENTIMENT_CATEGORIES)}
        off += len(SENTIMENT_CATEGORIES)
        unis = {w: off + i for i, w in enumerate(self.top_unigrams)}
        return cats, sents, unis

    def digest(self):
        text = "\x1f".join(self.names)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def build_registry(train_clusters, lexicons, top_u=500):
    """Registry from the training corpus: lexicon categories plus the
    top-U most frequent content unigrams (ties broken lexicographically)."""
    cats = sorted({c for cs in lexicons.general.values() for c in cs})
    counts = Counter()
    for cluster in train_clusters:
        for unit in cluster.units:
            counts.update(content_norms(unit, lexicons.stopwords))
    top = sorted(counts, key=lambda w: (-counts[w], w))[:top_u]
    return FeatureRegistry(lexicon_categories=tuple(cats), top_unigrams=tuple(top))


def centroidness(weight_maps):
    """Cosine of each unit's TF-IDF map with its cluster's mean map.

    The mean and its norm are computed once per cluster; the mean is
    accumulated in unit order."""
    mean = Counter()
    for weights in weight_maps:
        for term, w in weights.items():
            mean[term] += w / len(weight_maps)
    mean_norm = math.sqrt(sum(w * w for w in mean.values()))
    return [cosine_weight_maps(weights, mean, mean_norm) for weights in weight_maps]


def extract_features(unit, weights, centrality, registry, lexicons):
    """Table-style feature vector for one unit, given its TF-IDF map and
    its centroidness within its cluster."""
    vec = np.zeros(registry.d)
    vec[0] = len(unit.tokens)
    vec[1] = len({t.pos for t in unit.tokens if t.pos})
    vec[2] = sum(1 for t in unit.tokens if t.ner)
    vec[3] = centrality
    if weights:
        vals = list(weights.values())
        vec[4] = sum(vals) / len(vals)
        vec[5] = max(vals)
    cat_col, sent_col, uni_col = registry.columns
    for t in unit.tokens:
        for c in lexicons.general.get(t.norm, ()):
            if c in cat_col:
                vec[cat_col[c]] += 1
    for t in unit.tokens:
        pol = lexicons.sentiment.get(t.norm)
        if pol in sent_col:
            vec[sent_col[pol]] += 1
    for norm in content_norms(unit, lexicons.stopwords):
        j = uni_col.get(norm)
        if j is not None:
            vec[j] += 1
    return vec


def cluster_features(cluster, registry, lexicons, tfidf):
    """M x d matrix of features for all units of one cluster."""
    weight_maps = [tfidf.unit_weights(u) for u in cluster.units]
    return np.stack(
        [
            extract_features(u, weights, centrality, registry, lexicons)
            for u, weights, centrality in zip(
                cluster.units, weight_maps, centroidness(weight_maps)
            )
        ]
    )


def gold_scores(cluster, stopwords):
    """Overlap-based gold importance in [0, 1]^M.

    raw_k = |content-word types shared by unit k and the summary|,
    normalized by the cluster maximum; an all-zero cluster stays zero.
    """
    summary_words = set(content_norms(cluster.summary, stopwords))
    raw = np.array(
        [len(set(content_norms(u, stopwords)) & summary_words) for u in cluster.units],
        dtype=np.float64,
    )
    top = raw.max() if raw.size else 0.0
    return raw / top if top > 0 else raw


@dataclass
class PreferenceDesign:
    """Regression design R w ~ L with within-cluster preference pairs.

    `cluster_rows[c]` is the slice of R and L holding cluster c. The
    preference rows R' w ~ 1 are every r_p - r_q with l_p > 0 and l_q = 0
    in one cluster; the fit needs only their sums (`normal_equations`).
    """

    R: np.ndarray
    L: np.ndarray
    cluster_rows: tuple

    def _pair_groups(self):
        """(positive rows, zero-label rows) of each cluster."""
        for rows in self.cluster_rows:
            feats, labs = self.R[rows], self.L[rows]
            yield feats[labs > 0], feats[labs == 0]

    @cached_property
    def normal_equations(self):
        """(R^T R, R^T L, R'^T R', R'^T 1) from per-cluster sums.

        For a cluster with positive rows P and zero-label rows Z,
        sum_{p,q} (r_p - r_q)(r_p - r_q)^T = |Z| P^T P + |P| Z^T Z
        - s_P s_Z^T - s_Z s_P^T and sum_{p,q} (r_p - r_q) = |Z| s_P - |P| s_Z,
        where s_P, s_Z are the row sums: O(M d^2) time and O(d^2) memory
        per cluster instead of O(|P| |Z| d^2) through R'.
        """
        d = self.R.shape[1]
        pair_gram = np.zeros((d, d))
        pair_sum = np.zeros(d)
        for pos, zero in self._pair_groups():
            n_pos, n_zero = pos.shape[0], zero.shape[0]
            if n_pos == 0 or n_zero == 0:
                continue
            s_pos, s_zero = pos.sum(axis=0), zero.sum(axis=0)
            cross = np.outer(s_pos, s_zero)
            pair_gram += n_zero * (pos.T @ pos) + n_pos * (zero.T @ zero) - cross - cross.T
            pair_sum += n_zero * s_pos - n_pos * s_zero
        return self.R.T @ self.R, self.R.T @ self.L, pair_gram, pair_sum

    @cached_property
    def Rprime(self):
        """The explicit preference rows, cluster by cluster, p-major."""
        d = self.R.shape[1]
        blocks = [
            (pos[:, None, :] - zero[None, :, :]).reshape(-1, d)
            for pos, zero in self._pair_groups()
        ]
        return np.concatenate(blocks) if blocks else np.zeros((0, d))


def build_design(features_per_cluster, labels_per_cluster):
    """Stack per-cluster feature matrices and labels into one design."""
    if len(features_per_cluster) != len(labels_per_cluster):
        raise ValueError("features and labels are misaligned")
    blocks = []
    labels = []
    cluster_rows = []
    start = 0
    for feats, labs in zip(features_per_cluster, labels_per_cluster):
        feats = np.atleast_2d(np.asarray(feats, dtype=np.float64))
        labs = np.asarray(labs, dtype=np.float64)
        if feats.shape[0] != labs.shape[0]:
            raise ValueError("cluster features and labels are misaligned")
        blocks.append(feats)
        labels.append(labs)
        cluster_rows.append(slice(start, start + feats.shape[0]))
        start += feats.shape[0]
    return PreferenceDesign(
        R=np.vstack(blocks), L=np.concatenate(labels), cluster_rows=tuple(cluster_rows)
    )


@dataclass
class SalienceModel:
    w: np.ndarray
    lam: float
    beta: float
    registry: FeatureRegistry | None = None


def fit_closed_form(design, lam, beta, registry=None):
    """Minimize J(w) = ||Rw - L||^2 + lam ||R'w - 1||^2 + beta ||w||^2 exactly.

    Solves (R^T R + lam R'^T R' + beta I) w = R^T L + lam R'^T 1 through
    the SPD solver; beta > 0 makes the system positive-definite. The
    normal-equation terms are computed on the design's first fit and
    reused by every later one.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    if lam < 0:
        raise ValueError("lambda must be non-negative")
    gram, moment, pair_gram, pair_sum = design.normal_equations
    A = gram + lam * pair_gram + beta * np.eye(gram.shape[0])
    rhs = moment + lam * pair_sum
    w = numkit.solve_spd(A, rhs)
    return SalienceModel(w=w, lam=float(lam), beta=float(beta), registry=registry)


def score_units(model, features):
    """f(x^k) = r_k . w for each row of a feature matrix."""
    feats = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if feats.shape[1] != model.w.shape[0]:
        raise ValueError(
            f"feature dimension {feats.shape[1]} does not match model dimension {model.w.shape[0]}"
        )
    return feats @ model.w


def rank_descending(values):
    """Indices sorted by descending value; ties keep original order."""
    vals = np.asarray(values, dtype=np.float64)
    return list(np.argsort(-vals, kind="stable"))


def baseline_rank(kind, cluster, tfidf=None):
    """Rank unit indices by a baseline: 'length' or 'centroid'."""
    if kind == "length":
        return rank_descending([len(u.tokens) for u in cluster.units])
    if kind == "centroid":
        stats = tfidf if tfidf is not None else TfidfStats([cluster])
        return rank_descending(centroidness([stats.unit_weights(u) for u in cluster.units]))
    raise ValueError(f"unknown baseline kind: {kind!r}")


def save_model(model, path):
    """Text format: header (d, lambda, beta, registry hash), then weights."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("salience-model v1\n")
        fh.write(f"d {model.w.shape[0]}\n")
        fh.write(f"lambda {format(model.lam, '.17g')}\n")
        fh.write(f"beta {format(model.beta, '.17g')}\n")
        fh.write(f"registry {model.registry.digest() if model.registry else 'none'}\n")
        for v in model.w:
            fh.write(format(v, ".17g") + "\n")


def load_model(path, registry=None):
    """Read a file written by save_model; verifies the registry hash when
    one is supplied. Raises ValueError naming the path unless the file has
    the four header lines and exactly d finite weights, nothing after them."""
    with read_artifact(path, "salience-model v1") as reader:
        d = reader.count("d")
        lam, beta = reader.value("lambda"), reader.value("beta")
        digest = reader.value("registry")
        weights = reader.lines(d, "weights")
    try:
        lam, beta = float(lam), float(beta)
        w = np.array([float(x) for x in weights])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not np.all(np.isfinite(w)):
        raise ValueError(f"{path}: non-finite weight")
    if registry is not None and digest not in ("none", registry.digest()):
        raise ValueError(f"{path}: registry hash mismatch")
    return SalienceModel(w=w, lam=lam, beta=beta, registry=registry)


def save_registry(registry, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("salience-registry v1\n")
        write_block(fh, "lexicon_categories", registry.lexicon_categories)
        write_block(fh, "top_unigrams", registry.top_unigrams)


def load_registry(path):
    """Read a file written by save_registry. Raises ValueError naming the
    path unless each block holds exactly its declared count of lines and
    nothing follows the last block."""
    with read_artifact(path, "salience-registry v1") as reader:
        categories = reader.block("lexicon_categories")
        unigrams = reader.block("top_unigrams")
    return FeatureRegistry(lexicon_categories=tuple(categories), top_unigrams=tuple(unigrams))


def relevance_for_ranking(cluster, order, stopwords):
    """Binary gains in ranked order: a unit is relevant if its gold score
    is positive, that is if it shares a content word with the summary."""
    return (gold_scores(cluster, stopwords) > 0)[order].astype(int).tolist()


def fit_with_grid_search(
    train_features,
    train_labels,
    dev_clusters,
    dev_features,
    lexicons,
    registry,
    lam_grid=(0.0, 0.01, 0.1, 0.5, 1.0, 10.0),
    beta_grid=(0.01, 0.1, 1.0, 10.0),
):
    """Fit on the training design for every (lambda, beta) pair and keep the
    model with the best dev MRR. Returns (model, grid rows for the CSV)."""
    design = build_design(train_features, train_labels)
    relevant = [gold_scores(c, lexicons.stopwords) > 0 for c in dev_clusters]
    best = None
    rows = []
    for lam in lam_grid:
        for beta in beta_grid:
            model = fit_closed_form(design, lam, beta, registry=registry)
            dev_mrr = mrr(
                [
                    rel[rank_descending(score_units(model, feats))]
                    for rel, feats in zip(relevant, dev_features)
                ]
            )
            rows.append((lam, beta, dev_mrr))
            if best is None or dev_mrr > best[0]:
                best = (dev_mrr, model)
    return best[1], rows

"""Text-unit importance estimation.

Feature extraction over text units, overlap-based gold labels, the
preference-regularized ridge regression with its closed-form solve,
scoring, baseline rankers, and grid search over the two hyperparameters.
"""

import hashlib
import io
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import numkit
from .evalmetrics import mrr
from .textcorpus import (
    SENTIMENT_CATEGORIES,
    atomic_write,
    content_norms,
    cosine_weight_maps,
    grouped,
    read_artifact,
    write_block,
)

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
    sentiment: norm -> one of SENTIMENT_CATEGORIES; stopwords define content words.
    """

    general: dict = field(default_factory=dict)
    sentiment: dict = field(default_factory=dict)
    stopwords: frozenset = frozenset()

    def __post_init__(self):
        for word, pol in self.sentiment.items():
            if pol not in SENTIMENT_CATEGORIES:
                raise ValueError(f"sentiment word {word!r} has unknown polarity {pol!r}")

    @cached_property
    def categories(self):
        """Every category of the general lexicon, sorted."""
        return tuple(sorted({c for cs in self.general.values() for c in cs}))


@dataclass(frozen=True)
class FeatureRegistry:
    """Shared feature-name registry: dense block, lexicon categories,
    sentiment counts, then the top-U training content unigrams. It carries
    the lexicons it was built with, so every stage that reads the fitted
    weights featurizes with them."""

    lexicons: LexiconSet
    top_unigrams: tuple

    @cached_property
    def names(self):
        return (
            DENSE_NAMES
            + tuple(f"lex:{c}" for c in self.lexicons.categories)
            + tuple(f"sent:{c}" for c in SENTIMENT_CATEGORIES)
            + tuple(f"unigram:{w}" for w in self.top_unigrams)
        )

    @property
    def d(self):
        return len(self.names)

    @cached_property
    def norm_columns(self):
        """{norm: columns}: the lexicon-category, sentiment and top-unigram
        feature columns that one token with this norm counts in, in that
        order. A norm that counts in no column has no entry."""
        column = {name: j for j, name in enumerate(self.names)}
        lexicons = self.lexicons
        table = {norm: [column[f"lex:{c}"] for c in cs] for norm, cs in lexicons.general.items()}
        for norm, pol in lexicons.sentiment.items():
            table.setdefault(norm, []).append(column[f"sent:{pol}"])
        for norm in self.top_unigrams:
            table.setdefault(norm, []).append(column[f"unigram:{norm}"])
        return table

    @cached_property
    def text(self):
        """The registry file as save_registry writes it: blocks of the
        sorted stopwords, of the lexicons' sorted 'word<TAB>category' and
        'word<TAB>polarity' lines, then of the top unigrams."""
        lexicons = self.lexicons
        general = sorted((w, c) for w, cs in lexicons.general.items() for c in cs)
        sentiment = sorted(lexicons.sentiment.items())
        buf = io.StringIO()
        buf.write("salience-registry v2\n")
        write_block(buf, "stopwords", sorted(lexicons.stopwords))
        write_block(buf, "lexicon", [f"{w}\t{c}" for w, c in general])
        write_block(buf, "sentiment_lexicon", [f"{w}\t{p}" for w, p in sentiment])
        write_block(buf, "top_unigrams", self.top_unigrams)
        return buf.getvalue()

    def digest(self):
        """The start of the sha256 of `text`: it covers everything the
        registry carries."""
        return hashlib.sha256(self.text.encode("utf-8")).hexdigest()[:16]


def build_registry(train_clusters, lexicons, top_u):
    """Registry from the training corpus: lexicon categories plus the
    top-U most frequent content unigrams (ties broken lexicographically)."""
    counts = Counter()
    for cluster in train_clusters:
        for unit in cluster.units:
            counts.update(content_norms(unit, lexicons.stopwords))
    top = sorted(counts, key=lambda w: (-counts[w], w))[:top_u]
    return FeatureRegistry(lexicons=lexicons, top_unigrams=tuple(top))


def centroidness(weight_maps):
    """Cosine of each unit's TF-IDF map with its cluster's mean map.

    The mean and its norm are computed once per cluster; the mean is
    accumulated in unit order."""
    n = len(weight_maps)
    mean = {}
    for weights in weight_maps:
        for term, w in weights.items():
            mean[term] = mean.get(term, 0.0) + w / n
    mean_norm = math.sqrt(sum(w * w for w in mean.values()))
    return [cosine_weight_maps(weights, mean, mean_norm) for weights in weight_maps]


def cluster_features(cluster, registry, tfidf):
    """M x d matrix of table-style features for all units of one cluster.

    Per unit: token count, distinct pos tags, entity tokens, centroidness,
    mean and max TF-IDF weight, then the number of its tokens in each
    lexicon category, sentiment polarity and top unigram. One pass over
    the tokens collects the column of every count from the registry's
    `norm_columns`.
    """
    units = cluster.units
    weight_maps = [tfidf.unit_weights(u) for u in units]
    columns = registry.norm_columns
    dense = []
    counted = []  # the column of every counted token, unit by unit
    row_ends = []
    for unit, weights, centrality in zip(units, weight_maps, centroidness(weight_maps)):
        tags = set()
        n_ner = 0
        for _, norm, pos, ner in unit.tokens:
            if pos:
                tags.add(pos)
            if ner:
                n_ner += 1
            counted.extend(columns.get(norm, ()))
        row_ends.append(len(counted))
        vals = list(weights.values())
        avg, top = (sum(vals) / len(vals), max(vals)) if vals else (0.0, 0.0)
        dense.append((len(unit.tokens), len(tags), n_ner, centrality, avg, top))
    X = np.zeros((len(units), registry.d))
    X[:, : len(DENSE_NAMES)] = dense
    rows = np.repeat(np.arange(len(units)), np.diff(row_ends, prepend=0))
    np.add.at(X, (rows, np.array(counted, dtype=np.int64)), 1.0)
    return X


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

        Each cluster's term is built in two d x d scratch arrays the loop
        reuses, with the operations of the formula in its order; once
        |P| Z^T Z is added in, the second one holds each outer product in
        turn. The scratch is freed before R^T R.
        R^T R and R'^T R' come back Fortran-ordered, each converted once
        with its values unchanged: the layout `fit_closed_form` builds in.
        """
        d = self.R.shape[1]
        pair_gram = np.zeros((d, d))
        pair_sum = np.zeros(d)
        term, scratch = np.empty((d, d)), np.empty((d, d))
        for pos, zero in self._pair_groups():
            n_pos, n_zero = pos.shape[0], zero.shape[0]
            if n_pos == 0 or n_zero == 0:
                continue
            s_pos, s_zero = pos.sum(axis=0), zero.sum(axis=0)
            np.matmul(pos.T, pos, out=term)
            term *= n_zero
            np.matmul(zero.T, zero, out=scratch)
            scratch *= n_pos
            term += scratch
            term -= np.multiply.outer(s_pos, s_zero, out=scratch)
            term -= np.multiply.outer(s_zero, s_pos, out=scratch)
            pair_gram += term
            pair_sum += n_zero * s_pos - n_pos * s_zero
        del term, scratch
        pair_gram = np.asfortranarray(pair_gram)
        gram = np.asfortranarray(self.R.T @ self.R)
        return gram, self.R.T @ self.L, pair_gram, pair_sum

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
    registry: FeatureRegistry


def fit_closed_form(normal_equations, lam, beta, registry):
    """Minimize J(w) = ||Rw - L||^2 + lam ||R'w - 1||^2 + beta ||w||^2 exactly.

    Solves (R^T R + lam R'^T R' + beta I) w = R^T L + lam R'^T 1 through
    the SPD solver, from a design's `normal_equations` (the four terms
    in that order); beta > 0 makes the system positive-definite. A is
    built in one new Fortran-ordered array, which the solver factors in
    place.
    """
    # every comparison with NaN is false, so NaN fails these checks too
    if not 0 < beta < math.inf:
        raise ValueError("beta must be finite and positive")
    if not 0 <= lam < math.inf:
        raise ValueError("lambda must be finite and non-negative")
    gram, moment, pair_gram, pair_sum = normal_equations
    # gram + lam pair_gram + beta I, built in place: the same sums, in the
    # same order, as the formula
    A = np.multiply(lam, pair_gram, order="F")
    A += gram
    A.flat[:: A.shape[0] + 1] += beta
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


def baseline_rank(kind, cluster, tfidf):
    """Rank unit indices by a baseline: 'length' or 'centroid' (the
    cosine of each unit's `tfidf` map with the cluster's mean map)."""
    if kind == "length":
        return rank_descending([len(u.tokens) for u in cluster.units])
    if kind == "centroid":
        return rank_descending(centroidness([tfidf.unit_weights(u) for u in cluster.units]))
    raise ValueError(f"unknown baseline kind: {kind!r}")


def save_model(model, path):
    """Text format: header (d, lambda, beta, registry hash), then weights."""
    with atomic_write(path) as fh:
        fh.write("salience-model v1\n")
        fh.write(f"d {model.w.shape[0]}\n")
        fh.write(f"lambda {format(model.lam, '.17g')}\n")
        fh.write(f"beta {format(model.beta, '.17g')}\n")
        fh.write(f"registry {model.registry.digest()}\n")
        for v in model.w:
            fh.write(format(v, ".17g") + "\n")


def load_model(path, registry):
    """Read a file written by save_model for `registry`. Raises ValueError
    naming the path unless the file has the four header lines, its registry
    hash is `registry`'s, and exactly d finite weights follow, nothing
    after them, d being the number of features the registry names."""
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
    if digest != registry.digest():
        raise ValueError(f"{path}: registry hash mismatch")
    if d != registry.d:
        raise ValueError(f"{path}: {d} weights, but the registry names {registry.d} features")
    return SalienceModel(w=w, lam=lam, beta=beta, registry=registry)


def save_registry(registry, path):
    """Write the registry's `text`."""
    with atomic_write(path) as fh:
        fh.write(registry.text)


def sentiment_lexicon(polarities, source):
    """word -> polarity from word -> tuple of polarities. Raises ValueError
    naming `source` and the word unless each word has exactly one polarity,
    one of SENTIMENT_CATEGORIES."""
    for word, pols in polarities.items():
        if len(pols) != 1 or pols[0] not in SENTIMENT_CATEGORIES:
            raise ValueError(
                f"{source}: sentiment word {word!r} has {' and '.join(map(repr, pols))};"
                f" it needs exactly one of {', '.join(SENTIMENT_CATEGORIES)}"
            )
    return {word: pols[0] for word, pols in polarities.items()}


def load_registry(path):
    """Read a file written by save_registry. Raises ValueError naming the
    path unless each block holds exactly its declared count of lines, each
    lexicon line is 'word<TAB>value', each sentiment word has one known
    polarity, and nothing follows the last block."""
    with read_artifact(path, "salience-registry v2") as reader:
        stopwords = reader.block("stopwords")
        general = grouped(reader.word_pairs("lexicon"))
        sentiment = sentiment_lexicon(grouped(reader.word_pairs("sentiment_lexicon")), path)
        unigrams = reader.block("top_unigrams")
    lexicons = LexiconSet(general=general, sentiment=sentiment, stopwords=frozenset(stopwords))
    return FeatureRegistry(lexicons=lexicons, top_unigrams=tuple(unigrams))


def relevant_units(cluster, stopwords):
    """Boolean flag per unit: a unit is relevant if its gold score is
    positive, that is if it shares a content word with the summary."""
    return gold_scores(cluster, stopwords) > 0


def fit_with_grid_search(
    normal_equations, dev_relevant, dev_features, registry, lam_grid, beta_grid
):
    """Fit the training design's `normal_equations` (see build_design) for
    every (lambda, beta) pair and keep the model with the best dev MRR,
    where `dev_relevant` holds each dev cluster's `relevant_units` flags
    and `dev_features` its feature matrix, one flag per row. Returns
    (model, grid rows for the CSV). An empty grid, or dev flags that do
    not pair up with the dev clusters and their rows, is a ValueError."""
    if not len(lam_grid) or not len(beta_grid):
        raise ValueError("lam_grid and beta_grid must each hold at least one value")
    if len(dev_relevant) != len(dev_features):
        raise ValueError(
            f"{len(dev_relevant)} dev relevance lists for {len(dev_features)} dev clusters"
        )
    for c, (rel, feats) in enumerate(zip(dev_relevant, dev_features)):
        if len(rel) != len(feats):
            raise ValueError(
                f"dev cluster {c} has {len(rel)} relevance flags for {len(feats)} feature rows"
            )
    best = None
    rows = []
    for lam in lam_grid:
        for beta in beta_grid:
            model = fit_closed_form(normal_equations, lam, beta, registry)
            dev_mrr = mrr(
                [
                    rel[rank_descending(score_units(model, feats))]
                    for rel, feats in zip(dev_relevant, dev_features)
                ]
            )
            rows.append((lam, beta, dev_mrr))
            if best is None or dev_mrr > best[0]:
                best = (dev_mrr, model)
    return best[1], rows

import functools
import hashlib
import math
import re
from collections import Counter

import numpy as np
import pytest

from conftest import traced_call
from opinesum import numkit
from opinesum.salience import (
    FeatureRegistry,
    LexiconSet,
    PreferenceDesign,
    SalienceModel,
    baseline_rank,
    build_design,
    build_registry,
    centroidness,
    cluster_features,
    fit_closed_form,
    fit_with_grid_search,
    gold_scores,
    load_model,
    load_registry,
    rank_descending,
    relevant_units,
    save_model,
    save_registry,
    score_units,
)
from opinesum.textcorpus import Cluster, TfidfStats, content_norms, cosine_weight_maps, text_unit


def make_cluster(texts, summary, cid="c0"):
    return Cluster(
        id=cid, units=tuple(text_unit(t) for t in texts), summary=text_unit(summary)
    )


def random_design(rng, d=5, n=20, n_clusters=3):
    """Random per-cluster features with labels that include exact zeros."""
    feats, labels = [], []
    sizes = rng.multinomial(n - n_clusters, np.ones(n_clusters) / n_clusters) + 1
    for size in sizes:
        f = rng.normal(size=(size, d))
        lab = np.where(rng.random(size) < 0.5, 0.0, rng.random(size))
        labels.append(lab)
        feats.append(f)
    return feats, labels


def objective(design, w, lam, beta):
    """J(w) = ||Rw - L||^2 + lam ||R'w - 1||^2 + beta ||w||^2 over the
    explicit preference rows."""
    w = np.asarray(w, dtype=np.float64)
    r = design.R @ w - design.L
    rp = design.Rprime @ w - 1.0
    return float(r @ r + lam * (rp @ rp) + beta * (w @ w))


def objective_gradient(design, w, lam, beta):
    """Analytic gradient of the objective at w."""
    w = np.asarray(w, dtype=np.float64)
    return (
        2.0 * design.R.T @ (design.R @ w - design.L)
        + 2.0 * lam * design.Rprime.T @ (design.Rprime @ w - 1.0)
        + 2.0 * beta * w
    )


def brute_force_centroidness(unit, cluster, tfidf):
    """Cosine of a unit's TF-IDF map with the cluster mean, the mean
    recomputed from every unit of the cluster for each call."""
    mean = {}
    for other in cluster.units:
        for term, w in tfidf.unit_weights(other).items():
            mean[term] = mean.get(term, 0) + w / len(cluster.units)
    return cosine_weight_maps(tfidf.unit_weights(unit), mean)


def unit_centroidness(cluster, tfidf):
    return centroidness([tfidf.unit_weights(u) for u in cluster.units])


def descent_minimizer(design, lam, beta, tol=1e-12, max_iter=2_000_000):
    """Steepest descent with exact line search on the quadratic objective.

    Independent oracle for the closed form: only uses the objective's
    gradient and Hessian-vector products written out directly.
    """
    d = design.R.shape[1]
    w = np.zeros(d)
    for _ in range(max_iter):
        g = (
            2.0 * design.R.T @ (design.R @ w - design.L)
            + 2.0 * lam * design.Rprime.T @ (design.Rprime @ w - 1.0)
            + 2.0 * beta * w
        )
        gnorm = np.abs(g).max()
        if gnorm <= tol:
            return w
        hg = (
            2.0 * design.R.T @ (design.R @ g)
            + 2.0 * lam * design.Rprime.T @ (design.Rprime @ g)
            + 2.0 * beta * g
        )
        step = float(g @ g) / float(g @ hg)
        w = w - step * g
    raise AssertionError(f"descent oracle did not converge, grad {gnorm:.2e}")


class TestGoldScores:
    def test_hand_counted(self):
        cluster = make_cluster(["the cat sat", "dog runs"], "cat naps")
        np.testing.assert_allclose(gold_scores(cluster, frozenset({"the"})), [1.0, 0.0])

    def test_self_overlap_maximal(self):
        cluster = make_cluster(["great fun film", "dull"], "great fun film")
        scores = gold_scores(cluster, frozenset())
        assert scores[0] == 1.0

    def test_no_overlap_all_zero(self):
        cluster = make_cluster(["aa bb", "cc"], "dd ee")
        np.testing.assert_array_equal(gold_scores(cluster, frozenset()), [0.0, 0.0])

    def test_range_and_max(self):
        rng = np.random.default_rng(0)
        vocab = [f"w{i}" for i in range(12)]
        for _ in range(25):
            texts = [" ".join(rng.choice(vocab, size=6)) for _ in range(4)]
            cluster = make_cluster(texts, " ".join(rng.choice(vocab, size=5)))
            s = gold_scores(cluster, frozenset())
            assert np.all(s >= 0) and np.all(s <= 1)
            if s.max() > 0:
                assert s.max() == 1.0

    def test_set_semantics(self):
        # repeated overlapping word counts once
        cluster = make_cluster(["cat cat cat", "cat dog"], "cat dog")
        np.testing.assert_allclose(gold_scores(cluster, frozenset()), [0.5, 1.0])


class TestCentroidness:
    def test_single_unit_is_one(self):
        cluster = make_cluster(["alpha beta"], "s")
        other = make_cluster(["gamma delta", "gamma"], "s", cid="c1")
        stats = TfidfStats([cluster, other])  # corpus-level idf > 0
        assert unit_centroidness(cluster, stats)[0] == pytest.approx(1.0)

    def test_zero_when_no_shared_weight(self):
        # "aa" appears in every unit -> idf 0 -> unit 0's vector is zero
        cluster = make_cluster(["aa", "aa bb", "aa bb cc"], "s")
        stats = TfidfStats([cluster])
        assert unit_centroidness(cluster, stats)[0] == 0.0

    def test_three_unit_hand_cosine(self):
        cluster = make_cluster(["cat dog", "cat bird", "fish"], "s")
        stats = TfidfStats([cluster])
        # manual: idf cat=ln(3/2), dog/bird/fish=ln 3
        cat, dog = math.log(3 / 2), math.log(3)
        vecs = [
            {"cat": cat, "dog": dog},
            {"cat": cat, "bird": dog},
            {"fish": dog},
        ]
        centroid = {}
        for v in vecs:
            for t, w in v.items():
                centroid[t] = centroid.get(t, 0.0) + w / 3
        u = vecs[0]
        dot = sum(w * centroid.get(t, 0.0) for t, w in u.items())
        expected = dot / (
            math.sqrt(sum(w * w for w in u.values()))
            * math.sqrt(sum(w * w for w in centroid.values()))
        )
        assert unit_centroidness(cluster, stats)[0] == pytest.approx(expected)


class TestExtractFeatures:
    def setup_method(self):
        self.lexicons = LexiconSet(
            general={"great": ("Positiv",), "dull": ("Negativ",)},
            sentiment={"great": "positive", "dull": "negative", "fine": "neutral"},
            stopwords=frozenset({"the", "a", "is"}),
        )

    def test_unannotated_unit(self):
        cluster = make_cluster(["aa bb cc"], "s")
        registry = build_registry([cluster], self.lexicons, top_u=10)
        stats = TfidfStats([cluster])
        vec = cluster_features(cluster, registry, stats)[0]
        names = registry.names
        assert vec[names.index("num_words")] == 3
        assert vec[names.index("num_pos_tags")] == 0
        assert vec[names.index("num_ner_tokens")] == 0

    def test_lexicon_and_sentiment_counts(self):
        cluster = make_cluster(["great great dull fine"], "s")
        registry = build_registry([cluster], self.lexicons, top_u=10)
        stats = TfidfStats([cluster])
        vec = cluster_features(cluster, registry, stats)[0]
        names = registry.names
        assert vec[names.index("lex:Positiv")] == 2
        assert vec[names.index("lex:Negativ")] == 1
        assert vec[names.index("sent:positive")] == 2
        assert vec[names.index("sent:negative")] == 1
        assert vec[names.index("sent:neutral")] == 1

    def test_unigram_block_matches_counting_oracle(self):
        rng = np.random.default_rng(5)
        vocab = [f"w{i}" for i in range(8)]
        texts = [" ".join(rng.choice(vocab, size=10)) for _ in range(3)]
        cluster = make_cluster(texts, "w0 w1")
        registry = build_registry([cluster], self.lexicons, top_u=5)
        stats = TfidfStats([cluster])
        feats = cluster_features(cluster, registry, stats)
        for unit, vec in zip(cluster.units, feats):
            for j, word in enumerate(registry.top_unigrams):
                expected = unit.norms().count(word)
                assert vec[len(registry.names) - len(registry.top_unigrams) + j] == expected

    def test_top_u_cap(self):
        cluster = make_cluster(["a b c d e f g h"], "s")
        registry = build_registry([cluster], LexiconSet(stopwords=frozenset()), top_u=3)
        assert len(registry.top_unigrams) == 3

    def test_pos_ner_counts(self):
        unit = text_unit("Ridley Scott directs well", pos=["NNP", "NNP", "VBZ", "RB"], ner=["PER", "PER", "O", "O"])
        cluster = Cluster(id="x", units=(unit,), summary=text_unit("s"))
        registry = build_registry([cluster], self.lexicons, top_u=5)
        stats = TfidfStats([cluster])
        vec = cluster_features(cluster, registry, stats)[0]
        names = registry.names
        assert vec[names.index("num_pos_tags")] == 3  # {NNP, VBZ, RB}
        assert vec[names.index("num_ner_tokens")] == 2

    def test_avg_max_tfidf(self):
        cluster = make_cluster(["cat dog", "cat"], "s")
        registry = build_registry([cluster], self.lexicons, top_u=5)
        stats = TfidfStats([cluster])
        vec = cluster_features(cluster, registry, stats)[0]
        names = registry.names
        weights = stats.unit_weights(cluster.units[0])
        assert vec[names.index("avg_tfidf")] == pytest.approx(
            sum(weights.values()) / len(weights)
        )
        assert vec[names.index("max_tfidf")] == pytest.approx(max(weights.values()))


def brute_force_features(unit, cluster, registry, lexicons, tfidf):
    """One unit's feature row, every column looked up by name and the
    cluster mean recomputed for the unit."""
    names = registry.names
    vec = np.zeros(len(names))
    weights = tfidf.unit_weights(unit)
    vec[names.index("num_words")] = len(unit.tokens)
    vec[names.index("num_pos_tags")] = len({t.pos for t in unit.tokens if t.pos})
    vec[names.index("num_ner_tokens")] = sum(1 for t in unit.tokens if t.ner)
    vec[names.index("centroidness")] = brute_force_centroidness(unit, cluster, tfidf)
    if weights:
        vals = list(weights.values())
        vec[names.index("avg_tfidf")] = sum(vals) / len(vals)
        vec[names.index("max_tfidf")] = max(vals)
    for t in unit.tokens:
        for c in lexicons.general.get(t.norm, ()):
            if f"lex:{c}" in names:
                vec[names.index(f"lex:{c}")] += 1
        if t.norm in lexicons.sentiment:
            vec[names.index(f"sent:{lexicons.sentiment[t.norm]}")] += 1
    for norm in content_norms(unit, lexicons.stopwords):
        if f"unigram:{norm}" in names:
            vec[names.index(f"unigram:{norm}")] += 1
    return vec


class TestClusterFeaturesOracle:
    def test_bit_identical_to_per_unit_oracle(self):
        rng = np.random.default_rng(12)
        vocab = [f"w{i}" for i in range(30)]

        def unit():
            words = list(rng.choice(vocab, size=int(rng.integers(1, 15))))
            tags = list(rng.choice(["NN", "VB", ""], size=len(words)))
            ner = ["PER" if t == "NN" else "" for t in tags]
            return text_unit(" ".join(words), pos=tags, ner=ner)

        clusters = [
            Cluster(id=f"c{m}", units=tuple(unit() for _ in range(m)), summary=text_unit("w0"))
            for m in (1, 2, 7, 40)
        ]
        lex = LexiconSet(
            general={"w1": ("Positiv",), "w2": ("Negativ", "Strong")},
            sentiment={"w1": "positive", "w2": "negative", "w4": "neutral"},
            stopwords=frozenset({"w3"}),
        )
        registry = build_registry(clusters, lex, top_u=12)
        stats = TfidfStats(clusters)
        for cluster in clusters:
            feats = cluster_features(cluster, registry, stats)
            oracle = np.stack(
                [brute_force_features(u, cluster, registry, lex, stats) for u in cluster.units]
            )
            assert feats.tobytes() == oracle.tobytes()
            col = registry.names.index("centroidness")
            assert baseline_rank("centroid", cluster, stats) == rank_descending(oracle[:, col])


def per_unit_extract_features(unit, weights, centrality, registry, lexicons):
    """The per-unit featurizer that the one-pass cluster_features replaced:
    one feature vector, four passes over the tokens."""
    vec = np.zeros(registry.d)
    vec[0] = len(unit.tokens)
    vec[1] = len({t.pos for t in unit.tokens if t.pos})
    vec[2] = sum(1 for t in unit.tokens if t.ner)
    vec[3] = centrality
    if weights:
        vals = list(weights.values())
        vec[4] = sum(vals) / len(vals)
        vec[5] = max(vals)
    column = {name: j for j, name in enumerate(registry.names)}

    def count(name):
        if name in column:
            vec[column[name]] += 1

    for t in unit.tokens:
        for c in lexicons.general.get(t.norm, ()):
            count(f"lex:{c}")
    for t in unit.tokens:
        count(f"sent:{lexicons.sentiment.get(t.norm)}")
    for norm in content_norms(unit, lexicons.stopwords):
        count(f"unigram:{norm}")
    return vec


def per_unit_cluster_features(cluster, registry, lexicons, tfidf):
    """The cluster_features that stacked per-unit vectors, with its
    Counter-based centroidness, as an oracle."""
    weight_maps = [tfidf.unit_weights(u) for u in cluster.units]
    mean = Counter()
    for weights in weight_maps:
        for term, w in weights.items():
            mean[term] += w / len(weight_maps)
    mean_norm = math.sqrt(sum(w * w for w in mean.values()))
    cents = [cosine_weight_maps(weights, mean, mean_norm) for weights in weight_maps]
    return np.stack(
        [
            per_unit_extract_features(u, weights, c, registry, lexicons)
            for u, weights, c in zip(cluster.units, weight_maps, cents)
        ]
    )


class TestOnePassFeatures:
    def test_bit_identical_to_per_unit_featurizer(self):
        rng = np.random.default_rng(31)
        words = ["great", "dull", "fine", "the", "plot", "Plot", "acting", "w1", "w2", "e.g."]
        punct = ["", "!", "...", "(", ")", ",", '"', "?!", "--"]
        tags = ["NN", "VB", "JJ", "", "O", "PER", "ORG"]

        def unit():
            chunks = [
                rng.choice(punct) + rng.choice(words) + rng.choice(punct)
                for _ in range(int(rng.integers(1, 14)))
            ]
            text = " ".join(chunks + ([str(rng.choice(punct[1:]))] if rng.random() < 0.3 else []))
            n = len(text_unit(text).tokens)
            pos = list(rng.choice(tags[:4], size=n)) if rng.random() < 0.5 else None
            ner = list(rng.choice(tags[3:], size=n)) if rng.random() < 0.5 else None
            return text_unit(text, pos=pos, ner=ner)

        clusters = [
            Cluster(id=f"c{m}", units=tuple(unit() for _ in range(m)), summary=text_unit("plot"))
            for m in (1, 3, 12, 60)
        ]
        lex = LexiconSet(
            general={"great": ("Positiv", "Strong"), "dull": ("Negativ",), "plot": ("Noun",)},
            sentiment={"great": "positive", "dull": "negative", "fine": "neutral", "w1": "neutral"},
            stopwords=frozenset({"the", "w2"}),
        )
        stats = TfidfStats(clusters)
        for top_u in (6, 3):
            registry = build_registry(clusters, lex, top_u=top_u)
            for cluster in clusters:
                feats = cluster_features(cluster, registry, stats)
                oracle = per_unit_cluster_features(cluster, registry, lex, stats)
                assert feats.shape == oracle.shape and np.array_equal(feats, oracle)
                assert feats.tobytes() == oracle.tobytes()


class TestBuildDesign:
    def test_single_pair(self):
        feats = [np.array([[1.0, 0.0], [0.0, 1.0]])]
        design = build_design(feats, [np.array([1.0, 0.0])])
        assert design.Rprime.shape == (1, 2)
        np.testing.assert_allclose(design.Rprime[0], [1.0, -1.0])

    def test_all_positive_no_pairs(self):
        feats = [np.eye(3)]
        design = build_design(feats, [np.array([0.5, 0.2, 0.9])])
        assert design.Rprime.shape == (0, 3)

    def test_two_by_two_pairs(self):
        feats = [np.arange(8.0).reshape(4, 2)]
        design = build_design(feats, [np.array([0.5, 0.2, 0.0, 0.0])])
        assert design.Rprime.shape == (4, 2)
        rows = {tuple(r) for r in design.Rprime}
        expected = set()
        for p in (0, 1):
            for q in (2, 3):
                expected.add(tuple(feats[0][p] - feats[0][q]))
        assert rows == expected

    def test_pairs_stay_within_cluster(self):
        feats = [np.ones((1, 2)), np.zeros((1, 2))]
        design = build_design(feats, [np.array([1.0]), np.array([0.0])])
        assert design.Rprime.shape == (0, 2)


class TestNormalEquations:
    def test_pair_sums_match_explicit_rows(self):
        rng = np.random.default_rng(11)
        for trial in range(10):
            d = int(rng.integers(2, 9))
            feats, labels = random_design(rng, d=d, n=30, n_clusters=4)
            # a cluster without positive units, one without zero labels, one unit
            feats += [rng.normal(size=(3, d)), rng.normal(size=(4, d)), rng.normal(size=(1, d))]
            labels += [np.zeros(3), 0.1 + rng.random(4), np.array([0.7])]
            # count-like columns far from zero, as the table features are
            feats = [f + np.arange(d) * 5.0 for f in feats]
            design = build_design(feats, labels)
            gram, moment, pair_gram, pair_sum = design.normal_equations
            np.testing.assert_array_equal(gram, design.R.T @ design.R)
            np.testing.assert_array_equal(moment, design.R.T @ design.L)
            explicit = design.Rprime.T @ design.Rprime
            assert np.abs(pair_gram - explicit).max() <= 1e-12 * np.abs(explicit).max()
            explicit_sum = design.Rprime.T @ np.ones(design.Rprime.shape[0])
            assert np.abs(pair_sum - explicit_sum).max() <= 1e-12 * np.abs(explicit_sum).max()

    @staticmethod
    def textbook_pair_terms(design):
        """Oracle: each cluster's pair sums as the textbook expression in
        its positive rows P and zero-label rows Z."""
        d = design.R.shape[1]
        pair_gram, pair_sum = np.zeros((d, d)), np.zeros(d)
        for rows in design.cluster_rows:
            feats, labs = design.R[rows], design.L[rows]
            P, Z = feats[labs > 0], feats[labs == 0]
            n_pos, n_zero = P.shape[0], Z.shape[0]
            if n_pos == 0 or n_zero == 0:
                continue
            cross = np.outer(P.sum(axis=0), Z.sum(axis=0))
            pair_gram += n_zero * (P.T @ P) + n_pos * (Z.T @ Z) - cross - cross.T
            pair_sum += n_zero * P.sum(axis=0) - n_pos * Z.sum(axis=0)
        return pair_gram, pair_sum

    def test_pair_sums_equal_textbook_expression_bitwise(self):
        rng = np.random.default_rng(17)
        # three and four row blocks of the outer products, the last partial
        for d in (130, 200):
            feats, labels = random_design(rng, d=d, n=90, n_clusters=5)
            # a cluster without positive units and one without zero labels
            feats += [rng.normal(size=(6, d)), rng.normal(size=(5, d))]
            labels += [np.zeros(6), 0.1 + rng.random(5)]
            feats = [f + np.arange(d) % 7 * 5.0 for f in feats]
            design = build_design(feats, labels)
            gram, moment, pair_gram, pair_sum = design.normal_equations
            want_gram, want_sum = self.textbook_pair_terms(design)
            assert np.array_equal(pair_gram, want_gram)
            assert np.array_equal(pair_sum, want_sum)
            assert np.array_equal(gram, design.R.T @ design.R)
            assert np.array_equal(moment, design.R.T @ design.L)
            assert gram.flags.f_contiguous and pair_gram.flags.f_contiguous

    def test_transient_memory_is_two_square_arrays(self):
        # while the clusters are summed, the only d x d arrays alive are the
        # pair Gram matrix it returns and two scratch arrays; R^T R is formed
        # after the scratch is freed. The slack covers numpy's ufunc buffers
        # and one cluster's row copies.
        # The textbook expression peaks at four d x d arrays here.
        d = 600
        feats, labels = random_design(np.random.default_rng(19), d=d, n=40, n_clusters=4)
        design = build_design(feats, labels)
        _, held, peak = traced_call(lambda: design.normal_equations)
        square = d * d * 8
        assert held >= 2 * square  # R^T R and the pair Gram matrix
        assert peak <= (1 + 2 + 0.5) * square, peak / square

    def test_no_pairs_gives_zero_terms(self):
        design = build_design([np.eye(3), np.ones((2, 3))], [np.ones(3), np.zeros(2)])
        _, _, pair_gram, pair_sum = design.normal_equations
        assert not pair_gram.any() and not pair_sum.any()
        assert design.Rprime.shape == (0, 3)

    def test_grid_search_never_builds_preference_rows(self, monkeypatch):
        calls = []
        computed = PreferenceDesign.normal_equations.func

        def counted(design):
            calls.append(design)
            return computed(design)

        def forbidden(design):
            raise AssertionError("the fit read the explicit preference rows")

        normal_equations = functools.cached_property(counted)
        normal_equations.__set_name__(PreferenceDesign, "normal_equations")
        monkeypatch.setattr(PreferenceDesign, "normal_equations", normal_equations)
        monkeypatch.setattr(PreferenceDesign, "Rprime", property(forbidden))
        rng = np.random.default_rng(13)
        vocab = [f"w{i}" for i in range(10)]
        clusters = [
            make_cluster([" ".join(rng.choice(vocab, size=5)) for _ in range(6)], "w0 w1", f"c{i}")
            for i in range(4)
        ]
        lex = LexiconSet(stopwords=frozenset())
        registry = build_registry(clusters[:2], lex, top_u=6)
        stats = TfidfStats(clusters)
        feats = [cluster_features(c, registry, stats) for c in clusters]
        labels = [gold_scores(c, lex.stopwords) for c in clusters[:2]]
        dev_relevant = [relevant_units(c, lex.stopwords) for c in clusters[2:]]
        model, rows = fit_with_grid_search(
            build_design(feats[:2], labels).normal_equations, dev_relevant, feats[2:], registry,
            lam_grid=(0.0, 0.5, 10.0), beta_grid=(0.1, 1.0),
        )
        assert len(rows) == 6 and len(calls) == 1
        assert (model.lam, model.beta, model.w.shape) in {
            (lam, beta, (registry.d,)) for lam, beta, _ in rows
        }


class TestGridSearch:
    REJECTED = {
        "empty lam_grid": "at least one value",
        "empty beta_grid": "at least one value",
        "a dev cluster without flags": "1 dev relevance lists for 2 dev clusters",
        "a flag past the last row": "has 3 relevance flags for 2 feature rows",
    }

    @pytest.mark.parametrize("case", sorted(REJECTED))
    def test_rejects_inputs_it_cannot_score(self, case):
        feats, labels = random_design(np.random.default_rng(31), d=4, n=24, n_clusters=4)
        normal_equations = build_design(feats[:2], labels[:2]).normal_equations
        dev_relevant, dev_features = [labs > 0 for labs in labels[2:]], feats[2:]
        lam_grid, beta_grid = (0.5,), (0.1,)
        if case == "empty lam_grid":
            lam_grid = ()
        elif case == "empty beta_grid":
            beta_grid = ()
        elif case == "a dev cluster without flags":
            dev_relevant = dev_relevant[:1]
        else:
            dev_relevant = [np.array([True, False, False])] + dev_relevant[1:]
            dev_features = [dev_features[0][:2]] + dev_features[1:]
        with pytest.raises(ValueError, match=self.REJECTED[case]):
            fit_with_grid_search(
                normal_equations, dev_relevant, dev_features, None, lam_grid, beta_grid
            )


class TestObjective:
    def test_zero_weight(self):
        rng = np.random.default_rng(1)
        feats, labels = random_design(rng)
        design = build_design(feats, labels)
        lam = 0.7
        expected = float(design.L @ design.L) + lam * design.Rprime.shape[0]
        assert objective(design, np.zeros(5), lam, 0.0) == pytest.approx(expected)

    def test_interpolation_zero_residual(self):
        rng = np.random.default_rng(2)
        r = rng.normal(size=(4, 4)) + 4 * np.eye(4)
        labels = rng.random(4)
        design = build_design([r], [labels])
        w = np.linalg.solve(r, labels)
        assert objective(design, w, 0.0, 0.0) == pytest.approx(0.0, abs=1e-18)

    def test_scalar_oracle(self):
        rng = np.random.default_rng(3)
        feats, labels = random_design(rng, d=3, n=8, n_clusters=2)
        design = build_design(feats, labels)
        w = rng.normal(size=3)
        lam, beta = 0.4, 0.2
        # term-by-term evaluation with plain Python loops
        total = 0.0
        for row, lab in zip(design.R, design.L):
            total += (float(row @ w) - lab) ** 2
        for row in design.Rprime:
            total += lam * (float(row @ w) - 1.0) ** 2
        total += beta * float(w @ w)
        assert objective(design, w, lam, beta) == pytest.approx(total)


class TestFitClosedForm:
    def test_lambda_zero_equals_ridge(self):
        rng = np.random.default_rng(4)
        feats, labels = random_design(rng, d=6, n=25)
        design = build_design(feats, labels)
        beta = 0.3
        model = fit_closed_form(design.normal_equations, 0.0, beta, registry=None)
        ridge = np.linalg.solve(
            design.R.T @ design.R + beta * np.eye(6), design.R.T @ design.L
        )
        assert np.abs(model.w - ridge).max() <= 1e-10

    def test_huge_beta_shrinks(self):
        rng = np.random.default_rng(5)
        feats, labels = random_design(rng, d=4, n=10, n_clusters=2)
        design = build_design(feats, labels)
        model = fit_closed_form(design.normal_equations, 0.5, 1e9, registry=None)
        assert np.abs(model.w).max() <= 1e-6

    def test_matches_descent_oracle(self):
        rng = np.random.default_rng(6)
        feats, labels = random_design(rng, d=5, n=20, n_clusters=3)
        design = build_design(feats, labels)
        model = fit_closed_form(design.normal_equations, 0.5, 0.1, registry=None)
        oracle = descent_minimizer(design, 0.5, 0.1)
        assert np.abs(model.w - oracle).max() <= 1e-5

    def test_gradient_vanishes(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            feats, labels = random_design(rng, d=int(rng.integers(2, 8)))
            design = build_design(feats, labels)
            lam = float(rng.random())
            beta = 0.05 + float(rng.random())
            model = fit_closed_form(design.normal_equations, lam, beta, registry=None)
            g = objective_gradient(design, model.w, lam, beta)
            bound = 1e-8 * (1 + np.abs(design.R.T @ design.L).max())
            assert np.abs(g).max() <= bound

    def test_global_minimum_against_perturbations(self):
        rng = np.random.default_rng(8)
        feats, labels = random_design(rng, d=4)
        design = build_design(feats, labels)
        lam, beta = 0.3, 0.2
        model = fit_closed_form(design.normal_equations, lam, beta, registry=None)
        j_min = objective(design, model.w, lam, beta)
        for _ in range(1000):
            delta = rng.normal(size=4)
            delta *= rng.random() / max(np.linalg.norm(delta), 1e-12)
            assert objective(design, model.w + delta, lam, beta) >= j_min - 1e-12

    def test_system_built_in_place_matches_formula(self, monkeypatch):
        rng = np.random.default_rng(9)
        feats, labels = random_design(rng, d=12, n=60, n_clusters=5)
        terms = build_design(feats, labels).normal_equations
        gram, moment, pair_gram, pair_sum = terms
        solved = []
        monkeypatch.setattr(
            numkit, "solve_spd", lambda A, b: solved.append(A.copy()) or np.linalg.solve(A, b)
        )
        for lam, beta in ((0.0, 0.01), (0.5, 0.1), (10.0, 3.0)):
            fit_closed_form(terms, lam, beta, registry=None)
            formula = gram + lam * pair_gram + beta * np.eye(gram.shape[0])
            assert np.array_equal(solved[-1], formula)
        monkeypatch.undo()
        for lam, beta in ((0.0, 0.01), (0.5, 0.1), (10.0, 3.0)):
            formula = gram + lam * pair_gram + beta * np.eye(gram.shape[0])
            w = numkit.solve_spd(np.asfortranarray(formula), moment + lam * pair_sum)
            assert np.array_equal(fit_closed_form(terms, lam, beta, registry=None).w, w)

    def test_one_square_array_per_solve(self):
        # A is built in the Fortran order the solver factors in place, so no
        # second d x d copy is made; a solver copy of A would make it two.
        # The slack covers the symmetry check's two temporary 64-row blocks.
        d = 300
        feats, labels = random_design(np.random.default_rng(29), d=d, n=40, n_clusters=4)
        terms = build_design(feats, labels).normal_equations
        model, _, peak = traced_call(fit_closed_form, terms, 0.5, 0.1, None)
        assert model.w.shape == (d,)
        assert peak <= 1.5 * d * d * 8, peak / (d * d * 8)

    def test_beta_must_be_positive(self):
        design = build_design([np.eye(2)], [np.array([1.0, 0.0])])
        with pytest.raises(ValueError):
            fit_closed_form(design.normal_equations, 0.1, 0.0, registry=None)

    @pytest.mark.parametrize(
        "lam, beta",
        [(-1.0, 1.0), (math.nan, 1.0), (math.inf, 1.0), (0.1, math.nan), (0.1, math.inf)],
    )
    def test_settings_must_be_finite(self, lam, beta):
        design = build_design([np.eye(2)], [np.array([1.0, 0.0])])
        with pytest.raises(ValueError, match="must be finite"):
            fit_closed_form(design.normal_equations, lam, beta, registry=None)


class TestScoringAndBaselines:
    def test_zero_weights(self):
        design = build_design([np.eye(2)], [np.array([1.0, 0.0])])
        model = fit_closed_form(design.normal_equations, 0.0, 1e9, registry=None)
        scores = score_units(model, np.random.default_rng(0).normal(size=(5, 2)))
        assert np.abs(scores).max() <= 1e-6

    def test_length_axis_matches_length_baseline(self):
        cluster = make_cluster(["a b c d e", "a b", "a b c"], "s")
        lex = LexiconSet(stopwords=frozenset())
        registry = build_registry([cluster], lex, top_u=4)
        stats = TfidfStats([cluster])
        feats = cluster_features(cluster, registry, stats)
        w = np.zeros(registry.d)
        w[registry.names.index("num_words")] = 1.0
        model = SalienceModel(w=w, lam=0.0, beta=1.0, registry=registry)
        order = rank_descending(score_units(model, feats))
        assert order == baseline_rank("length", cluster, stats)

    def test_dot_product_oracle(self):
        rng = np.random.default_rng(9)
        feats = rng.normal(size=(6, 3))
        w = rng.normal(size=3)
        scores = score_units(SalienceModel(w=w, lam=0.0, beta=1.0, registry=None), feats)
        for k in range(6):
            assert scores[k] == pytest.approx(float(feats[k] @ w))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            score_units(SalienceModel(np.ones(3), lam=0.0, beta=1.0, registry=None), np.ones((2, 4)))

    def test_length_baseline_sort(self):
        cluster = make_cluster(["a b c d e", "a b c d e f g h i", "a b"], "s")
        assert baseline_rank("length", cluster, TfidfStats([cluster])) == [1, 0, 2]

    def test_stable_ties(self):
        cluster = make_cluster(["a b", "c d", "e f"], "s")
        assert baseline_rank("length", cluster, TfidfStats([cluster])) == [0, 1, 2]

    def test_centroid_baseline_matches_cosines(self):
        cluster = make_cluster(["cat dog", "cat bird", "fish"], "s")
        stats = TfidfStats([cluster])
        cos = [brute_force_centroidness(u, cluster, stats) for u in cluster.units]
        assert baseline_rank("centroid", cluster, stats) == rank_descending(cos)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            cluster = make_cluster(["a"], "s")
            baseline_rank("pagerank", cluster, TfidfStats([cluster]))

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(10)
        feats = rng.normal(size=(7, 4))
        w = rng.normal(size=4)
        base = rank_descending(score_units(SalienceModel(w=w, lam=0, beta=1, registry=None), feats))
        for scale in (0.01, 3.0, 1000.0):
            scaled = rank_descending(
                score_units(SalienceModel(w=scale * w, lam=0, beta=1, registry=None), feats)
            )
            assert scaled == base


class TestSerialization:
    def test_round_trip(self, tmp_path):
        lex = LexiconSet(
            general={"great": ("Positiv",)},
            sentiment={"great": "positive"},
            stopwords=frozenset({"the"}),
        )
        cluster = make_cluster(["great film", "dull plot"], "great film")
        registry = build_registry([cluster], lex, top_u=8)
        stats = TfidfStats([cluster])
        feats = [cluster_features(cluster, registry, stats)]
        labels = [gold_scores(cluster, lex.stopwords)]
        model = fit_closed_form(build_design(feats, labels).normal_equations, 0.5, 0.1, registry)
        mpath = tmp_path / "sal.model"
        rpath = tmp_path / "sal.registry"
        save_model(model, mpath)
        save_registry(registry, rpath)
        registry2 = load_registry(rpath)
        assert registry2 == registry
        model2 = load_model(mpath, registry2)
        assert model2.w.tolist() == model.w.tolist()
        assert model2.lam == model.lam and model2.beta == model.beta

    def test_registry_round_trips_its_lexicons(self, tmp_path):
        # custom stopwords, a word in two categories and a sentiment lexicon
        # come back as fitted, in the lexicon files' own line format
        lex = LexiconSet(
            general={"great": ("Positiv", "Strong"), "dull": ("Negativ",)},
            sentiment={"great": "positive", "dull": "negative", "fine": "neutral"},
            stopwords=frozenset({"the", "of", "w0"}),
        )
        registry = FeatureRegistry(lexicons=lex, top_unigrams=("plot", "acting"))
        rpath = tmp_path / "sal.registry"
        save_registry(registry, rpath)
        assert rpath.read_text() == (
            "salience-registry v2\n"
            "stopwords 3\nof\nthe\nw0\n"
            "lexicon 3\ndull\tNegativ\ngreat\tPositiv\ngreat\tStrong\n"
            "sentiment_lexicon 3\ndull\tnegative\nfine\tneutral\ngreat\tpositive\n"
            "top_unigrams 2\nplot\nacting\n"
        )
        loaded = load_registry(rpath)
        assert loaded == registry
        assert loaded.lexicons.categories == ("Negativ", "Positiv", "Strong")
        assert loaded.names == registry.names and loaded.digest() == registry.digest()

    def test_v1_registry_rejected(self, tmp_path):
        # a v1 registry names the categories but not the lexicons behind them
        rpath = tmp_path / "sal.registry"
        rpath.write_text("salience-registry v1\nlexicon_categories 0\ntop_unigrams 1\nplot\n")
        with pytest.raises(
            ValueError, match=re.escape(f"{rpath}: line 1: expected 'salience-registry v2'")
        ):
            load_registry(rpath)

    @staticmethod
    def saved(tmp_path):
        general = {"bad": ("Negativ",), "good": ("Positiv", "Strong")}
        registry = FeatureRegistry(
            lexicons=LexiconSet(general=general),
            top_unigrams=tuple(f"w{i}" for i in range(10)),
        )
        w = np.linspace(-1.0, 1.0, registry.d)
        model = SalienceModel(w=w, lam=0.5, beta=0.1, registry=registry)
        mpath, rpath = tmp_path / "sal.model", tmp_path / "sal.registry"
        save_model(model, mpath)
        save_registry(registry, rpath)
        # the undamaged files load, so each failure below is the damage's
        assert load_registry(rpath) == registry
        assert load_model(mpath, registry).w.tolist() == w.tolist()
        return registry, mpath, rpath

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda t: "".join(t.splitlines(True)[:10]), "top_unigrams declares 10 lines, found 2"),
            (lambda t: "".join(t.splitlines(True)[:4]), "lexicon declares 3 lines, found 1"),
            (lambda t: t.replace("top_unigrams 10", "top_unigrams ten"), "needs a count"),
            (lambda t: t.replace("top_unigrams 10\n", ""), "expected 'top_unigrams <value>'"),
            (lambda t: t + "w10\n", "1 unexpected lines"),
            (lambda t: t[:-2], "truncated"),
            (lambda t: t.replace("bad\tNegativ", "bad Negativ"),
             "lexicon: expected 'word<TAB>value' lines"),
        ],
        ids=[
            "cut_in_half", "cut_in_categories", "bad_count", "missing_count", "trailing_line",
            "cut_mid_line", "lexicon_line_without_tab",
        ],
    )
    def test_damaged_registry_rejected(self, tmp_path, damage, message):
        _, _, rpath = self.saved(tmp_path)
        rpath.write_text(damage(rpath.read_text()))
        with pytest.raises(ValueError, match=re.escape(str(rpath)) + ".*" + re.escape(message)):
            load_registry(rpath)

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda t: re.sub(r"beta [^\n]*\n", "", t), "expected 'beta <value>'"),
            (lambda t: re.sub(r"registry [^\n]*\n", "", t), "expected 'registry <value>'"),
            (lambda t: re.sub(r"registry [^\n]*\n", "registry none\n", t), "registry hash mismatch"),
            (lambda t: "".join(t.splitlines(True)[:-1]), "expected 22 weights, found 21"),
            (lambda t: t + "0.5\n", "1 unexpected lines"),
            (lambda t: t.replace("\n1\n", "\nnan\n"), "non-finite"),
            (lambda t: t.replace("\n1\n", "\none\n"), "could not convert"),
            (lambda t: t[:-3], "truncated"),
        ],
        ids=[
            "missing_beta", "missing_registry", "no_registry", "short", "trailing_line", "nan_weight",
            "bad_number", "cut_mid_line",
        ],
    )
    def test_damaged_model_rejected(self, tmp_path, damage, message):
        registry, mpath, _ = self.saved(tmp_path)
        mpath.write_text(damage(mpath.read_text()))
        with pytest.raises(ValueError, match=re.escape(str(mpath)) + ".*" + re.escape(message)):
            load_model(mpath, registry)

    def test_weight_count_must_match_the_registry(self, tmp_path):
        # one weight short, with d lowered to match: the registry hash still
        # matches, so only the count can fail, at load and not when scoring
        registry, mpath, _ = self.saved(tmp_path)
        lines = mpath.read_text().splitlines(True)
        assert lines[1] == f"d {registry.d}\n"
        lines[1] = f"d {registry.d - 1}\n"
        mpath.write_text("".join(lines[:-1]))
        message = f"{mpath}: {registry.d - 1} weights, but the registry names {registry.d} features"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_model(mpath, registry)

    @pytest.mark.parametrize("which", ["model", "registry"])
    def test_crlf_newlines_rejected_at_line_1(self, tmp_path, which):
        registry, mpath, rpath = self.saved(tmp_path)
        path = {"model": mpath, "registry": rpath}[which]
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        magic = {"model": "salience-model v1", "registry": "salience-registry v2"}[which]
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 1: expected {magic!r}")):
            load_model(mpath, registry) if which == "model" else load_registry(rpath)

    @staticmethod
    def saved_with_lexicons(tmp_path):
        lex = LexiconSet(
            general={"bad": ("Negativ",)},
            sentiment={"bad": "negative", "good": "positive"},
            stopwords=frozenset({"a", "the"}),
        )
        registry = FeatureRegistry(lexicons=lex, top_unigrams=("plot",))
        model = SalienceModel(w=np.linspace(-1.0, 1.0, registry.d), lam=0.5, beta=0.1,
                              registry=registry)
        mpath, rpath = tmp_path / "sal.model", tmp_path / "sal.registry"
        save_model(model, mpath)
        save_registry(registry, rpath)
        # the registry line is the start of the sha256 of the registry file
        digest = hashlib.sha256(rpath.read_bytes()).hexdigest()[:16]
        assert f"\nregistry {digest}\n" in mpath.read_text()
        return mpath, rpath

    @pytest.mark.parametrize(
        "edit",
        [
            lambda t: t.replace("stopwords 2\na\n", "stopwords 1\n"),
            lambda t: t.replace("bad\tnegative", "bad\tpositive"),
        ],
        ids=["stopword_dropped", "polarity_flipped"],
    )
    def test_model_rejects_an_edited_registry(self, tmp_path, edit):
        # the edited registry still loads, and keeps its feature names, but
        # the weights were fitted with the lexicons before the edit
        mpath, rpath = self.saved_with_lexicons(tmp_path)
        names = load_registry(rpath).names
        rpath.write_text(edit(rpath.read_text()))
        edited = load_registry(rpath)
        assert edited.names == names
        with pytest.raises(ValueError, match=re.escape(f"{mpath}: registry hash mismatch")):
            load_model(mpath, edited)

    def test_unknown_polarity_rejected(self, tmp_path):
        _, rpath = self.saved_with_lexicons(tmp_path)
        rpath.write_text(rpath.read_text().replace("good\tpositive", "good\tpos"))
        with pytest.raises(
            ValueError, match=re.escape(f"{rpath}: sentiment word 'good' has 'pos'; it needs")
        ):
            load_registry(rpath)

    def test_lexicon_set_rejects_an_unknown_polarity(self):
        # the registry has no feature column for it
        with pytest.raises(ValueError, match="sentiment word 'w1' has unknown polarity 'odd'"):
            LexiconSet(sentiment={"w0": "positive", "w1": "odd"})

    def test_hash_mismatch_rejected(self, tmp_path):
        reg_a = FeatureRegistry(LexiconSet(general={"x": ("X",)}), top_unigrams=("a",))
        reg_b = FeatureRegistry(LexiconSet(general={"y": ("Y",)}), top_unigrams=("b",))
        model = SalienceModel(w=np.zeros(reg_a.d), lam=0.0, beta=1.0, registry=reg_a)
        path = tmp_path / "m"
        save_model(model, path)
        with pytest.raises(ValueError, match="registry hash"):
            load_model(path, reg_b)

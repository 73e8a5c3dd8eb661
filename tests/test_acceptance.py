"""Acceptance gate: each test implements one criterion at its stated
tolerance and prints one PASS line (pytest -s shows them; a failure
raises before the line prints)."""

import itertools
import time

import numpy as np
import pytest

from opinesum import beamdecode
from opinesum.attnseq2seq import encode, load_model, new_model, save_model, sequence_log_prob
from opinesum.evalmetrics import bleu, mean_ndcg_at, mrr, ndcg_at, rouge_su4
from opinesum.numkit import SeededRng
from opinesum.salience import (
    LexiconSet,
    baseline_rank,
    build_design,
    build_registry,
    cluster_features,
    fit_closed_form,
    gold_scores,
    rank_descending,
    relevant_units,
    score_units,
)
from opinesum.sampler import build_input, sample_training_input, select_test_input
from opinesum.textcorpus import Cluster, TfidfStats, build_vocab, text_unit
from opinesum.trainer import TrainConfig, gradient_check, train

from conftest import make_cluster, randomize
from test_salience import descent_minimizer, random_design


def report(n, name):
    print(f"\nACCEPTANCE {n} ({name}): PASS")


def test_criterion_1_gradient_correctness():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        worst = max(worst, gradient_check(seed=seed))
    elapsed = time.perf_counter() - start
    assert worst < 1e-4, f"max relative error {worst:.3e}"
    assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"
    report(1, f"gradient correctness: max relerr {worst:.2e} in {elapsed:.1f}s")


def test_criterion_2_closed_form_regression():
    rng = np.random.default_rng(20)
    for trial in range(20):
        d = int(rng.integers(2, 11))
        feats, labels = random_design(rng, d=d, n=int(rng.integers(8, 25)), n_clusters=3)
        design = build_design(feats, labels)
        lam = float(rng.choice([0.0, 0.1, 0.5, 1.0]))
        beta = float(rng.choice([0.05, 0.1, 1.0]))
        fitted = fit_closed_form(design.normal_equations, lam, beta, registry=None)
        oracle = descent_minimizer(design, lam, beta, tol=1e-12)
        assert np.abs(fitted.w - oracle).max() <= 1e-5, f"trial {trial}"
        if lam == 0.0:
            ridge = np.linalg.solve(
                design.R.T @ design.R + beta * np.eye(d), design.R.T @ design.L
            )
            assert np.abs(fitted.w - ridge).max() <= 1e-10
    # explicit lambda = 0 spot check on top of the random draw above
    feats, labels = random_design(np.random.default_rng(77), d=6)
    design = build_design(feats, labels)
    fitted = fit_closed_form(design.normal_equations, 0.0, 0.25, registry=None)
    ridge = np.linalg.solve(design.R.T @ design.R + 0.25 * np.eye(6), design.R.T @ design.L)
    assert np.abs(fitted.w - ridge).max() <= 1e-10
    report(2, "closed-form regression matches descent oracle and ridge")


def _six_word_model(seed):
    cluster = make_cluster(["ww ww", "ww"], summary="ww", cid="six", entity="boo")
    vocab = build_vocab([cluster])
    assert len(vocab) == 6
    model = randomize(new_model(vocab, None, 4, 3, 2), seed=seed, scale=0.8)
    z = build_input(cluster, [0, 1], vocab, TfidfStats([cluster]))
    return model, vocab, z, beamdecode.banned_indices(vocab, cluster)


def test_criterion_3_beam_optimality():
    for seed in range(5):
        model, vocab, z, banned = _six_word_model(seed)
        contexts = encode(model, [z])[0]
        pool = beamdecode.beam_search(model, contexts, width=1296, max_len=4, banned=banned)
        inner = [i for i in range(len(vocab)) if i not in banned and i != vocab.eos]
        best = -np.inf
        for length in range(1, 5):
            for prefix in itertools.product(inner, repeat=length - 1):
                ll, _ = sequence_log_prob(model, z, list(prefix) + [vocab.eos])
                best = max(best, ll)
        assert abs(pool[0].logp - best) <= 1e-10, f"seed {seed}"
    report(3, "beam width 1296 recovers the exhaustive optimum, 5 models")


def memorization_corpus():
    """Five 4-unit clusters over ~45 distinct words. Every unit carries all
    six of its cluster's topic words (uniform counts), so the gold summary
    (the topic words in canonical order) is also the cosine-rerank optimum
    among subset/repetition beam variants."""
    fillers = ["film", "great", "fun", "drama", "story", "cast", "plot", "tone", "pace", "style"]
    topics = [
        ["mars", "astronaut", "rescue", "potato", "space", "crew"],
        ["ring", "quest", "wizard", "volcano", "hobbit", "sword"],
        ["shark", "beach", "panic", "summer", "water", "boat"],
        ["robot", "future", "machine", "steel", "circuit", "spark"],
        ["dance", "music", "stage", "rhythm", "glitter", "crowd"],
    ]
    clusters = []
    for i, words in enumerate(topics):
        units = []
        for k in range(4):
            rotated = words[k:] + words[:k]
            toks = rotated + [fillers[(2 * k + i) % 10], fillers[(2 * k + i + 1) % 10]]
            units.append(text_unit(" ".join(toks)))
        clusters.append(
            Cluster(id=f"c{i}", units=tuple(units), summary=text_unit(" ".join(words)))
        )
    return clusters


def memorization_config(seed=0):
    return TrainConfig(
        d_emb=32, d_h=32, d_a=16, K=2, mode="importance",
        eta=0.25, max_epochs=500, patience=60, seed=seed, max_len=12,
    )


def test_criterion_4_memorization(tmp_path):
    from opinesum.textcorpus import default_stopwords, detokenize

    start = time.perf_counter()
    corpus = memorization_corpus()
    vocab = build_vocab(corpus)
    assert 40 <= len(vocab) <= 60  # |V| ~ 50
    for c in corpus:
        assert len(c.units) == 4
        assert 5 <= len(c.summary.tokens) <= 8
    config = memorization_config()
    scores = [np.ones(len(c.units)) for c in corpus]
    # the corpus names no entity, so it is its own substituted form
    tfidf = TfidfStats(corpus)
    path = tmp_path / "model.txt"
    history = train(
        corpus, scores, corpus, scores, config, tfidf, None, None, path,
        tmp_path / "history.csv",
    )
    assert len(history) <= 500
    model = load_model(path)
    stopwords = default_stopwords()
    hyps, refs = [], []
    for c, c_scores in zip(corpus, scores):
        z = select_test_input(c, c_scores, config.K, model.vocab, tfidf)
        hyp = beamdecode.greedy_decode(
            model, z, config.max_len, beamdecode.banned_indices(model.vocab, c)
        )
        norms = [model.vocab.word_of(t) for t in hyp.tokens[:-1]]
        assert norms == c.summary.norms(), f"cluster {c.id} not reproduced"
        hyps.append(norms)
        refs.append(c.summary.norms())
        # the full pipeline (beam + cosine rerank) also returns the gold text
        text = list(beamdecode.decode_split(
            model, [c], [c_scores], config.K, 5, config.max_len, tfidf, stopwords
        ))[0]["summary"]
        assert text == detokenize(c.summary.norms()), f"cluster {c.id} pipeline output"
    assert bleu(hyps, refs) == pytest.approx(1.0, abs=1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"memorization took {elapsed:.0f}s"
    report(4, f"memorization: 5/5 exact (greedy and full pipeline), BLEU 1.0, {len(history)} epochs in {elapsed:.0f}s")


def test_criterion_5_metric_oracles():
    # BLEU worked example: clipped counts by hand
    hyp = "the cat sat on the mat".split()
    ref = "the cat sat on a mat".split()
    expected = (5 / 6 * 4 / 6 * 3 / 5 * 2 / 4) ** 0.25
    assert bleu([hyp], [ref]) == pytest.approx(expected, abs=1e-12)
    # identical / disjoint corpora
    ident = [["smart", "fun"], ["a", "b"]]
    assert bleu(ident, [list(x) for x in ident]) == pytest.approx(1.0, abs=1e-12)
    assert bleu([["aa"]], [["bb"]]) == 0.0
    # ROUGE-SU4 worked example: 6 matched of 10 reference units
    assert rouge_su4("a b d".split(), "a b c d".split()) == pytest.approx(0.6, abs=1e-12)
    assert rouge_su4(["x", "y"], ["x", "y"]) == pytest.approx(1.0, abs=1e-12)
    assert rouge_su4(["p"], ["q"]) == 0.0
    # MRR: hand average over three mixed queries
    assert mrr([[1, 0], [0, 0, 1], [0, 0]]) == pytest.approx((1 + 1 / 3) / 3, abs=1e-12)
    # NDCG worked example
    assert ndcg_at(2, [0, 1]) == pytest.approx(0.6309297535714574, abs=1e-12)
    assert ndcg_at(3, [1, 1, 1]) == pytest.approx(1.0, abs=1e-12)
    assert ndcg_at(4, [0, 0]) == 0.0
    report(5, "metric oracles exact at 1e-12")


def test_criterion_6_sampling_distribution():
    cluster = make_cluster(["aa bb", "cc dd", "ee ff", "gg hh"], cid="s0")
    vocab = build_vocab([cluster])
    tfidf = TfidfStats([cluster])
    scores = [4.0, 2.0, 1.0, 1.0]
    n = 20000
    counts = np.zeros(4)
    for seed in range(n):
        z = sample_training_input(cluster, scores, 2, SeededRng(seed), vocab, tfidf)
        for k in z.source_units:
            counts[k] += 1
    probs = np.array(scores) / sum(scores)
    expected = np.zeros(4)
    for a, b in itertools.permutations(range(4), 2):
        p = probs[a] * probs[b] / (1 - probs[a])
        expected[a] += p
        expected[b] += p
    gap = np.abs(counts / n - expected).max()
    assert gap <= 0.02, f"max deviation {gap:.4f}"
    report(6, f"sampling inclusion matches enumeration (max dev {gap:.4f})")


POSITIVE_WORDS = [f"shiny{i}" for i in range(10)]
FILLER_WORDS = [f"filler{i}" for i in range(30)]
RANK_STOPWORDS = frozenset({"the", "a", "and"})


def ranking_cluster(rng, cid):
    """Relevance is a noisy linear function of the dense features:
    relevant units are short and positive-word-rich, irrelevant units are
    long, filler-heavy, and mutually similar."""
    markers = [f"mark_{cid}_{j}" for j in range(4)]
    texts = []
    for r in range(2):
        toks = [markers[2 * r + j] for j in range(int(rng.integers(1, 3)))]
        toks += list(rng.choice(POSITIVE_WORDS, size=int(rng.integers(2, 5)), replace=False))
        toks += list(rng.choice(FILLER_WORDS, size=1))
        rng.shuffle(toks)
        texts.append(" ".join(toks))
    for _ in range(4):
        toks = list(rng.choice(FILLER_WORDS, size=int(rng.integers(9, 14))))
        if rng.random() < 0.1:
            toks.append(str(rng.choice(POSITIVE_WORDS)))
        texts.append(" ".join(toks))
    order = rng.permutation(len(texts))
    units = tuple(text_unit(texts[i]) for i in order)
    return Cluster(id=cid, units=units, summary=text_unit(" ".join(markers) + " verdict"))


def test_criterion_7_ranking_beats_baselines():
    lex = LexiconSet(
        general={},
        sentiment={w: "positive" for w in POSITIVE_WORDS},
        stopwords=RANK_STOPWORDS,
    )
    for seed in range(5):
        rng = np.random.default_rng(seed)
        train_clusters = [ranking_cluster(rng, f"tr{seed}_{i}") for i in range(12)]
        eval_clusters = [ranking_cluster(rng, f"ev{seed}_{i}") for i in range(8)]
        registry = build_registry(train_clusters, lex, top_u=50)
        train_tfidf = TfidfStats(train_clusters)
        feats = [cluster_features(c, registry, train_tfidf) for c in train_clusters]
        labels = [gold_scores(c, RANK_STOPWORDS) for c in train_clusters]
        model = fit_closed_form(build_design(feats, labels).normal_equations, 0.5, 0.1, registry)
        eval_tfidf = TfidfStats(eval_clusters)
        metrics = {}
        for system in ("salience", "length", "centroid"):
            rels = []
            for c in eval_clusters:
                if system == "salience":
                    order = rank_descending(
                        score_units(model, cluster_features(c, registry, eval_tfidf))
                    )
                else:
                    order = baseline_rank(system, c, eval_tfidf)
                rels.append(relevant_units(c, RANK_STOPWORDS)[order].astype(int).tolist())
            metrics[system] = (mrr(rels), mean_ndcg_at(3, rels), mean_ndcg_at(5, rels))
        for i, name in enumerate(("MRR", "NDCG@3", "NDCG@5")):
            assert metrics["salience"][i] > metrics["length"][i], f"seed {seed} {name} vs length"
            assert metrics["salience"][i] > metrics["centroid"][i], f"seed {seed} {name} vs centroid"
    report(7, "fitted ranking strictly beats length and centroid baselines, 5 seeds")


def test_criterion_8_consistency(tmp_path):
    # beam incremental log-probs equal batch scores
    for seed in range(3):
        model, vocab, z, banned = _six_word_model(seed)
        contexts = encode(model, [z])[0]
        pool = beamdecode.beam_search(model, contexts, width=6, max_len=5, banned=banned)
        assert pool
        for h in pool:
            ll, _ = sequence_log_prob(model, z, list(h.tokens))
            assert abs(h.logp - ll) <= 1e-10

    # serialization round-trips value-exactly
    from conftest import tiny_setup

    model, _, z, y = tiny_setup(seed=8, with_features=True)
    path = tmp_path / "model.txt"
    save_model(model, path)
    loaded = load_model(path)
    for (name, a), (_, b) in zip(model.named_tensors(), loaded.named_tensors()):
        assert a.tolist() == b.tolist(), name
    ll_a, _ = sequence_log_prob(model, z, y)
    ll_b, _ = sequence_log_prob(loaded, z, y)
    assert ll_a == ll_b

    # identical seeds reproduce identical histories byte-for-byte
    corpus = memorization_corpus()
    scores = [np.ones(len(c.units)) for c in corpus]
    config = TrainConfig(
        d_emb=16, d_h=16, d_a=8, K=2, eta=0.15, max_epochs=5, patience=5,
        seed=3, max_len=12,
    )
    histories = []
    for run in range(2):
        history = train(
            corpus, scores, corpus, scores, config, TfidfStats(corpus), None, None,
            tmp_path / f"run{run}.txt", tmp_path / f"run{run}.csv",
        )
        rows = "\n".join(f"{e},{repr(nll)},{repr(b)}" for e, nll, b in history)
        histories.append(rows.encode())
    assert histories[0] == histories[1]
    report(8, "incremental/batch scores, serialization, and history reproducibility")

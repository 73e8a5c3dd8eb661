import weakref

import numpy as np
import pytest

from conftest import all_gradients, copy_model, make_cluster, traced_call
from opinesum import trainer
from opinesum.attnseq2seq import (
    ModelParams,
    ProductGradient,
    RowGradient,
    dense,
    load_model,
    sequence_log_prob,
)
from opinesum.salience import LexiconSet
from opinesum.sampler import build_input
from opinesum.textcorpus import (
    Cluster,
    TfidfStats,
    Vocabulary,
    build_vocab,
    load_embeddings,
    text_unit,
)
from opinesum.trainer import (
    AdagradState,
    TrainConfig,
    TrainingDivergedError,
    _ExtendedForward,
    _tiny_instance,
    adagrad_update,
    build_features,
    gradient_check,
    init_params,
    train,
)


def zero_grads(model):
    return {name: np.zeros_like(arr) for name, arr in model.named_tensors()}


def owned_arrays(grad):
    """The arrays a gradient from backward_pass owns: a view's base, a
    RowGradient's rows and values, a ProductGradient's output deltas (its
    other factor is the trace's decoder states)."""
    if isinstance(grad, RowGradient):
        return [grad.rows, grad.values]
    if isinstance(grad, ProductGradient):
        return [grad.left]
    return [grad if grad.base is None else grad.base]


def dense_adagrad_update(model, grads, state):
    """Oracle: the update over every coordinate of dense gradients."""
    for name, tensor in model.named_tensors():
        g = grads[name]
        acc = state.accum[name]
        acc += g * g
        step = np.zeros_like(g)
        np.divide(g, np.sqrt(acc) + state.eps, out=step, where=g != 0)
        step *= state.eta
        tensor -= step
    model.version += 1


@pytest.fixture
def memorize_corpus():
    """Two clusters with distinctive vocabulary, dev = train."""
    c0 = make_cluster(
        ["mars crew stranded alone", "mars rescue rocket", "mars botany potatoes"],
        summary="mars epic wins",
        cid="m0",
    )
    c1 = make_cluster(
        ["ring quest walking far", "ring volcano doom", "ring fellowship breaks"],
        summary="ring saga dazzles",
        cid="m1",
    )
    return [c0, c1]


def train_on(corpus, config, scores, model_path, pretrained=None):
    """train with `corpus` and `scores` as both splits, saving to
    `model_path`; the memorize corpus names no entity, so it is its own
    substituted form."""
    return train(
        corpus, scores, corpus, scores, config, TfidfStats(corpus), None, pretrained, model_path
    )


def quick_config(**kw):
    base = dict(
        d_emb=16, d_h=16, d_a=8, use_features=False, K=2, mode="uniform",
        eta=0.15, max_epochs=60, patience=60, seed=1, max_len=8,
    )
    base.update(kw)
    return TrainConfig(**base)


class TestInitParams:
    def test_same_seed_bitwise_identical(self):
        config = TrainConfig(d_emb=6, d_h=4, d_a=3, seed=9)
        vocab = build_vocab([make_cluster(["aa bb"], "cc")])
        a = init_params(config, vocab)
        b = init_params(config, vocab)
        for (name, ta), (_, tb) in zip(a.named_tensors(), b.named_tensors()):
            assert ta.tolist() == tb.tolist(), name

    def test_biases_zero_weights_bounded(self):
        config = TrainConfig(d_emb=6, d_h=4, d_a=3, seed=2)
        vocab = build_vocab([make_cluster(["aa bb"], "cc")])
        model = init_params(config, vocab)
        for name, arr in model.named_tensors():
            if name.rsplit(".", 1)[-1].startswith("b"):
                assert np.all(arr == 0.0), name
            else:
                assert np.abs(arr).max() <= config.init_scale
                assert np.abs(arr).max() > 0

    def test_pretrained_rows_overwrite(self, tmp_path):
        vocab = build_vocab([make_cluster(["aa bb"], "cc")])
        path = tmp_path / "vec.txt"
        path.write_text("aa 1 2 3 4 5 6\nbb 7 8 9 10 11 12\ncc 0 0 0 0 0 1\n")
        pretrained, coverage = load_embeddings(path, vocab, dim=6)
        assert coverage == 1.0
        config = TrainConfig(d_emb=6, d_h=4, d_a=3, seed=0)
        model = init_params(config, vocab, pretrained=pretrained)
        np.testing.assert_array_equal(
            model.emb[vocab.index_of("aa")], [1, 2, 3, 4, 5, 6]
        )
        # uncovered reserved rows keep their random init
        assert np.abs(model.emb[vocab.unk]).max() <= config.init_scale

    def test_pretrained_word_outside_vocab_rejected(self):
        vocab = build_vocab([make_cluster(["aa bb"], "cc")])
        config = TrainConfig(d_emb=2, d_h=4, d_a=3, seed=0)
        with pytest.raises(ValueError, match="'zz' is not in the vocabulary"):
            init_params(config, vocab, pretrained={"aa": np.ones(2), "zz": np.ones(2)})

    def test_pretrained_vector_of_other_length_rejected(self):
        # a one-value vector would otherwise broadcast over the whole row
        vocab = build_vocab([make_cluster(["aa bb"], "cc")])
        config = TrainConfig(d_emb=2, d_h=4, d_a=3, seed=0)
        with pytest.raises(ValueError, match="'aa' needs 2 values"):
            init_params(config, vocab, pretrained={"aa": np.ones(1)})


class TestAdagrad:
    def setup_method(self):
        vocab = build_vocab([make_cluster(["aa bb"], "cc")])
        self.model = init_params(TrainConfig(d_emb=4, d_h=3, d_a=2, seed=1), vocab)

    def test_zero_gradient_noop(self):
        state = AdagradState.for_model(self.model, eta=0.1, eps=1e-6)
        before = {n: a.copy() for n, a in self.model.named_tensors()}
        adagrad_update(self.model, zero_grads(self.model), state)
        for name, arr in self.model.named_tensors():
            assert arr.tolist() == before[name].tolist()
            assert np.all(state.accum[name] == 0.0)

    def test_first_update_is_sign_rule(self):
        state = AdagradState.for_model(self.model, eta=0.1, eps=1e-6)
        grads = zero_grads(self.model)
        grads["b_out"][0] = 3.0
        before = self.model.b_out[0]
        adagrad_update(self.model, grads, state)
        assert self.model.b_out[0] == pytest.approx(before - 0.1)

    def test_two_updates_hand_arithmetic(self):
        state = AdagradState.for_model(self.model, eta=0.1, eps=1e-6)
        before = self.model.b_out[0]
        for g in (3.0, 4.0):
            grads = zero_grads(self.model)
            grads["b_out"][0] = g
            adagrad_update(self.model, grads, state)
        assert self.model.b_out[0] == pytest.approx(before - 0.1 * (1 + 4 / 5))

    @pytest.mark.parametrize("eps", [0.0, -1e-6, float("nan")])
    def test_rejects_eps_not_positive(self, eps):
        with pytest.raises(ValueError, match="eps must be > 0"):
            AdagradState.for_model(self.model, eta=0.1, eps=eps)

    def test_steps_the_arrays_of_the_model_passed(self):
        # the name lookup is built once per model and holds its own arrays
        other = copy_model(self.model)
        for name, arr in self.model.named_tensors():
            assert np.shares_memory(self.model.tensors[name], arr), name
            assert not np.shares_memory(other.tensors[name], arr), name
        state = AdagradState.for_model(self.model, eta=0.1, eps=1e-6)
        ones = {"b_out": np.ones_like(self.model.b_out)}
        adagrad_update(self.model, ones, state)
        before, other_before = self.model.b_out.copy(), other.b_out.copy()
        # a state made for one model steps whichever model it is passed
        adagrad_update(other, ones, state)
        assert self.model.b_out.tobytes() == before.tobytes()
        assert np.all(other.b_out < other_before)

    def test_accumulators_non_decreasing(self):
        state = AdagradState.for_model(self.model, eta=0.1, eps=1e-6)
        rng = np.random.default_rng(0)
        prev = {n: a.copy() for n, a in state.accum.items()}
        for _ in range(5):
            grads = {n: rng.normal(size=a.shape) for n, a in self.model.named_tensors()}
            adagrad_update(self.model, grads, state)
            for name, acc in state.accum.items():
                assert np.all(acc >= prev[name])
                prev[name] = acc.copy()

    def test_eta_zero_is_bit_stable(self):
        state = AdagradState.for_model(self.model, eta=0.0, eps=1e-6)
        before = {n: a.copy() for n, a in self.model.named_tensors()}
        rng = np.random.default_rng(1)
        for _ in range(3):
            grads = {n: rng.normal(size=a.shape) for n, a in self.model.named_tensors()}
            adagrad_update(self.model, grads, state)
        for name, arr in self.model.named_tensors():
            assert arr.tolist() == before[name].tolist()

    def test_version_bumped(self):
        state = AdagradState.for_model(self.model, eta=0.1, eps=1e-6)
        v = self.model.version
        adagrad_update(self.model, zero_grads(self.model), state)
        assert self.model.version == v + 1

    def test_row_gradients_match_dense_oracle(self):
        # several steps of random sparse table gradients, with zero
        # coordinates in touched rows
        vocab = build_vocab([make_cluster([" ".join(f"t{i}" for i in range(30))], "cc")])
        lex = LexiconSet(general={"t1": ("strong",)}, sentiment={"t2": "positive"})
        features = build_features([make_cluster(["t1 t2"], "cc")], lex, dim=4)
        config = TrainConfig(d_emb=5, d_h=3, d_a=2, seed=4)
        models = [init_params(config, vocab, features) for _ in range(2)]
        states = [AdagradState.for_model(m, eta=0.1, eps=1e-6) for m in models]
        rng = np.random.default_rng(3)
        for _ in range(6):
            grads = {}
            for name, arr in models[0].named_tensors():
                g = rng.normal(size=arr.shape) * (rng.random(arr.shape) < 0.7)
                if name == "emb" or name.startswith("feat."):
                    rows = np.unique(rng.integers(arr.shape[0], size=arr.shape[0] // 3 + 1))
                    g = RowGradient(rows=rows, values=g[rows], n_rows=arr.shape[0])
                grads[name] = g
            adagrad_update(models[0], grads, states[0])
            dense_adagrad_update(models[1], {n: dense(g) for n, g in grads.items()}, states[1])
        for (name, got), (_, want) in zip(models[0].named_tensors(), models[1].named_tensors()):
            assert got.tobytes() == want.tobytes(), name
            assert states[0].accum[name].tobytes() == states[1].accum[name].tobytes(), name
        assert models[0].version == models[1].version == 6


    def test_steps_only_the_named_tensors(self):
        state = AdagradState.for_model(self.model, eta=0.1, eps=1e-6)
        before = {n: a.copy() for n, a in self.model.named_tensors()}
        adagrad_update(self.model, {"b_out": np.ones_like(self.model.b_out)}, state)
        for name, arr in self.model.named_tensors():
            assert (arr.tobytes() == before[name].tobytes()) == (name != "b_out"), name
            assert np.any(state.accum[name] != 0.0) == (name == "b_out"), name

    def test_product_gradient_matches_dense_oracle(self):
        # W_out stepped ROW_BLOCK rows at a time, with |V| spanning four
        # blocks (the last one partial), against the whole product
        n_rows = 3 * trainer.ROW_BLOCK + 17
        vocab = Vocabulary(f"t{i}" for i in range(n_rows - 5))
        config = TrainConfig(d_emb=3, d_h=7, d_a=2, seed=6)
        models = [init_params(config, vocab) for _ in range(2)]
        states = [AdagradState.for_model(m, eta=0.1, eps=1e-6) for m in models]
        rng = np.random.default_rng(6)
        for T in (1, 5, 13, 40):
            left = rng.normal(size=(T, n_rows))
            left[:, rng.integers(n_rows, size=50)] = 0.0  # rows that take no step
            g = ProductGradient(left, rng.normal(size=(T, config.d_h)))
            adagrad_update(models[0], {"W_out": g}, states[0])
            dense_adagrad_update(models[1], {**zero_grads(models[1]), "W_out": dense(g)}, states[1])
        assert models[0].W_out.shape[0] == n_rows
        assert models[0].W_out.tobytes() == models[1].W_out.tobytes()
        assert states[0].accum["W_out"].tobytes() == states[1].accum["W_out"].tobytes()


class TestExampleLifetime:
    def test_train_keeps_one_example_trace_and_gradient(
        self, memorize_corpus, monkeypatch, tmp_path
    ):
        earlier = []  # weak references to the traces and gradients of finished examples
        current = []  # those of the example being run
        alive_before = []  # how many earlier ones were alive at each call
        log_prob, backward = trainer.sequence_log_prob, trainer.backward_pass

        def tracked_log_prob(model, z, y):
            earlier.extend(current)
            current.clear()
            alive_before.append(sum(ref() is not None for ref in earlier))
            loglik, trace = log_prob(model, z, y)
            current.append(weakref.ref(trace))
            return loglik, trace

        def tracked_backward(model, trace, emit):
            alive_before.append(sum(ref() is not None for ref in earlier))

            def tracked_emit(group):
                current.extend(weakref.ref(a) for g in group.values() for a in owned_arrays(g))
                emit(group)

            return backward(model, trace, emit=tracked_emit)

        monkeypatch.setattr(trainer, "sequence_log_prob", tracked_log_prob)
        monkeypatch.setattr(trainer, "backward_pass", tracked_backward)
        scores = [np.ones(len(c.units)) for c in memorize_corpus]
        train_on(memorize_corpus, quick_config(max_epochs=2, patience=2), scores, tmp_path / "m")
        # two examples per epoch, one forward and one backward pass each
        assert alive_before == [0] * 8

    def test_each_group_steps_alone(self, memorize_corpus, monkeypatch, tmp_path):
        # Adagrad steps one group at a time, in the order backward_pass
        # finishes them, and each group is freed before the next one steps
        earlier = []  # weak references to the arrays of earlier groups
        alive_before = []  # how many were alive at each adagrad_update call
        stepped = []  # the names of each call
        update = trainer.adagrad_update

        def tracked_update(model, grads, state):
            alive_before.append(sum(ref() is not None for ref in earlier))
            stepped.append(sorted(grads))
            update(model, grads, state)
            earlier.extend(weakref.ref(a) for g in grads.values() for a in owned_arrays(g))

        monkeypatch.setattr(trainer, "adagrad_update", tracked_update)
        scores = [np.ones(len(c.units)) for c in memorize_corpus]
        path = tmp_path / "model.txt"
        train_on(memorize_corpus, quick_config(max_epochs=2, patience=2), scores, path)
        names = [name for name, _ in load_model(path).named_tensors()]

        def cell(prefix):
            # one group per weight: Wu, Wh, Wc, then b
            return [
                sorted(f"{prefix}.W_{g}u" for g in "ifco"),
                sorted(f"{prefix}.W_{g}h" for g in "ifco"),
                sorted(f"{prefix}.W_{g}c" for g in "ifo"),
                sorted(f"{prefix}.b_{g}" for g in "ifco"),
            ]

        groups = [
            ["W_out", "b_out"],
            *cell("dec"),
            sorted(n for n in names if n.startswith("attn.")),
            *cell("enc_f"),
            *cell("enc_b"),
            ["emb"],
        ]
        assert sorted(n for g in groups for n in g) == sorted(names)
        assert stepped == groups * 4  # two examples per epoch
        assert alive_before == [0] * len(stepped)

    def test_streamed_steps_match_two_phase_update(self):
        # each group stepped as backward_pass emits it, against the whole
        # gradient first and one update after, over several examples
        models = [long_instance(seed=5)[0] for _ in range(2)]
        states = [AdagradState.for_model(m, eta=0.1, eps=1e-6) for m in models]
        for order in ([0, 1, 2, 3], [2, 0], [3], [1, 3, 0]):
            _, z, y = long_instance(seed=5, order=order)
            trainer._train_example(models[0], states[0], z, y, "streamed")
            _, trace = sequence_log_prob(models[1], z, y)
            adagrad_update(models[1], all_gradients(models[1], trace), states[1])
        for (name, got), (_, want) in zip(models[0].named_tensors(), models[1].named_tensors()):
            assert got.tobytes() == want.tobytes(), name
            assert states[0].accum[name].tobytes() == states[1].accum[name].tobytes(), name


class TestExampleMemory:
    def test_per_example_peak_is_bounded(self):
        # one paper-size example (d 300/150/100, 129 encoder tokens, 13
        # targets) at |V| = 5,000: holding the whole gradient at once, the
        # example's traced peak was 27.8 MB; a group at a time 9.9 MB; with
        # each cell's weights emitted one at a time 8.7 MB; and with
        # backward_pass consuming the trace's distributions and attention
        # caches it is 8.0 MB
        rng = np.random.default_rng(0)
        words = [f"w{i}" for i in range(4995)]
        vocab = Vocabulary(words)
        units = tuple(text_unit(" ".join(rng.choice(words, 25))) for _ in range(5))
        cluster = Cluster(
            id="c", units=units, summary=text_unit(" ".join(rng.choice(words, 12))), entity=None
        )
        model = init_params(TrainConfig(d_emb=300, d_h=150, d_a=100), vocab)
        state = AdagradState.for_model(model, eta=0.01, eps=1e-6)
        z = build_input(cluster, range(5), vocab, TfidfStats([cluster]))
        y = list(vocab.encode(cluster.summary.norms())) + [vocab.eos]
        assert (len(vocab), len(z), len(y)) == (5000, 129, 13)
        _, _, peak = traced_call(trainer._train_example, model, state, z, y, "memory")
        assert peak < 9 * 2**20, peak / 2**20


class TestTrain:
    def test_history_deterministic(self, memorize_corpus, tmp_path):
        config = quick_config(max_epochs=4, patience=4)
        scores = [np.ones(len(c.units)) for c in memorize_corpus]
        hist_a = train_on(memorize_corpus, config, scores, tmp_path / "a.txt")
        hist_b = train_on(memorize_corpus, config, scores, tmp_path / "b.txt")
        assert hist_a == hist_b
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    def test_saved_model_matches_best_epoch(self, memorize_corpus, tmp_path):
        config = quick_config(max_epochs=12, patience=12)
        scores = [np.ones(len(c.units)) for c in memorize_corpus]
        history = train_on(memorize_corpus, config, scores, tmp_path / "model.txt")
        from opinesum.textcorpus import TfidfStats, substitute_entity
        from opinesum.trainer import _dev_bleu

        subs = [substitute_entity(c) for c in memorize_corpus]
        model = load_model(tmp_path / "model.txt")
        again = _dev_bleu(model, subs, scores, config, TfidfStats(subs))
        assert again == pytest.approx(max(h[2] for h in history))

    def test_early_stopped_model_is_the_best_epochs(self, memorize_corpus, tmp_path):
        # patience stops the run four epochs after its best one (7), and
        # those epochs step the model; the file still holds the best epoch,
        # as a run that ends at that epoch writes it
        scores = [np.ones(len(c.units)) for c in memorize_corpus]
        stopped = tmp_path / "stopped.txt"
        history = train_on(memorize_corpus, quick_config(patience=4), scores, stopped)
        best = max(history, key=lambda h: h[2])[0]
        assert (best, len(history)) == (7, 11)
        ended = tmp_path / "ended.txt"
        train_on(memorize_corpus, quick_config(max_epochs=best), scores, ended)
        assert stopped.read_bytes() == ended.read_bytes()

    def test_memorizes_small_corpus(self, memorize_corpus, tmp_path):
        config = quick_config(max_epochs=80, patience=80)
        scores = [np.ones(len(c.units)) for c in memorize_corpus]
        history = train_on(memorize_corpus, config, scores, tmp_path / "model.txt")
        assert max(h[2] for h in history) == pytest.approx(1.0)

    def test_train_holds_no_second_copy_of_the_parameters(self, tmp_path):
        # 5,000 words make the embedding and output layer dominate; the
        # best epoch (1) is followed by two more, as in
        # test_patience_stops_early, and is saved, not copied: the traced
        # peak was 3.4 times the parameters' size with an in-memory copy,
        # and 1.2 times were still held when train returned it
        words = [f"w{i}" for i in range(5000)]
        corpus = [
            make_cluster(
                [" ".join(words[j : j + 10]) for j in range(first, 5000, 20)],
                summary=" ".join(words[first : first + 3]),
                cid=f"m{first}",
            )
            for first in (0, 10)
        ]
        config = quick_config(d_emb=64, d_h=64, max_epochs=50, patience=2, eta=1e-300)
        scores = [np.ones(len(c.units)) for c in corpus]
        path = tmp_path / "model.txt"
        history, held, peak = traced_call(train_on, corpus, config, scores, path)
        assert len(history) == 3
        size = sum(arr.nbytes for _, arr in load_model(path).named_tensors())
        assert size > 5 * 2**20
        # the model and its Adagrad accumulators, one example and one block
        # of the file's text
        assert peak < 2.75 * size, peak / size
        assert held < 0.5 * size, held / size

    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"max_len": 0}, "max_len must be >= 1"),
            ({"max_len": -3}, "max_len must be >= 1"),
            ({"K": 0}, "K must be >= 1"),
            ({"patience": 0}, "patience must be >= 1"),
            ({"max_epochs": 0}, "max_epochs must be >= 1"),
        ],
    )
    def test_config_rejects_counts_below_one(self, setting, message):
        with pytest.raises(ValueError, match=message):
            quick_config(**setting)

    def test_empty_split_rejected(self, memorize_corpus, tmp_path):
        with pytest.raises(ValueError):
            train(
                [], [], memorize_corpus, [], quick_config(), TfidfStats([]), None, None,
                tmp_path / "model.txt",
            )

    @pytest.mark.parametrize("split", ["train", "dev"])
    def test_missing_scores_rejected_before_training(
        self, memorize_corpus, monkeypatch, split, tmp_path
    ):
        ran = []
        log_prob = trainer.sequence_log_prob
        monkeypatch.setattr(trainer, "sequence_log_prob", lambda *a: ran.append(1) or log_prob(*a))
        # the split's score list is one array short
        extra = make_cluster(["venus probe lands"], summary="venus wins", cid="x9")
        scores = [np.ones(len(c.units)) for c in memorize_corpus]
        splits = {"train": memorize_corpus, "dev": memorize_corpus}
        splits[split] = memorize_corpus + [extra]
        with pytest.raises(ValueError, match=f"3 {split} clusters but 2 score arrays"):
            train(
                splits["train"], scores, splits["dev"], scores,
                quick_config(max_epochs=2, patience=2), TfidfStats(splits["train"]), None, None,
                tmp_path / "model.txt",
            )
        assert ran == []

    def test_empty_vocabulary_rejected(self, memorize_corpus, tmp_path):
        config = quick_config(min_count=99)  # no word reaches the threshold
        scores = [np.ones(len(c.units)) for c in memorize_corpus]
        with pytest.raises(ValueError, match="vocabulary"):
            train_on(memorize_corpus, config, scores, tmp_path / "model.txt")

    def test_patience_stops_early(self, memorize_corpus, tmp_path):
        # steps of ~1e-300 leave every activation's bits as they are, so dev
        # BLEU never improves after epoch 1; training stops at patience
        config = quick_config(max_epochs=50, patience=2, eta=1e-300)
        scores = [np.ones(len(c.units)) for c in memorize_corpus]
        history = train_on(memorize_corpus, config, scores, tmp_path / "model.txt")
        assert len(history) == 3

    def test_divergence_detected(self, memorize_corpus, tmp_path):
        # a NaN-poisoned pretrained row aborts with cluster diagnostics,
        # before any epoch is saved
        config = quick_config(max_epochs=5, patience=5)
        poisoned = {"mars": np.full(config.d_emb, np.nan)}
        scores = [np.ones(len(c.units)) for c in memorize_corpus]
        path = tmp_path / "model.txt"
        with pytest.raises(TrainingDivergedError, match="epoch 1"):
            train_on(memorize_corpus, config, scores, path, poisoned)
        assert not path.exists()


def long_instance(seed, order=(0, 1, 2, 3)):
    """A features-on model and an example of 43 encoder tokens (four
    10-token units, three SEG) and 9 targets, so the stacked per-chain
    gradient products run over many steps. `order` picks the units of the
    encoder input."""
    rng = np.random.default_rng(seed)
    words = [f"v{i}" for i in range(24)]
    units = []
    for k in range(4):
        ws = [words[i] for i in rng.integers(0, 20, size=10)]
        units.append(
            text_unit(
                " ".join(w.capitalize() if j % 4 == 0 else w for j, w in enumerate(ws)),
                pos=[("nn", "vb", "jj")[(j + k) % 3] for j in range(10)],
                ner=["PER" if j % 5 == 0 else "O" for j in range(10)],
            )
        )
    cluster = Cluster(
        id="long", units=tuple(units), summary=text_unit(" ".join(words[16:24])), entity=None
    )
    vocab = build_vocab([cluster])
    lex = LexiconSet(
        general={"v0": ("strong",), "v3": ("weak",)},
        sentiment={"v1": "positive", "v2": "negative", "v17": "neutral"},
    )
    features = build_features([cluster], lex, dim=10)
    model = init_params(TrainConfig(d_emb=8, d_h=6, d_a=5, seed=seed), vocab, features)
    z = build_input(cluster, list(order), vocab, TfidfStats([cluster]))
    y = list(vocab.encode(cluster.summary.norms())) + [vocab.eos]
    return model, z, y


class TestGradientCheck:
    def test_long_sequence_matches_central_differences(self):
        # the first, the last and three seeded random coordinates of every
        # tensor, against the longdouble oracle's batched central differences
        model, z, y = long_instance(seed=7)
        assert len(z) >= 40 and len(y) >= 8
        _, trace = sequence_log_prob(model, z, y)
        grads = all_gradients(model, trace)
        fwd = _ExtendedForward(model, z, y)
        eps = np.longdouble(trainer.CHECK_EPSILON)
        rng = np.random.default_rng(11)
        for name, arr in model.named_tensors():
            coords = np.unique(np.r_[0, arr.size - 1, rng.integers(arr.size, size=3)])
            gn = (fwd.losses(name, coords, eps) - fwd.losses(name, coords, -eps)) / (2 * eps)
            ga = dense(grads[name]).reshape(-1)[coords]
            rel = np.abs(ga - gn.astype(np.float64)) / np.maximum(1e-8, np.abs(ga) + np.abs(gn))
            assert rel.max() < 1e-4, (name, float(rel.max()))

    def test_default_tiny_config_passes(self):
        assert gradient_check(seed=0) < 1e-4

    def test_epsilon_doubling_stays_small(self, monkeypatch):
        monkeypatch.setattr(trainer, "CHECK_EPSILON", 2e-5)
        assert gradient_check(seed=0) < 1e-3

    def test_extended_forward_agrees_with_production(self):
        model, z, y = _tiny_instance(seed=3)
        loglik, _ = sequence_log_prob(model, z, y)
        fwd = _ExtendedForward(model, z, y)
        assert float(fwd.loss()) == pytest.approx(-loglik, rel=1e-12)

    def test_extended_forward_coordinate_addressing(self):
        # perturbing an oracle coordinate, in place or through the batched
        # path, must equal perturbing the model itself, at both edges of
        # every tensor and at one coordinate inside it
        rng = np.random.default_rng(0)
        model, z, y = _tiny_instance(seed=5)
        fwd = _ExtendedForward(model, z, y)
        delta = 0.017
        for name, arr in model.named_tensors():
            assert fwd.tensors[name].shape == arr.shape, name
            flat = fwd.tensors[name].flat
            for i in sorted({0, int(rng.integers(arr.size)), arr.size - 1}):
                flat[i] += delta
                perturbed = float(fwd.loss())
                flat[i] -= delta
                batched = float(fwd.losses(name, [i], delta)[0])
                arr.reshape(-1)[i] += delta
                expected, _ = sequence_log_prob(model, z, y)
                arr.reshape(-1)[i] -= delta
                assert perturbed == pytest.approx(-expected, rel=1e-12), (name, i)
                assert batched == pytest.approx(-expected, rel=1e-12), (name, i)

    def test_off_path_parameter_has_zero_both_sides(self):
        model, z, y = _tiny_instance(seed=1)
        _, trace = sequence_log_prob(model, z, y)
        grads = all_gradients(model, trace)
        touched = set(int(i) for i in z.indices) | set(y) | {model.vocab.bos}
        untouched = next(i for i in range(len(model.vocab)) if i not in touched)
        assert np.all(dense(grads["emb"])[untouched] == 0.0)
        fwd = _ExtendedForward(model, z, y)
        base = float(fwd.loss())
        fwd.tensors["emb"][untouched, 0] += 1e-5
        assert float(fwd.loss()) == base

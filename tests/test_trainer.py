import numpy as np
import pytest

from conftest import make_cluster
from opinesum import trainer
from opinesum.attnseq2seq import backward_pass, sequence_log_prob
from opinesum.textcorpus import build_vocab, load_embeddings
from opinesum.trainer import (
    AdagradState,
    TrainConfig,
    TrainingDivergedError,
    _ExtendedForward,
    _tiny_instance,
    adagrad_update,
    gradient_check,
    init_params,
    train,
)


def zero_grads(model):
    return dict(model.zeros_like().named_tensors())


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
            model.embeddings.matrix[vocab.index_of("aa")], [1, 2, 3, 4, 5, 6]
        )
        # uncovered reserved rows keep their random init
        assert np.abs(model.embeddings.matrix[vocab.unk]).max() <= config.init_scale


class TestAdagrad:
    def setup_method(self):
        vocab = build_vocab([make_cluster(["aa bb"], "cc")])
        self.model = init_params(TrainConfig(d_emb=4, d_h=3, d_a=2, seed=1), vocab)

    def test_zero_gradient_noop(self):
        state = AdagradState.for_model(self.model, eta=0.1, eps=0.0)
        before = {n: a.copy() for n, a in self.model.named_tensors()}
        adagrad_update(self.model, zero_grads(self.model), state)
        for name, arr in self.model.named_tensors():
            assert arr.tolist() == before[name].tolist()
            assert np.all(state.accum[name] == 0.0)

    def test_first_update_is_sign_rule(self):
        state = AdagradState.for_model(self.model, eta=0.1, eps=0.0)
        grads = zero_grads(self.model)
        grads["b_out"][0] = 3.0
        before = self.model.b_out[0]
        adagrad_update(self.model, grads, state)
        assert self.model.b_out[0] == pytest.approx(before - 0.1)

    def test_two_updates_hand_arithmetic(self):
        state = AdagradState.for_model(self.model, eta=0.1, eps=0.0)
        before = self.model.b_out[0]
        for g in (3.0, 4.0):
            grads = zero_grads(self.model)
            grads["b_out"][0] = g
            adagrad_update(self.model, grads, state)
        assert self.model.b_out[0] == pytest.approx(before - 0.1 * (1 + 4 / 5))

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

    def test_frozen_rows_not_updated(self):
        self.model.embeddings.trainable[1] = False
        state = AdagradState.for_model(self.model, eta=0.1, eps=1e-6)
        grads = zero_grads(self.model)
        grads["emb"][...] = 1.0
        row = self.model.embeddings.matrix[1].copy()
        adagrad_update(self.model, grads, state)
        np.testing.assert_array_equal(self.model.embeddings.matrix[1], row)
        assert not np.array_equal(self.model.embeddings.matrix[0], row)


class TestTrain:
    def test_history_deterministic(self, memorize_corpus):
        config = quick_config(max_epochs=4, patience=4)
        scores = {c.id: np.ones(len(c.units)) for c in memorize_corpus}
        _, hist_a = train(memorize_corpus, memorize_corpus, config, scores)
        _, hist_b = train(memorize_corpus, memorize_corpus, config, scores)
        assert hist_a == hist_b

    def test_returned_model_matches_best_epoch(self, memorize_corpus):
        config = quick_config(max_epochs=12, patience=12)
        scores = {c.id: np.ones(len(c.units)) for c in memorize_corpus}
        model, history = train(memorize_corpus, memorize_corpus, config, scores)
        from opinesum.textcorpus import TfidfStats, substitute_entity
        from opinesum.trainer import _dev_bleu

        subs = [substitute_entity(c) for c in memorize_corpus]
        again = _dev_bleu(model, subs, config, scores, TfidfStats(subs))
        assert again == pytest.approx(max(h[2] for h in history))

    def test_memorizes_small_corpus(self, memorize_corpus):
        config = quick_config(max_epochs=80, patience=80)
        scores = {c.id: np.ones(len(c.units)) for c in memorize_corpus}
        model, history = train(memorize_corpus, memorize_corpus, config, scores)
        assert max(h[2] for h in history) == pytest.approx(1.0)

    def test_empty_split_rejected(self, memorize_corpus):
        with pytest.raises(ValueError):
            train([], memorize_corpus, quick_config(), {})

    def test_empty_vocabulary_rejected(self, memorize_corpus):
        config = quick_config(min_count=99)  # no word reaches the threshold
        scores = {c.id: np.ones(len(c.units)) for c in memorize_corpus}
        with pytest.raises(ValueError, match="vocabulary"):
            train(memorize_corpus, memorize_corpus, config, scores)

    def test_patience_stops_early(self, memorize_corpus):
        config = quick_config(max_epochs=50, patience=2, eta=0.0)
        scores = {c.id: np.ones(len(c.units)) for c in memorize_corpus}
        _, history = train(memorize_corpus, memorize_corpus, config, scores)
        # eta 0 never improves after epoch 1; stops at patience
        assert len(history) == 3

    def test_divergence_detected(self, memorize_corpus):
        # a NaN-poisoned pretrained row aborts with cluster diagnostics
        from opinesum.textcorpus import EmbeddingTable, substitute_entity

        config = quick_config(max_epochs=5, patience=5)
        vocab = build_vocab([substitute_entity(c) for c in memorize_corpus])
        poisoned = EmbeddingTable.zeros(len(vocab), config.d_emb)
        poisoned.matrix[vocab.index_of("mars")] = np.nan
        poisoned.covered[vocab.index_of("mars")] = True
        scores = {c.id: np.ones(len(c.units)) for c in memorize_corpus}
        with pytest.raises(TrainingDivergedError, match="epoch 1"):
            train(memorize_corpus, memorize_corpus, config, scores, pretrained=poisoned)


class TestGradientCheck:
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
        grads = backward_pass(model, trace)
        touched = set(int(i) for i in z.indices) | set(y) | {model.vocab.bos}
        untouched = next(i for i in range(len(model.vocab)) if i not in touched)
        assert np.all(grads["emb"][untouched] == 0.0)
        fwd = _ExtendedForward(model, z, y)
        base = float(fwd.loss())
        fwd.tensors["emb"][untouched, 0] += 1e-5
        assert float(fwd.loss()) == base

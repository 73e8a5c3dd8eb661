import binascii
import hashlib
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    all_gradients,
    copy_model,
    decode_one,
    make_cluster,
    randomize,
    tiny_setup,
    traced_call,
    v3_gate_tensors,
    v3_named_tensors,
)
from opinesum.attnseq2seq import (
    CHANNELS,
    LstmCellParams,
    MAGIC,
    BLOCK_VALUES,
    StaleTraceError,
    TokenFeatureSet,
    _attend,
    _chain_backward,
    _emit_cell_gradients,
    _encode_trace,
    _lstm_stepper,
    _row_blocks,
    _run_chain,
    attention_keys,
    decode_step,
    encode,
    load_model,
    new_model,
    save_model,
    sequence_log_prob,
)
from opinesum.salience import LexiconSet
from opinesum.sampler import build_input
from opinesum.textcorpus import (
    RESERVED,
    SENTIMENT_CATEGORIES,
    TfidfStats,
    Vocabulary,
    build_vocab,
)
from opinesum.trainer import build_features

DATA = Path(__file__).parent / "data"


def gate_tensors(p):
    """The cell's checkpoint v3 per-gate tensors by field name (W_iu, b_o, ...)."""
    return {name.split(".")[1]: arr for name, arr in v3_gate_tensors(p, "cell")}


def lstm_oracle(p, u, h_prev, c_prev):
    """Second implementation of the update rules, written independently."""
    sig = lambda x: 1.0 / (1.0 + np.exp(-x))
    w = gate_tensors(p)
    i = sig(w["W_iu"] @ u + w["W_ih"] @ h_prev + w["W_ic"] @ c_prev + w["b_i"])
    f = sig(w["W_fu"] @ u + w["W_fh"] @ h_prev + w["W_fc"] @ c_prev + w["b_f"])
    c = f * c_prev + i * np.tanh(w["W_cu"] @ u + w["W_ch"] @ h_prev + w["b_c"])
    o = sig(w["W_ou"] @ u + w["W_oh"] @ h_prev + w["W_oc"] @ c + w["b_o"])
    return o * np.tanh(c), c


def random_cell(rng, d_u, d_h, scale=0.5):
    p = LstmCellParams.zeros(d_u, d_h)
    for _, arr in v3_gate_tensors(p, "cell"):
        arr[...] = rng.uniform(-scale, scale, arr.shape)
    return p


def lstm_step(p, u, h_prev, c_prev):
    """One update of one sequence through the in-place stepper, as a batch
    of one row: (h, c, gate activations)."""
    a = (p.Wu @ u)[None]
    h, c = np.empty((1, p.d_h)), np.empty((1, p.d_h))
    _lstm_stepper(p)(a, h_prev[None], c_prev[None], h, c)
    return h[0], c[0], a[0]


def where_sigmoid(x):
    """The np.where sigmoid that sigmoid_elem(v, out) replaced."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def per_step_cell(p, a, h, c):
    """The per-step cell that the in-place stepper replaced, as an oracle.
    a = Wu u (a vector, or one row per sequence) is overwritten with the
    gate activations; returns the new (h, c)."""
    d = p.d_h
    rows = lambda W, x: (W @ x.T).T
    a += rows(p.Wh, h)
    a += p.b
    a[..., : 2 * d] += rows(p.Wc[: 2 * d], c)
    a[..., : 2 * d] = where_sigmoid(a[..., : 2 * d])
    np.tanh(a[..., 2 * d : 3 * d], out=a[..., 2 * d : 3 * d])
    c_new = a[..., d : 2 * d] * c + a[..., :d] * a[..., 2 * d : 3 * d]
    a[..., 3 * d :] = where_sigmoid(a[..., 3 * d :] + rows(p.Wc[2 * d :], c_new))
    return a[..., 3 * d :] * np.tanh(c_new), c_new


def per_step_backward(p, gates, c_prev, c, dh, dc_in):
    """The allocating BPTT step that the in-place one replaced, as an
    oracle: (gate deltas, dh_prev, dc_prev)."""
    d = p.d_h
    i, f, g, o = (gates[k * d : (k + 1) * d] for k in range(4))
    tanh_c = np.tanh(c)
    da_o = dh * tanh_c * o * (1.0 - o)
    dc = dh * o * (1.0 - tanh_c * tanh_c) + dc_in + p.Wc[2 * d :].T @ da_o
    da = np.concatenate(
        [dc * g * i * (1.0 - i), dc * c_prev * f * (1.0 - f), dc * i * (1.0 - g * g), da_o]
    )
    dc_prev = dc * f + p.Wc[: 2 * d].T @ da[: 2 * d]
    return da, p.Wh.T @ da, dc_prev


class TestLstmStep:
    def test_zero_params(self):
        p = LstmCellParams.zeros(2, 3)
        h, c, gates = lstm_step(p, np.zeros(2), np.zeros(3), np.zeros(3))
        np.testing.assert_array_equal(c, np.zeros(3))
        np.testing.assert_array_equal(h, np.zeros(3))
        # gate activations i, f, g, o: sigmoid(0) and tanh(0)
        np.testing.assert_allclose(gates, np.repeat([0.5, 0.5, 0.0, 0.5], 3))

    def test_saturated_gates_carry_memory(self):
        p = LstmCellParams.zeros(2, 3)
        w = gate_tensors(p)
        w["b_f"] += 100.0  # forget gate ~1
        w["b_i"] -= 100.0  # input gate ~0
        c_prev = np.array([0.3, -0.7, 1.2])
        _, c, _ = lstm_step(p, np.ones(2), np.zeros(3), c_prev)
        np.testing.assert_allclose(c, c_prev, atol=1e-8)

    def test_matches_independent_transcription(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = random_cell(rng, 3, 3)
            u = rng.normal(size=3)
            h_prev = rng.normal(size=3) * 0.5
            c_prev = rng.normal(size=3)
            h, c, _ = lstm_step(p, u, h_prev, c_prev)
            h_exp, c_exp = lstm_oracle(p, u, h_prev, c_prev)
            np.testing.assert_allclose(h, h_exp, atol=1e-14)
            np.testing.assert_allclose(c, c_exp, atol=1e-14)

    def test_gate_ranges(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = random_cell(rng, 4, 4, scale=2.0)
            h, _, gates = lstm_step(
                p, rng.normal(size=4), np.tanh(rng.normal(size=4)), rng.normal(size=4)
            )
            i, f, g, o = np.split(gates, 4)
            for gate in (i, f, o):
                assert np.all(gate > 0) and np.all(gate < 1)
            assert np.all(np.abs(g) < 1)
            assert np.all(np.abs(h) < 1)

    def test_bit_identical_to_per_step_cell(self):
        rng = np.random.default_rng(2)
        shapes = ((3, 2, (1,)), (8, 6, (1,)), (40, 32, (1,)), (12, 5, (4,)), (50, 32, (3,)))
        for d_u, d_h, rows in shapes:
            p = random_cell(rng, d_u, d_h, scale=1.5)
            u = rng.normal(size=rows + (d_u,))
            h_prev = np.tanh(rng.normal(size=rows + (d_h,)))
            c_prev = rng.normal(size=rows + (d_h,)) * 2
            a = (p.Wu @ u.T).T
            h, c = np.empty_like(h_prev), np.empty_like(c_prev)
            _lstm_stepper(p)(a, h_prev, c_prev, h, c)
            a_old = (p.Wu @ u.T).T
            h_old, c_old = per_step_cell(p, a_old, h_prev, c_prev)
            for new, old in ((a, a_old), (h, h_old), (c, c_old)):
                assert np.array_equal(new, old)

    @pytest.mark.parametrize("where", ["input", "h", "c"])
    def test_non_finite_gate_input_raises(self, where):
        p = random_cell(np.random.default_rng(3), 3, 2)
        a, h, c = (p.Wu @ np.ones(3))[None], np.zeros((1, 2)), np.zeros((1, 2))
        {"input": a, "h": h, "c": c}[where][0, 0] = np.nan if where != "c" else np.inf
        with pytest.raises(ValueError, match="NaN or Inf"):
            _lstm_stepper(p)(a, h, c, np.empty((1, 2)), np.empty((1, 2)))


class TestChains:
    """_run_chain and _chain_backward against the per-step oracles, and
    the emitted weight gradients against explicit products, bit for bit,
    on random chains."""

    @pytest.mark.parametrize("d_u, d_h, n", [(3, 2, 1), (8, 6, 9), (32, 32, 25), (21, 7, 40)])
    def test_forward_and_backward_match_per_step_oracles(self, d_u, d_h, n):
        rng = np.random.default_rng(d_u * 100 + n)
        p = random_cell(rng, d_u, d_h, scale=1.0)
        U = rng.normal(size=(n, d_u))
        chain = _run_chain(p, U[:, None])
        chain = replace(chain, U=U, gates=chain.gates[:, 0], H=chain.H[:, 0], C=chain.C[:, 0])
        gates = U @ p.Wu.T
        H, C = np.zeros((n + 1, d_h)), np.zeros((n + 1, d_h))
        for t in range(n):
            H[t + 1], C[t + 1] = per_step_cell(p, gates[t], H[t], C[t])
        for new, old in ((chain.gates, gates), (chain.H, H), (chain.C, C)):
            assert np.array_equal(new, old)

        dH = rng.normal(size=(n, d_h))
        deltas = _chain_backward(p, chain, dH)
        DA = np.empty_like(gates)
        dh, dc = np.zeros(d_h), np.zeros(d_h)
        for t in range(n - 1, -1, -1):
            DA[t], dh, dc = per_step_backward(p, gates[t], C[t], C[t + 1], dH[t] + dh, dc)
        assert np.array_equal(deltas, DA)

        pieces = []
        _emit_cell_gradients(lambda *piece: pieces.append(piece), "cell", chain, DA)
        oracle = LstmCellParams(
            Wu=DA.T @ U,
            Wh=DA.T @ H[:-1],
            Wc=np.concatenate([DA[:, : 2 * d_h].T @ C[:-1], DA[:, 3 * d_h :].T @ C[1:]]),
            b=DA.sum(axis=0),
        )
        # one weight at a time, in the order Wu, Wh, Wc, b, each a block of
        # rows at a time
        fields = ("Wu", "Wh", "Wc", "b")
        assert [name for name, _, _ in pieces] == [
            f"cell.{f}" for f in fields for _ in _row_blocks(getattr(oracle, f))
        ]
        for field in fields:
            want = getattr(oracle, field)
            got = np.zeros_like(want)
            for name, rows, values in pieces:
                if name == f"cell.{field}":
                    got[rows] = values
            assert np.array_equal(got, want), field


class TestTokenFeatureSet:
    def test_sentiment_rows_follow_the_polarities(self):
        features = TokenFeatureSet(
            [], (), {}, {"aa": "positive", "bb": "negative", "cc": "neutral"}, dim=2
        )
        assert features.table_rows()["sent"] == 1 + len(SENTIMENT_CATEGORIES)
        rows = [features.decode_ids(w)[CHANNELS.index("sent")] for w in ("dd", "aa", "bb", "cc")]
        assert rows == [0, 1, 2, 3]

    def test_rejects_an_unknown_polarity(self):
        # it would have counted in the absent row 0
        with pytest.raises(ValueError, match="sentiment word 'aa' has unknown polarity 'odd'"):
            TokenFeatureSet([], (), {}, {"bb": "negative", "aa": "odd"}, dim=2)


class TestEncode:
    def test_single_token(self, tiny):
        model, cluster, _, _ = tiny
        one = make_cluster(["dd"], cid="c1")
        z_one = build_input(one, [0], model.vocab, TfidfStats([one]))
        contexts = encode(model, [z_one])[0]
        assert contexts.shape == (1, 2 * model.d_h)
        rep = model.emb[model.vocab.index_of("dd")]
        zero = np.zeros(model.d_h)
        fwd = lstm_step(model.enc_f, rep, zero, zero)[0]
        bwd = lstm_step(model.enc_b, rep, zero, zero)[0]
        np.testing.assert_allclose(contexts[0], np.concatenate([fwd, bwd]), atol=1e-14)

    def test_palindrome_symmetry(self):
        cluster = make_cluster(["aa bb aa"])
        vocab = build_vocab([cluster])
        model = randomize(new_model(vocab, None, 4, 3, 2), seed=3)
        # same parameters on both chains
        for field in ("Wu", "Wh", "Wc", "b"):
            getattr(model.enc_b, field)[...] = getattr(model.enc_f, field)
        contexts = encode(model, [build_input(cluster, [0], vocab, TfidfStats([cluster]))])[0]
        n, d_h = 3, model.d_h
        for i in range(n):
            np.testing.assert_allclose(
                contexts[i, d_h:], contexts[n - 1 - i, :d_h], atol=1e-14
            )

    def test_three_token_manual_chain(self, tiny):
        model, cluster, _, _ = tiny
        three = make_cluster(["aa bb cc"], cid="c2")
        z = build_input(three, [0], model.vocab, TfidfStats([three]))
        contexts = encode(model, [z])[0]
        reps = [model.emb[i] for i in z.indices]
        h = c = np.zeros(model.d_h)
        for t in range(3):
            h, c, _ = lstm_step(model.enc_f, reps[t], h, c)
            np.testing.assert_allclose(contexts[t, : model.d_h], h, atol=1e-14)
        h = c = np.zeros(model.d_h)
        for t in (2, 1, 0):
            h, c, _ = lstm_step(model.enc_b, reps[t], h, c)
            np.testing.assert_allclose(contexts[t, model.d_h :], h, atol=1e-14)

    def test_invalid_index(self, tiny):
        model, cluster, z, _ = tiny
        bad = build_input(cluster, [0], model.vocab, TfidfStats([cluster]))
        bad.indices[0] = len(model.vocab) + 5
        with pytest.raises(ValueError):
            encode(model, [bad])[0]


class TestEncodeBlock:
    """encode on several inputs of unequal length at once."""

    @staticmethod
    def three_inputs(with_features):
        model, cluster, _, _ = tiny_setup(
            seed=6, with_features=with_features, d_emb=16, d_h=24, d_a=12, scale=0.8
        )
        tfidf = TfidfStats([cluster])
        # lengths 3, 6 (both units and a SEG) and 2
        zs = [build_input(cluster, order, model.vocab, tfidf) for order in ([0], [1, 0], [1])]
        assert [len(z) for z in zs] == [3, 6, 2]
        return model, zs

    @pytest.mark.parametrize("with_features", [False, True])
    def test_each_output_has_its_inputs_length(self, with_features):
        model, zs = self.three_inputs(with_features)
        got = encode(model, zs)
        assert [c.shape for c in got] == [(len(z), 2 * model.d_h) for z in zs]

    @pytest.mark.parametrize("with_features", [False, True])
    def test_each_output_matches_its_input_encoded_alone(self, with_features):
        model, zs = self.three_inputs(with_features)
        for z, block in zip(zs, encode(model, zs)):
            np.testing.assert_allclose(block, encode(model, [z])[0], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("with_features", [False, True])
    def test_one_input_keeps_the_bits_of_the_training_encoder(self, with_features):
        model, zs = self.three_inputs(with_features)
        for z in zs:
            y = [model.vocab.eos]
            got = sequence_log_prob(model, z, y)[1].enc.contexts
            want = encode(model, [z])[0]
            assert got.shape == want.shape
            assert (got.view(np.int64) == want.view(np.int64)).all()

    @pytest.mark.parametrize("with_features", [False, True])
    def test_block_keeps_the_bits_of_the_training_encoder(self, with_features):
        # encode and the training trace, one input at a time
        model, zs = self.three_inputs(with_features)
        for z in zs:
            trace = _encode_trace(model, z)
            assert encode(model, [z])[0].tobytes() == trace.contexts.tobytes()
            assert trace.fwd.H.shape == trace.bwd.H.shape == (len(z) + 1, model.d_h)

    def test_keeps_no_chain_state(self):
        # encode frees each chain's gates and cells as soon as the chain has
        # run, so its traced peak is about half of the training trace's
        words = [f"w{i}" for i in range(40)]
        cluster = make_cluster([" ".join(words[k : k + 30]) for k in range(0, 10, 2)])
        model = randomize(new_model(build_vocab([cluster]), None, 32, 24, 12), seed=2)
        tfidf = TfidfStats([cluster])
        for k in range(5):
            z = build_input(cluster, [k, 4 - k], model.vocab, tfidf)
            _, _, encode_peak = traced_call(encode, model, [z])
            _, _, trace_peak = traced_call(_encode_trace, model, z)
            assert encode_peak < 0.6 * trace_peak, (k, encode_peak, trace_peak)

    @pytest.mark.parametrize("bad", [0, 1, 2])
    def test_bad_index_in_any_input_raises(self, bad):
        model, zs = self.three_inputs(False)
        zs[bad].indices[-1] = len(model.vocab)
        with pytest.raises(ValueError, match="invalid token index"):
            encode(model, zs)


class TestAttend:
    def test_singleton(self, tiny):
        model, _, z, _ = tiny
        contexts = encode(model, [z])[0][:1]
        cache = _attend(model, contexts, attention_keys(model, contexts), np.zeros((1, model.d_h)))
        np.testing.assert_allclose(cache.a[0], [1.0])
        np.testing.assert_allclose(cache.s[0], contexts[0])

    def test_identical_contexts_uniform(self, tiny):
        model, _, z, _ = tiny
        b = np.tile(encode(model, [z])[0][0], (4, 1))
        cache = _attend(model, b, attention_keys(model, b), np.ones((1, model.d_h)) * 0.1)
        np.testing.assert_allclose(cache.a[0], 0.25)
        np.testing.assert_allclose(cache.s[0], b[0], atol=1e-14)

    def test_matches_formula_oracle(self, tiny):
        model, _, z, _ = tiny
        rng = np.random.default_rng(4)
        contexts = rng.normal(size=(4, 2 * model.d_h))
        h_prev = rng.normal(size=model.d_h)
        cache = _attend(model, contexts, attention_keys(model, contexts), h_prev[None])
        affinities = np.array(
            [
                model.attn.W_s @ np.tanh(model.attn.W_cg @ b + model.attn.W_hg @ h_prev)
                for b in contexts
            ]
        )
        expected_a = np.exp(affinities) / np.exp(affinities).sum()
        np.testing.assert_allclose(cache.a[0], expected_a, atol=1e-12)
        np.testing.assert_allclose(cache.s[0], expected_a @ contexts, atol=1e-12)

    def test_sums_to_one(self, tiny):
        model, _, z, _ = tiny
        contexts = encode(model, [z])[0]
        keys = attention_keys(model, contexts)
        rng = np.random.default_rng(5)
        for _ in range(100):
            a = _attend(model, contexts, keys, rng.normal(size=model.d_h)[None]).a[0]
            assert abs(a.sum() - 1.0) <= 1e-12
            assert np.all(a >= 0)

    def test_empty_contexts(self, tiny):
        model, _, _, _ = tiny
        empty = np.zeros((0, 2 * model.d_h))
        with pytest.raises(ValueError):
            _attend(model, empty, attention_keys(model, empty), np.zeros((1, model.d_h)))


class TestDecodeRows:
    def test_zero_logits_uniform(self, tiny):
        model, _, z, _ = tiny
        model.W_out[...] = 0.0
        model.b_out[...] = 0.0
        contexts = encode(model, [z])[0]
        zeros = np.zeros(model.d_h)
        _, _, p = decode_one(
            model, model.vocab.bos, zeros, zeros, contexts, attention_keys(model, contexts)
        )
        np.testing.assert_allclose(p, 1.0 / len(model.vocab), atol=1e-15)

    def test_probabilities_normalized_many_draws(self):
        for seed in range(1000):
            model, _, z, _ = tiny_setup(seed=seed, d_emb=3, d_h=2, d_a=2)
            contexts = encode(model, [z])[0]
            zeros = np.zeros(2)
            _, _, p = decode_one(
                model, model.vocab.bos, zeros, zeros, contexts, attention_keys(model, contexts)
            )
            assert abs(p.sum() - 1.0) <= 1e-12
            assert np.all(p > 0)

    def test_composed_oracle(self, tiny):
        model, _, z, _ = tiny
        contexts = encode(model, [z])[0]
        keys = attention_keys(model, contexts)
        h_prev, c_prev = np.tanh(np.linspace(-1, 1, model.d_h)), np.linspace(-1, 1, model.d_h)
        idx = model.vocab.index_of("bb")
        h, _, p = decode_one(model, idx, h_prev, c_prev, contexts, keys)
        s_exp = _attend(model, contexts, keys, h_prev[None]).s[0]
        u = np.concatenate([model.emb[idx], s_exp])
        h_exp, c_exp = lstm_oracle(model.dec, u, h_prev, c_prev)
        logits = model.W_out @ h_exp + model.b_out
        p_exp = np.exp(logits - logits.max())
        p_exp /= p_exp.sum()
        np.testing.assert_allclose(h, h_exp, atol=1e-13)
        np.testing.assert_allclose(p, p_exp, atol=1e-13)

    def test_each_row_matches_decode_step(self):
        # each row of a B-row call against a one-row call
        for with_features in (False, True):
            model, _, z, y = tiny_setup(seed=5, with_features=with_features, scale=0.8)
            contexts = encode(model, [z])[0]
            keys = attention_keys(model, contexts)
            rng = np.random.default_rng(4)
            rows = 4
            h = np.tanh(rng.normal(size=(rows, model.d_h)))
            c = rng.normal(size=(rows, model.d_h))
            prev = np.array([model.vocab.bos] + y[: rows - 1])
            h_new, c_new, probs = decode_step(model, prev, h, c, contexts, keys)
            assert probs.shape == (rows, len(model.vocab))
            for r in range(rows):
                h_one, c_one, p = decode_one(model, prev[r], h[r], c[r], contexts, keys)
                np.testing.assert_allclose(h_new[r], h_one, rtol=0, atol=1e-14)
                np.testing.assert_allclose(c_new[r], c_one, rtol=0, atol=1e-14)
                np.testing.assert_allclose(probs[r], p, rtol=1e-12, atol=1e-15)

    def test_identical_rows_give_identical_bits(self):
        # a hypothesis's score must not depend on the row slot the beam
        # gives it, for any beam width
        model, _, z, _ = tiny_setup(seed=2, with_features=True, d_emb=16, d_h=24, d_a=12)
        contexts = encode(model, [z])[0]
        keys = attention_keys(model, contexts)
        rng = np.random.default_rng(8)
        h0, c0 = np.tanh(rng.normal(size=model.d_h)), rng.normal(size=model.d_h)
        for rows in range(1, 41):
            prev = np.full(rows, model.vocab.index_of("bb"))
            h, c = np.tile(h0, (rows, 1)), np.tile(c0, (rows, 1))
            for got in decode_step(model, prev, h, c, contexts, keys):
                assert (got.view(np.int64) == got[0].view(np.int64)).all(), rows

    def test_invalid_index(self, tiny):
        model, _, z, _ = tiny
        contexts = encode(model, [z])[0]
        zeros = np.zeros((1, model.d_h))
        with pytest.raises(ValueError):
            decode_step(model, [-1], zeros, zeros, contexts, attention_keys(model, contexts))

    def test_rejects_bad_rows(self, tiny):
        model, _, z, _ = tiny
        contexts = encode(model, [z])[0]
        keys = attention_keys(model, contexts)
        zeros = np.zeros((2, model.d_h))
        with pytest.raises(ValueError):
            decode_step(model, [model.vocab.bos], zeros, zeros, contexts, keys)
        with pytest.raises(ValueError):
            decode_step(model, [0, len(model.vocab)], zeros, zeros, contexts, keys)
        with pytest.raises(ValueError):  # one token, not a row of tokens
            decode_step(model, model.vocab.bos, zeros[:1], zeros[:1], contexts, keys)
        with pytest.raises(ValueError):
            decode_step(model, [0, 1], zeros, zeros[:1], contexts, keys)


class TestSequenceLogProb:
    def test_uniform_model_loglik(self, tiny):
        model, _, z, y = tiny
        model.W_out[...] = 0.0
        model.b_out[...] = 0.0
        loglik, _ = sequence_log_prob(model, z, y)
        assert loglik == pytest.approx(len(y) * np.log(1.0 / len(model.vocab)))

    def test_loglik_nonpositive(self):
        for seed in range(20):
            model, _, z, y = tiny_setup(seed=seed)
            loglik, _ = sequence_log_prob(model, z, y)
            assert loglik <= 0.0

    def test_per_step_oracle(self):
        # the teacher-forced decoder takes decode_step's one-row step, bit for bit
        for with_features in (False, True):
            model, _, z, y = tiny_setup(with_features=with_features)
            loglik, trace = sequence_log_prob(model, z, y)
            contexts = encode(model, [z])[0]
            keys = attention_keys(model, contexts)
            h = c = np.zeros(model.d_h)
            total = 0.0
            prev = model.vocab.bos
            for t, target in enumerate(y):
                h, c, p = decode_one(model, prev, h, c, contexts, keys)
                pairs = ((trace.dec.H[t + 1], h), (trace.dec.C[t + 1], c), (trace.probs[t], p))
                for got, want in pairs:
                    assert np.array_equal(got, want), (with_features, t)
                total += np.log(p[target])
                prev = target
            assert loglik == pytest.approx(total, abs=1e-12)

    def test_requires_eos(self, tiny):
        model, _, z, y = tiny
        with pytest.raises(ValueError, match="EOS"):
            sequence_log_prob(model, z, y[:-1])

    def test_rejects_out_of_vocab(self, tiny):
        model, _, z, y = tiny
        with pytest.raises(ValueError):
            sequence_log_prob(model, z, [len(model.vocab) + 1, model.vocab.eos])

    def test_deterministic(self, tiny):
        model, _, z, y = tiny
        a, _ = sequence_log_prob(model, z, y)
        b, _ = sequence_log_prob(model, z, y)
        assert a == b


class TestBackwardPass:
    def test_untouched_embedding_row_zero(self, tiny_feat):
        model, cluster, z, y = tiny_feat
        _, trace = sequence_log_prob(model, z, y)
        grads = all_gradients(model, trace)
        touched = set(int(i) for i in z.indices) | set(y) | {model.vocab.bos}
        emb = grads["emb"]
        for idx in range(len(model.vocab)):
            row = emb[idx]
            if idx not in touched:
                assert np.all(row == 0.0)
        # and at least one touched row is nonzero
        assert np.abs(emb[int(z.indices[0])]).max() > 0

    def test_output_projection_finite_differences(self, tiny):
        # W_out gradients are large-magnitude; float64 differences suffice
        model, _, z, y = tiny
        _, trace = sequence_log_prob(model, z, y)
        grads = all_gradients(model, trace)
        eps = 1e-6
        flat = model.W_out.reshape(-1)
        gflat = grads["W_out"].reshape(-1)
        rng = np.random.default_rng(0)
        for i in rng.choice(flat.size, size=10, replace=False):
            orig = flat[i]
            flat[i] = orig + eps
            lp, _ = sequence_log_prob(model, z, y)
            flat[i] = orig - eps
            lm, _ = sequence_log_prob(model, z, y)
            flat[i] = orig
            numeric = -(lp - lm) / (2 * eps)
            assert gflat[i] == pytest.approx(numeric, rel=1e-5, abs=1e-9)

    def test_stale_trace_rejected(self, tiny):
        model, _, z, y = tiny
        _, trace = sequence_log_prob(model, z, y)
        model.version += 1  # simulates an optimizer update
        with pytest.raises(StaleTraceError):
            all_gradients(model, trace)

    def test_consumed_trace_rejected(self, tiny):
        # backward_pass turns the trace's word distributions into its
        # output deltas in place, so a trace is differentiated once
        model, _, z, y = tiny
        _, trace = sequence_log_prob(model, z, y)
        all_gradients(model, trace)
        assert trace.probs is None and trace.attn is None
        with pytest.raises(StaleTraceError, match="consumed"):
            all_gradients(model, trace)

    def test_feature_table_rows_touched_only(self, tiny_feat):
        model, _, z, y = tiny_feat
        _, trace = sequence_log_prob(model, z, y)
        grads = all_gradients(model, trace)
        used_pos_rows = {0}  # SEG and decoder-side lookups use the absent row
        for tok in z.tokens:
            if tok is not None:
                used_pos_rows.add(int(model.features.encode_ids(tok)[0]))
        pos = grads["feat.pos"]
        for row in range(model.feat_tables["pos"].shape[0]):
            if row not in used_pos_rows:
                assert np.all(pos[row] == 0.0)


class TestSerialization:
    def test_round_trip_value_exact(self, tiny_feat, tmp_path):
        model, _, z, y = tiny_feat
        path = tmp_path / "model.txt"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.vocab.words == model.vocab.words
        assert loaded.features.pos_tags == model.features.pos_tags
        assert loaded.features.lex_categories == model.features.lex_categories
        assert loaded.features.word_sent == model.features.word_sent
        for (name_a, a), (name_b, b) in zip(model.named_tensors(), loaded.named_tensors()):
            assert name_a == name_b
            assert a.tolist() == b.tolist(), name_a
        # behavioral equality
        ll_a, _ = sequence_log_prob(model, z, y)
        ll_b, _ = sequence_log_prob(loaded, z, y)
        assert ll_a == ll_b

    def test_round_trip_multicategory_lexicon(self, tmp_path):
        # a category that is never any word's first choice must survive
        cluster = make_cluster(["aa bb cc", "dd ee"], summary="bb dd")
        vocab = build_vocab([cluster])
        lexicons = LexiconSet(
            general={"aa": ("Alpha", "Zeta"), "dd": ("Alpha",)}, sentiment={"bb": "neutral"}
        )
        features = build_features([cluster], lexicons, dim=3)
        assert features.lex_categories == ("Alpha", "Zeta")
        assert features.word_lex == {"aa": "Alpha", "dd": "Alpha"}
        model = randomize(new_model(vocab, features, 4, 3, 2), seed=21)
        path = tmp_path / "model.txt"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.features.lex_categories == ("Alpha", "Zeta")
        assert loaded.feat_tables["lex"].shape == model.feat_tables["lex"].shape
        z = build_input(cluster, [0, 1], vocab, TfidfStats([cluster]))
        y = list(vocab.encode(cluster.summary.norms())) + [vocab.eos]
        ll_a, _ = sequence_log_prob(model, z, y)
        ll_b, _ = sequence_log_prob(loaded, z, y)
        assert ll_a == ll_b

    def test_round_trip_without_features(self, tiny, tmp_path):
        model, _, z, y = tiny
        path = tmp_path / "model.txt"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.features is None
        ll_a, _ = sequence_log_prob(model, z, y)
        ll_b, _ = sequence_log_prob(loaded, z, y)
        assert ll_a == ll_b

    def test_reads_and_rewrites_committed_v4_checkpoint(self, tmp_path):
        # tests/data/model_v4.txt: a 4/3/2 model with token features, first
        # saved as a v1 checkpoint (decimal text rows) by the per-gate
        # layout that predates the four-array LSTM cells, then loaded and
        # saved as v2 by the last reader of both formats, then converted to
        # v3 by dropping its all-1 'trainable' and all-0 'covered' lines
        # (tests/data/model_v3.txt), then to v4 by the README's script
        path = DATA / "model_v4.txt"
        model = load_model(path)
        assert model.features is not None
        assert len(list(model.named_tensors())) == 23
        digest = hashlib.sha256()
        for name, arr in v3_named_tensors(model):
            digest.update(name.encode("ascii"))
            digest.update(arr.tobytes())
        # the tensors as that reader loaded them from the v1 file, by their
        # v3 names and gate row blocks
        assert digest.hexdigest() == (
            "dfcae0f7c17aea57f2f324c7d275ba7f842be62dddc7beb16eb95a5109cfc567"
        )
        cluster = make_cluster(["aa bb cc", "dd ee"], summary="bb dd")
        # the loglik below was taken with zero tf-idf slots
        z = build_input(cluster, [0, 1], model.vocab, TfidfStats([cluster]))
        z = replace(z, tfidf=np.zeros_like(z.tfidf))
        y = list(model.vocab.encode(cluster.summary.norms())) + [model.vocab.eos]
        loglik, _ = sequence_log_prob(model, z, y)
        assert loglik == pytest.approx(-6.966382877818599, rel=1e-12)
        # saving it again writes the committed bytes
        again = tmp_path / "model.txt"
        save_model(model, again)
        assert again.read_bytes() == path.read_bytes()

    def test_readme_script_converts_v3_to_v4(self, tmp_path, monkeypatch):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        script = re.search(r"A v3 file converts to v4.*?```python\n(.*?)```", readme, re.S)
        (tmp_path / "model.txt").write_bytes((DATA / "model_v3.txt").read_bytes())
        monkeypatch.chdir(tmp_path)
        exec(script.group(1), {})
        assert (tmp_path / "model.txt").read_bytes() == (DATA / "model_v4.txt").read_bytes()

    def test_rejects_checkpoint_v3(self):
        path = DATA / "model_v3.txt"
        message = f"{path}: line 1: expected 'opinesum-model v4'"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_model(path)

    def test_rejects_checkpoint_v2(self, tmp_path):
        # v2 is not read either: the v3 fixture with v2's magic line and
        # per-row flag lines fails on line 1
        v3 = (DATA / "model_v3.txt").read_text()
        head, sep, tensors = v3.partition("\ntensor ")
        flags = "trainable 1111111111\ncovered 0000000000"
        v2 = head.replace("opinesum-model v3", "opinesum-model v2", 1) + "\n" + flags + sep + tensors
        path = tmp_path / "model.txt"
        path.write_text(v2)
        message = f"{path}: line 1: expected 'opinesum-model v4'"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_model(path)

    def test_rejects_unknown_polarity(self, tmp_path):
        # a word_sent polarity the feature rows have no row for, under a
        # recomputed digest, so only the polarity fails
        lines = (DATA / "model_v4.txt").read_text().split("\n")
        lines[lines.index("ee\tnegative")] = "ee\todd"
        body = "\n".join(lines[:-2]) + "\n"
        lines[-2] = f"sha256 {hashlib.sha256(body.encode()).hexdigest()}"
        path = tmp_path / "model.txt"
        path.write_text("\n".join(lines))
        message = f"{path}: word_sent: sentiment word 'ee' has unknown polarity 'odd'"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_model(path)

    def test_saved_checkpoint_is_ascii_with_vocab_on_line_3_and_reproducible(self, tiny, tmp_path):
        # tools read the vocabulary size from line 3 of a text-mode file
        # and compare the bytes of two saves of one model
        model, _, _, _ = tiny
        first, second = tmp_path / "a.txt", tmp_path / "b.txt"
        save_model(model, first)
        save_model(model, second)
        with open(first, encoding="ascii") as fh:
            lines = fh.read().split("\n")
        assert lines[2] == f"vocab {len(model.vocab)}"
        assert first.read_bytes() == second.read_bytes()

    def test_failed_save_keeps_the_old_checkpoint(self, tiny, tmp_path, monkeypatch):
        model, _, _, _ = tiny
        path = tmp_path / "model.txt"
        save_model(model, path)
        before = path.read_bytes()
        other = copy_model(model)
        other.b_out += 1.0
        first_three = list(other.named_tensors())[:3]

        def tensors_then_fail():
            yield from first_three
            raise RuntimeError("disk full")

        monkeypatch.setattr(other, "named_tensors", tensors_then_fail)
        with pytest.raises(RuntimeError, match="disk full"):
            save_model(other, path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.txt"]

    def test_save_holds_one_block_of_a_long_tensor(self, tmp_path):
        # an embedding of three blocks and 17 rows: the traced peak of the
        # save is bounded by one block's text, not by the whole tensor's
        # (six blocks when each tensor was joined whole); what the load
        # holds beyond the model it builds is one block's lines, their bytes
        # and the vocabulary (8.9 blocks' text when each tensor was read whole)
        rows = BLOCK_VALUES // 64
        vocab = Vocabulary(f"t{i}" for i in range(3 * rows + 17 - len(RESERVED)))
        model = randomize(new_model(vocab, None, 64, 3, 2), seed=4)
        path = tmp_path / "model.txt"
        _, _, peak = traced_call(save_model, model, path)
        block_text = rows * len(binascii.b2a_base64(model.emb[0].tobytes()))
        assert peak < 3 * block_text, peak / block_text
        loaded, _, peak = traced_call(load_model, path)
        size = sum(arr.nbytes for _, arr in model.named_tensors())
        assert peak < size + 4 * block_text, (peak - size) / block_text
        for (name, a), (_, b) in zip(model.named_tensors(), loaded.named_tensors()):
            assert a.tobytes() == b.tobytes(), name

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a model\n")
        with pytest.raises(ValueError):
            load_model(path)

    def _saved_lines(self, tiny, tmp_path):
        model, _, _, _ = tiny
        path = tmp_path / "model.txt"
        save_model(model, path)
        return path, path.read_text().split("\n")

    def test_rejects_file_cut_before_a_tensor(self, tiny, tmp_path):
        path, lines = self._saved_lines(tiny, tmp_path)
        cut = lines.index(next(ln for ln in lines if ln.startswith("tensor W_out ")))
        path.write_text("\n".join(lines[:cut]) + "\n")
        with pytest.raises(ValueError, match="expected 'tensor W_out "):
            load_model(path)

    def test_rejects_file_cut_inside_a_tensor(self, tiny, tmp_path):
        path, lines = self._saved_lines(tiny, tmp_path)
        start = lines.index(next(ln for ln in lines if ln.startswith("tensor W_out ")))
        path.write_text("\n".join(lines[: start + 2]) + "\n")
        with pytest.raises(ValueError, match="W_out"):
            load_model(path)
        # a row cut short inside the last tensor, the digest line kept
        assert lines[-2].startswith("sha256 ") and lines[-1] == ""
        path.write_text("\n".join(lines[:-3] + [lines[-3][:-4]] + lines[-2:]))
        with pytest.raises(ValueError, match="b_out row holds"):
            load_model(path)

    def test_rejects_duplicated_tensor(self, tiny, tmp_path):
        path, lines = self._saved_lines(tiny, tmp_path)
        start = lines.index(next(ln for ln in lines if ln.startswith("tensor b_out ")))
        # the b_out block again, between the first one and the digest line
        path.write_text("\n".join(lines[:-2] + lines[start:-2] + lines[-2:]))
        message = "no 'sha256 <hex>' line after the last tensor, got 'tensor b_out"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_model(path)

    def test_rejects_wrong_shape(self, tiny, tmp_path):
        model, _, _, _ = tiny
        path, lines = self._saved_lines(tiny, tmp_path)
        start = lines.index(next(ln for ln in lines if ln.startswith("tensor attn.W_s ")))
        d_a = model.d_a
        # same number of values, declared with the rows and columns swapped
        lines[start : start + 2] = [f"tensor attn.W_s {d_a} 1"] + lines[start + 1].split()
        path.write_text("\n".join(lines))
        with pytest.raises(ValueError, match="expected 'tensor attn.W_s "):
            load_model(path)

    @staticmethod
    def _swap_attention_blocks(lines):
        """The attn.W_s block moved before attn.W_hg, both otherwise intact."""
        starts = {ln.split()[1]: i for i, ln in enumerate(lines) if ln.startswith("tensor ")}
        hg, s, out = starts["attn.W_hg"], starts["attn.W_s"], starts["W_out"]
        return lines[:hg] + lines[s:out] + lines[hg:s] + lines[out:], "attn.W_hg", hg + 1

    @staticmethod
    def _rename_a_block(lines):
        """The attn.W_s header names a tensor the model does not have."""
        at = next(i for i, ln in enumerate(lines) if ln.startswith("tensor attn.W_s "))
        lines[at] = lines[at].replace("attn.W_s", "attn.W_z")
        return lines, "attn.W_s", at + 1

    @pytest.mark.parametrize("reorder", ["_swap_attention_blocks", "_rename_a_block"])
    def test_rejects_blocks_out_of_checkpoint_order(self, tiny, tmp_path, reorder):
        path, lines = self._saved_lines(tiny, tmp_path)
        lines, name, line_no = getattr(self, reorder)(lines)
        # a digest recomputed over the changed lines, so only the order fails
        body = "\n".join(lines[:-2]) + "\n"
        lines[-2] = f"sha256 {hashlib.sha256(body.encode()).hexdigest()}"
        path.write_text("\n".join(lines))
        message = f"{path}: line {line_no}: expected 'tensor {name} "
        with pytest.raises(ValueError, match=re.escape(message)):
            load_model(path)

    @pytest.mark.parametrize("name, row, value", [("W_out", 2, np.inf), ("emb", 3, np.nan)])
    def test_rejects_non_finite_weight(self, tiny, tmp_path, name, row, value):
        model, _, _, _ = tiny
        model.tensors[name][row, 1] = value
        # save_model writes the digest of the file it writes, so only the
        # value can fail
        path, lines = self._saved_lines(tiny, tmp_path)
        line_no = lines.index(next(ln for ln in lines if ln.startswith(f"tensor {name} "))) + 2
        message = f"{path}: line {line_no + row}: tensor {name}: non-finite weight"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_model(path)

    def test_rejects_row_with_wrong_value_count(self, tiny, tmp_path):
        path, lines = self._saved_lines(tiny, tmp_path)
        start = lines.index(next(ln for ln in lines if ln.startswith("tensor W_out ")))
        lines[start + 1] += " 0.5"
        path.write_text("\n".join(lines))
        with pytest.raises(ValueError, match="W_out"):
            load_model(path)

    def test_rejects_flipped_payload_byte(self, tiny, tmp_path):
        path, lines = self._saved_lines(tiny, tmp_path)
        row = lines.index(next(ln for ln in lines if ln.startswith("tensor W_out "))) + 1
        # another base64 letter: the row still decodes to its full width
        lines[row] = ("B" if lines[row][0] != "B" else "C") + lines[row][1:]
        path.write_text("\n".join(lines))
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*digest mismatch"):
            load_model(path)

    def test_rejects_missing_digest(self, tiny, tmp_path):
        path, lines = self._saved_lines(tiny, tmp_path)
        path.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(ValueError, match="no 'sha256 <hex>' line"):
            load_model(path)

    def test_rejects_non_utf8(self, tiny, tmp_path):
        path, lines = self._saved_lines(tiny, tmp_path)
        path.write_bytes(path.read_bytes().replace(b"\nUNK\n", b"\n\xffNK\n"))
        line = lines.index("UNK") + 1
        with pytest.raises(ValueError, match=re.escape(f"{path}:{line}: not UTF-8 text")):
            load_model(path)

    def test_rejects_crlf_newlines_at_line_1(self, tiny, tmp_path):
        # the digest covers every line's bytes, so rewritten newlines never load
        path, _ = self._saved_lines(tiny, tmp_path)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 1: expected {MAGIC!r}")):
            load_model(path)

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda t: t[:-3], "truncated"),
            (lambda t: re.sub(r"\nvocab \d+\n", "\nvocab\n", t), "expected 'vocab <value>'"),
            (lambda t: t.replace("\ndims ", "\nsize "), "expected 'dims <value>'"),
            (lambda t: t.replace("\nbb\ndd\n", "\nbb\nbb\n", 1), "repeat no word"),
            (lambda t: t.replace("\naa\tPositiv\n", "\naa Positiv\n"), "word_lex: expected"),
        ],
        ids=[
            "cut_mid_number", "vocab_without_count", "dims_under_other_key",
            "vocab_repeats_a_word", "word_lex_without_tab",
        ],
    )
    def test_damaged_checkpoint_rejected(self, tiny_feat, tmp_path, damage, message):
        model, _, _, _ = tiny_feat
        path = tmp_path / "model.txt"
        save_model(model, path)
        # the undamaged file loads, so each failure below is the damage's
        assert load_model(path).b_out.tolist() == model.b_out.tolist()
        text = path.read_text()
        assert damage(text) != text
        path.write_text(damage(text))
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*" + re.escape(message)):
            load_model(path)

"""Attention encoder-decoder with exact reverse-mode gradients.

Forward pieces: LSTM cell, bidirectional encoder over the concatenated
input, additive attention, conditional decoder, and sequence
log-likelihood. backward_pass differentiates the whole composite by hand
(backpropagation through time); every activation needed for the backward
sweep is kept on a ForwardTrace.
"""

import binascii
import functools
import hashlib
import io
from dataclasses import dataclass

import numpy as np

from .numkit import log_softmax, sigmoid_elem, softmax
from .textcorpus import (
    RESERVED,
    Vocabulary,
    atomic_write,
    read_artifact,
    write_block,
)

CHANNELS = ("pos", "ner", "cap", "lex", "sent")
MAGIC = "opinesum-model v3"  # the checkpoint's first line

class StaleTraceError(RuntimeError):
    """The model changed since the trace was recorded, or a backward_pass consumed it."""


@dataclass
class LstmCellParams:
    """The projection matrices and biases of one LSTM cell, as four arrays.

    Wu (4 d_h x d_u) and Wh (4 d_h x d_h) stack the row blocks of the gates
    i, f, g, o; b (4 d_h) stacks their biases. Wc (3 d_h x d_h) stacks the
    full-matrix cell feedback of i and f on the previous cell and of o on
    the new cell.
    """

    Wu: np.ndarray
    Wh: np.ndarray
    Wc: np.ndarray
    b: np.ndarray

    @staticmethod
    def zeros(d_u, d_h):
        return LstmCellParams(
            Wu=np.zeros((4 * d_h, d_u)),
            Wh=np.zeros((4 * d_h, d_h)),
            Wc=np.zeros((3 * d_h, d_h)),
            b=np.zeros(4 * d_h),
        )

    @property
    def d_u(self):
        return self.Wu.shape[1]

    @property
    def d_h(self):
        return self.Wh.shape[1]

    def named(self, prefix):
        """The 15 per-gate tensors a checkpoint names (W_iu, W_ih, W_ic,
        b_i, ..., W_oc, b_o), as contiguous row-block views."""
        d = self.d_h
        for k, gate in enumerate("ifco"):
            rows = slice(k * d, (k + 1) * d)
            yield f"{prefix}.W_{gate}u", self.Wu[rows]
            yield f"{prefix}.W_{gate}h", self.Wh[rows]
            if gate != "c":
                j = min(k, 2) * d  # Wc has no block for g
                yield f"{prefix}.W_{gate}c", self.Wc[j : j + d]
            yield f"{prefix}.b_{gate}", self.b[rows]


@dataclass
class AttentionParams:
    W_cg: np.ndarray  # d_a x 2 d_h
    W_hg: np.ndarray  # d_a x d_h
    W_s: np.ndarray   # d_a

    @staticmethod
    def zeros(d_a, d_h):
        return AttentionParams(
            W_cg=np.zeros((d_a, 2 * d_h)), W_hg=np.zeros((d_a, d_h)), W_s=np.zeros(d_a)
        )


class TokenFeatureSet:
    """Discrete token-feature channels plus one continuous tf-idf slot.

    Channel row 0 is always the "absent" row. pos/ner/cap apply only to
    annotated encoder tokens; lex/sent are derived from the norm itself and
    therefore also apply to decoder-side (previous output word) lookups.
    """

    def __init__(self, pos_tags, lex_categories, word_lex, word_sent, dim):
        """`lex_categories` lists the lex channel's categories in row order
        (it may hold categories no word resolves to); `word_lex` maps a norm
        to its one category and `word_sent` to its sentiment polarity."""
        self.dim = int(dim)
        self.pos_tags = tuple(sorted(set(pos_tags)))
        self._pos_index = {t: i + 1 for i, t in enumerate(self.pos_tags)}
        self.lex_categories = tuple(lex_categories)
        self._lex_index = {c: i + 1 for i, c in enumerate(self.lex_categories)}
        self.word_lex = dict(word_lex)
        self.word_sent = dict(word_sent)
        self._sent_index = {"positive": 1, "negative": 2, "neutral": 3}

    @property
    def feature_dim(self):
        return len(CHANNELS) * self.dim + 1  # the tf-idf slot

    def table_rows(self):
        return {
            "pos": len(self.pos_tags) + 1,
            "ner": 2,
            "cap": 2,
            "lex": len(self.lex_categories) + 1,
            "sent": 4,
        }

    def encode_ids(self, token):
        """Channel row ids for an annotated encoder token (None for SEG)."""
        if token is None:
            return np.zeros(len(CHANNELS), dtype=np.int64)
        return np.array(
            [
                self._pos_index.get(token.pos, 0),
                1 if token.ner else 0,
                1 if token.surface[:1].isupper() else 0,
                self._lex_index.get(self.word_lex.get(token.norm), 0),
                self._sent_index.get(self.word_sent.get(token.norm), 0),
            ],
            dtype=np.int64,
        )

    def decode_ids(self, norm):
        """Channel row ids for a previous-output word (norm only)."""
        return np.array(
            [
                0,
                0,
                0,
                self._lex_index.get(self.word_lex.get(norm), 0),
                self._sent_index.get(self.word_sent.get(norm), 0),
            ],
            dtype=np.int64,
        )


@dataclass
class ModelParams:
    """Every parameter tensor plus the vocabulary and feature registry."""

    vocab: object
    features: TokenFeatureSet | None
    emb: np.ndarray  # |V| x d_emb
    feat_tables: dict
    enc_f: LstmCellParams
    enc_b: LstmCellParams
    dec: LstmCellParams
    attn: AttentionParams
    W_out: np.ndarray
    b_out: np.ndarray
    version: int = 0

    @property
    def d_emb(self):
        return self.emb.shape[1]

    @property
    def d_h(self):
        return self.dec.d_h

    @property
    def d_a(self):
        return self.attn.W_s.shape[0]

    @property
    def token_dim(self):
        extra = self.features.feature_dim if self.features else 0
        return self.d_emb + extra

    def named_tensors(self):
        """(name, tensor) pairs in checkpoint order: the lookup tables ("emb",
        then "feat.<channel>" in CHANNELS order), the three cells, the
        attention, the output layer."""
        yield "emb", self.emb
        for ch, table in self.feat_tables.items():
            yield f"feat.{ch}", table
        yield from self.enc_f.named("enc_f")
        yield from self.enc_b.named("enc_b")
        yield from self.dec.named("dec")
        yield "attn.W_cg", self.attn.W_cg
        yield "attn.W_hg", self.attn.W_hg
        yield "attn.W_s", self.attn.W_s
        yield "W_out", self.W_out
        yield "b_out", self.b_out

    @functools.cached_property
    def tensors(self):
        """named_tensors() as a dict, built once: the arrays are this model's
        own, which training updates in place and never rebinds."""
        return dict(self.named_tensors())


def new_model(vocab, features, d_emb, d_h, d_a):
    """Zero-initialized parameter set with consistent dimensions."""
    extra = features.feature_dim if features else 0
    d_x = d_emb + extra
    feat_tables = {}
    if features:
        for ch, rows in features.table_rows().items():
            feat_tables[ch] = np.zeros((rows, features.dim))
    return ModelParams(
        vocab=vocab,
        features=features,
        emb=np.zeros((len(vocab), d_emb)),
        feat_tables=feat_tables,
        enc_f=LstmCellParams.zeros(d_x, d_h),
        enc_b=LstmCellParams.zeros(d_x, d_h),
        dec=LstmCellParams.zeros(d_x + 2 * d_h, d_h),
        attn=AttentionParams.zeros(d_a, d_h),
        W_out=np.zeros((len(vocab), d_h)),
        b_out=np.zeros(len(vocab)),
    )


# ---------------------------------------------------------------------------
# forward


def _rows(W, x):
    """W x_r for every row x_r of the matrix x, one output row per row.

    np.dot, the same BLAS product as @ with less call overhead; one row
    takes the matrix-vector product np.dot(W, x_r), bit for bit.
    """
    return np.dot(W, x.T).T


def _lstm_stepper(p):
    """The in-place update of LSTM cell p, as step(a, h, c, h_out, c_out).

    a holds the input projections Wu u and h, c the previous states, one
    row per sequence (a chain steps one row, a beam its live rows). The
    step overwrites a with the activations of the gates i, f, g, o and
    writes the new states to h_out and c_out. The weight views are taken
    once per stepper, not on every step.
    """
    d, d2, d3 = p.d_h, 2 * p.d_h, 3 * p.d_h
    Wh, b, Wc_if, Wc_o = p.Wh, p.b, p.Wc[:d2], p.Wc[d2:]

    def step(a, h, c, h_out, c_out):
        # summed as (Wu u + Wh h) + b, and in no other order: which epoch
        # training keeps moves with last-bit changes
        a += _rows(Wh, h)
        a += b
        i_f = a[:, :d2]
        i_f += _rows(Wc_if, c)
        sigmoid_elem(i_f, out=i_f)
        g = a[:, d2:d3]
        np.tanh(g, out=g)
        np.multiply(a[:, d:d2], c, out=c_out)
        c_out += a[:, :d] * g
        # the output gate sees the NEW cell
        o = a[:, d3:]
        o += _rows(Wc_o, c_out)
        sigmoid_elem(o, out=o)
        np.tanh(c_out, out=h_out)
        h_out *= o

    return step


@dataclass
class _Chain:
    """One LSTM chain's activations, one entry per step in the order the
    chain ran: inputs U, gate activations, and the states H and C with the
    zero initial state as entry 0 (so step t reads entry t, writes entry
    t+1). An entry is one row, or one row per sequence in a chain that
    steps several (_run_chain; _chain_row takes one sequence's entries)."""

    U: np.ndarray
    gates: np.ndarray
    H: np.ndarray
    C: np.ndarray


def _run_chain(p, U):
    """Run an LSTM chain from zero states over U (steps x rows x d_u), one
    row per sequence. The input projections of every step and row come
    from one GEMM over the steps * rows inputs before the recurrence; each
    step is then one stepper call on all rows, which writes straight into
    its rows of H and C. The chain's arrays keep the (steps, rows) lead.

    One row keeps a single sequence's bits: its input GEMM is the one over
    its steps, and each step's products are matrix-vector products. More
    rows make each step's products GEMMs, whose results may differ from
    one row's in the last bits.
    """
    steps, rows, d_u = U.shape
    gates = (U.reshape(steps * rows, d_u) @ p.Wu.T).reshape(steps, rows, 4 * p.d_h)
    H = np.zeros((steps + 1, rows, p.d_h))
    C = np.zeros((steps + 1, rows, p.d_h))
    step = _lstm_stepper(p)
    for row in zip(gates, H[:-1], C[:-1], H[1:], C[1:]):
        step(*row)
    return _Chain(U=U, gates=gates, H=H, C=C)


def _chain_row(chain, r, n):
    """The first n steps of row r of a chain, as a 2-D chain of views (one
    row per step)."""
    return _Chain(chain.U[:n, r], chain.gates[:n, r], chain.H[: n + 1, r], chain.C[: n + 1, r])


def _token_repr(model, index, feat_ids, tfidf_val):
    """Input vectors of the tokens of an index array, one row per token
    (feat_ids has one row of channel ids per token, and tfidf_val is one
    value or one per token)."""
    parts = [model.emb[index]]
    if model.features:
        for k, ch in enumerate(CHANNELS):
            parts.append(model.feat_tables[ch][feat_ids[:, k]])
        parts.append(np.broadcast_to(np.reshape(tfidf_val, (-1, 1)), (len(index), 1)))
    return np.concatenate(parts, axis=1)


@dataclass
class _EncTrace:
    z: object
    ids: np.ndarray | None  # feature channel ids, one row per position
    fwd: _Chain  # rows in position order
    bwd: _Chain  # rows in reverse position order
    contexts: np.ndarray


def _encoder_input(model, z):
    """The feature channel ids (or None) and the input vectors of the
    positions of z, one row each; raises ValueError for an empty input or
    a token index outside the vocabulary."""
    if len(z) < 1:
        raise ValueError("encoder input is empty")
    indices = z.indices
    if indices.min() < 0 or indices.max() >= len(model.vocab):
        raise ValueError("encoder input contains an invalid token index")
    ids = None
    if model.features:
        ids = np.array([model.features.encode_ids(tok) for tok in z.tokens])
    return ids, _token_repr(model, indices, ids, z.tfidf)


def _encode_block(model, zs):
    """Encode the inputs zs together, one _EncTrace per input.

    Each chain steps all the inputs as rows (see _run_chain), each padded
    at its end with zero vectors to the longest; the backward chain reads
    each input reversed, padded the same way, from its own buffer, since
    backward_pass reads the forward chain's inputs. An input's contexts
    are its forward states 1..n and its backward states n..1, so no padded
    step reaches them. One input gives the bits of encoding it alone; in a
    block, its contexts can move in their last bits with the block.
    """
    U_f = np.zeros((max(map(len, zs), default=0), len(zs), model.token_dim))
    U_b = np.zeros_like(U_f)
    ids = []
    for r, z in enumerate(zs):
        z_ids, reprs = _encoder_input(model, z)
        ids.append(z_ids)
        U_f[: len(z), r] = reprs
        U_b[: len(z), r] = reprs[::-1]
    fwd, bwd = _run_chain(model.enc_f, U_f), _run_chain(model.enc_b, U_b)
    traces = []
    for r, (z, z_ids) in enumerate(zip(zs, ids)):
        f, b = _chain_row(fwd, r, len(z)), _chain_row(bwd, r, len(z))
        contexts = np.concatenate([f.H[1:], b.H[:0:-1]], axis=1)
        traces.append(_EncTrace(z=z, ids=z_ids, fwd=f, bwd=b, contexts=contexts))
    return traces


def encode(model, zs):
    """Context vectors b_1..b_n (concatenated forward/backward states) of
    each input in zs, one n x 2 d_h array each, encoded as one block."""
    return [trace.contexts for trace in _encode_block(model, zs)]


def attention_keys(model, contexts):
    """The context half of the attention pre-activation, contexts @ W_cg^T.

    It does not depend on the decoder state, so a decoder computes it once
    per input sequence and passes it to every step.
    """
    return contexts @ model.attn.W_cg.T


@dataclass
class _AttnCache:
    t: np.ndarray
    a: np.ndarray
    s: np.ndarray


def _attend(model, contexts, keys, h_prev):
    """Attention for each row of the decoder states h_prev (B x d_h); a row
    axis leads every output: t (B x n x d_a), a (B x n), s (B x 2 d_h)."""
    # C-ordered state projections lay t out row by row
    hq = np.ascontiguousarray(_rows(model.attn.W_hg, h_prev))
    t = keys + hq[:, None, :]
    np.tanh(t, out=t)
    e = t @ model.attn.W_s
    a = softmax(e)
    s = a @ contexts
    return _AttnCache(t=t, a=a, s=s)


def _decode_ids(model, y_prev):
    """Feature channel ids of the previous output words (a row each), or None."""
    if not model.features:
        return None
    return np.array([model.features.decode_ids(model.vocab.word_of(i)) for i in y_prev])


def _decode_core(model, step, y_prev, h, c, contexts, keys, out):
    """One decoder step for sequences sharing one input: y_prev holds one
    token and h, c one state row per sequence. step is the decoder cell's
    _lstm_stepper. The step's input [token; attention summary], its gate
    activations and its new state are written to the rows out = (u, a,
    h_out, c_out). Returns the logits (a row each) and the attention cache."""
    u, a, h_out, c_out = out
    attn = _attend(model, contexts, keys, h)
    d = model.token_dim
    u[:, :d] = _token_repr(model, y_prev, _decode_ids(model, y_prev), 0.0)
    u[:, d:] = attn.s
    a[:] = _rows(model.dec.Wu, u)
    step(a, h, c, h_out, c_out)
    return _rows(model.W_out, h_out) + model.b_out, attn


def decode_step(model, y_prev, h, c, contexts, keys):
    """One decoder step for B sequences that share one encoded input.

    y_prev holds the B previous tokens, h and c the B x d_h previous
    states, and keys is attention_keys(model, contexts). Returns the new
    states h and c (B x d_h) and the B x |V| word distributions.
    """
    y_prev = np.asarray(y_prev, dtype=np.int64)
    shape = (y_prev.size, model.d_h)
    if y_prev.ndim != 1 or not y_prev.size or np.shape(h) != shape or np.shape(c) != shape:
        raise ValueError("decode_step needs one token and one state row per sequence")
    if y_prev.min() < 0 or y_prev.max() >= len(model.vocab):
        raise ValueError("decode_step: token index out of vocabulary")
    u, a = np.empty((y_prev.size, model.dec.d_u)), np.empty((y_prev.size, 4 * model.d_h))
    h_out, c_out = np.empty(shape), np.empty(shape)
    logits, _ = _decode_core(
        model, _lstm_stepper(model.dec), y_prev, h, c, contexts, keys, (u, a, h_out, c_out)
    )
    return h_out, c_out, softmax(logits)


@dataclass
class ForwardTrace:
    """Everything backward_pass needs to replay one (z, y) example: the
    encoder trace, the decoder chain (one row per target), the one-row
    attention cache and word distribution of every decoder step, and the
    inputs and targets. backward_pass consumes probs (its deltas) and attn."""

    model_id: int
    version: int
    enc: _EncTrace
    dec: _Chain
    attn: list
    probs: np.ndarray
    inputs: np.ndarray
    targets: list


def sequence_log_prob(model, z, y):
    """Conditional log-likelihood of target sequence y given input z.

    The decoder starts from zero states and consumes BOS before the first
    target, one row per step; y must end with EOS. Returns (loglik, trace).
    """
    y = [int(t) for t in y]
    if not y:
        raise ValueError("target sequence is empty")
    if y[-1] != model.vocab.eos:
        raise ValueError("target sequence must end with EOS")
    for t in y:
        if not 0 <= t < len(model.vocab):
            raise ValueError(f"token index {t} out of vocabulary")
    enc = _encode_block(model, [z])[0]
    keys = attention_keys(model, enc.contexts)
    T, d_h = len(y), model.d_h
    dec = _Chain(
        U=np.empty((T, model.dec.d_u)),
        gates=np.empty((T, 4 * d_h)),
        H=np.zeros((T + 1, d_h)),
        C=np.zeros((T + 1, d_h)),
    )
    probs = np.empty((T, len(model.vocab)))
    inputs = np.array([model.vocab.bos] + y[:-1])
    step = _lstm_stepper(model.dec)
    loglik = 0.0
    attn = []
    for t, target in enumerate(y):
        now, nxt = slice(t, t + 1), slice(t + 1, t + 2)
        out = (dec.U[now], dec.gates[now], dec.H[nxt], dec.C[nxt])
        logits, cache = _decode_core(
            model, step, inputs[now], dec.H[now], dec.C[now], enc.contexts, keys, out
        )
        probs[t] = softmax(logits[0])
        loglik += float(log_softmax(logits[0])[target])
        attn.append(cache)
    return loglik, ForwardTrace(
        model_id=id(model),
        version=model.version,
        enc=enc,
        dec=dec,
        attn=attn,
        probs=probs,
        inputs=inputs,
        targets=y,
    )


# ---------------------------------------------------------------------------
# backward


def _lstm_backstepper(p):
    """The BPTT step of LSTM cell p, as back(gates, c_prev, c, dh, dc, da).

    It goes back through the step that read the cell c_prev and produced
    the gate activations `gates` and the cell c, given the gradients dh and
    dc of that step's state. It writes the gate pre-activation deltas to
    da (the step's row of the chain's deltas) and returns dh_prev and
    dc_prev; the weight gradients come from the deltas of the whole chain
    at once (_emit_cell_gradients). Every product keeps the order of the
    textbook formulas, e.g. da_o = ((dh tanh c) o)(1 - o).
    """
    d, d2, d3 = p.d_h, 2 * p.d_h, 3 * p.d_h
    Wh, Wc_if, Wc_o = p.Wh, p.Wc[:d2], p.Wc[d2:]

    def back(gates, c_prev, c, dh, dc_in, da):
        i, f, g, o = gates[:d], gates[d:d2], gates[d2:d3], gates[d3:]
        da_i, da_f, da_g, da_o = da[:d], da[d:d2], da[d2:d3], da[d3:]
        tanh_c = np.tanh(c)
        np.multiply(dh, tanh_c, da_o)
        da_o *= o
        da_o *= 1.0 - o
        dc = dh * o
        dc *= 1.0 - tanh_c * tanh_c
        dc += dc_in
        dc += da_o.dot(Wc_o)  # Wc_o^T da_o, the same BLAS product as Wc_o.T @ da_o
        np.multiply(dc, g, da_i)
        da_i *= i
        da_i *= 1.0 - i
        np.multiply(dc, c_prev, da_f)
        da_f *= f
        da_f *= 1.0 - f
        np.multiply(dc, i, da_g)
        da_g *= 1.0 - g * g
        dc_prev = dc * f
        dc_prev += da[:d2].dot(Wc_if)
        return da.dot(Wh), dc_prev

    return back


def _emit_cell_gradients(emit, prefix, chain, DA):
    """Emit the weight gradients of a chain's cell one weight at a time
    (Wu, Wh, Wc, then b), each as its per-gate tensors under the names
    `prefix`.W_iu, ..., `prefix`.b_o. Each weight's gradient is one GEMM
    of the gate deltas DA of all its steps (one row per step) against the
    stacked inputs or states."""
    d = chain.H.shape[1]

    def gates(field, grad, letters="ifco"):
        emit({
            f"{prefix}.{field.format(g)}": grad[k * d : (k + 1) * d]
            for k, g in enumerate(letters)
        })

    gates("W_{}u", DA.T @ chain.U)
    gates("W_{}h", DA.T @ chain.H[:-1])
    Wc = np.empty((3 * d, d))
    np.matmul(DA[:, : 2 * d].T, chain.C[:-1], out=Wc[: 2 * d])
    np.matmul(DA[:, 3 * d :].T, chain.C[1:], out=Wc[2 * d :])
    gates("W_{}c", Wc, "ifo")
    del Wc  # each weight's gradient is freed before the next is emitted
    gates("b_{}", DA.sum(axis=0))


def _chain_backward(p, chain, dH):
    """BPTT through an encoder chain whose states receive dH (one row per
    step) from the attention; returns its gate deltas, one row per step."""
    DA = np.empty_like(chain.gates)
    dh = np.zeros(p.d_h)
    dc = np.zeros(p.d_h)
    back = _lstm_backstepper(p)
    for t in range(len(DA) - 1, -1, -1):
        dh, dc = back(chain.gates[t], chain.C[t], chain.C[t + 1], dH[t] + dh, dc, DA[t])
    return DA


def _attend_backward(model, grad, contexts, cache, ds):
    """Backward through one attention step, from the gradient ds of its
    summary down to the pre-activations q: accumulates W_s and returns dq
    (n x d_a). The W_cg, W_hg and context terms are formed from the dq of
    all steps after the decoder loop."""
    a, t = cache.a[0], cache.t[0]
    de_ctx = contexts @ ds
    de = a * (de_ctx - float(a @ de_ctx))
    grad.W_s += t.T @ de
    return np.outer(de, model.attn.W_s) * (1.0 - t * t)


@dataclass
class RowGradient:
    """The gradient of a lookup table as the rows one example touched:
    `rows` holds their indices, sorted and unique, and `values` one
    gradient row per index. Every other row of the n_rows x d gradient is
    exactly zero."""

    rows: np.ndarray
    values: np.ndarray
    n_rows: int

    @staticmethod
    def scatter(indices, d_rep, n_rows):
        """Sum the rows of d_rep into the table rows `indices` names, each
        row in the order of `indices`, as a scatter-add into a zero table
        would."""
        rows, slot = np.unique(indices, return_inverse=True)
        values = np.zeros((len(rows), d_rep.shape[1]))
        np.add.at(values, slot, d_rep)
        return RowGradient(rows=rows, values=values, n_rows=n_rows)


@dataclass
class ProductGradient:
    """The gradient left^T @ right of a weight, kept as its two factors:
    `left` holds one row of output deltas per step (T x n_rows) and
    `right` one row of inputs per step (T x d). The n_rows x d product is
    formed a block of rows at a time (`rows`) or whole by `dense`."""

    left: np.ndarray
    right: np.ndarray

    @property
    def n_rows(self):
        return self.left.shape[1]

    def rows(self, start, stop):
        """Rows start:stop of the gradient."""
        return self.left[:, start:stop].T @ self.right


def dense(grad):
    """A gradient from backward_pass as a full array of its tensor's shape."""
    if isinstance(grad, ProductGradient):
        return grad.left.T @ grad.right
    if not isinstance(grad, RowGradient):
        return grad
    out = np.zeros((grad.n_rows, grad.values.shape[1]))
    out[grad.rows] = grad.values
    return out


def _table_gradients(model, indices, feat_ids, d_rep):
    """The embedding and feature-table gradients, as RowGradients, of the
    token input vectors whose gradients are the rows of d_rep (the
    trailing continuous slot is an input, not a parameter)."""
    d_emb = model.d_emb
    grads = {"emb": RowGradient.scatter(indices, d_rep[:, :d_emb], len(model.vocab))}
    if model.features:
        dim = model.features.dim
        for k, ch in enumerate(CHANNELS):
            off = d_emb + k * dim
            grads[f"feat.{ch}"] = RowGradient.scatter(
                feat_ids[:, k], d_rep[:, off : off + dim], model.feat_tables[ch].shape[0]
            )
    return grads


def backward_pass(model, trace, emit):
    """Exact gradients of -loglik w.r.t. every parameter tensor.

    The gradients come in groups of {name: gradient} under the names of
    model.named_tensors(): the output layer, the decoder cell one weight
    at a time (Wu, Wh, Wc, b, each as its per-gate tensors), the
    attention, the forward and the backward encoder cell in the same way,
    and last the lookup tables. Each group goes to emit(group) as soon as
    the sweep has made its last read of those parameters, so emit may
    update them in place; the sweep keeps no reference to a group once
    emitted.

    W_out gets a ProductGradient; the embedding and feature tables get a
    RowGradient holding only the rows the example read; every other
    tensor gets a dense array (see `dense`). The recurrences run one step
    at a time; every weight gradient is then one GEMM over the stacked
    steps of its chain. The pass consumes the trace (see ForwardTrace), so
    a second pass over it raises StaleTraceError.
    """
    if trace.model_id != id(model) or trace.version != model.version:
        raise StaleTraceError("trace is stale: model parameters changed since the forward pass")
    if trace.probs is None:
        raise StaleTraceError("trace was consumed by an earlier backward_pass")
    d_h = model.d_h
    token_dim = model.token_dim
    contexts = trace.enc.contexts
    dec = trace.dec
    T = len(trace.targets)

    dlogits, trace.probs = trace.probs, None  # the distributions, in place
    dlogits[np.arange(T), trace.targets] -= 1.0
    dH = dlogits @ model.W_out
    emit({"W_out": ProductGradient(dlogits, dec.H[1:]), "b_out": dlogits.sum(axis=0)})
    del dlogits

    p = model.dec
    back = _lstm_backstepper(p)
    g_attn = AttentionParams.zeros(model.d_a, d_h)
    DA = np.empty_like(dec.gates)
    DS = np.empty((T, 2 * d_h))  # gradients of the attention summaries
    dq_steps = np.empty((T, model.d_a))  # dq summed over contexts, per step
    dq_ctx = np.zeros((contexts.shape[0], model.d_a))  # dq summed over steps
    dh = np.zeros(d_h)
    dc = np.zeros(d_h)
    for t in range(T - 1, -1, -1):
        dh_l, dc = back(dec.gates[t], dec.C[t], dec.C[t + 1], dH[t] + dh, dc, DA[t])
        DS[t] = p.Wu[:, token_dim:].T @ DA[t]
        dq = _attend_backward(model, g_attn, contexts, trace.attn[t], DS[t])
        dq_ctx += dq
        dq_steps[t] = dq.sum(axis=0)
        dh = dh_l + model.attn.W_hg.T @ dq_steps[t]
    inputs = trace.inputs
    d_in = DA @ p.Wu[:, :token_dim]  # read before emit may step p.Wu
    _emit_cell_gradients(emit, "dec", dec, DA)

    np.matmul(dq_steps.T, dec.H[:-1], out=g_attn.W_hg)
    np.matmul(dq_ctx.T, contexts, out=g_attn.W_cg)
    # contexts feed the attention summaries and, through W_cg, the keys
    attn_a = np.concatenate([cache.a for cache in trace.attn])
    trace.attn = None  # the caches' last read
    db = attn_a.T @ DS + dq_ctx @ model.attn.W_cg
    emit({"attn.W_cg": g_attn.W_cg, "attn.W_hg": g_attn.W_hg, "attn.W_s": g_attn.W_s})
    del g_attn

    def encoder_backward(prefix, chain, dH):
        p = getattr(model, prefix)
        DA = _chain_backward(p, chain, dH)
        dU = DA @ p.Wu  # read before emit may step p.Wu
        _emit_cell_gradients(emit, prefix, chain, DA)
        return dU

    enc = trace.enc
    d_rep = encoder_backward("enc_f", enc.fwd, db[:, :d_h])
    # the backward chain's step j read position n-1-j
    d_rep += encoder_backward("enc_b", enc.bwd, db[::-1, d_h:])[::-1]
    # decoder inputs first, then encoder positions: the order in which each
    # table row sums its terms, which the trained bits depend on
    emit(
        _table_gradients(
            model,
            np.concatenate([inputs, enc.z.indices]),
            None if enc.ids is None else np.concatenate([_decode_ids(model, inputs), enc.ids]),
            np.concatenate([d_in, d_rep]),
        )
    )


# ---------------------------------------------------------------------------
# serialization

# rows per save_model write: a |V|-row tensor's text is never whole, as
# training saves while the Adagrad accumulators are alive
SAVE_BLOCK = 1024


def save_model(model, path):
    """Write checkpoint v3: the text header (dims, vocabulary, feature
    registry), then each tensor's rows as base64 of their
    little-endian float64 bytes, one line per row, and last 'sha256 <hex>'
    of every byte before it. Values round-trip bit for bit. The file goes
    to a temporary file first, SAVE_BLOCK rows at a time, and replaces
    `path` only when complete."""
    head = io.StringIO()
    head.write(f"{MAGIC}\n")
    head.write(f"dims {model.d_emb} {model.d_h} {model.d_a}\n")
    write_block(head, "vocab", model.vocab.words)
    if model.features is None:
        head.write("features none\n")
    else:
        fs = model.features
        head.write("features v1\n")
        head.write(f"dim {fs.dim}\n")
        write_block(head, "pos_tags", fs.pos_tags)
        write_block(head, "lex_categories", fs.lex_categories)
        write_block(head, "word_lex", [f"{w}\t{fs.word_lex[w]}" for w in sorted(fs.word_lex)])
        write_block(head, "word_sent", [f"{w}\t{fs.word_sent[w]}" for w in sorted(fs.word_sent)])
    digest = hashlib.sha256()
    with atomic_write(path, binary=True) as fh:

        def emit(data):
            digest.update(data)
            fh.write(data)

        emit(head.getvalue().encode("utf-8"))
        for name, arr in model.named_tensors():
            rows = np.ascontiguousarray(np.atleast_2d(arr), dtype="<f8")
            emit(f"tensor {name} {rows.shape[0]} {rows.shape[1]}\n".encode("ascii"))
            for start in range(0, rows.shape[0], SAVE_BLOCK):
                emit(b"".join(map(binascii.b2a_base64, rows[start : start + SAVE_BLOCK])))
        fh.write(f"sha256 {digest.hexdigest()}\n".encode("ascii"))


def _base64_rows(reader, name, block, shape):
    """The rows of a tensor as base64 of little-endian float64; a row
    holding NaN or Inf is an error naming its line."""
    width = 8 * shape[1]
    first = reader.line_no - len(block) + 1
    rows = []
    for line_no, line in enumerate(block, start=first):
        try:
            row = binascii.a2b_base64(line, strict_mode=True)
        except ValueError as exc:
            raise reader.error(f"line {line_no}: tensor {name}: bad base64 row ({exc})") from None
        if len(row) != width:
            raise reader.error(
                f"line {line_no}: tensor {name} row holds {len(row)} bytes, not {width}"
            )
        rows.append(row)
    values = np.frombuffer(b"".join(rows), dtype="<f8").reshape(shape)
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if bad.size:
        raise reader.error(f"line {first + bad[0]}: tensor {name}: non-finite weight")
    return values


def _read_tensors(reader, tensors):
    """Fill every tensor from its block, in the order save_model writes
    them: each header must read 'tensor <name> <rows> <cols>' at the
    model's shape, and each row hold the declared number of values.
    Blocks are read one at a time, so only one tensor's text is held.
    The 'sha256' line follows the last tensor and must be the digest of
    every line before it."""
    for name, target in tensors.items():
        shape = np.atleast_2d(target).shape
        expected = f"tensor {name} {shape[0]} {shape[1]}"
        header = reader.next()
        if header != expected:
            found = "the end of the file" if header is None else repr(header[:40])
            raise reader.error(f"line {reader.line_no}: expected {expected!r}, got {found}")
        block = reader.lines(shape[0], f"rows of tensor {name}")
        target[...] = _base64_rows(reader, name, block, shape).reshape(target.shape)
    digest_line = reader.next()
    if digest_line is None or not digest_line.startswith("sha256 "):
        found = "the end of the file" if digest_line is None else repr(digest_line[:40])
        raise reader.error(
            f"line {reader.line_no}: no 'sha256 <hex>' line after the last tensor, got {found}"
        )
    if digest_line != f"sha256 {reader.digest_before_last()}":
        raise reader.error(f"line {reader.line_no}: sha256 digest mismatch, the file was altered")


def load_model(path):
    """Rebuild a model (vocabulary, feature registry, tensors) from disk.

    Reads checkpoint v3 (see save_model). Raises ValueError naming the path
    unless every header line has its key and count, every tensor is
    present in checkpoint order, complete and finite, and the digest
    matches, so a truncated or edited file never loads.
    """
    with read_artifact(path, MAGIC) as reader:
        dims = reader.value("dims").split(" ")
        if len(dims) != 3 or not all(d.isdecimal() for d in dims):
            raise reader.error("line 2: expected 'dims <d_emb> <d_h> <d_a>'")
        words = reader.block("vocab")
        vocab = Vocabulary(words[len(RESERVED) :])
        if vocab.words != tuple(words):
            raise reader.error("vocab must open with the reserved tokens and repeat no word")
        features = None
        kind = reader.value("features")
        if kind == "v1":
            dim = reader.count("dim")
            tags = reader.block("pos_tags")
            cats = reader.block("lex_categories")
            word_lex = dict(reader.word_pairs("word_lex"))
            word_sent = dict(reader.word_pairs("word_sent"))
            features = TokenFeatureSet(tags, cats, word_lex, word_sent, dim)
        elif kind != "none":
            raise reader.error(f"line {reader.line_no}: expected 'features v1' or 'features none'")
        model = new_model(vocab, features, *(int(d) for d in dims))
        _read_tensors(reader, model.tensors)
    return model

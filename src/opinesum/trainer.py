"""Negative log-likelihood training with Adagrad, parameter initialization,
BLEU-based early stopping, and a finite-difference gradient check.

The gradient check compares backward_pass against central differences of
an independent forward-pass transcription evaluated in extended precision
(numpy longdouble), so coordinates with near-zero true gradients are not
drowned by float64 quantization of the loss.
"""

from dataclasses import dataclass, field

import numpy as np

from . import beamdecode, sampler
from .attnseq2seq import (
    CHANNELS,
    TokenFeatureSet,
    backward_pass,
    new_model,
    sequence_log_prob,
)
from .evalmetrics import bleu
from .numkit import SeededRng, derive_seed
from .salience import LexiconSet
from .textcorpus import (
    RESERVED,
    TfidfStats,
    build_vocab,
    substitute_entity,
    text_unit,
    Cluster,
)


class TrainingDivergedError(RuntimeError):
    """Per-example loss became non-finite; try a lower learning rate."""


@dataclass
class TrainConfig:
    d_emb: int = 300
    d_h: int = 150
    d_a: int = 100
    d_feat: int = 10
    use_features: bool = False
    K: int = 5
    mode: str = "importance"  # importance | uniform | topk
    eta: float = 0.1
    eps: float = 1e-6
    init_scale: float = 0.08
    max_epochs: int = 500
    patience: int = 3
    seed: int = 0
    min_count: int = 1
    max_len: int = 40

    def __post_init__(self):
        if min(self.d_emb, self.d_h, self.d_a) < 1:
            raise ValueError("model dimensions must be positive")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.mode not in ("importance", "uniform", "topk"):
            raise ValueError(f"unknown sampling mode: {self.mode!r}")


def init_params(config, vocab, features=None, pretrained=None):
    """Uniform(-init_scale, init_scale) weights, zero biases, seeded.

    Rows covered by a pretrained EmbeddingTable overwrite the random init.
    """
    model = new_model(vocab, features, config.d_emb, config.d_h, config.d_a)
    rng = SeededRng(derive_seed(config.seed, "init"))
    s = config.init_scale
    for name, arr in model.named_tensors():
        if name.rsplit(".", 1)[-1].startswith("b"):
            arr[...] = 0.0
        else:
            arr[...] = rng.uniform(-s, s, arr.shape)
    if pretrained is not None:
        if pretrained.matrix.shape != model.embeddings.matrix.shape:
            raise ValueError("pretrained embedding shape mismatch")
        rows = pretrained.covered
        model.embeddings.matrix[rows] = pretrained.matrix[rows]
        model.embeddings.covered[...] = rows
    return model


@dataclass
class AdagradState:
    """Per-coordinate squared-gradient accumulators."""

    eta: float
    eps: float
    accum: dict = field(default_factory=dict)

    @staticmethod
    def for_model(model, eta, eps):
        return AdagradState(
            eta=eta, eps=eps, accum={n: np.zeros_like(a) for n, a in model.named_tensors()}
        )


def adagrad_update(model, grads, state):
    """theta -= eta * g / (sqrt(G) + eps) with G += g^2, per coordinate."""
    for name, tensor in model.named_tensors():
        g = grads[name]
        acc = state.accum[name]
        acc += g * g
        step = np.zeros_like(g)
        np.divide(g, np.sqrt(acc) + state.eps, out=step, where=g != 0)
        step *= state.eta
        if name == "emb":
            step[~model.embeddings.trainable] = 0.0
        tensor -= step
    model.version += 1


def build_features(clusters, lexicons, dim):
    """Token feature registry from an (already substituted) training corpus."""
    tags = sorted({t.pos for c in clusters for u in c.units for t in u.tokens if t.pos})
    return TokenFeatureSet(
        pos_tags=tags,
        lexicon=lexicons.general if lexicons else {},
        sentiment=lexicons.sentiment if lexicons else {},
        dim=dim,
    )


def _draw_input(cluster, scores, config, rng, vocab, tfidf):
    if config.mode == "importance":
        return sampler.sample_training_input(cluster, scores, config.K, rng, vocab, tfidf)
    if config.mode == "uniform":
        return sampler.uniform_training_input(cluster, config.K, rng, vocab, tfidf)
    return sampler.select_test_input(cluster, scores, config.K, vocab, tfidf)


def train(train_clusters, dev_clusters, config, scores, lexicons=None, pretrained=None):
    """Per-example Adagrad training with dev-BLEU early stopping.

    `scores` maps cluster id to its per-unit importance array (training
    sampling and dev-time top-K selection both use it). Returns the best
    dev-BLEU snapshot and the per-epoch (epoch, train_nll, dev_bleu) history.
    """
    if not train_clusters or not dev_clusters:
        raise ValueError("train and dev splits must be non-empty")
    train_subs = [substitute_entity(c) for c in train_clusters]
    dev_subs = [substitute_entity(c) for c in dev_clusters]
    vocab = build_vocab(train_subs, config.min_count)
    if len(vocab) <= len(RESERVED):
        raise ValueError("corpus yields an empty vocabulary")
    features = build_features(train_subs, lexicons, config.d_feat) if config.use_features else None
    tfidf = TfidfStats(train_subs)
    model = init_params(config, vocab, features, pretrained)
    state = AdagradState.for_model(model, config.eta, config.eps)
    shuffle_rng = SeededRng(derive_seed(config.seed, "shuffle"))

    history = []
    best_bleu = -1.0
    best_model = None
    stale = 0
    for epoch in range(1, config.max_epochs + 1):
        order = shuffle_rng.permutation(len(train_subs))
        nll = 0.0
        for idx in order:
            cluster = train_subs[int(idx)]
            if cluster.id not in scores:
                raise ValueError(f"no importance scores for cluster {cluster.id!r}")
            rng = SeededRng(derive_seed(config.seed, "sample", cluster.id, epoch))
            z = _draw_input(cluster, scores[cluster.id], config, rng, vocab, tfidf)
            y = list(vocab.encode(cluster.summary.norms())) + [vocab.eos]
            try:
                loglik, trace = sequence_log_prob(model, z, y)
            except ValueError as exc:  # NaN/Inf tripped a kernel guard
                raise TrainingDivergedError(
                    f"cluster {cluster.id!r}, epoch {epoch}: {exc}; lower eta"
                ) from exc
            if not np.isfinite(loglik):
                raise TrainingDivergedError(
                    f"non-finite loss on cluster {cluster.id!r} at epoch {epoch}; "
                    "lower eta or check the corpus"
                )
            nll -= loglik
            grads = backward_pass(model, trace)
            adagrad_update(model, grads, state)
        dev_bleu = _dev_bleu(model, dev_subs, config, scores, tfidf)
        history.append((epoch, nll / len(train_subs), dev_bleu))
        if dev_bleu > best_bleu:
            best_bleu = dev_bleu
            best_model = model.snapshot()
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break
    return best_model, history


def _dev_bleu(model, dev_subs, config, scores, tfidf):
    """Greedy-decoded corpus BLEU on the dev split (beam of width 1)."""
    hyps = []
    refs = []
    for cluster in dev_subs:
        z = sampler.select_test_input(
            cluster, scores[cluster.id], config.K, model.vocab, tfidf
        )
        best = beamdecode.greedy_decode(
            model, z, config.max_len, beamdecode.banned_indices(model.vocab, cluster)
        )
        hyps.append([model.vocab.word_of(t) for t in best.tokens[:-1]])
        refs.append(cluster.summary.norms())
    return bleu(hyps, refs)


# ---------------------------------------------------------------------------
# gradient check

CHECK_EPSILON = 1e-5  # central-difference step


def _tiny_instance(seed):
    """Deterministic tiny model (features on) + (z, y) example exercising
    every tensor."""
    words = [f"w{i}" for i in range(10)]
    unit_specs = [words[0:4], words[4:8]]
    units = []
    for k, ws in enumerate(unit_specs):
        text = " ".join(w.capitalize() if j == 0 else w for j, w in enumerate(ws))
        pos = ["nn" if (j + k) % 2 else "vb" for j in range(len(ws))]
        ner = ["PER" if j == 0 else "O" for j in range(len(ws))]
        units.append(text_unit(text, pos=pos, ner=ner))
    cluster = Cluster(
        id="tiny",
        units=tuple(units),
        summary=text_unit(" ".join(words[8:10])),
        entity=None,
    )
    vocab = build_vocab([cluster])
    assert len(vocab) == 15
    lex = LexiconSet(
        general={"w0": ("strong",), "w5": ("weak",)},
        sentiment={"w1": "positive", "w4": "negative", "w8": "neutral"},
    )
    features = build_features([cluster], lex, dim=10)
    tfidf = TfidfStats([cluster])
    model = init_params(TrainConfig(d_emb=8, d_h=6, d_a=5, seed=seed), vocab, features)
    z = sampler.build_input(cluster, [0, 1], vocab, tfidf)
    y = list(vocab.encode(cluster.summary.norms())) + [vocab.eos]
    return model, z, y


def _mv(W, x):
    """W @ x over the last two axes of W and the last axis of x, broadcasting
    every leading axis (one per perturbed copy)."""
    return np.einsum("...ij,...j->...i", W, x)


def _cat(*parts):
    """Concatenate along the last axis, broadcasting the leading axes."""
    lead = np.broadcast_shapes(*(p.shape[:-1] for p in parts))
    return np.concatenate([np.broadcast_to(p, lead + p.shape[-1:]) for p in parts], axis=-1)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


class _ExtendedForward:
    """Independent longdouble transcription of the forward pass.

    The numeric side of the gradient check: written directly from the
    per-gate update equations, sharing no code with the production forward,
    and evaluated in 80-bit precision so central differences resolve even
    near-zero gradients. `tensors` holds one array per checkpoint name.
    Every op broadcasts over leading axes, so a tensor given a leading copy
    axis (see `losses`) carries it only into the activations that depend
    on that tensor. Naive sigmoid/softmax forms are safe here: longdouble
    exp overflows only beyond |x| ~ 1.1e4.
    """

    def __init__(self, model, z, y):
        ld = np.longdouble
        self.tensors = {name: arr.astype(ld) for name, arr in model.named_tensors()}
        self.indices = [int(i) for i in z.indices]
        self.tfidf = z.tfidf.astype(ld)
        self.enc_ids = [model.features.encode_ids(tok) for tok in z.tokens]
        self.d_h = model.d_h
        self.y = list(y)
        self.inputs = [model.vocab.bos] + self.y[:-1]
        self.dec_ids = {
            i: model.features.decode_ids(model.vocab.word_of(i)) for i in set(self.inputs)
        }

    def loss(self):
        """-loglik at the current `tensors`."""
        return self._loss(self.tensors)

    def losses(self, name, coords, delta):
        """-loglik with `tensors[name].flat[coords[k]]` shifted by delta, for
        every k, from one pass over k stacked copies of that tensor."""
        copies = np.repeat(self.tensors[name][None], len(coords), axis=0)
        copies.reshape(len(coords), -1)[np.arange(len(coords)), coords] += delta
        return self._loss({**self.tensors, name: copies})

    def _token_repr(self, t, index, enc_pos=None):
        parts = [t["emb"][..., index, :]]
        ids = self.enc_ids[enc_pos] if enc_pos is not None else self.dec_ids[index]
        for ch, fid in zip(CHANNELS, ids):
            parts.append(t[f"feat.{ch}"][..., fid, :])
        cont = self.tfidf[enc_pos] if enc_pos is not None else np.longdouble(0.0)
        parts.append(np.array([cont], dtype=np.longdouble))
        return _cat(*parts)

    def _cell(self, t, p, u, h, c):
        def W(gate, x):
            return _mv(t[f"{p}.W_{gate}"], x)

        i = _sigmoid(W("iu", u) + W("ih", h) + W("ic", c) + t[f"{p}.b_i"])
        f = _sigmoid(W("fu", u) + W("fh", h) + W("fc", c) + t[f"{p}.b_f"])
        c_new = f * c + i * np.tanh(W("cu", u) + W("ch", h) + t[f"{p}.b_c"])
        # the output gate reads the new cell
        o = _sigmoid(W("ou", u) + W("oh", h) + t[f"{p}.b_o"] + W("oc", c_new))
        return o * np.tanh(c_new), c_new

    def _loss(self, t):
        ld = np.longdouble
        reprs = [self._token_repr(t, index, k) for k, index in enumerate(self.indices)]
        zero = np.zeros(self.d_h, dtype=ld)
        h, c = zero, zero
        hf = []
        for rep in reprs:
            h, c = self._cell(t, "enc_f", rep, h, c)
            hf.append(h)
        h, c = zero, zero
        hb = []
        for rep in reversed(reprs):
            h, c = self._cell(t, "enc_b", rep, h, c)
            hb.append(h)
        contexts = _cat(np.stack(hf, axis=-2), np.stack(hb[::-1], axis=-2))
        cq = _mv(t["attn.W_cg"][..., None, :, :], contexts)  # one row per context
        h, c = zero, zero
        loglik = ld(0.0)
        for inp, target in zip(self.inputs, self.y):
            q = cq + _mv(t["attn.W_hg"], h)[..., None, :]
            e = _mv(np.tanh(q), t["attn.W_s"])
            a = np.exp(e - e.max(axis=-1, keepdims=True))
            a /= a.sum(axis=-1, keepdims=True)
            s = _mv(np.swapaxes(contexts, -1, -2), a)
            h, c = self._cell(t, "dec", _cat(self._token_repr(t, inp), s), h, c)
            logits = _mv(t["W_out"], h) + t["b_out"]
            m = logits.max(axis=-1, keepdims=True)
            norm = np.log(np.exp(logits - m).sum(axis=-1))
            loglik += logits[..., target] - m[..., 0] - norm
        return -loglik


def gradient_check(seed=0):
    """Max relative error between backward_pass and central differences.

    relerr = |ga - gn| / max(1e-8, |ga| + |gn|) over every coordinate of
    the tiny model of `_tiny_instance(seed)`, with step CHECK_EPSILON. Each
    tensor's +step and -step losses come from one batched pass each.
    """
    model, z, y = _tiny_instance(seed)
    _, trace = sequence_log_prob(model, z, y)
    grads = backward_pass(model, trace)
    fwd = _ExtendedForward(model, z, y)
    eps = np.longdouble(CHECK_EPSILON)
    max_rel = 0.0
    for name, arr in model.named_tensors():
        coords = np.arange(arr.size)
        lp = fwd.losses(name, coords, eps)
        lm = fwd.losses(name, coords, -eps)
        gn = ((lp - lm) / (2 * eps)).astype(np.float64)
        ga = grads[name].reshape(-1)
        rel = np.abs(ga - gn) / np.maximum(1e-8, np.abs(ga) + np.abs(gn))
        max_rel = max(max_rel, float(rel.max()))
    return max_rel

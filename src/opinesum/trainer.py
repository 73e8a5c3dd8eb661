"""Negative log-likelihood training with Adagrad, parameter initialization,
BLEU-based early stopping, and a finite-difference gradient check.

The gradient check compares backward_pass against central differences of
an independent forward-pass transcription evaluated in extended precision
(numpy longdouble), so coordinates with near-zero true gradients are not
drowned by float64 quantization of the loss.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import beamdecode, sampler
from .attnseq2seq import (
    CHANNELS,
    ProductGradient,
    RowGradient,
    TokenFeatureSet,
    backward_pass,
    dense,
    new_model,
    save_model,
    sequence_log_prob,
)
from .evalmetrics import bleu
from .numkit import SeededRng, derive_seed
from .salience import LexiconSet
from .textcorpus import (
    RESERVED,
    TfidfStats,
    build_vocab,
    text_unit,
    Cluster,
)


# how train draws an example's K input units
SAMPLING_MODES = ("importance", "uniform", "topk")


class TrainingDivergedError(ValueError):
    """Per-example loss became non-finite; try a lower learning rate."""


@dataclass
class TrainConfig:
    d_emb: int = 300
    d_h: int = 150
    d_a: int = 100
    d_feat: int = 10
    use_features: bool = False
    K: int = 5
    mode: str = "importance"  # one of SAMPLING_MODES
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
        if self.mode not in SAMPLING_MODES:
            raise ValueError(f"unknown sampling mode: {self.mode!r}")
        # not (x > 0) also rejects NaN
        for key in ("eta", "eps"):
            if not getattr(self, key) > 0:
                raise ValueError(f"{key} must be > 0")
        if not 0 < self.init_scale < math.inf:
            raise ValueError("init_scale must be finite and > 0")
        for key in ("d_feat", "K", "patience", "max_epochs", "min_count", "max_len"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1")


def init_params(config, vocab, features=None, pretrained=None):
    """Uniform(-init_scale, init_scale) weights, zero biases, seeded.

    Each vector of `pretrained` ({word: vector}, see load_embeddings)
    overwrites its word's embedding row; a word outside `vocab` or a
    vector without d_emb values is an error.
    """
    model = new_model(vocab, features, config.d_emb, config.d_h, config.d_a)
    rng = SeededRng(derive_seed(config.seed, "init"))
    s = config.init_scale
    for name, arr in model.named_tensors():
        if name.rsplit(".", 1)[-1].startswith("b"):
            arr[...] = 0.0
        else:
            arr[...] = rng.uniform(-s, s, arr.shape)
    for word, vector in (pretrained or {}).items():
        if word not in vocab:
            raise ValueError(f"pretrained word {word!r} is not in the vocabulary")
        if np.shape(vector) != (config.d_emb,):
            raise ValueError(f"pretrained vector of {word!r} needs {config.d_emb} values")
        model.emb[vocab.index_of(word)] = vector
    return model


@dataclass
class AdagradState:
    """Per-coordinate squared-gradient accumulators."""

    eta: float
    eps: float
    accum: dict = field(default_factory=dict)

    @staticmethod
    def for_model(model, eta, eps):
        if not eps > 0:  # a zero gradient then steps by +-0 (_adagrad_step)
            raise ValueError("eps must be > 0")
        return AdagradState(
            eta=eta, eps=eps, accum={n: np.zeros_like(a) for n, a in model.named_tensors()}
        )


# rows of W_out per Adagrad block: its |V| x d_h gradient is never whole
ROW_BLOCK = 1024


def adagrad_update(model, grads, state):
    """theta -= eta * g / (sqrt(G) + eps) with G += g^2, per coordinate,
    for exactly the tensors `grads` names.

    A coordinate with g == 0 takes no step. A RowGradient updates only its
    rows: on every other row g is zero, so G and theta would keep their bits
    anyway. A ProductGradient is formed and stepped ROW_BLOCK rows at a time.
    """
    for name, g in grads.items():
        tensor = model.tensors[name]
        acc = state.accum[name]
        if isinstance(g, RowGradient):
            rows = g.rows
            theta_rows, acc_rows = tensor[rows], acc[rows]
            _adagrad_step(theta_rows, acc_rows, g.values, state)
            tensor[rows], acc[rows] = theta_rows, acc_rows
        elif isinstance(g, ProductGradient):
            for start in range(0, g.n_rows, ROW_BLOCK):
                block = slice(start, start + ROW_BLOCK)
                _adagrad_step(tensor[block], acc[block], g.rows(start, block.stop), state)
        else:
            _adagrad_step(tensor, acc, g, state)
    model.version += 1


def _adagrad_step(theta, acc, g, state):
    """The Adagrad update of theta and its accumulator acc, in place. G,
    its root and the step share one scratch array of g's size. As eps > 0,
    a zero g steps by +-0 and keeps theta's bits: no parameter is -0.0
    (initialization and updates never make it, load_embeddings maps it to
    +0.0)."""
    work = g * g
    acc += work
    np.sqrt(acc, out=work)
    work += state.eps
    np.divide(g, work, out=work)
    work *= state.eta
    theta -= work


def build_features(clusters, lexicons, dim):
    """Token feature registry from a substituted training corpus:
    its pos tags, the sorted lexicon categories, and for each lexicon word
    its alphabetically first category."""
    tags = {t.pos for c in clusters for u in c.units for t in u.tokens if t.pos}
    return TokenFeatureSet(
        pos_tags=tags,
        lex_categories=lexicons.categories,
        word_lex={w: sorted(cs)[0] for w, cs in lexicons.general.items() if cs},
        word_sent=lexicons.sentiment,
        dim=dim,
    )


def _draw_input(cluster, scores, config, rng, vocab, tfidf):
    if config.mode == "importance":
        return sampler.sample_training_input(cluster, scores, config.K, rng, vocab, tfidf)
    if config.mode == "uniform":
        return sampler.uniform_training_input(cluster, config.K, rng, vocab, tfidf)
    return sampler.select_test_input(cluster, scores, config.K, vocab, tfidf)


def train(train_clusters, train_scores, dev_clusters, dev_scores, config, tfidf, lexicons,
          pretrained, model_path):
    """Per-example Adagrad training with dev-BLEU early stopping.

    Both splits are entity-substituted and `tfidf` holds the training
    split's statistics. Each split comes with one per-unit importance array
    per cluster, in the order of its clusters: training samples with
    `train_scores`, and the dev pass selects its top-K with `dev_scores`.
    `lexicons` is read only when config.use_features is set; `pretrained`
    is a {word: vector} dict or None. Each epoch whose dev BLEU beats every
    earlier one is saved to `model_path` (save_model replaces the file
    whole), so a run stopped by patience or an error leaves its best epoch
    so far there. Returns the per-epoch (epoch, train_nll, dev_bleu) history.
    """
    if not train_clusters or not dev_clusters:
        raise ValueError("train and dev splits must be non-empty")
    for split, clusters, scores in (
        ("train", train_clusters, train_scores), ("dev", dev_clusters, dev_scores)
    ):
        if len(scores) != len(clusters):
            raise ValueError(f"{len(clusters)} {split} clusters but {len(scores)} score arrays")
    vocab = build_vocab(train_clusters, config.min_count)
    if len(vocab) <= len(RESERVED):
        raise ValueError("corpus yields an empty vocabulary")
    features = (
        build_features(train_clusters, lexicons, config.d_feat) if config.use_features else None
    )
    model = init_params(config, vocab, features, pretrained)
    state = AdagradState.for_model(model, config.eta, config.eps)
    shuffle_rng = SeededRng(derive_seed(config.seed, "shuffle"))

    history = []
    best_bleu = -1.0
    stale = 0
    for epoch in range(1, config.max_epochs + 1):
        order = shuffle_rng.permutation(len(train_clusters))
        nll = 0.0
        for idx in order.tolist():
            cluster = train_clusters[idx]
            rng = SeededRng(derive_seed(config.seed, "sample", cluster.id, epoch))
            z = _draw_input(cluster, train_scores[idx], config, rng, vocab, tfidf)
            y = list(vocab.encode(cluster.summary.norms())) + [vocab.eos]
            nll += _train_example(model, state, z, y, f"cluster {cluster.id!r}, epoch {epoch}")
        dev_bleu = _dev_bleu(model, dev_clusters, dev_scores, config, tfidf)
        history.append((epoch, nll / len(train_clusters), dev_bleu))
        if dev_bleu > best_bleu:
            best_bleu = dev_bleu
            save_model(model, model_path)
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break
    return history


def _train_example(model, state, z, y, where):
    """Adagrad on the example (z, y); returns its NLL. Each group of
    gradients takes its step as soon as backward_pass emits it, so only
    one group is held at a time; the trace is a local, freed before the
    next example runs its forward pass."""
    try:
        # the guards name the example, so numpy's own warnings of the same
        # overflow would only precede that error
        with np.errstate(over="ignore", invalid="ignore"):
            loglik, trace = sequence_log_prob(model, z, y)
    except ValueError as exc:  # NaN/Inf tripped a kernel guard
        raise TrainingDivergedError(f"{where}: {exc}; lower eta") from exc
    if not np.isfinite(loglik):
        raise TrainingDivergedError(f"{where}: non-finite loss; lower eta or check the corpus")
    # adagrad_update is looked up at each call, so a wrapper bound to the
    # module's name sees every group's step
    backward_pass(model, trace, emit=lambda group: adagrad_update(model, group, state))
    return -loglik


def _dev_bleu(model, dev_clusters, dev_scores, config, tfidf):
    """Greedy-decoded corpus BLEU on the dev split (beam of width 1), each
    cluster's input the top-K of its own entry of `dev_scores`."""
    hyps = []
    refs = []
    for cluster, scores in zip(dev_clusters, dev_scores):
        z = sampler.select_test_input(cluster, scores, config.K, model.vocab, tfidf)
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
    grads = {}
    backward_pass(model, trace, grads.update)
    fwd = _ExtendedForward(model, z, y)
    eps = np.longdouble(CHECK_EPSILON)
    max_rel = 0.0
    for name, arr in model.named_tensors():
        coords = np.arange(arr.size)
        lp = fwd.losses(name, coords, eps)
        lm = fwd.losses(name, coords, -eps)
        gn = ((lp - lm) / (2 * eps)).astype(np.float64)
        ga = dense(grads[name]).reshape(-1)
        rel = np.abs(ga - gn) / np.maximum(1e-8, np.abs(ga) + np.abs(gn))
        max_rel = max(max_rel, float(rel.max()))
    return max_rel

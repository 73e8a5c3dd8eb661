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
CHECK_MAX_COORDS = 2000  # larger tensors are subsampled to this many coordinates


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


class _ExtendedForward:
    """Independent longdouble transcription of the forward pass.

    The numeric side of the gradient check: written directly from the
    update equations, sharing no code with the production forward, and
    evaluated in 80-bit precision so central differences resolve even
    near-zero gradients. Each cell's gate projections are fused into one
    matrix M over concat(u, h_prev, c_prev) with gate row blocks (i, f, g,
    o); `tensors` maps every checkpoint name to a view into these arrays,
    so perturbing `tensors[name].flat[i]` perturbs the oracle's parameters.
    Naive sigmoid/softmax forms are safe here: longdouble exp overflows
    only beyond |x| ~ 1.1e4.
    """

    _GROUPS = {"emb": "all", "feat": "all", "enc_f": "enc_f", "enc_b": "enc_b"}

    def __init__(self, model, z, y):
        ld = np.longdouble
        self.tensors = {}
        self.cells = {}
        for p in ("enc_f", "enc_b", "dec"):
            d_u, d = getattr(model, p).d_u, model.d_h
            M = np.zeros((4 * d, d_u + 2 * d), dtype=ld)
            b = np.zeros(4 * d, dtype=ld)
            oc = np.zeros((d, d), dtype=ld)  # the output gate reads the new cell
            self.cells[p] = (M, b, oc)
            for k, gate in enumerate("ifco"):
                rows = slice(k * d, (k + 1) * d)
                self.tensors[f"{p}.W_{gate}u"] = M[rows, :d_u]
                self.tensors[f"{p}.W_{gate}h"] = M[rows, d_u : d_u + d]
                if gate in "if":
                    self.tensors[f"{p}.W_{gate}c"] = M[rows, d_u + d :]
                self.tensors[f"{p}.b_{gate}"] = b[rows]
            self.tensors[f"{p}.W_oc"] = oc
        for name, arr in model.named_tensors():
            if name in self.tensors:
                self.tensors[name][...] = arr
            else:
                self.tensors[name] = arr.astype(ld)
        self.indices = [int(i) for i in z.indices]
        self.tfidf = z.tfidf.astype(ld)
        self.enc_ids = [model.features.encode_ids(tok) for tok in z.tokens]
        self.d_h = model.d_h
        self.y = list(y)
        self.inputs = [model.vocab.bos] + self.y[:-1]
        self.dec_ids = {
            i: model.features.decode_ids(model.vocab.word_of(i)) for i in set(self.inputs)
        }
        self._reprs = None
        self._dec_reprs = None
        self._hf = None
        self._hb = None

    def group_of(self, name):
        return self._GROUPS.get(name.split(".", 1)[0], "dec")

    def _token_repr(self, index, enc_pos=None):
        parts = [self.tensors["emb"][index]]
        ids = self.enc_ids[enc_pos] if enc_pos is not None else self.dec_ids[index]
        for ch, fid in zip(CHANNELS, ids):
            parts.append(self.tensors[f"feat.{ch}"][fid])
        cont = self.tfidf[enc_pos] if enc_pos is not None else np.longdouble(0.0)
        parts.append(np.array([cont], dtype=np.longdouble))
        return np.concatenate(parts)

    def _cell(self, p, u, h, c):
        M, b, oc = self.cells[p]
        d = self.d_h
        pre = M @ np.concatenate([u, h, c]) + b
        gif = 1.0 / (1.0 + np.exp(-pre[: 2 * d]))
        c_new = gif[d:] * c + gif[:d] * np.tanh(pre[2 * d : 3 * d])
        o = 1.0 / (1.0 + np.exp(-(pre[3 * d :] + oc @ c_new)))
        return o * np.tanh(c_new), c_new

    def loss(self, group="all"):
        """-loglik, recomputing only the stages `group` depends on."""
        n = len(self.indices)
        ld = np.longdouble
        if group == "all" or self._reprs is None:
            self._reprs = [self._token_repr(self.indices[t], t) for t in range(n)]
            self._dec_reprs = [self._token_repr(inp) for inp in self.inputs]
            group = "all"
        if group in ("all", "enc_f"):
            h = np.zeros(self.d_h, dtype=ld)
            c = np.zeros(self.d_h, dtype=ld)
            hf = np.empty((n, self.d_h), dtype=ld)
            for t in range(n):
                h, c = self._cell("enc_f", self._reprs[t], h, c)
                hf[t] = h
            self._hf = hf
        if group in ("all", "enc_b"):
            h = np.zeros(self.d_h, dtype=ld)
            c = np.zeros(self.d_h, dtype=ld)
            hb = np.empty((n, self.d_h), dtype=ld)
            for j in range(n):
                h, c = self._cell("enc_b", self._reprs[n - 1 - j], h, c)
                hb[n - 1 - j] = h
            self._hb = hb
        contexts = np.concatenate([self._hf, self._hb], axis=1)
        t = self.tensors
        cq = contexts @ t["attn.W_cg"].T
        h = np.zeros(self.d_h, dtype=ld)
        c = np.zeros(self.d_h, dtype=ld)
        loglik = ld(0.0)
        for rep, target in zip(self._dec_reprs, self.y):
            q = cq + t["attn.W_hg"] @ h
            e = np.tanh(q) @ t["attn.W_s"]
            a = np.exp(e - e.max())
            a /= a.sum()
            s = a @ contexts
            u = np.concatenate([rep, s])
            h, c = self._cell("dec", u, h, c)
            logits = t["W_out"] @ h + t["b_out"]
            m = logits.max()
            loglik += logits[target] - m - np.log(np.exp(logits - m).sum())
        return -loglik


def gradient_check(seed=0):
    """Max relative error between backward_pass and central differences.

    relerr = |ga - gn| / max(1e-8, |ga| + |gn|) per coordinate of the tiny
    model of `_tiny_instance(seed)`, with step CHECK_EPSILON and tensors
    larger than CHECK_MAX_COORDS subsampled (seeded).
    """
    model, z, y = _tiny_instance(seed)
    _, trace = sequence_log_prob(model, z, y)
    grads = backward_pass(model, trace)
    fwd = _ExtendedForward(model, z, y)
    eps = np.longdouble(CHECK_EPSILON)
    max_rel = 0.0
    for name, arr in model.named_tensors():
        fwd.loss("all")  # refresh caches before switching tensors
        group = fwd.group_of(name)
        size = arr.size
        if size > CHECK_MAX_COORDS:
            coord_rng = SeededRng(derive_seed(seed, "coords", name))
            coords = coord_rng.permutation(size)[:CHECK_MAX_COORDS]
        else:
            coords = range(size)
        gflat = grads[name].reshape(-1)
        flat = fwd.tensors[name].flat
        for i in coords:
            base = flat[i]
            flat[i] = base + eps
            lp = fwd.loss(group)
            flat[i] = base - eps
            lm = fwd.loss(group)
            flat[i] = base
            gn = float((lp - lm) / (2 * eps))
            ga = float(gflat[i])
            rel = abs(ga - gn) / max(1e-8, abs(ga) + abs(gn))
            max_rel = max(max_rel, rel)
    return max_rel

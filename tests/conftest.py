import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from opinesum.attnseq2seq import TokenFeatureSet, backward_pass, decode_step, new_model
from opinesum.numkit import SeededRng
from opinesum.sampler import build_input
from opinesum.textcorpus import Cluster, TfidfStats, build_vocab, text_unit


def pytest_collection_modifyitems(items):
    """Fail every test of this directory that leaks a file handle: the
    handle's ResourceWarning is raised in its finalizer, which pytest
    reports as an unraisable exception. The filters are marks, not ini
    settings, so a run that also collects perfbench/ applies them only
    here."""
    here = Path(__file__).parent
    for item in items:
        if item.path.is_relative_to(here):
            item.add_marker(pytest.mark.filterwarnings("error::ResourceWarning"))
            item.add_marker(
                pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
            )


def make_cluster(texts, summary="great stuff", cid="c0", entity=None):
    return Cluster(
        id=cid,
        units=tuple(text_unit(t) for t in texts),
        summary=text_unit(summary),
        entity=entity,
    )


def all_gradients(model, trace):
    """{name: gradient} of every tensor, each piece backward_pass emits
    written into one zero array per tensor."""
    grads = {name: np.zeros_like(arr) for name, arr in model.named_tensors()}

    def put(name, rows, values):
        grads[name][rows] = values

    backward_pass(model, trace, put)
    return grads


def traced_call(fn, *args):
    """Run fn(*args) under tracemalloc: (its result, the bytes still held
    when it returns, the peak while it ran), both counted from the
    traced memory before the call."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held - base, peak - base


def decode_one(model, y_prev, h, c, contexts, keys):
    """decode_step for one sequence, called with one row: one previous
    token and d_h states in, (h, c, word distribution) out."""
    h, c, probs = decode_step(model, [y_prev], h[None], c[None], contexts, keys)
    return h[0], c[0], probs[0]


def v3_gate_tensors(p, prefix):
    """The 15 per-gate tensors of LSTM cell p that checkpoint v3 named
    (W_iu, W_ih, W_ic, b_i, ..., W_oc, b_o), as row-block views of its
    four arrays: the v3 layout, kept as an oracle."""
    d = p.d_h
    for k, gate in enumerate("ifco"):
        rows = slice(k * d, (k + 1) * d)
        yield f"{prefix}.W_{gate}u", p.Wu[rows]
        yield f"{prefix}.W_{gate}h", p.Wh[rows]
        if gate != "c":
            j = min(k, 2) * d  # Wc has no block for g
            yield f"{prefix}.W_{gate}c", p.Wc[j : j + d]
        yield f"{prefix}.b_{gate}", p.b[rows]


def v3_named_tensors(model):
    """The (name, tensor) pairs of checkpoint v3, in its order: those of
    model.named_tensors() with each cell's four arrays replaced by its
    v3_gate_tensors."""
    for name, arr in model.named_tensors():
        prefix, _, field = name.rpartition(".")
        if prefix not in ("enc_f", "enc_b", "dec"):
            yield name, arr
        elif field == "b":  # the cell's last array
            yield from v3_gate_tensors(getattr(model, prefix), prefix)


def copy_model(model):
    """A model holding copies of every tensor of `model`, sharing its
    vocabulary and feature registry."""
    copy = new_model(model.vocab, model.features, model.d_emb, model.d_h, model.d_a)
    for name, arr in copy.named_tensors():
        arr[...] = model.tensors[name]
    return copy


def randomize(model, seed=0, scale=0.3):
    """Uniform(-scale, scale) values in every tensor, drawn in checkpoint
    v3's order, so each seed keeps the model it gave before v4."""
    rng = SeededRng(seed)
    for _, arr in v3_named_tensors(model):
        arr[...] = rng.uniform(-scale, scale, arr.shape)
    return model


def tiny_setup(seed=0, with_features=False, d_emb=4, d_h=3, d_a=2, scale=0.3):
    """Small random model plus a 2-unit encoder input and a target."""
    cluster = make_cluster(["aa bb cc", "dd ee"], summary="bb dd")
    vocab = build_vocab([cluster])
    features = None
    if with_features:
        features = TokenFeatureSet(
            pos_tags=["nn", "vb"],
            lex_categories=("Negativ", "Positiv"),
            word_lex={"aa": "Positiv", "dd": "Negativ"},
            word_sent={"bb": "positive", "ee": "negative"},
            dim=3,
        )
    model = randomize(new_model(vocab, features, d_emb, d_h, d_a), seed, scale)
    z = build_input(cluster, [0, 1], vocab, TfidfStats([cluster]))
    y = list(vocab.encode(cluster.summary.norms())) + [vocab.eos]
    return model, cluster, z, y


@pytest.fixture
def tiny():
    return tiny_setup()


@pytest.fixture
def tiny_feat():
    return tiny_setup(with_features=True)

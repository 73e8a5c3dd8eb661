import tracemalloc
from pathlib import Path

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
    """Every gradient group backward_pass emits, collected into one dict."""
    grads = {}
    backward_pass(model, trace, grads.update)
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


def randomize(model, seed=0, scale=0.3):
    rng = SeededRng(seed)
    for _, arr in model.named_tensors():
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

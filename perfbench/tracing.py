"""In-memory span tracing around the package's public layer functions.

Every wrapped call records one span (name, start, end, parent, run id);
spans stay in memory until the child writes them out at the end. Work
counts are recorded at the same boundaries. Wrapping replaces every
binding of the original function object in every loaded `opinesum`
module, because callers import several functions by name (trainer binds
`backward_pass`, beamdecode binds `decode_step`, cli binds `load_model`).
"""

import importlib
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager

_MiB = float(1 << 20)


class Tracer:
    """Spans and work counts of one child process, kept in memory."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []     # [name, start, end, parent index or -1, run id]
        self.counts = Counter()
        self._stack = []

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, fn, name, count=None):
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self.counts[name + ".calls"] += 1
            if count is not None:
                count(self.counts, sig.bind(*args, **kwargs).arguments, result)
            return result

        traced.__wrapped__ = fn
        return traced


def _units(counts, args, result):
    counts["salience.cluster_features.units"] += result.shape[0]


def _design(counts, args, result):
    rows, cols = result.Rprime.shape
    counts["salience.build_design.pair_rows"] += rows
    counts["salience.build_design.mb"] += rows * cols * 8 / _MiB


def _encoder_input(counts, args, result):
    counts["sampler.encoder_tokens.sum"] += len(result)
    counts["sampler.encoder_tokens.n"] += 1


def _wrap_beam(tracer, fn, name):
    """beam_search's wrapper also counts candidates and kept hypotheses,
    which needs the decode_step calls made inside it."""
    inner = tracer.wrap(fn, name)
    sig = inspect.signature(fn)

    def traced(*args, **kwargs):
        before = tracer.counts["attnseq2seq.decode_step.calls"]
        result = inner(*args, **kwargs)
        steps = tracer.counts["attnseq2seq.decode_step.calls"] - before
        call = sig.bind(*args, **kwargs).arguments
        vocab = call["model"].vocab
        banned = call.get("banned")
        banned = set(banned) if banned is not None else {vocab.seg, vocab.bos}
        banned.discard(vocab.eos)
        tracer.counts["beamdecode.candidates"] += steps * (len(vocab) - len(banned))
        # every kept hypothesis either expands once more (one decode_step
        # call) or retires into the returned pool; the root is not kept
        tracer.counts["beamdecode.kept"] += steps - 1 + len(result)
        return result

    traced.__wrapped__ = fn
    return traced


# (module, attribute, span name, work counter)
TARGETS = (
    ("opinesum.textcorpus", "load_clusters", "textcorpus.load_clusters", None),
    ("opinesum.salience", "cluster_features", "salience.cluster_features", _units),
    ("opinesum.salience", "build_design", "salience.build_design", _design),
    ("opinesum.salience", "fit_closed_form", "salience.fit_closed_form", None),
    ("opinesum.salience", "score_units", "salience.score_units", None),
    ("opinesum.numkit", "solve_spd", "numkit.solve_spd", None),
    ("opinesum.sampler", "sample_training_input", "sampler.input", _encoder_input),
    ("opinesum.sampler", "select_test_input", "sampler.input", _encoder_input),
    ("opinesum.attnseq2seq", "sequence_log_prob", "attnseq2seq.sequence_log_prob", None),
    ("opinesum.attnseq2seq", "backward_pass", "attnseq2seq.backward_pass", None),
    ("opinesum.attnseq2seq", "encode", "attnseq2seq.encode", None),
    ("opinesum.attnseq2seq", "decode_step", "attnseq2seq.decode_step", None),
    ("opinesum.attnseq2seq", "save_model", "attnseq2seq.save_model", None),
    ("opinesum.attnseq2seq", "load_model", "attnseq2seq.load_model", None),
    ("opinesum.trainer", "adagrad_update", "trainer.adagrad_update", None),
    ("opinesum.beamdecode", "greedy_decode", "beamdecode.greedy_decode", None),
    ("opinesum.beamdecode", "beam_search", "beamdecode.beam_search", None),
    ("opinesum.beamdecode", "rerank_similarities", "beamdecode.rerank", None),
    ("opinesum.evalmetrics", "bleu", "evalmetrics.bleu", None),
    ("opinesum.evalmetrics", "rouge_su4_corpus", "evalmetrics.rouge_su4_corpus", None),
)

# Targets whose counts need more than the call's arguments and result.
OWN_WRAPPERS = {"beamdecode.beam_search": _wrap_beam}


def install(tracer):
    """Wrap every target and rebind it wherever an opinesum module holds it."""
    for module_name, attr, name, count in TARGETS:
        original = getattr(importlib.import_module(module_name), attr)
        if name in OWN_WRAPPERS:
            wrapper = OWN_WRAPPERS[name](tracer, original, name)
        else:
            wrapper = tracer.wrap(original, name, count)
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "opinesum" or mod_name.startswith("opinesum."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own

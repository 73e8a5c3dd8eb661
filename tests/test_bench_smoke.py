"""The benchmark's traced run still sees the layers it times.

perfbench/tracing.py wraps library functions by module and name; a rename
or an inlined layer would leave its span empty and its metric at zero
without any error. Each test runs one tiny traced benchmark (about two
seconds) and checks that the spans of the text front-end, of the salience
fit and its SPD solve, of the training path and its dev pass, of the
checkpoint's save and load, of the test inputs' selection and of the
beam and its decoder steps were recorded.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
POSITIVE = (
    "attnseq2seq.backward_pass.calls",
    "trainer.adagrad_update.calls",
    "attnseq2seq.encode.s",
    "attnseq2seq.sequence_log_prob.s",
    "trainer.dev_pass.s",
    "attnseq2seq.save_model.s",
    "attnseq2seq.load_model.s",
    "textcorpus.load_clusters.s",
    "salience.cluster_features.s",
    "salience.cluster_features.units",
    "salience.score_units.s",
    "salience.build_design.pair_rows",
    "salience.fit_closed_form.calls",
    "numkit.solve_spd.calls",
    "attnseq2seq.decode_step.calls",
    "beamdecode.candidates",
    "beamdecode.beam_search.calls",
    "sampler.encoder_tokens",
)


@pytest.mark.parametrize("workload", ["decode-beam", "salience-wide"])
def test_traced_smoke_run_records_the_training_layers(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--smoke", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    for name in POSITIVE:
        assert result["metrics"][name]["value"] > 0, name

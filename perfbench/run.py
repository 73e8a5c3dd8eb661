"""End-to-end benchmark of the opinesum CLI pipeline.

    python3 perfbench/run.py --workload decode-beam --seed 1 --seconds 60 --trace 0

Generates a seeded synthetic corpus for the workload, then repeats the CLI
chain fit-importance -> rank-eval -> train -> decode -> evaluate, each
repeat in a fresh single-threaded child process, until `--seconds` have
been spent (at least three repeats). After each untraced chain a few more
children only set up, for the set-up time. Every repeat's outputs are
checked, and history.csv, model.txt and decode.jsonl must be
byte-identical across repeats. With `--trace 0` the end-to-end metrics
pool the repeats (mean chain time, total work over total stage seconds,
median set-up time and RSS); with `--trace 1` untraced and traced repeats
alternate and the per-layer metrics come from the traced ones. `--smoke`
shrinks every size so a run takes seconds.

The last stdout line is one JSON object: correct, attempted, failed,
metrics. Lines before it report the environment and each metric with its
unit and direction. Workloads are described in NOTES.md.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import tracing
from workloads import ETA, WORKLOADS, generate, smoke

STAGES = ("fit-importance", "rank-eval", "train", "decode", "evaluate")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
REPRODUCIBLE = ("model/history.csv", "model/model.txt", "decode/decode.jsonl")
MIN_REPEATS = 3
# Set-up alone is short, so each chain repeat is followed by this many
# children that only set up; setup_s is the median over all of them.
SETUP_ONLY = 3
# A run must end within 180 s: no repeat starts after LAST_START_S and a
# child still running at DEADLINE_S is killed and counted as failed.
LAST_START_S = 100
DEADLINE_S = 170

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("fit.units_per_s", "units/s", "higher"),
    ("train.examples_per_s", "examples/s", "higher"),
    ("decode.clusters_per_s", "clusters/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("success_ratio", "ratio", "higher"),
    ("rank.mrr", "score", "higher"),
    ("train.nll", "nats", "lower"),
    ("decode.nll", "nats", "lower"),
)

# Chain times and throughputs pool all untraced repeats of a run (total
# seconds over repeats, total work over total stage seconds): on a host
# whose speed swings by tens of percent within seconds, that averages over
# the whole run, where a median picks one repeat. RSS is a median.
POOLED = ("fit.units_per_s", "train.examples_per_s", "decode.clusters_per_s")

# Self time (".s") of each traced layer function, unless stated otherwise.
PER_LAYER = (
    ("textcorpus.load_clusters.s", "s", "lower"),
    ("salience.cluster_features.s", "s", "lower"),
    ("salience.cluster_features.units", "count", "lower"),
    ("salience.build_design.s", "s", "lower"),
    ("salience.build_design.pair_rows", "count", "lower"),
    ("salience.build_design.mb", "MB", "lower"),
    ("salience.fit_closed_form.s", "s", "lower"),
    ("salience.fit_closed_form.calls", "count", "lower"),
    ("salience.score_units.s", "s", "lower"),
    ("numkit.solve_spd.s", "s", "lower"),
    ("numkit.solve_spd.calls", "count", "lower"),
    ("sampler.input.s", "s", "lower"),
    ("sampler.encoder_tokens", "tokens", "lower"),
    ("attnseq2seq.sequence_log_prob.s", "s", "lower"),
    ("attnseq2seq.backward_pass.s", "s", "lower"),
    ("attnseq2seq.backward_pass.calls", "count", "lower"),
    ("attnseq2seq.encode.s", "s", "lower"),
    ("attnseq2seq.decode_step.s", "s", "lower"),
    ("attnseq2seq.decode_step.calls", "count", "lower"),
    ("attnseq2seq.save_model.s", "s", "lower"),
    ("attnseq2seq.load_model.s", "s", "lower"),
    ("trainer.adagrad_update.s", "s", "lower"),
    ("trainer.adagrad_update.calls", "count", "lower"),
    ("trainer.dev_pass.s", "s", "lower"),
    ("beamdecode.beam_search.s", "s", "lower"),
    ("beamdecode.beam_search.calls", "count", "lower"),
    ("beamdecode.candidates", "count", "lower"),
    ("beamdecode.kept_ratio", "ratio", "higher"),
    ("beamdecode.model_share", "ratio", "higher"),
    ("beamdecode.rerank.s", "s", "lower"),
    ("evalmetrics.bleu.s", "s", "lower"),
    ("evalmetrics.rouge_su4_corpus.s", "s", "lower"),
) + tuple((f"cli.{stage}.s", "s", "lower") for stage in STAGES) + (
    ("cli.other.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class Checks:
    """Counts attempted and failed output checks; failures are kept for the report."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def stage_plan(wl, corpus, rep_dir):
    """CLI argv per stage; every output lands under rep_dir."""
    sal = {"salience_model": f"{rep_dir}/sal/salience.model",
           "salience_registry": f"{rep_dir}/sal/salience.registry"}
    splits = {"corpus.train": corpus["train"], "corpus.dev": corpus["dev"]}
    stages = {
        "fit-importance": {**splits, "out_dir": f"{rep_dir}/sal"},
        "rank-eval": {"corpus": corpus["test"], **sal, "out_dir": f"{rep_dir}/rank"},
        "train": {**splits, **sal, "out_dir": f"{rep_dir}/model",
                  "d_emb": wl.d_emb, "d_h": wl.d_h, "d_a": wl.d_a, "use_features": "false",
                  "K": wl.K, "eta": ETA, "max_epochs": wl.epochs, "patience": wl.epochs,
                  "max_len": wl.max_len},
        "decode": {"corpus": corpus["test"], **sal, "model": f"{rep_dir}/model/model.txt",
                   "out_dir": f"{rep_dir}/decode", "K": wl.K, "beam_width": wl.beam_width,
                   "max_len": wl.max_len},
        "evaluate": {"corpus": corpus["test"], "decode": f"{rep_dir}/decode/decode.jsonl",
                     "out_dir": f"{rep_dir}/eval"},
    }
    return [(name, [name] + [arg for k, v in pairs.items() for arg in ("--set", f"{k}={v}")])
            for name, pairs in stages.items()]


def run_child(stages, corpus, rep_dir, trace, run_id, timeout):
    """Run one child; returns (child result or None, spawn time)."""
    os.makedirs(rep_dir)
    plan = {
        "src": os.path.join(ROOT, "src"),
        "trace": trace,
        "run_id": run_id,
        "corpora": [corpus[s] for s in ("train", "dev", "test")],
        "stages": stages,
    }
    plan_path = os.path.join(rep_dir, "plan.json")
    result_path = os.path.join(rep_dir, "result.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    env = dict(os.environ, PYTHONPATH=plan["src"], **PINNED_ENV)
    with open(os.path.join(rep_dir, "child.log"), "w", encoding="utf-8") as log:
        # perf_counter is CLOCK_MONOTONIC on Linux, shared with the child,
        # so the child's stage start minus this reading is its set-up time
        spawned = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), plan_path, result_path],
            stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT,
        )
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            code = "timeout"
        finally:  # also when this process is terminated
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0:
        with open(os.path.join(rep_dir, "child.log"), encoding="utf-8") as fh:
            sys.stderr.write(fh.read()[-4000:])
        return None, spawned
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh), spawned


def check_outputs(wl, corpus_ids, rep_dir, checks):
    """Output checks on one successful chain; returns the quality guards."""
    out = {}
    with open(os.path.join(rep_dir, "decode", "decode.jsonl"), encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    checks.expect(sorted(r["id"] for r in records) == sorted(corpus_ids["test"]),
                  "decode.jsonl: not exactly one record per test id")
    for r in records:
        logps = [h["logp"] for h in r["nbest"]]
        checks.expect(
            bool(logps) and all(math.isfinite(x) for x in logps)
            and all(a >= b for a, b in zip(logps, logps[1:])),
            f"decode.jsonl {r['id']}: n-best log-probs empty, non-finite or increasing")
        checks.expect(r["summary"] in {h["text"] for h in r["nbest"]},
                      f"decode.jsonl {r['id']}: summary not taken from its n-best")
    if records and all(r["nbest"] for r in records):
        # per-token NLL (words plus EOS) over every n-best entry
        out["decode.nll"] = statistics.fmean(
            -h["logp"] / (len(h["text"].split()) + 1) for r in records for h in r["nbest"])
    with open(os.path.join(rep_dir, "model", "history.csv"), encoding="utf-8") as fh:
        history = list(csv.DictReader(fh))
    nll = [float(row["train_nll"]) for row in history]
    if checks.expect(len(history) == wl.epochs and all(math.isfinite(x) for x in nll),
                     f"history.csv: want {wl.epochs} epochs with finite NLL"):
        out["train.nll"] = nll[-1]
    with open(os.path.join(rep_dir, "eval", "eval.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    if checks.expect(report["pairs"] == len(corpus_ids["test"]), "eval.json: pairs != test count"):
        out["decode.bleu"] = report["bleu"]
    with open(os.path.join(rep_dir, "rank", "rank_eval.csv"), encoding="utf-8") as fh:
        rows = {row["system"]: row for row in csv.DictReader(fh)}
    if checks.expect("salience" in rows, "rank_eval.csv: no salience row"):
        out["rank.mrr"] = float(rows["salience"]["mrr"])
    return out


def chain_metrics(wl, result):
    times = {name: (start, end) for name, start, end, _ in result["stages"]}

    def seconds(stage):
        return times[stage][1] - times[stage][0]

    return {
        "wall_s": times["evaluate"][1] - times["fit-importance"][0],
        "fit.units_per_s": (wl.train + wl.dev) * wl.units / seconds("fit-importance"),
        "train.examples_per_s": wl.train * wl.epochs / seconds("train"),
        "decode.clusters_per_s": wl.test / seconds("decode"),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def layer_metrics(result, checks):
    """Per-layer numbers from one traced repeat."""
    spans = result["spans"]
    own = tracing.self_times(spans)
    total = {}
    self_s = {}
    for (name, start, end, _, _), s in zip(spans, own):
        total[name] = total.get(name, 0.0) + end - start
        self_s[name] = self_s.get(name, 0.0) + s
    counts = result["counts"]
    m = {name: self_s.get(name[:-2], 0.0) for name, unit, _ in PER_LAYER if name.endswith(".s")}
    m.update({name: float(counts.get(name, 0)) for name, unit, _ in PER_LAYER if unit in ("count", "MB")})
    m["sampler.encoder_tokens"] = counts.get("sampler.encoder_tokens.sum", 0) / max(
        counts.get("sampler.encoder_tokens.n", 0), 1)
    m["trainer.dev_pass.s"] = total.get("beamdecode.greedy_decode", 0.0)
    m["beamdecode.kept_ratio"] = counts.get("beamdecode.kept", 0) / max(
        counts.get("beamdecode.candidates", 0), 1)
    m["beamdecode.model_share"] = total.get("attnseq2seq.decode_step", 0.0) / max(
        total.get("beamdecode.beam_search", 0.0), 1e-12)
    # spans nest: each lies within its parent, so no self time is negative
    # and a stage's self times (cli.other.s among them) sum to its duration
    nested = all(parent < 0 or spans[parent][1] <= start <= end <= spans[parent][2]
                 for _, start, end, parent, _ in spans)
    checks.expect(nested and min(own, default=0.0) >= -1e-9,
                  "trace: a span lies outside its parent or has negative self time")
    m["cli.other.s"] = 0.0
    for i, (name, start, end, _, _) in enumerate(spans):
        if name.startswith("cli."):
            m[name + ".s"] = end - start
            m["cli.other.s"] += own[i]
    return m, self_s


def median_of(samples, name):
    return statistics.median(s[name] for s in samples)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes; finishes in seconds")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "opinesum", "cli.py")):
        print(f"error: no opinesum sources under {ROOT}/src", file=sys.stderr)
        return 2
    wl = smoke(WORKLOADS[args.workload]) if args.smoke else WORKLOADS[args.workload]
    work = os.path.join(HERE, ".work", f"{wl.name}-seed{args.seed}-{os.getpid()}")
    corpus = generate(wl, args.seed, os.path.join(work, "corpus"))
    corpus_ids = {}
    for split, path in corpus.items():
        with open(path, encoding="utf-8") as fh:
            corpus_ids[split] = [json.loads(line)["id"] for line in fh]

    checks = Checks()
    untraced, traced, setups, guards, env, digests, vocab = [], [], [], [], None, {}, None
    began = time.perf_counter()
    repeat = 0
    while True:
        trace = bool(args.trace and repeat % 2)
        rep_dir = os.path.join(work, f"rep{repeat}")
        timeout = max(1.0, DEADLINE_S - (time.perf_counter() - began))
        result, spawned = run_child(stage_plan(wl, corpus, rep_dir), corpus, rep_dir, trace,
                                    repeat, timeout)
        codes = {name: code for name, _, _, code in (result["stages"] if result else [])}
        ok = all([checks.expect(codes.get(s) == 0, f"repeat {repeat}: stage {s} exit {codes.get(s)}")
                  for s in STAGES])
        if ok:
            env = result["env"]
            guards.append(check_outputs(wl, corpus_ids, rep_dir, checks))
            for rel in REPRODUCIBLE:
                with open(os.path.join(rep_dir, rel), "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
                if rel in digests:
                    checks.expect(digest == digests[rel], f"repeat {repeat}: {rel} differs from repeat 0")
                digests.setdefault(rel, digest)
            if vocab is None:
                with open(os.path.join(rep_dir, REPRODUCIBLE[1]), encoding="utf-8") as fh:
                    vocab = int([next(fh) for _ in range(3)][2].split()[1])
            if trace:
                layers, self_s = layer_metrics(result, checks)
                traced.append({"layers": layers, "self": self_s,
                               "wall_s": chain_metrics(wl, result)["wall_s"]})
            else:
                untraced.append(chain_metrics(wl, result))
                setups.append(result["setup_end"] - spawned)
        for extra in range(SETUP_ONLY if ok and not trace else 0):
            setup_dir = os.path.join(work, f"setup{repeat}-{extra}")
            timeout = max(1.0, DEADLINE_S - (time.perf_counter() - began))
            result, spawned = run_child([], corpus, setup_dir, False, repeat, timeout)
            if checks.expect(result is not None, f"repeat {repeat}: set-up child {extra} failed"):
                setups.append(result["setup_end"] - spawned)
                shutil.rmtree(setup_dir)
        if checks.failures:
            break
        shutil.rmtree(rep_dir)
        repeat += 1
        elapsed = time.perf_counter() - began
        enough = bool(traced and untraced) if args.trace else len(untraced) >= MIN_REPEATS
        if elapsed >= LAST_START_S or (enough and elapsed + elapsed / repeat > args.seconds):
            break
    checks.expect(bool(untraced) and (bool(traced) or not args.trace),
                  "no complete repeat of each kind before the time limit")

    failed = len(checks.failures)
    print("env " + json.dumps(env))
    print("corpus " + json.dumps({
        "workload": wl.name, "seed": args.seed, "clusters": {s: len(v) for s, v in corpus_ids.items()},
        "units_per_cluster": wl.units, "unit_tokens": wl.unit_len, "vocab": vocab,
        "untraced_repeats": len(untraced), "traced_repeats": len(traced),
    }))
    print(f"fail_ratio {failed / checks.attempted} ({failed} of {checks.attempted} checks)")
    metrics = {}
    if failed:
        for what in checks.failures:
            print(f"FAILED {what}", file=sys.stderr)
        print(f"outputs kept in {work}", file=sys.stderr)
    else:
        e2e = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.fmean(s["wall_s"] for s in untraced),
            "peak_rss_mb": median_of(untraced, "peak_rss_mb"),
        }
        for name in POOLED:
            # every repeat does the same work, so this is work / summed seconds
            e2e[name] = statistics.harmonic_mean([s[name] for s in untraced])
        for name in untraced[0]:
            print(f"samples {name} " + " ".join(f"{s[name]:.4g}" for s in untraced))
        print("samples setup_s " + " ".join(f"{x:.4g}" for x in setups))
        e2e["success_ratio"] = 1.0 - failed / checks.attempted
        e2e.update({name: median_of(guards, name) for name in guards[0]})
        print(f"decode.bleu {e2e.pop('decode.bleu')!r} "
              "(reported, not bounded: 0 when the beam keeps only empty summaries)")
        table, values = END_TO_END, e2e
        if args.trace:
            values = {name: statistics.median(t["layers"][name] for t in traced)
                      for name, _, _ in PER_LAYER if name != "trace.overhead_s"}
            traced_wall = median_of(traced, "wall_s")
            values["trace.overhead_s"] = traced_wall - e2e["wall_s"]
            print(f"trace overhead: traced wall_s {traced_wall:.4f} - untraced wall_s "
                  f"{e2e['wall_s']:.4f} = {values['trace.overhead_s']:.4f} s")
            self_s = traced[0]["self"]
            busiest = sorted(self_s, key=self_s.get, reverse=True)[:6]
            print("largest self time: " + ", ".join(
                f"{n} {self_s[n] / sum(self_s.values()):.1%}" for n in busiest))
            table = PER_LAYER
        for name, unit, better in table:
            print(f"metric {name} {values[name]!r} {unit} {better}")
            metrics[name] = {"value": values[name], "unit": unit}
        shutil.rmtree(work)
    print(json.dumps({"correct": failed == 0, "attempted": checks.attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

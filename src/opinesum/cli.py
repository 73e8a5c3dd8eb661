"""Command-line surface for the pipeline.

Subcommands: fit-importance, rank-eval, train, gradcheck, decode,
evaluate, sampling-report. Configuration is a key=value text file
merged with --set overrides (flags win). Each command declares its keys in
one table (KEY_TABLES); unknown keys are rejected, and every key is parsed
and checked, every input path validated and out_dir made before any input
is read.

Exit codes: 0 success, 1 quality-gate failure, 2 usage or I/O error or
diverged training.
"""

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys

from . import beamdecode, evalmetrics, salience, trainer
from .attnseq2seq import load_model as load_seq2seq
from .numkit import derive_seed, set_blas_threads
from .salience import LexiconSet
from .textcorpus import (
    TfidfStats,
    atomic_write,
    build_vocab,
    default_stopwords,
    load_clusters,
    load_embeddings,
    load_lexicon,
    load_stopwords,
    read_lines,
    substitute_entity,
    tokenize,
    write_csv,
)


class UsageError(Exception):
    """Bad arguments, bad config, or missing inputs (exit code 2)."""


# Each parser turns a key's raw string into its value or raises UsageError.
def _text(key, raw):
    return raw


def _number(kind, low):
    """A `kind` value >= low."""
    noun = {int: "an integer", float: "a number"}[kind]

    def parse(key, raw):
        try:
            value = kind(raw)
        except ValueError:
            raise UsageError(f"config key {key} must be {noun}") from None
        if value < low:
            raise UsageError(f"config key {key} must be >= {low}")
        return value

    return parse


_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _bool(key, raw):
    if raw.lower() not in _BOOLS:
        raise UsageError(f"config key {key} must be a boolean")
    return _BOOLS[raw.lower()]


def _list(kind, ok, values):
    """Comma-separated `kind` values, at least one, each passing `ok`;
    `values` says which values pass."""

    def parse(key, raw):
        items = [x.strip() for x in raw.split(",") if x.strip()]
        if not items:
            raise UsageError(f"config key {key} must list at least one value")
        try:
            parsed = [kind(item) for item in items]
        except ValueError:
            raise UsageError(f"config key {key} must list {kind.__name__} values") from None
        if not all(ok(item) for item in parsed):
            raise UsageError(f"config key {key} must list {values}")
        return parsed

    return parse


def _path(exists, what):
    def parse(key, raw):
        if not exists(raw):
            raise UsageError(f"{key}: {what} not found: {raw}")
        return raw

    return parse


_INT, _FLOAT, _COUNT = _number(int, -math.inf), _number(float, -math.inf), _number(int, 1)
_FILE = _path(os.path.isfile, "file")


def _train_entry(field):
    """The entry of a TrainConfig field: its default, and its type's parser
    followed by TrainConfig's own check. That check tests each field on its
    own, so a value checked with every other field at its default is
    checked fully."""
    by_type = {int: _INT, float: _FLOAT, bool: _bool, str: _text}[field.type]

    def parse(key, raw):
        value = by_type(key, raw)
        try:
            trainer.TrainConfig(**{key: value})
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        return value

    return parse, str(field.default)


# The default of a key that must be set. Any other default is a raw value,
# or None for a key that may be absent (it then resolves to None).
REQUIRED = object()

_INPUT = (_FILE, REQUIRED)
# the fitted salience model and its registry, which carries the stopwords
# and lexicons it was fitted with
_SALIENCE = {"salience_model": _INPUT, "salience_registry": _INPUT}
# the directory all of a command's outputs are written under
_OUT = {"out_dir": (_text, REQUIRED)}
# decode and sampling-report: a test split decoded by a beam that stops at
# training's max_len
_DECODING = {
    "corpus": _INPUT, **_SALIENCE,
    "beam_width": (_COUNT, "20"),
    "max_len": (_COUNT, str(trainer.TrainConfig.max_len)),
    **_OUT,
}

_MODES = ",".join(trainer.SAMPLING_MODES)
# {command: {key: (parse, default)}}: exactly the keys each command reads
KEY_TABLES = {
    "fit-importance": {
        "corpus.train": _INPUT, "corpus.dev": _INPUT,
        "top_unigrams": (_number(int, 0), "500"),
        # every comparison with NaN is false, so NaN fails these checks too
        "lam_grid": (_list(float, lambda lam: 0 <= lam < math.inf, "finite values >= 0"),
                     "0,0.01,0.1,0.5,1,10"),
        "beta_grid": (_list(float, lambda beta: 0 < beta < math.inf, "finite values > 0"),
                      "0.01,0.1,1,10"),
        # the stopword file (default: the bundled list), the general lexicon
        # (word<TAB>category) and the sentiment lexicon (categories
        # positive/negative/neutral); the registry carries them on
        **{key: (_FILE, None) for key in ("stopwords", "lexicon", "sentiment_lexicon")},
        **_OUT,
    },
    "rank-eval": {"corpus": _INPUT, **_SALIENCE, **_OUT},
    "train": {
        "corpus.train": _INPUT, "corpus.dev": _INPUT, **_SALIENCE,
        "embeddings": (_FILE, None),
        **{f.name: _train_entry(f) for f in dataclasses.fields(trainer.TrainConfig)},
        **_OUT,
    },
    "gradcheck": {"seeds": (_COUNT, "1"), "seed": (_INT, "0")},
    "decode": {"model": _INPUT, "K": (_COUNT, str(trainer.TrainConfig.K)), **_DECODING},
    "evaluate": {"corpus": _INPUT, "decode": _INPUT, **_OUT},
    "sampling-report": {
        "model_dir": (_path(os.path.isdir, "directory"), REQUIRED),
        "modes": (_list(str, trainer.SAMPLING_MODES.__contains__, "modes of " + _MODES), _MODES),
        "Ks": (_list(int, lambda k: k >= 1, "values >= 1"), "1,2,5,10"),
        **_DECODING,
    },
}


class RunConfig(dict):
    """A command's resolved config: every key of its table, parsed and
    checked."""

    @staticmethod
    def load(command, config_path, overrides):
        """Merge the key=value config file with the --set overrides (flags
        win), reject unknown keys, resolve and check every key of the
        command's table (so every input path exists), then make out_dir.
        All of this happens before any input is read."""
        pairs = {}
        if config_path:
            if not os.path.isfile(config_path):
                raise UsageError(f"config file not found: {config_path}")
            for line_no, line in read_lines(config_path):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(f"{config_path}:{line_no}: expected key=value")
                key, _, value = line.partition("=")
                pairs[key.strip()] = value.strip()
        for item in overrides or ():
            if "=" not in item:
                raise UsageError(f"--set expects key=value, got {item!r}")
            key, _, value = item.partition("=")
            pairs[key.strip()] = value.strip()
        table = KEY_TABLES[command]
        for key in pairs:
            if key not in table:
                raise UsageError(f"unknown config key for {command}: {key!r}")
        cfg = RunConfig()
        for key, (parse, default) in table.items():
            raw = pairs.get(key, default)
            if raw is REQUIRED:
                raise UsageError(f"missing required config key: {key}")
            cfg[key] = None if raw is None else parse(key, raw)
        if "out_dir" in cfg:
            os.makedirs(cfg["out_dir"], exist_ok=True)
        return cfg

    def out_path(self, name):
        return os.path.join(self["out_dir"], name)


def _load_lexicons(cfg):
    stopwords = load_stopwords(cfg["stopwords"]) if cfg["stopwords"] else default_stopwords()
    general = load_lexicon(cfg["lexicon"]) if cfg["lexicon"] else {}
    path = cfg["sentiment_lexicon"]
    sentiment = salience.sentiment_lexicon(load_lexicon(path), path) if path else {}
    return LexiconSet(general=general, sentiment=sentiment, stopwords=stopwords)


def _prepare(clusters_raw):
    """One loaded corpus split as every library stage takes it: its
    clusters with entities substituted, and their TfidfStats."""
    clusters = [substitute_entity(c) for c in clusters_raw]
    return clusters, TfidfStats(clusters)


def _score_split(clusters, tfidf, model):
    """One score vector per prepared cluster, featurized with the model's
    registry. Each cluster is scored as soon as it is featurized, so only
    one feature matrix is alive at a time."""
    return [
        salience.score_units(model, salience.cluster_features(c, model.registry, tfidf))
        for c in clusters
    ]


def _load_salience(cfg):
    """The fitted salience model, with its registry and so its lexicons."""
    registry = salience.load_registry(cfg["salience_registry"])
    return salience.load_model(cfg["salience_model"], registry)


def cmd_fit_importance(cfg):
    lexicons = _load_lexicons(cfg)
    train_clusters, train_tfidf = _prepare(load_clusters(cfg["corpus.train"]))
    registry = salience.build_registry(train_clusters, lexicons, cfg["top_unigrams"])
    train_labels = [salience.gold_scores(c, lexicons.stopwords) for c in train_clusters]
    dev_clusters, dev_tfidf = _prepare(load_clusters(cfg["corpus.dev"]))
    dev_relevant = [salience.relevant_units(c, lexicons.stopwords) for c in dev_clusters]

    # the design and the dev grid need every cluster's features at once
    def featurize(clusters, tfidf):
        return [salience.cluster_features(c, registry, tfidf) for c in clusters]

    # only the normal equations outlive the design: the training features
    # and the stacked R are freed before the dev split is featurized
    normal_equations = salience.build_design(
        featurize(train_clusters, train_tfidf), train_labels
    ).normal_equations
    model, rows = salience.fit_with_grid_search(
        normal_equations, dev_relevant, featurize(dev_clusters, dev_tfidf), registry,
        cfg["lam_grid"], cfg["beta_grid"],
    )
    salience.save_model(model, cfg.out_path("salience.model"))
    salience.save_registry(registry, cfg.out_path("salience.registry"))
    write_csv(
        cfg.out_path("grid.csv"),
        ["lambda", "beta", "dev_mrr"],
        [[lam, beta, f"{dev_mrr:.6f}"] for lam, beta, dev_mrr in rows],
    )
    print(f"fitted d={model.w.shape[0]} lambda={model.lam} beta={model.beta}")
    print(f"wrote {cfg.out_path('salience.model')}")
    return 0


def cmd_rank_eval(cfg):
    model = _load_salience(cfg)
    clusters, tfidf = _prepare(load_clusters(cfg["corpus"]))
    unit_scores = _score_split(clusters, tfidf, model)
    systems = {
        "salience": [salience.rank_descending(scores) for scores in unit_scores],
        "length": [salience.baseline_rank("length", c, tfidf) for c in clusters],
        "centroid": [salience.baseline_rank("centroid", c, tfidf) for c in clusters],
    }
    ranking_rows = []
    for cluster, scores, order in zip(clusters, unit_scores, systems["salience"]):
        for rank, unit_index in enumerate(order, start=1):
            ranking_rows.append(
                (cluster.id, unit_index, f"{scores[unit_index]:.6f}", rank)
            )
    write_csv(
        cfg.out_path("rankings.csv"), ["cluster_id", "unit_index", "score", "rank"], ranking_rows
    )
    # each system's gains are the same relevance flags in its order
    relevant = [salience.relevant_units(c, model.registry.lexicons.stopwords) for c in clusters]
    eval_rows = []
    for name, orders in systems.items():
        rels = [rel[order].astype(int).tolist() for rel, order in zip(relevant, orders)]
        eval_rows.append(
            [
                name,
                f"{evalmetrics.mrr(rels):.6f}",
                f"{evalmetrics.mean_ndcg_at(3, rels):.6f}",
                f"{evalmetrics.mean_ndcg_at(5, rels):.6f}",
            ]
        )
    out = cfg.out_path("rank_eval.csv")
    write_csv(out, ["system", "mrr", "ndcg3", "ndcg5"], eval_rows)
    print(f"wrote {out}")
    return 0


def _train_config(cfg):
    """TrainConfig from the config keys named after its fields."""
    fields = dataclasses.fields(trainer.TrainConfig)
    return trainer.TrainConfig(**{f.name: cfg[f.name] for f in fields})


def cmd_train(cfg):
    config = _train_config(cfg)
    sal_model = _load_salience(cfg)
    train_raw = load_clusters(cfg["corpus.train"])
    dev_raw = load_clusters(cfg["corpus.dev"])
    train_clusters, tfidf = _prepare(train_raw)
    dev_clusters, dev_tfidf = _prepare(dev_raw)
    train_scores = _score_split(train_clusters, tfidf, sal_model)
    dev_scores = _score_split(dev_clusters, dev_tfidf, sal_model)
    pretrained = None
    if cfg["embeddings"]:
        vocab = build_vocab(train_clusters, config.min_count)
        pretrained, coverage = load_embeddings(cfg["embeddings"], vocab, config.d_emb)
        print(f"pretrained embedding coverage: {coverage:.3f}")
    # every input has loaded: from here on a failed run leaves no earlier
    # run's model.txt or history.csv behind
    for name in ("model.txt", "history.csv"):
        with contextlib.suppress(FileNotFoundError):
            os.remove(cfg.out_path(name))
    history = trainer.train(
        train_clusters, train_scores, dev_clusters, dev_scores, config, tfidf,
        sal_model.registry.lexicons, pretrained, cfg.out_path("model.txt"),
        cfg.out_path("history.csv"),
    )
    best = max(h[2] for h in history)
    print(f"trained {len(history)} epochs; best dev BLEU {best:.4f}")
    print(f"wrote {cfg.out_path('model.txt')}")
    return 0


def cmd_gradcheck(cfg):
    worst = 0.0
    for seed in range(cfg["seeds"]):
        rel = trainer.gradient_check(seed=derive_seed(cfg["seed"], "gradcheck", seed))
        worst = max(worst, rel)
        print(f"seed {seed}: max relative error {rel:.3e}")
    if worst >= 1e-4:
        print(f"FAIL: max relative error {worst:.3e} >= 1e-4", file=sys.stderr)
        return 1
    print(f"OK: max relative error {worst:.3e} < 1e-4")
    return 0


def cmd_decode(cfg):
    sal_model = _load_salience(cfg)
    model = load_seq2seq(cfg["model"])
    clusters, tfidf = _prepare(load_clusters(cfg["corpus"]))
    unit_scores = _score_split(clusters, tfidf, sal_model)
    out = cfg.out_path("decode.jsonl")
    records = beamdecode.decode_split(
        model, clusters, unit_scores, cfg["K"], cfg["beam_width"], cfg["max_len"], tfidf,
        sal_model.registry.lexicons.stopwords,
    )
    with atomic_write(out) as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")
    print(f"wrote {out}")
    return 0


def _read_decode_summaries(path, gold):
    """id -> summary of a decode file's records, in file order. Each line
    must be a JSON object with string id and summary, and the file must
    hold exactly one record per corpus cluster."""
    summaries, first_line = {}, {}
    for line_no, line in read_lines(path):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise UsageError(f"{path}:{line_no}: invalid JSON: {exc}") from None
        if not isinstance(record, dict) or not all(
            isinstance(record.get(key), str) for key in ("id", "summary")
        ):
            raise UsageError(f"{path}:{line_no}: expected an object with string id and summary")
        cid = record["id"]
        if cid not in gold:
            raise UsageError(f"{path}:{line_no}: decode record {cid!r} not in corpus")
        if cid in first_line:
            raise UsageError(
                f"{path}:{line_no}: repeats id {cid!r} (first on line {first_line[cid]})"
            )
        first_line[cid] = line_no
        summaries[cid] = record["summary"]
    missing = [cid for cid in gold if cid not in summaries]
    if missing:
        raise UsageError(
            f"{path}: no record for {len(missing)} of {len(gold)} corpus clusters, "
            f"first {missing[0]!r}"
        )
    return summaries


def cmd_evaluate(cfg):
    clusters = load_clusters(cfg["corpus"])
    gold = {c.id: c.summary.norms() for c in clusters}
    summaries = _read_decode_summaries(cfg["decode"], gold)
    hyps = [[t.norm for t in tokenize(summary)] for summary in summaries.values()]
    refs = [gold[cid] for cid in summaries]
    bleu = evalmetrics.bleu(hyps, refs)
    rouge = evalmetrics.rouge_su4_corpus(hyps, refs)
    mean_length = sum(map(len, hyps)) / len(hyps)
    write_csv(
        cfg.out_path("eval.csv"),
        ["bleu", "rouge_su4", "mean_length"],
        [[f"{bleu:.6f}", f"{rouge:.6f}", f"{mean_length:.3f}"]],
    )
    with atomic_write(cfg.out_path("eval.json")) as fh:
        json.dump(
            {"bleu": bleu, "rouge_su4": rouge, "mean_length": mean_length, "pairs": len(hyps)},
            fh,
            indent=2,
        )
    print(f"BLEU {bleu:.4f}  ROUGE-SU4 {rouge:.4f}  mean length {mean_length:.2f}")
    return 0


def cmd_sampling_report(cfg):
    sal_model = _load_salience(cfg)
    clusters_raw = load_clusters(cfg["corpus"])
    # the gold summaries as loaded, as evaluate reads them: the decoded
    # summaries have their entities restored
    refs = [c.summary.norms() for c in clusters_raw]
    clusters, tfidf = _prepare(clusters_raw)
    unit_scores = _score_split(clusters, tfidf, sal_model)
    stopwords = sal_model.registry.lexicons.stopwords
    # one row per distinct (mode, K), in sorted order; a missing model
    # leaves its cell blank
    rows = []
    for mode in sorted(set(cfg["modes"])):
        for k in sorted(set(cfg["Ks"])):
            path = os.path.join(cfg["model_dir"], f"{mode}_K{k}.model")
            if not os.path.isfile(path):
                rows.append([mode, k, ""])
                continue
            records = beamdecode.decode_split(
                load_seq2seq(path), clusters, unit_scores, k, cfg["beam_width"], cfg["max_len"],
                tfidf, stopwords,
            )
            hyps = [[t.norm for t in tokenize(r["summary"])] for r in records]
            rows.append([mode, k, f"{evalmetrics.bleu(hyps, refs):.6f}"])
    out = cfg.out_path("sampling.csv")
    write_csv(out, ["mode", "K", "bleu"], rows)
    print(f"wrote {out}")
    return 0


COMMANDS = {
    "fit-importance": cmd_fit_importance,
    "rank-eval": cmd_rank_eval,
    "train": cmd_train,
    "gradcheck": cmd_gradcheck,
    "decode": cmd_decode,
    "evaluate": cmd_evaluate,
    "sampling-report": cmd_sampling_report,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="opinesum",
        description="Abstractive opinion summarization pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="key=value config file")
        p.add_argument(
            "--set", action="append", metavar="KEY=VALUE", dest="overrides",
            help="override one config key (repeatable; wins over the file)",
        )
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    # BLAS's summation order, and so the bytes of every artifact, depends
    # on its thread count
    if not set_blas_threads(1):
        print("warning: cannot set BLAS to one thread; the outputs may depend on "
              "its thread count", file=sys.stderr)
    try:
        cfg = RunConfig.load(args.command, args.config, args.overrides)
        return COMMANDS[args.command](cfg)
    # a bad corpus file raises CorpusFormatError and a diverged training run
    # TrainingDivergedError, both ValueErrors; an out_dir that cannot be
    # made or written raises an OSError
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

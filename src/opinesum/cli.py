"""Command-line surface for the pipeline.

Subcommands: preprocess, fit-importance, rank-eval, train, gradcheck,
decode, evaluate, sampling-report. Configuration is a key=value text file
merged with --set overrides (flags win); unknown keys are rejected and
every input path is validated before any output is written.

Exit codes: 0 success, 1 quality-gate failure, 2 usage or I/O error.
"""

import argparse
import csv
import dataclasses
import json
import os
import sys

from . import beamdecode, evalmetrics, salience, trainer
from .attnseq2seq import load_model as load_seq2seq, save_model as save_seq2seq
from .numkit import derive_seed
from .salience import LexiconSet
from .textcorpus import (
    TfidfStats,
    build_vocab,
    default_stopwords,
    load_clusters,
    load_embeddings,
    load_lexicon,
    load_stopwords,
    save_clusters,
    substitute_entity,
    tokenize,
)


class UsageError(Exception):
    """Bad arguments, bad config, or missing inputs (exit code 2)."""


COMMON_KEYS = {
    "seed": "global random seed (int)",
    "out_dir": "directory all outputs are written under",
    "stopwords": "stopword file path (default: bundled list)",
    "lexicon": "general lexicon path (word<TAB>category)",
    "sentiment_lexicon": "sentiment lexicon path (categories positive/negative/neutral)",
}

COMMAND_KEYS = {
    "preprocess": {"corpus"},
    "fit-importance": {"corpus.train", "corpus.dev", "top_unigrams", "lam_grid", "beta_grid"},
    "rank-eval": {"corpus", "salience_model", "salience_registry"},
    "train": {
        "corpus.train", "corpus.dev", "salience_model", "salience_registry", "embeddings",
    } | {f.name for f in dataclasses.fields(trainer.TrainConfig)},
    "gradcheck": {"seeds"},
    "decode": {
        "corpus", "model", "salience_model", "salience_registry",
        "K", "beam_width", "max_len",
    },
    "evaluate": {"corpus", "decode"},
    "sampling-report": {
        "corpus", "salience_model", "salience_registry", "model_dir",
        "modes", "Ks", "K", "beam_width", "max_len",
    },
}

PATH_KEYS = {
    "corpus", "corpus.train", "corpus.dev", "stopwords", "lexicon",
    "sentiment_lexicon", "salience_model", "salience_registry", "embeddings",
    "model", "decode", "model_dir",
}


class RunConfig:
    """Merged key=value config file plus flag overrides."""

    def __init__(self, command, pairs):
        known = COMMON_KEYS.keys() | COMMAND_KEYS[command]
        for key in pairs:
            if key not in known:
                raise UsageError(f"unknown config key for {command}: {key!r}")
        self.command = command
        self.values = dict(pairs)

    @staticmethod
    def load(command, config_path, overrides):
        pairs = {}
        if config_path:
            if not os.path.isfile(config_path):
                raise UsageError(f"config file not found: {config_path}")
            with open(config_path, encoding="utf-8") as fh:
                for line_no, line in enumerate(fh, start=1):
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
        return RunConfig(command, pairs)

    def get(self, key, default=None):
        return self.values.get(key, default)

    def require(self, key):
        if key not in self.values:
            raise UsageError(f"missing required config key: {key}")
        return self.values[key]

    def get_int(self, key, default):
        try:
            return int(self.values.get(key, default))
        except ValueError as exc:
            raise UsageError(f"config key {key} must be an integer") from exc

    def get_float(self, key, default):
        try:
            return float(self.values.get(key, default))
        except ValueError as exc:
            raise UsageError(f"config key {key} must be a number") from exc

    def get_bool(self, key, default):
        raw = str(self.values.get(key, default)).lower()
        if raw in ("1", "true", "yes"):
            return True
        if raw in ("0", "false", "no"):
            return False
        raise UsageError(f"config key {key} must be a boolean")

    def get_list(self, key, default):
        raw = self.values.get(key)
        if raw is None:
            return list(default)
        return [item.strip() for item in raw.split(",") if item.strip()]

    def validate_paths(self):
        """Every configured input path must exist before work begins."""
        for key in sorted(self.values.keys() & PATH_KEYS):
            path = self.values[key]
            if key == "model_dir":
                if not os.path.isdir(path):
                    raise UsageError(f"{key}: directory not found: {path}")
            elif not os.path.isfile(path):
                raise UsageError(f"{key}: file not found: {path}")

    def out_dir(self):
        out = self.require("out_dir")
        os.makedirs(out, exist_ok=True)
        return out

    def out_path(self, name):
        return os.path.join(self.out_dir(), name)


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _load_lexicons(cfg):
    stopwords = (
        load_stopwords(cfg.get("stopwords")) if cfg.get("stopwords") else default_stopwords()
    )
    general = load_lexicon(cfg.get("lexicon")) if cfg.get("lexicon") else {}
    sentiment = {}
    if cfg.get("sentiment_lexicon"):
        for word, cats in load_lexicon(cfg.get("sentiment_lexicon")).items():
            sentiment[word] = cats[0]
    return LexiconSet(general=general, sentiment=sentiment, stopwords=stopwords)


def _prepare_split(clusters_raw, lexicons, registry):
    """Substitute entities and featurize one loaded corpus split."""
    clusters = [substitute_entity(c) for c in clusters_raw]
    tfidf = TfidfStats(clusters)
    features = [
        salience.cluster_features(c, registry, lexicons, tfidf) for c in clusters
    ]
    return clusters, tfidf, features


def _load_salience(cfg):
    registry = salience.load_registry(cfg.require("salience_registry"))
    model = salience.load_model(cfg.require("salience_model"), registry)
    return model, registry


def _scores_by_id(model, clusters, features):
    return {
        c.id: salience.score_units(model, feats)
        for c, feats in zip(clusters, features)
    }


def cmd_preprocess(cfg):
    clusters = load_clusters(cfg.require("corpus"))
    out = cfg.out_path("preprocessed.jsonl")
    substituted = [substitute_entity(c) for c in clusters]
    save_clusters(substituted, out)
    n_units = sum(len(c.units) for c in substituted)
    vocab = build_vocab(substituted)
    print(f"clusters: {len(substituted)}  units: {n_units}  vocab: {len(vocab)}")
    print(f"wrote {out}")
    return 0


def cmd_fit_importance(cfg):
    lexicons = _load_lexicons(cfg)
    train_raw = load_clusters(cfg.require("corpus.train"))
    registry = salience.build_registry(
        [substitute_entity(c) for c in train_raw], lexicons,
        top_u=cfg.get_int("top_unigrams", 500),
    )
    train_clusters, _, train_features = _prepare_split(train_raw, lexicons, registry)
    train_labels = [salience.gold_scores(c, lexicons.stopwords) for c in train_clusters]
    dev_clusters, _, dev_features = _prepare_split(
        load_clusters(cfg.require("corpus.dev")), lexicons, registry
    )
    lam_grid = [float(x) for x in cfg.get_list("lam_grid", ("0", "0.01", "0.1", "0.5", "1", "10"))]
    beta_grid = [float(x) for x in cfg.get_list("beta_grid", ("0.01", "0.1", "1", "10"))]
    model, rows = salience.fit_with_grid_search(
        train_features, train_labels, dev_clusters, dev_features,
        lexicons, registry, lam_grid, beta_grid,
    )
    salience.save_model(model, cfg.out_path("salience.model"))
    salience.save_registry(registry, cfg.out_path("salience.registry"))
    _write_csv(
        cfg.out_path("grid.csv"),
        ["lambda", "beta", "dev_mrr"],
        [[lam, beta, f"{dev_mrr:.6f}"] for lam, beta, dev_mrr in rows],
    )
    print(f"fitted d={model.w.shape[0]} lambda={model.lam} beta={model.beta}")
    print(f"wrote {cfg.out_path('salience.model')}")
    return 0


def cmd_rank_eval(cfg):
    lexicons = _load_lexicons(cfg)
    model, registry = _load_salience(cfg)
    clusters, tfidf, features = _prepare_split(
        load_clusters(cfg.require("corpus")), lexicons, registry
    )
    unit_scores = [salience.score_units(model, feats) for feats in features]
    systems = {
        "salience": [salience.rank_descending(scores) for scores in unit_scores],
        "length": [salience.baseline_rank("length", c) for c in clusters],
        "centroid": [salience.baseline_rank("centroid", c, tfidf) for c in clusters],
    }
    ranking_rows = []
    for cluster, scores, order in zip(clusters, unit_scores, systems["salience"]):
        for rank, unit_index in enumerate(order, start=1):
            ranking_rows.append(
                (cluster.id, unit_index, f"{scores[unit_index]:.6f}", rank)
            )
    _write_csv(
        cfg.out_path("rankings.csv"), ["cluster_id", "unit_index", "score", "rank"], ranking_rows
    )
    eval_rows = []
    for name, orders in systems.items():
        rels = [
            salience.relevance_for_ranking(c, order, lexicons.stopwords)
            for c, order in zip(clusters, orders)
        ]
        eval_rows.append(
            [
                name,
                f"{evalmetrics.mrr(rels):.6f}",
                f"{evalmetrics.mean_ndcg_at(3, rels):.6f}",
                f"{evalmetrics.mean_ndcg_at(5, rels):.6f}",
            ]
        )
    out = cfg.out_path("rank_eval.csv")
    _write_csv(out, ["system", "mrr", "ndcg3", "ndcg5"], eval_rows)
    print(f"wrote {out}")
    return 0


def _train_config(cfg):
    """TrainConfig from the config keys named after its fields; an absent
    key takes the field's default."""
    getters = {int: cfg.get_int, float: cfg.get_float, bool: cfg.get_bool, str: cfg.get}
    return trainer.TrainConfig(
        **{
            f.name: getters[f.type](f.name, f.default)
            for f in dataclasses.fields(trainer.TrainConfig)
        }
    )


def cmd_train(cfg):
    lexicons = _load_lexicons(cfg)
    sal_model, registry = _load_salience(cfg)
    train_raw = load_clusters(cfg.require("corpus.train"))
    dev_raw = load_clusters(cfg.require("corpus.dev"))
    # salience scores are keyed by cluster id, so a shared id must name
    # the same cluster in both splits (as when one file serves as both)
    train_by_id = {c.id: c for c in train_raw}
    for c in dev_raw:
        if c.id in train_by_id and train_by_id[c.id] != c:
            raise UsageError(
                f"cluster id {c.id!r} names different clusters in corpus.train and corpus.dev"
            )
    train_clusters, _, train_features = _prepare_split(train_raw, lexicons, registry)
    dev_clusters, _, dev_features = _prepare_split(dev_raw, lexicons, registry)
    # a cluster in both splits keeps the scores of the split it trains on
    scores = _scores_by_id(sal_model, dev_clusters, dev_features)
    scores.update(_scores_by_id(sal_model, train_clusters, train_features))
    config = _train_config(cfg)
    pretrained = None
    if cfg.get("embeddings"):
        vocab = build_vocab(train_clusters, config.min_count)
        pretrained, coverage = load_embeddings(cfg.get("embeddings"), vocab, config.d_emb)
        print(f"pretrained embedding coverage: {coverage:.3f}")
    model, history = trainer.train(
        train_clusters, dev_clusters, config, scores, lexicons, pretrained
    )
    save_seq2seq(model, cfg.out_path("model.txt"))
    _write_csv(
        cfg.out_path("history.csv"),
        ["epoch", "train_nll", "dev_bleu"],
        [[epoch, f"{nll:.6f}", f"{dev_bleu:.6f}"] for epoch, nll, dev_bleu in history],
    )
    best = max(h[2] for h in history)
    print(f"trained {len(history)} epochs; best dev BLEU {best:.4f}")
    print(f"wrote {cfg.out_path('model.txt')}")
    return 0


def cmd_gradcheck(cfg):
    seeds = cfg.get_int("seeds", 1)
    worst = 0.0
    for seed in range(seeds):
        rel = trainer.gradient_check(seed=derive_seed(cfg.get_int("seed", 0), "gradcheck", seed))
        worst = max(worst, rel)
        print(f"seed {seed}: max relative error {rel:.3e}")
    if worst >= 1e-4:
        print(f"FAIL: max relative error {worst:.3e} >= 1e-4", file=sys.stderr)
        return 1
    print(f"OK: max relative error {worst:.3e} < 1e-4")
    return 0


def _decode_records(model, clusters_raw, sal_model, features, k, width, max_len, tfidf, lexicons):
    """decode_cluster's record for each cluster, in corpus order."""
    for raw, feats in zip(clusters_raw, features):
        scores = salience.score_units(sal_model, feats)
        yield beamdecode.decode_cluster(
            model, raw, scores, k, width, max_len, tfidf, lexicons.stopwords
        )


def cmd_decode(cfg):
    lexicons = _load_lexicons(cfg)
    sal_model, registry = _load_salience(cfg)
    model = load_seq2seq(cfg.require("model"))
    clusters_raw = load_clusters(cfg.require("corpus"))
    _, tfidf, features = _prepare_split(clusters_raw, lexicons, registry)
    k = cfg.get_int("K", 5)
    width = cfg.get_int("beam_width", 20)
    max_len = cfg.get_int("max_len", 40)
    out = cfg.out_path("decode.jsonl")
    with open(out, "w", encoding="utf-8") as fh:
        for record in _decode_records(
            model, clusters_raw, sal_model, features, k, width, max_len, tfidf, lexicons
        ):
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")
    print(f"wrote {out}")
    return 0


def cmd_evaluate(cfg):
    clusters = load_clusters(cfg.require("corpus"))
    gold = {c.id: c.summary.norms() for c in clusters}
    hyps, refs = [], []
    with open(cfg.require("decode"), encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if record["id"] not in gold:
                raise UsageError(f"decode record {record['id']!r} not in corpus")
            hyps.append([t.norm for t in tokenize(record["summary"])])
            refs.append(gold[record["id"]])
    if not hyps:
        raise UsageError("decode file is empty")
    report = evalmetrics.summarize_system(hyps, refs)
    _write_csv(
        cfg.out_path("eval.csv"),
        ["bleu", "rouge_su4", "mean_length"],
        [[f"{report.bleu:.6f}", f"{report.rouge_su4:.6f}", f"{report.mean_length:.3f}"]],
    )
    with open(cfg.out_path("eval.json"), "w", encoding="utf-8") as fh:
        json.dump(
            {
                "bleu": report.bleu,
                "rouge_su4": report.rouge_su4,
                "mean_length": report.mean_length,
                "pairs": len(hyps),
            },
            fh,
            indent=2,
        )
    print(f"BLEU {report.bleu:.4f}  ROUGE-SU4 {report.rouge_su4:.4f}  mean length {report.mean_length:.2f}")
    return 0


def cmd_sampling_report(cfg):
    lexicons = _load_lexicons(cfg)
    sal_model, registry = _load_salience(cfg)
    clusters_raw = load_clusters(cfg.require("corpus"))
    clusters, tfidf, features = _prepare_split(clusters_raw, lexicons, registry)
    modes = cfg.get_list("modes", ("importance", "uniform", "topk"))
    ks = [int(x) for x in cfg.get_list("Ks", ("1", "2", "5", "10"))]
    model_dir = cfg.require("model_dir")
    width = cfg.get_int("beam_width", 20)
    max_len = cfg.get_int("max_len", 40)
    refs = [c.summary.norms() for c in clusters]
    cells = {}
    for mode in modes:
        for k in ks:
            path = os.path.join(model_dir, f"{mode}_K{k}.model")
            if not os.path.isfile(path):
                cells[(mode, k)] = None
                continue
            records = _decode_records(
                load_seq2seq(path), clusters_raw, sal_model, features, k, width, max_len,
                tfidf, lexicons,
            )
            hyps = [[t.norm for t in tokenize(r["summary"])] for r in records]
            cells[(mode, k)] = (hyps, refs)
    rows = evalmetrics.sampling_report(cells)
    out = cfg.out_path("sampling.csv")
    _write_csv(
        out,
        ["mode", "K", "bleu"],
        [[mode, k, "" if score is None else f"{score:.6f}"] for mode, k, score in rows],
    )
    print(f"wrote {out}")
    return 0


COMMANDS = {
    "preprocess": cmd_preprocess,
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
    try:
        cfg = RunConfig.load(args.command, args.config, args.overrides)
        cfg.validate_paths()
        return COMMANDS[args.command](cfg)
    # a bad corpus file raises CorpusFormatError, a ValueError
    except (UsageError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

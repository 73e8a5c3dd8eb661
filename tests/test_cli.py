import csv
import ctypes
import dataclasses
import json
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import opinesum
from opinesum import cli, evalmetrics, salience, textcorpus, trainer
from opinesum.attnseq2seq import new_model, save_model
from opinesum.cli import RunConfig, _train_config, main


def read_csv(path):
    """The rows of a CSV output."""
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def write_corpus(path, clusters):
    with open(path, "w", encoding="utf-8") as fh:
        for c in clusters:
            fh.write(json.dumps(c) + "\n")


def toy_corpus():
    """Every first unit overlaps its summary; entities on some clusters."""
    return [
        {
            "id": "m0",
            "entity": "Red Planet",
            "summary": "a smart thrilling ride",
            "units": [
                {"text": "Red Planet is a smart movie"},
                {"text": "utterly dull and boring"},
                {"text": "thrilling space ride"},
            ],
        },
        {
            "id": "m1",
            "entity": None,
            "summary": "funny heartfelt comedy",
            "units": [
                {"text": "a funny comedy indeed"},
                {"text": "plodding mess"},
                {"text": "heartfelt and warm story"},
            ],
        },
        {
            "id": "m2",
            "entity": None,
            "summary": "gritty crime drama",
            "units": [
                {"text": "gritty drama about crime"},
                {"text": "slow first act"},
                {"text": "crime story with grit"},
            ],
        },
    ]


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_corpus(path, toy_corpus())
    return str(path)


@pytest.fixture
def fitted_salience(tmp_path, corpus_file):
    out = tmp_path / "sal"
    code = main(
        [
            "fit-importance",
            "--set", f"corpus.train={corpus_file}",
            "--set", f"corpus.dev={corpus_file}",
            "--set", f"out_dir={out}",
            "--set", "top_unigrams=30",
        ]
    )
    assert code == 0
    return str(out / "salience.model"), str(out / "salience.registry")


def train_args(corpus_file, fitted_salience, out, dev_file=None):
    model_path, registry_path = fitted_salience
    return [
        "train",
        "--set", f"corpus.train={corpus_file}",
        "--set", f"corpus.dev={dev_file or corpus_file}",
        "--set", f"salience_model={model_path}",
        "--set", f"salience_registry={registry_path}",
        "--set", f"out_dir={out}",
        "--set", "d_emb=12", "--set", "d_h=10", "--set", "d_a=6",
        "--set", "K=2", "--set", "max_epochs=3", "--set", "patience=3",
        "--set", "max_len=8",
    ]


def train_once(tmp_path, corpus_file, fitted_salience, out_name, extra=()):
    out = tmp_path / out_name
    args = train_args(corpus_file, fitted_salience, out)
    for item in extra:
        args += ["--set", item]
    assert main(args) == 0
    return out


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path, corpus_file):
        code = main(
            ["fit-importance", "--set", f"corpus.train={corpus_file}",
             "--set", f"corpus.dev={corpus_file}",
             "--set", f"out_dir={tmp_path/'o'}", "--set", "bogus=1"]
        )
        assert code == 2

    def test_missing_path_exits_2_no_partial_output(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["fit-importance",
             "--set", "corpus.train=/does/not/exist.jsonl",
             "--set", "corpus.dev=/does/not/exist.jsonl",
             "--set", f"out_dir={out}"]
        )
        assert code == 2
        assert not out.exists()

    def test_config_file_with_flag_override(self, tmp_path, corpus_file):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"corpus.train = {corpus_file}\ncorpus.dev = {corpus_file}\n"
            f"out_dir = {tmp_path/'a'}\n# comment\n"
        )
        code = main(["fit-importance", "--config", str(cfg), "--set", f"out_dir={tmp_path/'b'}"])
        assert code == 0
        assert (tmp_path / "b" / "salience.model").exists()
        assert not (tmp_path / "a").exists()

    def test_malformed_config_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just words\n")
        assert main(["fit-importance", "--config", str(cfg)]) == 2

    def test_missing_required_key(self, tmp_path, corpus_file):
        argv = ["fit-importance", "--set", f"corpus.train={corpus_file}"]
        assert main(argv + ["--set", f"out_dir={tmp_path/'x'}"]) == 2

    def test_every_command_reads_each_of_its_keys(self, tmp_path, corpus_file, fitted_salience):
        # a key a command accepts but never reads would be silently ignored
        model_path, registry_path = fitted_salience
        salience_keys = {"salience_model": model_path, "salience_registry": registry_path}
        model_dir = tmp_path / "models"
        model_dir.mkdir()
        runs = {
            "fit-importance": {"corpus.train": corpus_file, "corpus.dev": corpus_file},
            "rank-eval": {"corpus": corpus_file, **salience_keys},
            "train": {
                "corpus.train": corpus_file, "corpus.dev": corpus_file, **salience_keys,
                "d_emb": "12", "d_h": "10", "d_a": "6", "K": "2", "max_epochs": "2",
                "max_len": "8",
            },
            "gradcheck": {},
            "decode": {
                "corpus": corpus_file, "model": str(model_dir / "topk_K2.model"), **salience_keys,
                "K": "2", "beam_width": "2", "max_len": "6",
            },
            "evaluate": {"corpus": corpus_file, "decode": str(tmp_path / "decode" / "decode.jsonl")},
            "sampling-report": {
                "corpus": corpus_file, **salience_keys, "model_dir": str(model_dir),
                "modes": "topk", "Ks": "2", "beam_width": "2", "max_len": "6",
            },
        }
        assert list(runs) == list(cli.COMMANDS)

        class ReadLog(RunConfig):
            """A resolved config that records every key a command reads."""

            def __getitem__(self, key):
                self.read.add(key)
                return super().__getitem__(key)

        unread = {}
        for command, pairs in runs.items():
            if "out_dir" in cli.KEY_TABLES[command]:
                pairs = {**pairs, "out_dir": str(tmp_path / command)}
            cfg = ReadLog(RunConfig.load(command, None, [f"{k}={v}" for k, v in pairs.items()]))
            cfg.read = set()
            assert cli.COMMANDS[command](cfg) == 0, command
            if command == "train":
                trained = (tmp_path / "train" / "model.txt").read_bytes()
                (model_dir / "topk_K2.model").write_bytes(trained)
            unread[command] = cfg.keys() - cfg.read
        assert unread == {command: set() for command in runs}

    def test_train_keys_are_the_train_config_fields(self):
        table = cli.KEY_TABLES["train"]
        fields = [f.name for f in dataclasses.fields(trainer.TrainConfig)]
        defaults = {key: table[key][0](key, table[key][1]) for key in fields}
        assert _train_config(defaults) == trainer.TrainConfig()

    def test_accepted_keys(self):
        # only fit-importance reads the lexicon files; every later command
        # takes them from the salience registry
        accepted = {
            "fit-importance": [
                "beta_grid", "corpus.dev", "corpus.train", "lam_grid", "lexicon", "out_dir",
                "sentiment_lexicon", "stopwords", "top_unigrams",
            ],
            "rank-eval": ["corpus", "out_dir", "salience_model", "salience_registry"],
            "train": [
                "K", "corpus.dev", "corpus.train", "d_a", "d_emb", "d_feat", "d_h", "embeddings",
                "eps", "eta", "init_scale", "max_epochs", "max_len", "min_count", "mode",
                "out_dir", "patience", "salience_model", "salience_registry", "seed",
                "use_features",
            ],
            "gradcheck": ["seed", "seeds"],
            "decode": [
                "K", "beam_width", "corpus", "max_len", "model", "out_dir", "salience_model",
                "salience_registry",
            ],
            "evaluate": ["corpus", "decode", "out_dir"],
            "sampling-report": [
                "Ks", "beam_width", "corpus", "max_len", "model_dir", "modes", "out_dir",
                "salience_model", "salience_registry",
            ],
        }
        tables = {command: sorted(table) for command, table in cli.KEY_TABLES.items()}
        assert tables == {command: sorted(keys) for command, keys in accepted.items()}
        assert sum(map(len, tables.values())) == 56

    def test_readme_key_table_matches_key_tables(self):
        # each row of README's key table names its commands (blank: the
        # row above's) and its keys, in backticks
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        rows = readme.split("| command | key | default | check |\n| --- | --- | --- | --- |\n")[1]
        documented = set()
        for row in rows.split("\n\n")[0].splitlines():
            commands_cell, keys_cell = row.split(" | ")[:2]
            named = re.findall(r"`([^`]+)`", commands_cell)
            if commands_cell.startswith("| every command but"):
                commands = set(cli.KEY_TABLES) - set(named)
            elif named:
                commands = set(named)
            keys = re.findall(r"`([^`]+)`", keys_cell)
            documented |= {(c, key) for c in commands for key in keys}
        assert documented == {(c, key) for c, table in cli.KEY_TABLES.items() for key in table}
        # the usage block's `opinesum <command>` lines, and the commands
        # cli's docstring lists, are exactly the commands
        usage = next(b for b in readme.split("```bash\n") if b.startswith("opinesum "))
        usage = usage.split("```")[0]
        assert sorted(re.findall(r"^opinesum (\S+)", usage, re.M)) == sorted(cli.COMMANDS)
        listed = cli.__doc__.split("Subcommands:")[1].split(".")[0]
        assert sorted(re.split(r",\s*", listed.strip())) == sorted(cli.COMMANDS)

    @pytest.mark.parametrize(
        "command, setting, message",
        [
            ("fit-importance", "corpus.train=missing", "corpus.train: file not found: missing"),
            ("fit-importance", "corpus.dev=missing", "corpus.dev: file not found: missing"),
            ("fit-importance", "top_unigrams=many", "config key top_unigrams must be an integer"),
            ("fit-importance", "lam_grid=0,x", "config key lam_grid must list float values"),
            ("fit-importance", "beta_grid=-1", "config key beta_grid must list finite values > 0"),
            ("fit-importance", "sentiment_lexicon=", "sentiment_lexicon: file not found: "),
            ("rank-eval", "corpus=missing", "corpus: file not found: missing"),
            ("rank-eval", "salience_model=missing", "salience_model: file not found: missing"),
            ("rank-eval", "salience_registry=missing",
             "salience_registry: file not found: missing"),
            ("train", "corpus.train=missing", "corpus.train: file not found: missing"),
            ("train", "corpus.dev=missing", "corpus.dev: file not found: missing"),
            ("train", "salience_model=missing", "salience_model: file not found: missing"),
            ("train", "salience_registry=missing", "salience_registry: file not found: missing"),
            ("train", "embeddings=missing", "embeddings: file not found: missing"),
            ("train", "d_emb=0", "model dimensions must be positive"),
            ("train", "d_h=-2", "model dimensions must be positive"),
            ("train", "d_a=1.5", "config key d_a must be an integer"),
            ("train", "d_feat=0", "d_feat must be >= 1"),
            ("train", "use_features=maybe", "config key use_features must be a boolean"),
            ("train", "K=0", "K must be >= 1"),
            ("train", "mode=greedy", "unknown sampling mode: 'greedy'"),
            ("train", "eta=fast", "config key eta must be a number"),
            ("train", "eps=0", "eps must be > 0"),
            ("train", "init_scale=inf", "init_scale must be finite and > 0"),
            ("train", "max_epochs=0", "max_epochs must be >= 1"),
            ("train", "patience=0", "patience must be >= 1"),
            ("train", "seed=x", "config key seed must be an integer"),
            ("train", "min_count=0", "min_count must be >= 1"),
            ("train", "max_len=0", "max_len must be >= 1"),
            ("gradcheck", "seeds=0", "config key seeds must be >= 1"),
            ("gradcheck", "seed=1.5", "config key seed must be an integer"),
            ("decode", "corpus=missing", "corpus: file not found: missing"),
            ("decode", "model=missing", "model: file not found: missing"),
            ("decode", "salience_model=missing", "salience_model: file not found: missing"),
            ("decode", "salience_registry=missing", "salience_registry: file not found: missing"),
            ("decode", "K=0", "config key K must be >= 1"),
            ("decode", "beam_width=wide", "config key beam_width must be an integer"),
            ("decode", "max_len=0", "config key max_len must be >= 1"),
            ("evaluate", "corpus=missing", "corpus: file not found: missing"),
            ("evaluate", "decode=missing", "decode: file not found: missing"),
            ("sampling-report", "corpus=missing", "corpus: file not found: missing"),
            ("sampling-report", "salience_model=missing",
             "salience_model: file not found: missing"),
            ("sampling-report", "salience_registry=missing",
             "salience_registry: file not found: missing"),
            ("sampling-report", "model_dir=missing", "model_dir: directory not found: missing"),
            ("sampling-report", "modes=beam", "config key modes must list modes of "),
            ("sampling-report", "Ks=0", "config key Ks must list values >= 1"),
            ("sampling-report", "beam_width=0", "config key beam_width must be >= 1"),
            ("sampling-report", "max_len=x", "config key max_len must be an integer"),
        ] + [
            ("fit-importance", f"{key}=missing", f"{key}: file not found: missing")
            for key in ("stopwords", "lexicon", "sentiment_lexicon")
        ] + [
            # the later commands take the lexicons from the salience registry
            (command, f"{key}=missing", f"unknown config key for {command}: {key!r}")
            for command in ("rank-eval", "train", "decode", "sampling-report")
            for key in ("stopwords", "lexicon", "sentiment_lexicon")
        ],
    )
    def test_bad_value_exits_2_before_any_input(
        self, tmp_path, corpus_file, monkeypatch, capsys, command, setting, message
    ):
        read = []
        monkeypatch.setattr(cli, "load_clusters", read.append)
        monkeypatch.chdir(tmp_path)
        # every other required key set to a value that passes
        pairs = {
            key: {"out_dir": str(tmp_path / "out"), "model_dir": str(tmp_path)}.get(key, corpus_file)
            for key, (_, default) in cli.KEY_TABLES[command].items()
            if default is cli.REQUIRED
        }
        args = [command] + [arg for k, v in pairs.items() for arg in ("--set", f"{k}={v}")]
        assert main(args + ["--set", setting]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert read == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["fit-importance", "train"])
    @pytest.mark.parametrize("under", [False, True], ids=["is_a_file", "under_a_file"])
    def test_out_dir_that_cannot_be_made_exits_2_before_any_input(
        self, tmp_path, corpus_file, monkeypatch, capsys, command, under
    ):
        read = []
        monkeypatch.setattr(cli, "load_clusters", read.append)
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker / "out" if under else blocker
        pairs = {
            key: str(out) if key == "out_dir" else corpus_file
            for key, (_, default) in cli.KEY_TABLES[command].items()
            if default is cli.REQUIRED
        }
        args = [command] + [arg for k, v in pairs.items() for arg in ("--set", f"{k}={v}")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err
        assert read == []


class TestFitImportance:
    def test_artifacts_exist_and_parse(self, tmp_path, corpus_file, fitted_salience):
        from opinesum import salience

        model_path, registry_path = fitted_salience
        registry = salience.load_registry(registry_path)
        model = salience.load_model(model_path, registry)
        assert model.w.shape[0] == registry.d
        grid = read_csv(os.path.join(os.path.dirname(model_path), "grid.csv"))
        assert grid[0] == ["lambda", "beta", "dev_mrr"]
        assert len(grid) == 1 + 6 * 4  # default grid

    def test_rerun_is_byte_identical(self, tmp_path, corpus_file):
        outs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            assert main(
                ["fit-importance",
                 "--set", f"corpus.train={corpus_file}",
                 "--set", f"corpus.dev={corpus_file}",
                 "--set", f"out_dir={out}"]
            ) == 0
            outs.append((out / "salience.model").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize(
        "setting, message",
        [
            ("lam_grid=,", "lam_grid must list at least one value"),
            ("beta_grid=", "beta_grid must list at least one value"),
            ("top_unigrams=-1", "top_unigrams must be >= 0"),
            ("lam_grid=0,-1", "lam_grid must list finite values >= 0"),
            ("lam_grid=nan", "lam_grid must list finite values >= 0"),
            ("lam_grid=inf", "lam_grid must list finite values >= 0"),
            ("beta_grid=0", "beta_grid must list finite values > 0"),
            ("beta_grid=1,nan", "beta_grid must list finite values > 0"),
            ("beta_grid=inf", "beta_grid must list finite values > 0"),
        ],
    )
    def test_bad_setting_exits_2_without_output(
        self, tmp_path, corpus_file, capsys, monkeypatch, setting, message
    ):
        read = []
        monkeypatch.setattr(cli, "load_clusters", read.append)
        out = tmp_path / "fit"
        assert main(
            ["fit-importance",
             "--set", f"corpus.train={corpus_file}",
             "--set", f"corpus.dev={corpus_file}",
             "--set", f"out_dir={out}",
             "--set", setting]
        ) == 2
        assert message in capsys.readouterr().err
        assert read == []
        assert not out.exists()


class TestRankEval:
    def test_all_relevant_first_gives_mrr_one(self, tmp_path, corpus_file, fitted_salience):
        model_path, registry_path = fitted_salience
        out = tmp_path / "rank"
        assert main(
            ["rank-eval",
             "--set", f"corpus={corpus_file}",
             "--set", f"salience_model={model_path}",
             "--set", f"salience_registry={registry_path}",
             "--set", f"out_dir={out}"]
        ) == 0
        rows = {r[0]: r for r in read_csv(out / "rank_eval.csv")[1:]}
        # toy corpus: salience ranks a relevant unit first in every cluster
        assert float(rows["salience"][1]) == 1.0
        assert set(rows) == {"salience", "length", "centroid"}
        # per-unit ranking report: 3 clusters x 3 units, ranks 1..3 each
        ranking = read_csv(out / "rankings.csv")
        assert ranking[0] == ["cluster_id", "unit_index", "score", "rank"]
        assert len(ranking) == 1 + 9
        for cid in ("m0", "m1", "m2"):
            ranks = [int(r[3]) for r in ranking[1:] if r[0] == cid]
            assert sorted(ranks) == [1, 2, 3]


    def test_relevance_computed_once_per_cluster(
        self, tmp_path, corpus_file, fitted_salience, monkeypatch
    ):
        model_path, registry_path = fitted_salience
        argv = ["rank-eval",
                "--set", f"corpus={corpus_file}",
                "--set", f"salience_model={model_path}",
                "--set", f"salience_registry={registry_path}"]
        assert main(argv + ["--set", f"out_dir={tmp_path / 'a'}"]) == 0
        calls = []
        gold_scores = salience.gold_scores
        monkeypatch.setattr(
            salience, "gold_scores", lambda c, stop: calls.append(c.id) or gold_scores(c, stop)
        )
        assert main(argv + ["--set", f"out_dir={tmp_path / 'b'}"]) == 0
        assert sorted(calls) == ["m0", "m1", "m2"]
        for name in ("rank_eval.csv", "rankings.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestTrainCommand:
    def test_artifacts(self, tmp_path, corpus_file, fitted_salience):
        out = train_once(tmp_path, corpus_file, fitted_salience, "t1")
        assert (out / "model.txt").exists()
        history = read_csv(out / "history.csv")
        assert history[0] == ["epoch", "train_nll", "dev_bleu"]
        assert len(history) == 4  # 3 epochs

    def test_deterministic_rerun(self, tmp_path, corpus_file, fitted_salience):
        a = train_once(tmp_path, corpus_file, fitted_salience, "t2")
        b = train_once(tmp_path, corpus_file, fitted_salience, "t3")
        assert (a / "model.txt").read_bytes() == (b / "model.txt").read_bytes()
        assert (a / "history.csv").read_bytes() == (b / "history.csv").read_bytes()

    def test_features_and_embeddings(self, tmp_path, corpus_file):
        # the lexicons go to fit-importance only; train builds the token
        # features from the ones its salience registry carries
        emb = tmp_path / "vec.txt"
        emb.write_text("smart " + " ".join(["0.5"] * 12) + "\n")
        lex = tmp_path / "lex.txt"
        lex.write_text("smart\tPositiv\nsmart\tStrong\ndull\tNegativ\n")
        sent = tmp_path / "sent.txt"
        sent.write_text("smart\tpositive\ndull\tnegative\n")
        sal = tmp_path / "sal"
        assert main(
            ["fit-importance", "--set", f"corpus.train={corpus_file}",
             "--set", f"corpus.dev={corpus_file}", "--set", f"out_dir={sal}",
             "--set", f"lexicon={lex}", "--set", f"sentiment_lexicon={sent}"]
        ) == 0
        fitted = (str(sal / "salience.model"), str(sal / "salience.registry"))
        out = train_once(
            tmp_path, corpus_file, fitted, "t4",
            extra=(f"embeddings={emb}", "use_features=true", "d_feat=4"),
        )
        from opinesum.attnseq2seq import load_model

        features = load_model(out / "model.txt").features
        assert features.lex_categories == ("Negativ", "Positiv", "Strong")
        assert features.word_lex == {"dull": "Negativ", "smart": "Positiv"}
        assert features.word_sent == {"dull": "negative", "smart": "positive"}

    @pytest.mark.parametrize(
        "setting, message",
        [
            ("max_epochs=0", "max_epochs must be >= 1"),
            ("eta=-1", "eta must be > 0"),
            ("eta=0", "eta must be > 0"),
            ("eta=nan", "eta must be > 0"),
            ("eps=0", "eps must be > 0"),
            ("init_scale=nan", "init_scale must be finite and > 0"),
            ("init_scale=inf", "init_scale must be finite and > 0"),
            ("init_scale=-1", "init_scale must be finite and > 0"),
            ("init_scale=0", "init_scale must be finite and > 0"),
            ("d_feat=0", "d_feat must be >= 1"),
            ("min_count=0", "min_count must be >= 1"),
        ],
    )
    def test_bad_setting_exits_2_without_output(
        self, tmp_path, corpus_file, fitted_salience, capsys, setting, message
    ):
        out = tmp_path / "bad"
        args = train_args(corpus_file, fitted_salience, out) + ["--set", setting]
        assert main(args) == 2
        assert message in capsys.readouterr().err
        assert not (out / "model.txt").exists()

    @pytest.mark.parametrize(
        "setting, message",
        [
            ("max_len=0", "max_len must be >= 1"),
            ("max_len=-3", "max_len must be >= 1"),
            ("K=0", "K must be >= 1"),
            ("d_feat=0", "d_feat must be >= 1"),
            ("min_count=0", "min_count must be >= 1"),
            ("init_scale=nan", "init_scale must be finite and > 0"),
        ],
    )
    def test_bad_count_exits_2_before_reading_input(
        self, tmp_path, corpus_file, fitted_salience, monkeypatch, capsys, setting, message
    ):
        read = []
        for name in ("_load_salience", "load_clusters"):
            monkeypatch.setattr(cli, name, lambda arg, name=name: read.append(name))
        out = tmp_path / "bad"
        args = train_args(corpus_file, fitted_salience, out) + ["--set", setting]
        assert main(args) == 2
        assert message in capsys.readouterr().err
        assert read == []
        assert not (out / "model.txt").exists()

    def test_diverged_run_exits_2_with_one_error_line(
        self, tmp_path, corpus_file, fitted_salience
    ):
        # steps of 1e300 overflow the first example's activations; the run
        # is reported like a bad input, not as a traceback with the exit
        # code of a failed gradcheck
        src = str(Path(opinesum.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        out = tmp_path / "diverged"
        args = train_args(corpus_file, fitted_salience, out)
        args += ["--set", "eta=1e300", "--set", "init_scale=1"]
        proc = subprocess.run(
            [sys.executable, "-m", "opinesum.cli", *args], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: cluster "), proc.stderr
        assert "epoch 1" in proc.stderr
        assert "Traceback" not in proc.stderr
        # no epoch finished, so neither output was written
        assert not (out / "model.txt").exists()
        assert not (out / "history.csv").exists()

    def test_diverged_rerun_leaves_no_earlier_outputs(
        self, tmp_path, corpus_file, fitted_salience
    ):
        out = tmp_path / "rerun"
        out.mkdir()
        earlier = {"model.txt": "an earlier run's model\n", "history.csv": "epoch\n1\n"}
        for name, text in earlier.items():
            (out / name).write_text(text)
        # a bad input stops the run before training: the earlier files stay
        empty = tmp_path / "empty.jsonl"
        empty.write_text("\n")
        assert main(train_args(corpus_file, fitted_salience, out, empty)) == 2
        assert {name: (out / name).read_text() for name in earlier} == earlier
        # a run that trains and diverges leaves neither file behind
        args = train_args(corpus_file, fitted_salience, out)
        assert main(args + ["--set", "eta=1e300", "--set", "init_scale=1"]) == 2
        assert not (out / "model.txt").exists()
        assert not (out / "history.csv").exists()

    def test_colliding_ids_of_different_clusters_train(
        self, tmp_path, corpus_file, fitted_salience
    ):
        # ids need only be unique within a file: the dev split's m0 is not
        # the train split's m0
        dev = toy_corpus()[:1]
        dev[0]["summary"] = "a different summary"
        dev_file = tmp_path / "dev.jsonl"
        write_corpus(dev_file, dev)
        out = tmp_path / "clash"
        assert main(train_args(corpus_file, fitted_salience, out, dev_file)) == 0
        assert (out / "model.txt").exists()

    def test_dev_id_naming_the_same_cluster_accepted(self, tmp_path, corpus_file, fitted_salience):
        dev_file = tmp_path / "dev.jsonl"
        write_corpus(dev_file, toy_corpus()[1:])
        out = tmp_path / "shared"
        assert main(train_args(corpus_file, fitted_salience, out, dev_file)) == 0
        assert (out / "model.txt").exists()

    def test_train_receives_each_splits_scores(
        self, tmp_path, corpus_file, fitted_salience, monkeypatch
    ):
        # each split is scored on its own, with its own TF-IDF, so m1 and m2
        # score differently in a dev file holding only them
        seen = []
        real_train = trainer.train

        def spy(train_clusters, train_scores, dev_clusters, dev_scores, *rest):
            seen.append((train_clusters, train_scores, dev_clusters, dev_scores))
            return real_train(train_clusters, train_scores, dev_clusters, dev_scores, *rest)

        monkeypatch.setattr(trainer, "train", spy)
        model_path, registry_path = fitted_salience
        sal_model = cli._load_salience(
            {"salience_model": model_path, "salience_registry": registry_path}
        )

        def scored(path):
            clusters, tfidf = cli._prepare(textcorpus.load_clusters(path))
            return clusters, cli._score_split(clusters, tfidf, sal_model)

        dev_file = tmp_path / "dev.jsonl"
        write_corpus(dev_file, toy_corpus()[1:])
        runs = {}
        for name, dev in (("split", dev_file), ("same", corpus_file)):
            seen.clear()
            assert main(train_args(corpus_file, fitted_salience, tmp_path / name, dev)) == 0
            (runs[name],) = seen
            train_clusters, train_scores, dev_clusters, dev_scores = runs[name]
            for (clusters, scores), got_clusters, got_scores in (
                (scored(corpus_file), train_clusters, train_scores),
                (scored(dev), dev_clusters, dev_scores),
            ):
                assert got_clusters == clusters
                assert [a.tobytes() for a in got_scores] == [a.tobytes() for a in scores]
        # one file as both splits: the two score lists are equal bit for bit
        _, train_scores, _, dev_scores = runs["same"]
        assert [a.tobytes() for a in train_scores] == [a.tobytes() for a in dev_scores]
        # the dev file's m1 is scored with its own split's TF-IDF, not train's
        _, train_scores, _, dev_scores = runs["split"]
        assert not np.array_equal(dev_scores[0], train_scores[1])


class TestDecodeEvaluate:
    def test_decode_records(self, tmp_path, corpus_file, fitted_salience):
        out = train_once(tmp_path, corpus_file, fitted_salience, "t5")
        model_path, registry_path = fitted_salience
        dec = tmp_path / "dec"
        assert main(
            ["decode",
             "--set", f"corpus={corpus_file}",
             "--set", f"model={out/'model.txt'}",
             "--set", f"salience_model={model_path}",
             "--set", f"salience_registry={registry_path}",
             "--set", f"out_dir={dec}",
             "--set", "K=2", "--set", "beam_width=3", "--set", "max_len=8"]
        ) == 0
        records = [json.loads(l) for l in (dec / "decode.jsonl").read_text().splitlines()]
        assert len(records) == 3
        for rec in records:
            assert "SEG" not in rec["summary"].split()
            assert rec["nbest"]

    def test_decode_matches_library(self, tmp_path, corpus_file, fitted_salience):
        out = train_once(tmp_path, corpus_file, fitted_salience, "t6")
        model_path, registry_path = fitted_salience
        dec = tmp_path / "dec2"
        assert main(
            ["decode",
             "--set", f"corpus={corpus_file}",
             "--set", f"model={out/'model.txt'}",
             "--set", f"salience_model={model_path}",
             "--set", f"salience_registry={registry_path}",
             "--set", f"out_dir={dec}",
             "--set", "K=2", "--set", "beam_width=3", "--set", "max_len=8"]
        ) == 0
        records = {json.loads(l)["id"]: json.loads(l) for l in (dec / "decode.jsonl").read_text().splitlines()}

        from opinesum import beamdecode, salience
        from opinesum.attnseq2seq import load_model
        from opinesum.textcorpus import TfidfStats, default_stopwords, load_clusters, substitute_entity

        model = load_model(out / "model.txt")
        registry = salience.load_registry(registry_path)
        assert registry.lexicons == salience.LexiconSet(stopwords=default_stopwords())
        sal = salience.load_model(model_path, registry)
        clusters = [substitute_entity(c) for c in load_clusters(corpus_file)]
        tfidf = TfidfStats(clusters)
        for cluster in clusters:
            feats = salience.cluster_features(cluster, registry, tfidf)
            scores = salience.score_units(sal, feats)
            expected = list(beamdecode.decode_split(
                model, [cluster], [scores], 2, 3, 8, tfidf, default_stopwords()
            ))[0]["summary"]
            assert records[cluster.id]["summary"] == expected

    def test_decode_rerun_byte_identical(self, tmp_path, corpus_file, fitted_salience):
        out = train_once(tmp_path, corpus_file, fitted_salience, "t8")
        model_path, registry_path = fitted_salience
        blobs = []
        for name in ("d1", "d2"):
            dec = tmp_path / name
            assert main(
                ["decode",
                 "--set", f"corpus={corpus_file}",
                 "--set", f"model={out/'model.txt'}",
                 "--set", f"salience_model={model_path}",
                 "--set", f"salience_registry={registry_path}",
                 "--set", f"out_dir={dec}",
                 "--set", "K=2", "--set", "beam_width=3", "--set", "max_len=8"]
            ) == 0
            blobs.append((dec / "decode.jsonl").read_bytes())
        assert blobs[0] == blobs[1]

    def test_decode_rejects_vocab_without_count(self, tmp_path, corpus_file, fitted_salience, capsys):
        out = train_once(tmp_path, corpus_file, fitted_salience, "t9")
        model_path, registry_path = fitted_salience
        damaged = tmp_path / "damaged.txt"
        text = (out / "model.txt").read_text()
        damaged.write_text(re.sub(r"\nvocab \d+\n", "\nvocab\n", text, count=1))
        assert main(
            ["decode",
             "--set", f"corpus={corpus_file}",
             "--set", f"model={damaged}",
             "--set", f"salience_model={model_path}",
             "--set", f"salience_registry={registry_path}",
             "--set", f"out_dir={tmp_path / 'dec'}"]
        ) == 2
        assert f"{damaged}: line 3: expected 'vocab <value>'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "setting, message",
        [
            ("K=0", "config key K must be >= 1"),
            ("beam_width=0", "config key beam_width must be >= 1"),
            ("max_len=-1", "config key max_len must be >= 1"),
        ],
    )
    def test_decode_bad_count_exits_2_before_reading_files(
        self, tmp_path, corpus_file, fitted_salience, monkeypatch, capsys, setting, message
    ):
        read = []
        for name in ("_load_salience", "load_seq2seq", "load_clusters"):
            monkeypatch.setattr(cli, name, lambda arg, name=name: read.append(name))
        model_file = tmp_path / "model.txt"
        model_file.write_text("")
        model_path, registry_path = fitted_salience
        dec = tmp_path / "dec"
        assert main(
            ["decode",
             "--set", f"corpus={corpus_file}",
             "--set", f"model={model_file}",
             "--set", f"salience_model={model_path}",
             "--set", f"salience_registry={registry_path}",
             "--set", f"out_dir={dec}",
             "--set", setting]
        ) == 2
        assert message in capsys.readouterr().err
        assert read == []
        assert not dec.exists()

    def test_evaluate_identity_is_one(self, tmp_path, corpus_file):
        dec = tmp_path / "decode.jsonl"
        with open(dec, "w") as fh:
            for c in toy_corpus():
                fh.write(json.dumps({"id": c["id"], "summary": c["summary"], "nbest": []}) + "\n")
        out = tmp_path / "ev"
        assert main(
            ["evaluate", "--set", f"corpus={corpus_file}",
             "--set", f"decode={dec}", "--set", f"out_dir={out}"]
        ) == 0
        report = json.loads((out / "eval.json").read_text())
        assert report["bleu"] == pytest.approx(1.0)
        assert report["rouge_su4"] == pytest.approx(1.0)
        rows = read_csv(out / "eval.csv")
        assert rows[0] == ["bleu", "rouge_su4", "mean_length"]

    def test_evaluate_matches_direct_metrics(self, tmp_path, corpus_file, monkeypatch):
        summaries = {"m0": "a dull thrilling ride", "m1": "smart", "m2": "the ride was not fun ."}
        dec = tmp_path / "decode.jsonl"
        dec.write_text("".join(
            json.dumps({"id": cid, "summary": text}) + "\n" for cid, text in summaries.items()
        ))
        gold = {c.id: c.summary.norms() for c in textcorpus.load_clusters(corpus_file)}
        hyps = [[t.norm for t in textcorpus.tokenize(text)] for text in summaries.values()]
        refs = [gold[cid] for cid in summaries]
        want = {
            "bleu": evalmetrics.bleu(hyps, refs),
            "rouge_su4": evalmetrics.rouge_su4_corpus(hyps, refs),
            "mean_length": sum(map(len, hyps)) / len(hyps),
            "pairs": 3,
        }
        assert 0 < want["bleu"] < 1 and 0 < want["rouge_su4"] < 1
        # the metrics are called through their module, where a tracer wraps them
        called = []
        for name in ("bleu", "rouge_su4_corpus"):

            def spy(hyps, refs, real=getattr(evalmetrics, name), name=name):
                called.append(name)
                return real(hyps, refs)

            monkeypatch.setattr(evalmetrics, name, spy)
        out = tmp_path / "ev"
        assert main(
            ["evaluate", "--set", f"corpus={corpus_file}",
             "--set", f"decode={dec}", "--set", f"out_dir={out}"]
        ) == 0
        assert called == ["bleu", "rouge_su4_corpus"]
        assert json.loads((out / "eval.json").read_text()) == want
        assert read_csv(out / "eval.csv") == [
            ["bleu", "rouge_su4", "mean_length"],
            [f"{want['bleu']:.6f}", f"{want['rouge_su4']:.6f}", f"{want['mean_length']:.3f}"],
        ]

    @pytest.mark.parametrize(
        "records, message",
        [
            ([{"id": "m0", "summary": "a smart thrilling ride"}],
             ": no record for 2 of 3 corpus clusters, first 'm1'"),
            ([{"id": cid, "summary": "x"} for cid in ("m0", "m1", "m2", "m1")],
             ":4: repeats id 'm1' (first on line 2)"),
            ([{"id": "m0", "summary": "x"}, {"id": "m1"}, {"id": "m2", "summary": "x"}],
             ":2: expected an object with string id and summary"),
            ([{"id": "m0", "summary": "x"}, [1, 2], {"id": "m2", "summary": "x"}],
             ":2: expected an object with string id and summary"),
        ],
        ids=["one_of_three_clusters", "repeated_id", "record_without_summary", "record_not_an_object"],
    )
    def test_evaluate_rejects_bad_decode_file(self, tmp_path, corpus_file, capsys, records, message):
        dec = tmp_path / "decode.jsonl"
        dec.write_text("".join(json.dumps(r) + "\n" for r in records))
        out = tmp_path / "ev"
        assert main(
            ["evaluate", "--set", f"corpus={corpus_file}",
             "--set", f"decode={dec}", "--set", f"out_dir={out}"]
        ) == 2
        assert f"error: {dec}{message}" in capsys.readouterr().err
        assert not (out / "eval.json").exists()

    def test_evaluate_unknown_id(self, tmp_path, corpus_file):
        dec = tmp_path / "decode.jsonl"
        dec.write_text(json.dumps({"id": "zz", "summary": "x", "nbest": []}) + "\n")
        assert main(
            ["evaluate", "--set", f"corpus={corpus_file}",
             "--set", f"decode={dec}", "--set", f"out_dir={tmp_path/'e2'}"]
        ) == 2


class TestNonUtf8Input:
    # (command, the key naming the bad file, its good first line); the
    # second line holds a byte that is not UTF-8
    INPUTS = {
        "corpus": ("fit-importance", "corpus.train", json.dumps(toy_corpus()[0])),
        "config": ("evaluate", None, "# settings"),
        "decode": ("evaluate", "decode", json.dumps({"id": "m0", "summary": "a"})),
        "stopwords": ("fit-importance", "stopwords", "the"),
        "lexicon": ("fit-importance", "lexicon", "good\tStrong"),
        "sentiment_lexicon": ("fit-importance", "sentiment_lexicon", "good\tpositive"),
        "embeddings": ("train", "embeddings", "1 12"),
    }

    @pytest.mark.parametrize("name", list(INPUTS))
    def test_exits_2_naming_file_and_line(self, tmp_path, corpus_file, request, capsys, name):
        command, key, first = self.INPUTS[name]
        bad = tmp_path / "bad.txt"
        bad.write_bytes(first.encode("utf-8") + b"\ncaf\xff\n")
        out = tmp_path / "out"
        if command == "train":
            args = train_args(corpus_file, request.getfixturevalue("fitted_salience"), out)
        else:
            pairs = {
                "evaluate": {"corpus": corpus_file},
                "fit-importance": {"corpus.train": corpus_file, "corpus.dev": corpus_file},
            }[command]
            args = [command, "--set", f"out_dir={out}"]
            args += [arg for k, v in pairs.items() for arg in ("--set", f"{k}={v}")]
        args += ["--config", str(bad)] if key is None else ["--set", f"{key}={bad}"]
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: {bad}:2: not UTF-8 text\n"


class TestEmptyCorpus:
    CORPUS_KEYS = {
        "fit-importance": "corpus.train", "rank-eval": "corpus",
        "train": "corpus.train", "decode": "corpus", "evaluate": "corpus",
        "sampling-report": "corpus",
    }

    @pytest.mark.parametrize("command", list(CORPUS_KEYS))
    def test_exits_2_naming_the_file(self, tmp_path, corpus_file, fitted_salience, capsys, command):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("\n")
        model_dir = tmp_path / "models"
        model_dir.mkdir()
        checkpoint = model_dir / "topk_K2.model"
        vocab = textcorpus.build_vocab(textcorpus.load_clusters(corpus_file))
        save_model(new_model(vocab, None, 4, 3, 2), checkpoint)
        (tmp_path / "decode.jsonl").write_text("")
        model_path, registry_path = fitted_salience
        pairs = {
            "fit-importance": {"corpus.dev": corpus_file},
            "rank-eval": {"salience_model": model_path, "salience_registry": registry_path},
            "train": {
                "corpus.dev": corpus_file, "salience_model": model_path,
                "salience_registry": registry_path,
            },
            "decode": {
                "model": checkpoint, "salience_model": model_path,
                "salience_registry": registry_path,
            },
            "evaluate": {"decode": tmp_path / "decode.jsonl"},
            "sampling-report": {
                "model_dir": model_dir, "salience_model": model_path,
                "salience_registry": registry_path, "modes": "topk", "Ks": "2",
            },
        }[command]
        pairs = {self.CORPUS_KEYS[command]: empty, **pairs, "out_dir": tmp_path / "out"}
        argv = [command] + [arg for k, v in pairs.items() for arg in ("--set", f"{k}={v}")]
        assert main(argv) == 2
        assert f"error: {empty}:1: the file holds no cluster" in capsys.readouterr().err
        assert not any((tmp_path / "out").glob("*"))


class TestGradcheckCommand:
    def test_exit_zero(self, tmp_path):
        assert main(["gradcheck", "--set", "seeds=1"]) == 0

    @pytest.mark.parametrize("seeds", ["0", "-1"])
    def test_no_seed_is_a_usage_error(self, capsys, seeds):
        assert main(["gradcheck", "--set", f"seeds={seeds}"]) == 2
        captured = capsys.readouterr()
        assert "seeds must be >= 1" in captured.err
        assert "OK" not in captured.out


class TestSamplingReport:
    def test_absent_cells(self, tmp_path, corpus_file, fitted_salience, monkeypatch):
        out = train_once(tmp_path, corpus_file, fitted_salience, "t7")
        model_dir = tmp_path / "models"
        model_dir.mkdir()
        (model_dir / "topk_K2.model").write_bytes((out / "model.txt").read_bytes())
        model_path, registry_path = fitted_salience
        scores = []  # each BLEU the report computes, through the module
        bleu = evalmetrics.bleu
        monkeypatch.setattr(evalmetrics, "bleu", lambda *a: scores.append(bleu(*a)) or scores[-1])
        rep = tmp_path / "rep"
        assert main(
            ["sampling-report",
             "--set", f"corpus={corpus_file}",
             "--set", f"salience_model={model_path}",
             "--set", f"salience_registry={registry_path}",
             "--set", f"model_dir={model_dir}",
             "--set", "modes=uniform,topk,uniform", "--set", "Ks=2,1",
             "--set", "beam_width=2", "--set", "max_len=6",
             "--set", f"out_dir={rep}"]
        ) == 0
        # one row per distinct (mode, K), sorted by mode, then K; only the
        # cell with a model has a score
        (score,) = scores
        assert read_csv(rep / "sampling.csv") == [
            ["mode", "K", "bleu"],
            ["topk", "1", ""],
            ["topk", "2", f"{score:.6f}"],
            ["uniform", "1", ""],
            ["uniform", "2", ""],
        ]

    def test_bleu_cell_equals_decode_then_evaluate(self, tmp_path, fitted_salience):
        # one summary names its cluster's entity: both commands score the
        # entity-restored summaries against the gold summaries as loaded
        clusters = toy_corpus()
        clusters[0]["summary"] = "Red Planet is a smart thrilling ride"
        corpus = tmp_path / "entity.jsonl"
        write_corpus(corpus, clusters)
        model_file = train_once(tmp_path, corpus, fitted_salience, "t9") / "model.txt"
        model_dir = tmp_path / "models"
        model_dir.mkdir()
        (model_dir / "topk_K2.model").write_bytes(model_file.read_bytes())
        model_path, registry_path = fitted_salience
        common = [
            "--set", f"corpus={corpus}",
            "--set", f"salience_model={model_path}",
            "--set", f"salience_registry={registry_path}",
            "--set", "beam_width=3", "--set", "max_len=8",
        ]
        assert main(
            ["sampling-report", "--set", f"model_dir={model_dir}", "--set", "modes=topk",
             "--set", "Ks=2", "--set", f"out_dir={tmp_path / 'rep'}"] + common
        ) == 0
        assert main(
            ["decode", "--set", f"model={model_file}", "--set", "K=2",
             "--set", f"out_dir={tmp_path / 'dec'}"] + common
        ) == 0
        assert main(
            ["evaluate", "--set", f"corpus={corpus}",
             "--set", f"decode={tmp_path / 'dec' / 'decode.jsonl'}",
             "--set", f"out_dir={tmp_path / 'eval'}"]
        ) == 0
        cell = read_csv(tmp_path / "rep" / "sampling.csv")[1][2]
        evaluated = read_csv(tmp_path / "eval" / "eval.csv")[1][0]
        assert cell == evaluated

    @pytest.mark.parametrize(
        "setting, message",
        [
            ("Ks=", "Ks must list at least one value"),
            ("Ks=,", "Ks must list at least one value"),
            ("modes=", "modes must list at least one value"),
            ("modes=topk,tokp", "modes must list modes of importance,uniform,topk"),
            ("Ks=0", "Ks must list values >= 1"),
            ("Ks=2,-1", "Ks must list values >= 1"),
            ("Ks=two", "Ks must list int values"),
            ("beam_width=0", "beam_width must be >= 1"),
            ("max_len=-1", "max_len must be >= 1"),
        ],
    )
    def test_unusable_grid_exits_2_before_reading_models(
        self, tmp_path, corpus_file, fitted_salience, monkeypatch, capsys, setting, message
    ):
        model_dir = tmp_path / "models"
        model_dir.mkdir()
        model_path, registry_path = fitted_salience
        read = []
        monkeypatch.setattr(cli, "load_seq2seq", lambda path: read.append(path))
        monkeypatch.setattr(cli, "_load_salience", lambda cfg: read.append(cfg))
        rep = tmp_path / "rep"
        assert main(
            ["sampling-report",
             "--set", f"corpus={corpus_file}",
             "--set", f"salience_model={model_path}",
             "--set", f"salience_registry={registry_path}",
             "--set", f"model_dir={model_dir}",
             "--set", f"out_dir={rep}",
             "--set", setting]
        ) == 2
        assert message in capsys.readouterr().err
        assert read == []
        assert not (rep / "sampling.csv").exists()


@pytest.fixture
def scoring_stages(tmp_path, corpus_file, fitted_salience):
    """argv (without out_dir) of each command that scores a corpus split
    with the salience model, on the toy corpus."""
    model_path, registry_path = fitted_salience
    model_file = train_once(tmp_path, corpus_file, fitted_salience, "t8") / "model.txt"
    model_dir = tmp_path / "models"
    model_dir.mkdir()
    for k in (1, 2):
        (model_dir / f"topk_K{k}.model").write_bytes(model_file.read_bytes())
    salience_args = [
        "--set", f"corpus={corpus_file}",
        "--set", f"salience_model={model_path}",
        "--set", f"salience_registry={registry_path}",
    ]
    beam_args = ["--set", "beam_width=2", "--set", "max_len=6"]
    return {
        "rank-eval": ["rank-eval"] + salience_args,
        "train": train_args(corpus_file, fitted_salience, tmp_path / "train"),
        "decode": ["decode", "--set", f"model={model_file}", "--set", "K=2"]
        + salience_args + beam_args,
        "sampling-report": [
            "sampling-report", "--set", f"model_dir={model_dir}",
            "--set", "modes=topk", "--set", "Ks=1,2",
        ] + salience_args + beam_args,
    }


class TestFeatureLifetime:
    def test_scoring_stages_keep_one_feature_matrix_at_a_time(
        self, tmp_path, scoring_stages, monkeypatch
    ):
        built = []  # a weak reference to each matrix cluster_features returned
        alive_before = []  # how many of the earlier matrices were alive at each call
        scored = []
        cluster_features, score_units = salience.cluster_features, salience.score_units

        def tracked_features(*args):
            alive_before.append(sum(ref() is not None for ref in built))
            feats = cluster_features(*args)
            built.append(weakref.ref(feats))
            return feats

        def counted_scores(model, feats):
            scored.append(feats.shape[0])
            return score_units(model, feats)

        monkeypatch.setattr(salience, "cluster_features", tracked_features)
        monkeypatch.setattr(salience, "score_units", counted_scores)
        for stage, argv in scoring_stages.items():
            for record in (built, alive_before, scored):
                record.clear()
            assert main(argv + ["--set", f"out_dir={tmp_path / stage}"]) == 0, stage
            # train featurizes the train and the dev split: the toy corpus twice
            n_clusters = 6 if stage == "train" else 3
            assert alive_before == [0] * n_clusters, stage
            # sampling-report reads two model files but scores each cluster once
            assert scored == [3] * n_clusters, stage


class TestSplitPreparation:
    def test_each_loaded_cluster_is_substituted_once(
        self, tmp_path, scoring_stages, monkeypatch
    ):
        calls = []
        original = textcorpus.substitute_entity

        def counted(cluster):
            calls.append(cluster.id)
            return original(cluster)

        # every binding of the function in the package, not only the CLI's
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "opinesum" and (
                getattr(module, "substitute_entity", None) is original
            ):
                monkeypatch.setattr(module, "substitute_entity", counted)
        for stage, argv in scoring_stages.items():
            calls.clear()
            assert main(argv + ["--set", f"out_dir={tmp_path / stage}"]) == 0, stage
            # train loads the toy corpus as both splits
            loaded = ["m0", "m1", "m2"] * (2 if stage == "train" else 1)
            assert sorted(calls) == sorted(loaded), stage


class TestBlasThreads:
    def test_main_runs_blas_on_one_thread(self, tmp_path, corpus_file):
        # numpy's bundled OpenBLAS answers on the library numpy's linalg links
        getter = "scipy_openblas_get_num_threads64_"
        if not hasattr(ctypes.CDLL(np.linalg._umath_linalg.__file__), getter):
            pytest.skip(f"numpy's BLAS exports no {getter}")
        code = (
            "import ctypes, sys, numpy\n"
            "from opinesum import cli\n"
            f"count = getattr(ctypes.CDLL(numpy.linalg._umath_linalg.__file__), {getter!r})\n"
            "before = count()\n"
            "assert cli.main(sys.argv[1:]) == 0\n"
            "print(before, count())\n"
        )
        # the child imports opinesum from the same checkout as this process
        src = str(Path(opinesum.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        argv = [
            "fit-importance", "--set", f"corpus.train={corpus_file}",
            "--set", f"corpus.dev={corpus_file}", "--set", f"out_dir={tmp_path}",
        ]
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, check=True
        )
        before, after = proc.stdout.split()[-2:]
        if before != "2":
            pytest.skip(f"BLAS starts on {before} threads here, not 2")
        assert after == "1"

    def test_without_the_setter_warns_once_and_runs(self, tmp_path, corpus_file, monkeypatch, capsys):
        monkeypatch.setattr(cli, "set_blas_threads", lambda n: False)
        argv = [
            "fit-importance", "--set", f"corpus.train={corpus_file}",
            "--set", f"corpus.dev={corpus_file}", "--set", f"out_dir={tmp_path}",
        ]
        assert main(argv) == 0
        assert capsys.readouterr().err.count("warning: cannot set BLAS to one thread") == 1
        assert (tmp_path / "salience.model").exists()


class TestEntryPoint:
    def test_console_script(self):
        # the child imports opinesum from the same checkout as this process
        src = str(Path(opinesum.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "opinesum.cli", "gradcheck", "--set", "seeds=1"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert "max relative error" in proc.stdout

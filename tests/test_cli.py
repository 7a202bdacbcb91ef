"""Command line behavior: config precedence, artifacts, exit codes.

Everything runs in-process through main(argv) against tiny datasets, so the
full synth/fit/predict/eval chain stays fast.
"""

import argparse
import csv
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from explor import cli, data
from explor.cli import (
    COMMANDS,
    FLAG_MAP,
    ConfigError,
    DEFAULTS,
    _NULL_KINDS,
    _RANGES,
    _merge_config,
    _read_predictions,
    build_parser,
    load_config,
    main,
    resolve_config,
    run_stability,
)
from explor.data import Dataset, DatasetError, load_csv, make_synthetic_radial, save_csv
from explor.model import load_bundle


def tiny_cfg(**over):
    """Config small enough to train in well under a second."""
    cfg = {
        "latent": {"components": 3},
        "pseudo": {"k": 2, "max_depth": 2},
        "net": {"hidden": [4], "iterations": 5, "batch_size": 16},
        "synth": {"n_id": 60, "n_ood": 30, "d": 3},
    }
    for key, val in over.items():
        if isinstance(val, dict):
            cfg.setdefault(key, {}).update(val)
        else:
            cfg[key] = val
    return cfg


@pytest.fixture
def workdir(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(tiny_cfg()))
    code = main(["synth", "--config", str(cfg_path), "--output-dir", str(tmp_path)])
    assert code == 0
    return tmp_path, cfg_path


def test_import_loads_no_thread_pool():
    """``score`` imports the pool only when it runs on threads, so importing the CLI must not load it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH")) if p)
    code = "import sys, explor.cli; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "False"


def read_rows(path):
    with open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


def numeric(path, section):
    """The dotted keys under ``section`` whose values are numbers or lists."""
    for key, default in section.items():
        where = f"{path}.{key}" if path else key
        kind = _NULL_KINDS.get(where, default)
        if isinstance(kind, dict):
            yield from numeric(where, kind)
        elif isinstance(kind, (int, float, list)) and not isinstance(kind, bool):
            yield where


def nested(where, value):
    """The config document that sets dotted key ``where`` to ``value``."""
    section, _, key = where.rpartition(".")
    return {section: {key: value}} if section else {key: value}


class TestConfig:
    def test_defaults_when_no_file(self):
        assert load_config(None) == DEFAULTS

    def test_unknown_key_reports_dotted_path(self):
        with pytest.raises(ConfigError, match="net.bogus"):
            _merge_config(DEFAULTS, {"net": {"bogus": 1}})

    def test_nested_partial_override_keeps_rest(self):
        cfg = _merge_config(DEFAULTS, {"pseudo": {"k": 7}})
        assert cfg["pseudo"]["k"] == 7
        assert cfg["pseudo"]["max_depth"] == DEFAULTS["pseudo"]["max_depth"]

    def test_bad_json_exit_code(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{nope")
        assert main(["synth", "--config", str(bad), "--output-dir", str(tmp_path)]) == 1

    def test_missing_config_file_exit_code(self, tmp_path):
        assert main(["synth", "--config", str(tmp_path / "none.json")]) == 1

    def test_unknown_key_exit_code(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"mystery": 1}))
        assert main(["synth", "--config", str(cfg), "--output-dir", str(tmp_path)]) == 1

    @pytest.mark.parametrize("override", [
        {"net": {"iterations": 1.5}},
        {"net": {"iterations": "5"}},
        {"pseudo": {"k": "4"}},
        {"latent": {"sigma": "x"}},
        {"pseudo": {"k": True}},
        {"latent": {"sigma": False}},
        {"net": {"redraw_expansion_each_batch": 1}},
        {"net": {"hidden": [8.5]}},
        {"net": {"hidden": 8}},
        {"metrics": {"taus": ["0.1"]}},
        {"net": {"loss_mode": 3}},
        {"latent": {"components": 2.7}},
        {"latent": {"components": True}},
        {"latent": {"components": "2"}},
        {"label_column": 3},
        {"label_column": False},
        *(nested(where, True) for where in numeric("", DEFAULTS)),
    ])
    def test_wrongly_typed_value_exits_one(self, workdir, capsys, override):
        tmp_path, _ = workdir
        cfg = tmp_path / "typed.json"
        cfg.write_text(json.dumps(tiny_cfg(**override)))
        capsys.readouterr()
        assert main(["fit", "--train", str(tmp_path / "train.csv"), "--config", str(cfg), "--output-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "config key" in err and "Traceback" not in err
        assert not (tmp_path / "bundle.json").exists()

    def test_int_for_float_and_open_none_defaults_accepted(self):
        cfg = _merge_config(DEFAULTS, {"latent": {"sigma": 1, "components": 3}, "net": {"learning_rate": 1}})
        assert cfg["latent"] == {"sigma": 1, "components": 3}

    def test_null_default_keys_take_null(self):
        cfg = _merge_config(DEFAULTS, {"latent": {"components": None}})
        assert cfg["latent"]["components"] is None

    def test_usage_error_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fit"])  # --train is required
        assert exc.value.code == 1

    @pytest.mark.parametrize("how", ["config_file", "flag"])
    def test_group_column_is_not_accepted(self, workdir, capsys, how):
        """The removed group_column key is an unknown key in a file and an unknown flag, never ignored."""
        tmp_path, cfg_path = workdir
        argv = ["fit", "--train", str(tmp_path / "train.csv"), "--output-dir", str(tmp_path)]
        if how == "config_file":
            cfg_path.write_text(json.dumps(tiny_cfg(group_column=None)))
            says = "error: unknown config key 'group_column'\n"
        else:
            argv += ["--group-column", "g"]
            says = "error: unrecognized arguments: --group-column g\n"
        capsys.readouterr()
        try:
            code = main([*argv, "--config", str(cfg_path)])
        except SystemExit as exc:  # a usage error
            code = exc.code
        err = capsys.readouterr().err
        assert code == 1 and err.endswith(says) and err.count("error:") == 1 and "Traceback" not in err
        assert not (tmp_path / "bundle.json").exists()


# Every per-key flag: its spelling, one value, the config path it sets and
# the parsed value. Written out by hand so a change to the flag surface fails here.
FLAG_TABLE = [
    ("--method", "erm", "method", "erm"),
    ("--seed", "5", "seed", 5),
    ("--label-column", "y", "label_column", "y"),
    ("--components", "3", "latent.components", 3),
    ("--sigma", "0.25", "latent.sigma", 0.25),
    ("--k", "7", "pseudo.k", 7),
    ("--max-depth", "3", "pseudo.max_depth", 3),
    ("--min-leaf", "4", "pseudo.min_leaf", 4),
    ("--instance-fraction", "0.5", "pseudo.instance_fraction", 0.5),
    ("--feature-fraction", "0.75", "pseudo.feature_fraction", 0.75),
    ("--trees-per-labeler", "3", "pseudo.trees_per_labeler", 3),
    ("--decision-threshold", "0.4", "pseudo.decision_threshold", 0.4),
    ("--hidden", "8,4", "net.hidden", [8, 4]),
    ("--lambda", "0.3", "net.lambda_expand", 0.3),
    ("--batch-size", "32", "net.batch_size", 32),
    ("--iterations", "9", "net.iterations", 9),
    ("--learning-rate", "0.01", "net.learning_rate", 0.01),
    ("--loss-mode", "mean_only", "net.loss_mode", "mean_only"),
    ("--snapshot-interval", "5", "net.snapshot_interval", 5),
    ("--taus", "0.1,0.5", "metrics.taus", [0.1, 0.5]),
    ("--ef-fractions", "0.02", "metrics.ef_fractions", [0.02]),
    ("--trials", "4", "stability.trials", 4),
    ("--subsample-fraction", "0.6", "stability.subsample_fraction", 0.6),
    ("--stability-methods", "erm, pl_ens", "stability.methods", ["erm", "pl_ens"]),
    ("--clusters", "3", "loo.clusters", 3),
    ("--n-id", "50", "synth.n_id", 50),
    ("--n-ood", "20", "synth.n_ood", 20),
    ("--d", "6", "synth.d", 6),
]


def config_at(cfg, path):
    for key in path.split("."):
        cfg = cfg[key]
    return cfg


class TestFlagSurface:
    def test_table_covers_every_flag(self):
        dests = {flag[2:].replace("-", "_") for flag, _, _, _ in FLAG_TABLE} - {"lambda"}
        assert dests | {"lambda_expand"} == set(FLAG_MAP)

    @pytest.mark.parametrize("flag,value,path,want", FLAG_TABLE, ids=[row[0] for row in FLAG_TABLE])
    def test_flag_sets_its_key(self, flag, value, path, want):
        args = build_parser().parse_args(["synth", flag, value])
        cfg = resolve_config(None, args)
        assert config_at(cfg, path) == want
        # Only that key moves.
        top, _, rest = path.partition(".")
        if rest:
            cfg[top][rest] = config_at(DEFAULTS, path)
        else:
            cfg[top] = DEFAULTS[top]
        assert cfg == DEFAULTS

    def test_flags_are_checked_against_the_defaults_not_the_file(self, tmp_path):
        """A file may hold an int for a float key or an empty list; a flag still overrides it."""
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"latent": {"sigma": 1}, "metrics": {"taus": []}, "label_column": "y"}))
        args = build_parser().parse_args(["synth", "--sigma", "0.25", "--taus", "0.5", "--label-column", "z"])
        got = resolve_config(str(cfg), args)
        assert (got["latent"]["sigma"], got["metrics"]["taus"], got["label_column"]) == (0.25, [0.5], "z")

    @pytest.mark.parametrize("argv,want", [([], True), (["--freeze-expansion"], False), (["--redraw-expansion"], True)])
    def test_expansion_pair(self, argv, want):
        cfg = resolve_config(None, build_parser().parse_args(["synth", *argv]))
        assert cfg["net"]["redraw_expansion_each_batch"] is want

    @pytest.mark.parametrize("flag", ["--method", "--loss-mode"])
    def test_bad_choice_exits_one(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", flag, "bogus"])
        assert exc.value.code == 1
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["beta1", "beta2", "eps"])
    def test_adam_constants_are_file_only(self, key, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["synth", f"--{key}", "0.5"])
        assert exc.value.code == 1


class TestNonFiniteConfig:
    """NaN must fail every config check, so it is a config error (exit 1), not a fit that fails or succeeds."""

    @pytest.mark.parametrize("argv", [
        ["--lambda", "nan"],
        ["--sigma", "nan"],
        ["--learning-rate", "nan"],
        ["--decision-threshold", "nan", "--method", "pl_ens"],
        ["--instance-fraction", "nan", "--method", "pl_ens"],
        ["--sigma", "inf"],
        ["--lambda", "inf"],
        ["--learning-rate", "inf"],
        ["--taus", "inf"],
    ])
    def test_nan_flag_exits_one(self, workdir, capsys, argv):
        tmp_path, cfg_path = workdir
        capsys.readouterr()
        code = main(["fit", "--train", str(tmp_path / "train.csv"), "--config", str(cfg_path), "--output-dir", str(tmp_path), *argv])
        err = capsys.readouterr().err
        assert code == 1 and "Traceback" not in err
        assert not (tmp_path / "bundle.json").exists()

    @pytest.mark.parametrize("method,constant", [("explor", "NaN"), ("erm", "NaN"), ("pl_ens", "Infinity"), ("erm", "-Infinity")])
    def test_non_finite_in_config_file_exits_one(self, workdir, capsys, method, constant):
        tmp_path, _ = workdir
        cfg = tmp_path / "nan.json"
        cfg.write_text('{"net": {"lambda_expand": %s}}' % constant)
        capsys.readouterr()
        code = main(["fit", "--train", str(tmp_path / "train.csv"), "--config", str(cfg), "--output-dir", str(tmp_path), "--method", method])
        assert code == 1 and f"non-finite number {constant}" in capsys.readouterr().err
        assert not (tmp_path / "bundle.json").exists()

    def test_deeply_nested_config_file_exits_one(self, workdir, capsys):
        tmp_path, _ = workdir
        cfg = tmp_path / "deep.json"
        cfg.write_text("[" * 100000)
        capsys.readouterr()
        code = main(["fit", "--train", str(tmp_path / "train.csv"), "--config", str(cfg), "--output-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1 and "deep.json: not valid JSON" in err and "Traceback" not in err
        assert not (tmp_path / "bundle.json").exists()

    @pytest.mark.parametrize("literal", ["1e999", "1" + "0" * 400], ids=["1e999", "int_of_401_digits"])
    def test_number_beyond_a_double_in_config_file_exits_one(self, workdir, capsys, literal):
        # json parses 1e999 to inf without the NaN/Infinity tokens; a 401-digit int fits no double.
        tmp_path, _ = workdir
        cfg = tmp_path / "big.json"
        cfg.write_text('{"net": {"lambda_expand": %s}}' % literal)
        capsys.readouterr()
        code = main(["fit", "--train", str(tmp_path / "train.csv"), "--config", str(cfg), "--output-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1 and "config key 'net.lambda_expand'" in err and "Traceback" not in err
        assert not (tmp_path / "bundle.json").exists()


class TestRangesBeforeAnyWork:
    """A value out of its range exits 1 naming its dotted key before any file is read, and writes nothing."""

    @pytest.mark.parametrize("command,argv,key", [
        ("stability", ["--stability-methods", ""], "stability.methods"),
        ("stability", ["--subsample-fraction", "5"], "stability.subsample_fraction"),
        ("stability", ["--subsample-fraction", "0"], "stability.subsample_fraction"),
        ("stability", ["--trials", "1"], "stability.trials"),
        ("loo", ["--clusters", "0"], "loo.clusters"),
        ("fit", ["--clusters", "-1"], "loo.clusters"),
        ("loo", ["--taus", "2"], "metrics.taus"),
        ("loo", ["--ef-fractions", "0"], "metrics.ef_fractions"),
        ("ablate", ["--axis", "loss_mode", "--taus", "0.1,0"], "metrics.taus"),
        ("fit", ["--sigma", "0"], "latent.sigma"),
        ("fit", ["--components", "0"], "latent.components"),
        ("fit", ["--k", "0"], "pseudo.k"),
        ("fit", ["--instance-fraction", "1.5"], "pseudo.instance_fraction"),
        ("fit", ["--batch-size", "0"], "net.batch_size"),
        ("fit", ["--hidden", "8,0"], "net.hidden"),
        ("synth", ["--n-id", "3"], "synth.n_id"),
        ("synth", ["--seed", "-1"], "seed"),
        ("stability", ["--stability-methods", "erm,erm"], "stability.methods"),
        ("loo", ["--taus", "0.1,0.1"], "metrics.taus"),
        ("loo", ["--ef-fractions", "0.05,0.05"], "metrics.ef_fractions"),
    ])
    def test_flag_exits_one_naming_its_key(self, workdir, capsys, command, argv, key):
        tmp_path, cfg_path = workdir
        out = tmp_path / "out"
        data = {
            "stability": ["--train", str(tmp_path / "train.csv"), "--test", str(tmp_path / "ood_test.csv")],
            "loo": ["--data", str(tmp_path / "train.csv")],
            "fit": ["--train", str(tmp_path / "train.csv")],
            "ablate": ["--train", str(tmp_path / "train.csv"), "--test", str(tmp_path / "ood_test.csv")],
            "synth": [],
        }[command]
        capsys.readouterr()
        start = time.perf_counter()
        code = main([command, *data, "--config", str(cfg_path), "--output-dir", str(out), *argv])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == 1 and f"config key {key!r}" in err and "Traceback" not in err
        assert elapsed < 1.0
        assert not out.exists()

    @pytest.mark.parametrize("key,value", [
        ("beta1", 5.0), ("beta1", 1.0), ("beta2", 1.0), ("beta2", -3.0), ("eps", -1.0), ("eps", 0.0),
    ])
    def test_adam_constant_in_config_file_exits_one(self, workdir, capsys, key, value):
        """An Adam constant out of range is a config error, not a fit that diverges or succeeds."""
        tmp_path, _ = workdir
        cfg = tmp_path / "adam.json"
        cfg.write_text(json.dumps(tiny_cfg(net={key: value})))
        out = tmp_path / "out"
        capsys.readouterr()
        start = time.perf_counter()
        code = main(["fit", "--train", str(tmp_path / "train.csv"), "--config", str(cfg), "--output-dir", str(out)])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == 1 and f"config key 'net.{key}'" in err and "Traceback" not in err
        assert elapsed < 1.0
        assert not out.exists()

    def test_every_numeric_key_has_a_range(self):
        """A numeric key cannot ship without a range decision."""
        assert sorted(set(numeric("", DEFAULTS)) - set(_RANGES)) == []

    @pytest.mark.parametrize("key,value", [
        ("stability.methods", ["erm", "erm"]),
        ("metrics.taus", [0.1, 0.1]),
        ("metrics.ef_fractions", [0.05, 0.05]),
    ])
    def test_repeated_list_entry_in_config_file_exits_one(self, workdir, capsys, key, value):
        """A repeated method would be trained twice and reported once, a repeated tau shown twice; both are config errors."""
        tmp_path, _ = workdir
        cfg = tmp_path / "repeated.json"
        cfg.write_text(json.dumps(tiny_cfg(**nested(key, value))))
        out = tmp_path / "out"
        capsys.readouterr()
        code = main(["stability", "--train", str(tmp_path / "train.csv"), "--test", str(tmp_path / "ood_test.csv"), "--config", str(cfg), "--output-dir", str(out)])
        err = capsys.readouterr().err
        assert code == 1 and f"config key {key!r} must be a" in err and "distinct" in err
        assert not out.exists()

    def test_empty_methods_in_config_file_exits_one(self, workdir, capsys):
        tmp_path, _ = workdir
        cfg = tmp_path / "empty.json"
        cfg.write_text(json.dumps(tiny_cfg(stability={"methods": []})))
        out = tmp_path / "out"
        capsys.readouterr()
        code = main(["stability", "--train", str(tmp_path / "train.csv"), "--test", str(tmp_path / "ood_test.csv"), "--config", str(cfg), "--output-dir", str(out)])
        assert code == 1 and "config key 'stability.methods'" in capsys.readouterr().err
        assert not out.exists()


class TestCommandTable:
    def test_parser_and_commands_are_the_table(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == list(COMMANDS)
        assert sorted(name[4:] for name in vars(cli) if name.startswith("cmd_")) == sorted(COMMANDS)

    def test_main_looks_up_the_command_when_it_runs(self, tmp_path, monkeypatch):
        """A function set on the module after import, as a tracer sets one, is what main runs."""
        calls = []
        monkeypatch.setattr(cli, "cmd_synth", lambda cfg, args: calls.append((cfg["seed"], args.output_dir)))
        assert main(["synth", "--seed", "7", "--output-dir", str(tmp_path)]) == 0
        assert calls == [(7, str(tmp_path))]
        assert not (tmp_path / "train.csv").exists()


class TestSynth:
    def test_writes_both_files(self, workdir):
        tmp_path, _ = workdir
        train = load_csv(tmp_path / "train.csv")
        test = load_csv(tmp_path / "ood_test.csv")
        assert train.n == 60 and test.n == 30 and train.d == 3
        # The shift: every test point sits farther out than every train point.
        assert np.linalg.norm(test.features, axis=1).min() >= np.linalg.norm(train.features, axis=1).max()

    def test_invalid_size_exit_code(self, tmp_path):
        assert main(["synth", "--n-id", "3", "--output-dir", str(tmp_path)]) == 1

    @pytest.mark.parametrize("argv", [
        ["synth", "--n-id", "1000000000000000"],
        ["fit", "--method", "erm", "--hidden", "100000000000000000"],
    ], ids=["synth_rows", "fit_width"])
    def test_request_beyond_memory_exits_two(self, workdir, capsys, argv):
        """An array larger than the address space is one error line and exit code 2, not a traceback.

        The first array each command allocates from the request is petabytes
        (the synthetic draw; the first trunk layer), so no memory is touched.
        """
        tmp_path, cfg_path = workdir
        if argv[0] == "fit":
            argv = argv + ["--train", str(tmp_path / "train.csv")]
        capsys.readouterr()
        assert main(argv + ["--config", str(cfg_path), "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: Unable to allocate ") and err.count("\n") == 1

    def test_label_column_named_like_a_feature_exits_one(self, tmp_path, capsys):
        # synth names its features x0..x{d-1}; a file headed x0,x1,x2,x0 could not be fit.
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(tiny_cfg(label_column="x0")))
        out = tmp_path / "out"
        assert main(["synth", "--config", str(cfg_path), "--output-dir", str(out)]) == 1
        assert "'x0' would appear 2 times" in capsys.readouterr().err
        assert list(out.iterdir()) == []


class TestFitPredictEval:
    def run_chain(self, tmp_path, cfg_path, extra_fit=()):
        train = str(tmp_path / "train.csv")
        test = str(tmp_path / "ood_test.csv")
        out = str(tmp_path)
        assert main(["fit", "--train", train, "--config", str(cfg_path), "--output-dir", out, *extra_fit]) == 0
        assert main(["predict", "--bundle", f"{out}/bundle.json", "--data", test, "--config", str(cfg_path), "--output-dir", out]) == 0
        assert main(["eval", "--predictions", f"{out}/predictions.csv", "--data", test, "--config", str(cfg_path), "--output-dir", out]) == 0
        return out

    def test_chain_produces_artifacts(self, workdir):
        tmp_path, cfg_path = workdir
        out = self.run_chain(tmp_path, cfg_path)
        bundle = load_bundle(f"{out}/bundle.json")
        assert bundle.method == "explor" and bundle.ensemble.k == 2

        header, rows = read_rows(f"{out}/trace.csv")
        assert header == ["iteration", "match", "mean", "expand"] and len(rows) == 5

        header, rows = read_rows(f"{out}/predictions.csv")
        assert header == ["index", "score"] and len(rows) == 30
        scores = np.array([float(r[1]) for r in rows])
        assert np.all((scores >= 0) & (scores <= 1))

        report = json.loads((tmp_path / "report.json").read_text())
        assert set(report) >= {"auprc_at", "auprc", "auroc", "ef_at", "counts", "prevalence"}
        header, rows = read_rows(f"{out}/pr_curve.csv")
        assert header == ["recall", "precision"] and len(rows) == 30

    def test_flags_override_config(self, workdir):
        tmp_path, cfg_path = workdir
        out = self.run_chain(tmp_path, cfg_path, extra_fit=("--k", "3", "--method", "pl_ens"))
        bundle = load_bundle(f"{out}/bundle.json")
        assert bundle.method == "pl_ens" and bundle.ensemble.k == 3

    def test_reruns_byte_identical(self, workdir):
        tmp_path, cfg_path = workdir
        for sub in ("a", "b"):
            d = tmp_path / sub
            d.mkdir()
            assert main(["fit", "--train", str(tmp_path / "train.csv"), "--config", str(cfg_path), "--output-dir", str(d)]) == 0
            assert main(["predict", "--bundle", str(d / "bundle.json"), "--data", str(tmp_path / "ood_test.csv"), "--config", str(cfg_path), "--output-dir", str(d)]) == 0
        assert (tmp_path / "a" / "bundle.json").read_bytes() == (tmp_path / "b" / "bundle.json").read_bytes()
        assert (tmp_path / "a" / "predictions.csv").read_bytes() == (tmp_path / "b" / "predictions.csv").read_bytes()

    def test_heads_columns(self, workdir):
        tmp_path, cfg_path = workdir
        out = str(tmp_path)
        assert main(["fit", "--train", str(tmp_path / "train.csv"), "--config", str(cfg_path), "--output-dir", out]) == 0
        assert main(["predict", "--bundle", f"{out}/bundle.json", "--data", str(tmp_path / "ood_test.csv"), "--config", str(cfg_path), "--output-dir", out, "--heads"]) == 0
        header, rows = read_rows(f"{out}/predictions.csv")
        assert header == ["index", "score", "head_0", "head_1"]
        for row in rows:
            probs = [float(v) for v in row[2:]]
            assert all(0.0 <= p <= 1.0 for p in probs)

    def test_custom_taus_reach_report(self, workdir):
        tmp_path, cfg_path = workdir
        out = str(tmp_path)
        self.run_chain(tmp_path, cfg_path)
        assert main([
            "eval", "--predictions", f"{out}/predictions.csv", "--data", str(tmp_path / "ood_test.csv"),
            "--config", str(cfg_path), "--output-dir", out, "--taus", "0.15,0.5",
        ]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert set(report["auprc_at"]) == {"0.15", "0.5"}

    def test_bad_predictions_exit_code(self, workdir):
        tmp_path, cfg_path = workdir
        out = str(tmp_path)
        self.run_chain(tmp_path, cfg_path)
        preds = (tmp_path / "predictions.csv").read_text().splitlines()
        short = tmp_path / "short.csv"
        short.write_text("\n".join(preds[:-1]) + "\n")  # one row missing
        args = ["eval", "--predictions", str(short), "--data", str(tmp_path / "ood_test.csv"), "--config", str(cfg_path), "--output-dir", out]
        assert main(args) == 1
        dupe = tmp_path / "dupe.csv"
        dupe.write_text("\n".join(preds[:-1] + [preds[1]]) + "\n")  # row 0 twice
        args[2] = str(dupe)
        assert main(args) == 1

    @pytest.mark.parametrize("cell,shown", [("nan", "nan"), ("inf", "inf"), ("1e999", "inf")])
    def test_non_finite_score_names_its_line(self, workdir, capsys, cell, shown):
        """A non-finite score exits 1 with the file and line, not as a missing row or a bare error."""
        tmp_path, cfg_path = workdir
        self.run_chain(tmp_path, cfg_path)
        lines = (tmp_path / "predictions.csv").read_text().splitlines()
        lines[7] = f"6,{cell}"
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        args = ["eval", "--predictions", str(bad), "--data", str(tmp_path / "ood_test.csv"), "--config", str(cfg_path), "--output-dir", str(tmp_path)]
        assert main(args) == 1
        assert capsys.readouterr().err == f"error: {bad}: line 8: score {shown} is not finite\n"

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        cells=st.lists(
            st.tuples(
                st.sampled_from(["0", "1", "2", "-1", "+1", " 1", "1_0", "x", "", "3\n\n", "99999999999999999999", '"1"']),
                st.sampled_from(["0.5", "-0.0", "1e-300", "nan", "inf", "1e999", " 0.25 ", "1_5", "x", "", '"0.5"', '"1,5"']),
                st.sampled_from(["", ",0.5", ",1.0,0.0"]),
            ),
            max_size=6,
        ),
        heads=st.sampled_from(["", ",head_0"]),
        newline=st.sampled_from(["\n", "\r\n"]),
        chunk=st.sampled_from([1, 2, 512]),
    )
    def test_chunked_predictions_read_as_the_line_loop(self, tmp_path_factory, cells, heads, newline, chunk):
        """Where the chunk converter returns, the predictions reader gives the per-record loop's scores; else the loop's error."""
        path = tmp_path_factory.mktemp("preds") / "p.csv"
        path.write_bytes((f"index,score{heads}{newline}" + "".join(f"{i},{s}{rest}{newline}" for i, s, rest in cells)).encode())

        def outcome():
            try:
                return _read_predictions(str(path), 3).tobytes()
            except (ConfigError, DatasetError) as exc:
                return str(exc)

        with mock.patch.object(data, "CSV_CHUNK", chunk):
            fast = outcome()
            with mock.patch.object(data, "_convert_chunk", lambda *args: None):
                assert fast == outcome()

    def test_missing_data_file_exit_code(self, workdir):
        tmp_path, cfg_path = workdir
        assert main(["fit", "--train", str(tmp_path / "nothere.csv"), "--config", str(cfg_path), "--output-dir", str(tmp_path)]) == 1

    def test_divergence_exit_code(self, workdir):
        tmp_path, cfg_path = workdir
        args = [
            "fit", "--train", str(tmp_path / "train.csv"), "--config", str(cfg_path),
            "--output-dir", str(tmp_path), "--learning-rate", "1e8", "--iterations", "80",
        ]
        assert main(args) == 2

    def eval_args(self, tmp_path, cfg_path, predictions, data):
        return ["eval", "--predictions", str(predictions), "--data", str(data), "--config", str(cfg_path), "--output-dir", str(tmp_path)]

    @pytest.mark.parametrize("role", ["data", "predictions"])
    def test_oversized_cell_exits_one_naming_its_line(self, workdir, capsys, role):
        """A cell longer than csv's field limit is a data error with its file and line, not a traceback."""
        tmp_path, cfg_path = workdir
        self.run_chain(tmp_path, cfg_path)
        big = tmp_path / "big.csv"
        if role == "data":
            lines = (tmp_path / "train.csv").read_text().splitlines()
            lines[3] = "1" * 200_000 + lines[3][lines[3].index(","):]
            args = ["fit", "--train", str(big), "--config", str(cfg_path), "--output-dir", str(tmp_path)]
        else:
            lines = (tmp_path / "predictions.csv").read_text().splitlines()
            lines[3] = "2," + "5" * 200_000
            args = self.eval_args(tmp_path, cfg_path, big, tmp_path / "ood_test.csv")
        big.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(args) == 1
        assert capsys.readouterr().err == f"error: {big}: line 4: field larger than field limit (131072)\n"

    def test_eval_reads_only_the_labels(self, workdir, capsys):
        """A feature cell that is not a number does not stop eval; a bad label or a short row still does."""
        tmp_path, cfg_path = workdir
        self.run_chain(tmp_path, cfg_path)
        report, curve = (tmp_path / "report.json").read_bytes(), (tmp_path / "pr_curve.csv").read_bytes()
        lines = (tmp_path / "ood_test.csv").read_text().splitlines()
        cells = lines[4].split(",")
        cells[0] = "oops"
        lines[4] = ",".join(cells)
        odd = tmp_path / "odd.csv"
        odd.write_text("\n".join(lines) + "\n")
        out = tmp_path / "odd_out"
        args = self.eval_args(out, cfg_path, tmp_path / "predictions.csv", odd)
        assert main(args) == 0
        assert (out / "report.json").read_bytes() == report and (out / "pr_curve.csv").read_bytes() == curve
        for bad, err in ((cells[:-1] + ["7"], "line 5, column 'label': label '7' not in 0/1/true/false"),
                         (cells[:-1], "line 5 has 3 fields, expected 4")):
            lines[4] = ",".join(bad)
            odd.write_text("\n".join(lines) + "\n")
            capsys.readouterr()
            assert main(args) == 1
            assert capsys.readouterr().err == f"error: {odd}: {err}\n"

    @pytest.mark.parametrize("row,err", [
        ("0,0.5,0.5", "line 2 has 3 fields, expected 2"),
        ("0,x", "line 2, column 'score': not a number: 'x'"),
        ("y,0.5", "line 2, column 'index': not a 64-bit integer: 'y'"),
    ], ids=["extra_field", "bad_score", "bad_index"])
    def test_bad_predictions_row_names_its_line_and_column(self, workdir, capsys, row, err):
        """A predictions row has the header's field count, and a bad cell names its line and column."""
        tmp_path, cfg_path = workdir
        self.run_chain(tmp_path, cfg_path)
        preds = (tmp_path / "predictions.csv").read_text().splitlines()
        preds[1] = row
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(preds) + "\n")
        capsys.readouterr()
        assert main(self.eval_args(tmp_path, cfg_path, bad, tmp_path / "ood_test.csv")) == 1
        assert capsys.readouterr().err == f"error: {bad}: {err}\n"

    @pytest.mark.parametrize("command", ["fit", "predict", "eval"])
    def test_undecodable_data_byte_names_the_file(self, workdir, capsys, command):
        """A byte that is not UTF-8 in a data file exits 1 naming the file and the byte's offset."""
        tmp_path, cfg_path = workdir
        out = self.run_chain(tmp_path, cfg_path)
        raw = bytearray((tmp_path / "ood_test.csv").read_bytes())
        raw[185] = 0xFF
        bad = tmp_path / "bad.csv"
        bad.write_bytes(bytes(raw))
        args = {
            "fit": ["fit", "--train", str(bad)],
            "predict": ["predict", "--bundle", f"{out}/bundle.json", "--data", str(bad)],
            "eval": ["eval", "--predictions", f"{out}/predictions.csv", "--data", str(bad)],
        }[command]
        capsys.readouterr()
        assert main([*args, "--config", str(cfg_path), "--output-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {bad}: byte 185 is not utf-8 text (invalid start byte)\n"

    def test_undecodable_config_byte_names_the_file(self, workdir, capsys):
        tmp_path, cfg_path = workdir
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"seed": 1, "method": "\xffrm"}')
        capsys.readouterr()
        assert main(["fit", "--train", str(tmp_path / "train.csv"), "--config", str(bad), "--output-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {bad}: byte 23 is not utf-8 text (invalid start byte)\n"

    @pytest.mark.parametrize("extra", [("--method", "pl_ens"), ("--iterations", "0")], ids=["pl_ens", "no_iterations"])
    def test_fit_prints_no_losses_it_never_computed(self, workdir, capsys, extra):
        """With no training iteration the fit line has no loss part, and trace.csv is its header alone."""
        tmp_path, cfg_path = workdir
        capsys.readouterr()
        assert main(["fit", "--train", str(tmp_path / "train.csv"), "--config", str(cfg_path), "--output-dir", str(tmp_path), *extra]) == 0
        method = extra[1] if extra[0] == "--method" else "explor"
        assert capsys.readouterr().out == f"fit {method} on 60 rows (latent 3)\n"
        assert (tmp_path / "trace.csv").read_text() == "iteration,match,mean,expand\n"

    def test_fit_prints_its_final_losses(self, workdir, capsys):
        tmp_path, cfg_path = workdir
        capsys.readouterr()
        assert main(["fit", "--train", str(tmp_path / "train.csv"), "--config", str(cfg_path), "--output-dir", str(tmp_path)]) == 0
        match, mean, expand = load_bundle(tmp_path / "bundle.json").trace[-1]
        want = f"fit explor on 60 rows (latent 3); final losses match={match:.6f} mean={mean:.6f} expand={expand:.6f}\n"
        assert capsys.readouterr().out == want

    def test_quoted_predictions_read_as_plain(self, workdir):
        """Quoted cells and CRLF line ends in a predictions file give the same report as the plain file."""
        tmp_path, cfg_path = workdir
        self.run_chain(tmp_path, cfg_path)
        report = (tmp_path / "report.json").read_bytes()
        preds = (tmp_path / "predictions.csv").read_text().splitlines()
        quoted = tmp_path / "quoted.csv"
        quoted.write_text("\r\n".join([preds[0]] + ['"' + line.replace(",", '","') + '"' for line in preds[1:]]) + "\r\n")
        out = tmp_path / "out"
        assert main(self.eval_args(out, cfg_path, quoted, tmp_path / "ood_test.csv")) == 0
        assert (out / "report.json").read_bytes() == report


def strip_column(src, dst, name):
    header, rows = read_rows(src)
    keep = [i for i, h in enumerate(header) if h != name]
    with open(dst, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([header[i] for i in keep])
        writer.writerows([[r[i] for i in keep] for r in rows])


class TestUnlabelledScoring:
    @pytest.mark.parametrize("heads", [(), ("--heads",)])
    def test_same_predictions_without_label_column(self, workdir, heads):
        tmp_path, cfg_path = workdir
        base = ["--config", str(cfg_path), "--output-dir"]
        assert main(["fit", "--train", str(tmp_path / "train.csv"), *base, str(tmp_path)]) == 0
        strip_column(tmp_path / "ood_test.csv", tmp_path / "unlabelled.csv", "label")
        out = {}
        for name in ("ood_test", "unlabelled"):
            d = tmp_path / name
            argv = ["predict", "--bundle", str(tmp_path / "bundle.json"), "--data", str(tmp_path / f"{name}.csv")]
            assert main([*argv, *heads, *base, str(d)]) == 0
            out[name] = (d / "predictions.csv").read_bytes()
        assert out["ood_test"] == out["unlabelled"]

    def test_label_still_required_to_fit_eval_and_loo(self, workdir, capsys):
        tmp_path, cfg_path = workdir
        strip_column(tmp_path / "train.csv", tmp_path / "unlabelled.csv", "label")
        data = str(tmp_path / "unlabelled.csv")
        base = ["--config", str(cfg_path), "--output-dir", str(tmp_path)]
        assert main(["fit", "--train", data, *base]) == 1
        assert main(["fit", "--train", str(tmp_path / "train.csv"), *base]) == 0
        assert main(["predict", "--bundle", str(tmp_path / "bundle.json"), "--data", data, *base]) == 0
        assert main(["eval", "--predictions", str(tmp_path / "predictions.csv"), "--data", data, *base]) == 1
        assert main(["loo", "--data", data, "--method", "pl_ens", *base]) == 1
        assert capsys.readouterr().err.count("label column 'label' not in header") == 3

    def test_bad_label_in_present_column_still_rejected(self, workdir):
        tmp_path, cfg_path = workdir
        base = ["--config", str(cfg_path), "--output-dir", str(tmp_path)]
        assert main(["fit", "--train", str(tmp_path / "train.csv"), *base]) == 0
        lines = (tmp_path / "ood_test.csv").read_text().splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0] + ",maybe"
        (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n")
        assert main(["predict", "--bundle", str(tmp_path / "bundle.json"), "--data", str(tmp_path / "bad.csv"), *base]) == 1


class TestMalformedBundle:
    def fitted(self, workdir, *fit_args):
        tmp_path, cfg_path = workdir
        base = ["--config", str(cfg_path), "--output-dir", str(tmp_path)]
        assert main(["fit", "--train", str(tmp_path / "train.csv"), *base, *fit_args]) == 0
        return tmp_path, base, json.loads((tmp_path / "bundle.json").read_text())

    @pytest.mark.parametrize("breakage", [
        "no_latent_map", "no_trunk_w", "no_params", "not_an_object", "no_net", "tree_child_out_of_range",
        "labeler_threshold_differs", "latent_mean_too_short", "latent_component_nan", "latent_variance_too_short",
        # An integer field holding a float or a bool, which was truncated or raised a TypeError.
        "config_k_float", "config_trees_per_labeler_bool", "config_min_leaf_float", "net_heads_float",
        "net_hidden_float", "net_input_dim_float", "net_param_shape_float", "net_config_batch_size_float",
        "tree_feature_float", "tree_left_bool", "tree_root_links_share_a_child",
    ])
    def test_predict_exits_one_without_traceback(self, workdir, capsys, breakage):
        tmp_path, base, doc = self.fitted(workdir)
        config, net = doc["ensemble"]["config"], doc["net"]
        tree = next(t for lab in doc["ensemble"]["labelers"] for t in lab["trees"] if t["feature"][0] >= 0)
        if breakage == "no_latent_map":
            del doc["latent_map"]
        elif breakage == "no_trunk_w":
            del doc["net"]["params"]["trunk.0.w"]
        elif breakage == "no_params":
            del doc["net"]["params"]
        elif breakage == "not_an_object":
            doc = [doc]
        elif breakage == "tree_child_out_of_range":
            tree["left"][0] = -1
        elif breakage == "labeler_threshold_differs":
            doc["ensemble"]["labelers"][0]["decision_threshold"] = 0.9
        elif breakage == "latent_mean_too_short":
            # One mean would broadcast over every column and score silently wrong.
            doc["latent_map"]["mean"] = [0.5]
        elif breakage == "latent_component_nan":
            doc["latent_map"]["components"][0][0] = float("nan")
        elif breakage == "latent_variance_too_short":
            doc["latent_map"]["explained_variance"] = doc["latent_map"]["explained_variance"][:1]
        elif breakage == "config_k_float":
            config["k"] = float(config["k"])
        elif breakage == "config_trees_per_labeler_bool":
            config["trees_per_labeler"] = True
        elif breakage == "config_min_leaf_float":
            config["min_leaf"] = 2.5
        elif breakage == "net_heads_float":
            net["heads"] += 0.5
        elif breakage == "net_hidden_float":
            net["hidden"] = [h + 0.9 for h in net["hidden"]]
        elif breakage == "net_input_dim_float":
            net["input_dim"] = float(net["input_dim"])
        elif breakage == "net_param_shape_float":
            net["params"]["heads.w"]["shape"] = [float(s) for s in net["params"]["heads.w"]["shape"]]
        elif breakage == "net_config_batch_size_float":
            doc["net_config"]["batch_size"] = 16.0
        elif breakage == "tree_feature_float":
            tree["feature"][0] += 0.7
        elif breakage == "tree_left_bool":
            # A preorder root's left child is node 1, which True would pass for.
            assert tree["left"][0] == 1
            tree["left"][0] = True
        elif breakage == "tree_root_links_share_a_child":
            tree["right"][0] = tree["left"][0]
        else:
            doc["net"] = None
        (tmp_path / "broken.json").write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["predict", "--bundle", str(tmp_path / "broken.json"), "--data", str(tmp_path / "ood_test.csv"), *base])
        err = capsys.readouterr().err
        assert code == 1
        assert "malformed bundle" in err and "Traceback" not in err

    def test_deeply_nested_bundle_exits_one(self, workdir, capsys):
        tmp_path, cfg_path = workdir
        (tmp_path / "deep.json").write_text("[" * 100000)
        capsys.readouterr()
        code = main(["predict", "--bundle", str(tmp_path / "deep.json"), "--data", str(tmp_path / "ood_test.csv"),
                     "--config", str(cfg_path), "--output-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "deep.json: malformed bundle" in err and "Traceback" not in err

    @pytest.mark.parametrize("method", ["explor", "pl_ens"])
    def test_latent_map_narrower_than_its_parts_exits_one(self, workdir, capsys, method):
        """A latent map cut below the net's input_dim, or below a tree's split feature, is a malformed bundle."""
        tmp_path, base, doc = self.fitted(workdir, "--method", method)
        features = [f for lab in doc["ensemble"]["labelers"] for t in lab["trees"] for f in t["feature"]]
        width = 2 if method == "explor" else max(features)
        assert width >= 1
        lm = doc["latent_map"]
        lm["components"], lm["explained_variance"] = lm["components"][:width], lm["explained_variance"][:width]
        (tmp_path / "broken.json").write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["predict", "--bundle", str(tmp_path / "broken.json"), "--data", str(tmp_path / "ood_test.csv"), *base])
        err = capsys.readouterr().err
        assert code == 1
        assert "broken.json: malformed bundle" in err and "latent width" in err and "Traceback" not in err

    @pytest.mark.parametrize("key,value", [
        # Every threshold true, so the labelers agree with the config and only the kind rule can object.
        ("decision_threshold", True),
        ("sigma", True), ("sigma", "abc"), ("sigma", -4.0),
        ("trace", "xyz"), ("trace", [[1]]), ("trace", [["a", "b", "c"]]),
    ])
    def test_pl_ens_field_of_wrong_kind_exits_one(self, workdir, capsys, key, value):
        tmp_path, base, doc = self.fitted(workdir, "--method", "pl_ens")
        if key == "decision_threshold":
            doc["ensemble"]["config"][key] = value
            for lab in doc["ensemble"]["labelers"]:
                lab[key] = value
        else:
            doc[key] = value
        (tmp_path / "broken.json").write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["predict", "--bundle", str(tmp_path / "broken.json"), "--data", str(tmp_path / "ood_test.csv"), *base])
        err = capsys.readouterr().err
        assert code == 1
        assert "malformed bundle" in err and key in err and "Traceback" not in err

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_tree_threshold_exits_one(self, workdir, capsys, literal):
        """fit_tree never writes a non-finite threshold; one in a bundle would route rows silently."""
        tmp_path, base, doc = self.fitted(workdir, "--method", "pl_ens")
        doc["ensemble"]["labelers"][0]["trees"][0]["threshold"][0] = "@"
        (tmp_path / "broken.json").write_text(json.dumps(doc).replace('"@"', literal))
        capsys.readouterr()
        code = main(["predict", "--bundle", str(tmp_path / "broken.json"), "--data", str(tmp_path / "ood_test.csv"), *base])
        err = capsys.readouterr().err
        assert code == 1
        assert "malformed bundle: tree thresholds must be finite" in err and "Traceback" not in err


class TestStability:
    def make_sets(self, seed=0):
        return make_synthetic_radial(60, 20, 3, seed=seed)

    def base_cfg(self):
        return load_config(None) | {}

    def merged(self, methods, trials=2, fraction=0.8):
        stability = {"methods": methods, "trials": trials, "subsample_fraction": fraction}
        return _merge_config(DEFAULTS, tiny_cfg(stability=stability))

    def test_forced_identical_seeds_give_zero_variance(self):
        train_ds, test_ds = self.make_sets()
        cfg = self.merged(["explor"], trials=3)
        out = run_stability(train_ds, test_ds, cfg, subsample_seeds=[11, 11, 11], train_seeds=[7, 7, 7])
        matrix = out["methods"]["explor"]["matrix"]
        assert np.array_equal(matrix[0], matrix[1]) and np.array_equal(matrix[0], matrix[2])
        # Identical rows leave only the rounding of the column mean, whose
        # square is below 1e-30 for scores in [0, 1].
        assert out["methods"]["explor"]["mean_variance"] < 1e-30

    def test_default_seeds_vary_per_trial(self):
        train_ds, test_ds = self.make_sets(seed=1)
        out = run_stability(train_ds, test_ds, self.merged(["pl_ens"], trials=3, fraction=0.7))
        matrix = out["methods"]["pl_ens"]["matrix"]
        assert matrix.shape == (3, test_ds.n)
        assert not (np.array_equal(matrix[0], matrix[1]) and np.array_equal(matrix[1], matrix[2]))

    def test_subsample_draws_shared_across_methods(self):
        """Adding a method must not change another method's trials."""
        train_ds, test_ds = self.make_sets(seed=2)
        solo = run_stability(train_ds, test_ds, self.merged(["pl_ens"]))
        both = run_stability(train_ds, test_ds, self.merged(["erm", "pl_ens"]))
        assert np.array_equal(solo["methods"]["pl_ens"]["matrix"], both["methods"]["pl_ens"]["matrix"])

    def test_trial_keeps_the_decimal_fraction_of_rows(self):
        """At subsample_fraction 0.07 a trial trains on 7 of 100 rows, though 0.07 * 100 rounds up to 8 in doubles."""
        train_ds, test_ds = make_synthetic_radial(100, 20, 3, seed=4)
        with mock.patch("explor.cli._train_bundle", wraps=cli._train_bundle) as fit:
            run_stability(train_ds, test_ds, self.merged(["erm"], trials=2, fraction=0.07))
        assert [call.args[1].n for call in fit.call_args_list] == [7, 7]

    @pytest.mark.parametrize("bad", [-1, 2**64, 2.5, True])
    @pytest.mark.parametrize("where", ["seed", "subsample_seeds", "train_seeds"])
    def test_seed_outside_the_seed_range_rejected(self, where, bad):
        """Seeds are not reduced mod 2^64: -1 would train as 2^64 - 1."""
        train_ds, test_ds = self.make_sets(seed=5)
        cfg = self.merged(["pl_ens"])
        seeds = {}
        if where == "seed":
            cfg["seed"] = bad
        else:
            seeds[where] = [3, bad]
        with pytest.raises(ValueError, match=f"^(config key 'seed'|{where}) must be "):
            run_stability(train_ds, test_ds, cfg, **seeds)

    def test_a_seed_list_needs_one_seed_per_trial(self):
        train_ds, test_ds = self.make_sets(seed=5)
        with pytest.raises(ValueError, match="^train_seeds must be a list of 2 seeds"):
            run_stability(train_ds, test_ds, self.merged(["pl_ens"]), train_seeds=[1, 2, 3])

    def test_too_few_trials_rejected(self):
        train_ds, test_ds = self.make_sets(seed=3)
        with pytest.raises(ConfigError, match="trials"):
            run_stability(train_ds, test_ds, self.merged(["pl_ens"], trials=1))

    def test_repeated_method_rejected(self):
        """The library entry point refuses a method listed twice, as the command line does."""
        train_ds, test_ds = self.make_sets(seed=3)
        with pytest.raises(ConfigError, match="stability.methods"):
            run_stability(train_ds, test_ds, self.merged(["pl_ens", "pl_ens"]))

    def test_command_artifacts(self, workdir):
        tmp_path, cfg_path = workdir
        out = str(tmp_path)
        args = [
            "stability", "--train", str(tmp_path / "train.csv"), "--test", str(tmp_path / "ood_test.csv"),
            "--config", str(cfg_path), "--output-dir", out,
            "--trials", "2", "--stability-methods", "pl_ens,erm",
        ]
        assert main(args) == 0
        doc = json.loads((tmp_path / "stability.json").read_text())
        assert doc["trials"] == 2 and set(doc["methods"]) == {"pl_ens", "erm"}
        for method in ("pl_ens", "erm"):
            assert len(doc["methods"][method]["top"]) == 3
            header, rows = read_rows(f"{out}/stability_scores_{method}.csv")
            assert len(rows) == 2 and len(header) == 1 + 30


class TestLoo:
    def test_folds_partition_and_summary(self, workdir):
        tmp_path, cfg_path = workdir
        out = str(tmp_path)
        args = [
            "loo", "--data", str(tmp_path / "train.csv"), "--config", str(cfg_path),
            "--output-dir", out, "--clusters", "3", "--method", "pl_ens",
        ]
        assert main(args) == 0
        doc = json.loads((tmp_path / "loo.json").read_text())
        assert doc["clusters"] == 3 and len(doc["folds"]) == 3
        assert sum(f["test_size"] for f in doc["folds"]) == 60
        assert set(doc["summary"]) >= {"auprc_at", "auprc", "auroc", "counts"}
        assert doc["summary"]["counts"]["n"] == 60

        header, rows = read_rows(f"{out}/folds.csv")
        assert header == ["index", "fold", "role"] and len(rows) == 60 * 3
        test_of = {}
        for idx, fold, role in rows:
            if role == "test":
                test_of.setdefault(fold, set()).add(int(idx))
        sizes = {fold: len(v) for fold, v in test_of.items()}
        assert sum(sizes.values()) == 60  # each row is test in exactly one fold
        assert set().union(*test_of.values()) == set(range(60))

    def test_too_few_positives_exit_code(self, tmp_path):
        X = np.random.default_rng(0).standard_normal((30, 3))
        y = np.zeros(30, dtype=int)
        y[:2] = 1
        save_csv(Dataset(X, y), tmp_path / "data.csv")
        assert main(["loo", "--data", str(tmp_path / "data.csv"), "--clusters", "5", "--method", "pl_ens", "--k", "2", "--output-dir", str(tmp_path)]) == 1


class TestAblate:
    def run_axis(self, workdir, axis):
        tmp_path, cfg_path = workdir
        out = str(tmp_path)
        args = [
            "ablate", "--train", str(tmp_path / "train.csv"), "--test", str(tmp_path / "ood_test.csv"),
            "--axis", axis, "--config", str(cfg_path), "--output-dir", out,
        ]
        assert main(args) == 0
        return read_rows(f"{out}/ablation.csv")

    def test_loss_mode_axis(self, workdir):
        header, rows = self.run_axis(workdir, "loss_mode")
        assert header == ["variant", "auprc@0.1", "auprc@0.2", "auprc@0.3", "auprc", "auroc"]
        assert [r[0] for r in rows] == ["full", "match_only", "mean_only", "single_head"]
        for row in rows:
            for v in row[1:]:
                assert 0.0 <= float(v) <= 1.0

    def test_pl_family_axis(self, workdir):
        _, rows = self.run_axis(workdir, "pl_family")
        assert [r[0] for r in rows] == ["explor_tree", "pl_ens_tree", "explor_forest", "pl_ens_forest"]

    def test_bottleneck_axis(self, workdir):
        _, rows = self.run_axis(workdir, "bottleneck")
        assert [r[0] for r in rows] == ["full", "tiny"]

    def test_unknown_axis_is_usage_error(self, workdir):
        tmp_path, cfg_path = workdir
        with pytest.raises(SystemExit) as exc:
            main(["ablate", "--train", "x", "--test", "y", "--axis", "nope"])
        assert exc.value.code == 1

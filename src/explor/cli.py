"""Command line runner: synth, fit, predict, eval, stability, loo, ablate.

Configuration is one JSON document; every flag mirrors a config key and
flags win. All artifacts are deterministic functions of the config, so
re-running a command with the same config reproduces every output file
byte for byte. Exit codes: 0 success, 1 usage or config error, 2 runtime
or numerical failure.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import os
import sys
from dataclasses import fields

import numpy as np

from . import metrics as me
from .data import FRACTION, Dataset, DatasetError, _read_csv, draw, fraction_count, load_csv, load_features, make_synthetic_radial, open_text, read_header, read_records, same_kind, save_csv, write_csv
from .latent import fit_pca
from .model import (
    LOSS_MODES,
    METHOD_PARTS,
    NetConfig,
    TrainedBundle,
    TrainingDivergence,
    load_bundle,
    predict,
    save_bundle,
    score,
    train,
    train_erm,
    train_pl_ens,
    write_json,
)
from .pseudolabel import PseudoLabelConfig
from .seeding import derive_seed, generator
from .splits import FoldResult, cluster_split, leave_one_out_folds, weighted_summary


class ConfigError(ValueError):
    """Bad configuration file or flag combination."""


METHODS = tuple(METHOD_PARTS)
ABLATE_AXES = ("loss_mode", "pl_family", "bottleneck")


def _config_defaults(cls) -> dict:
    """A config dataclass's defaults as JSON values: every field but ``seed``, tuples as lists."""
    return {
        f.name: list(f.default) if isinstance(f.default, tuple) else f.default
        for f in fields(cls)
        if f.name != "seed"
    }


DEFAULTS = {
    "method": "explor",
    "seed": 0,
    "label_column": "label",
    "latent": {"components": None, "sigma": 0.5},
    "pseudo": _config_defaults(PseudoLabelConfig),
    "net": _config_defaults(NetConfig),
    "metrics": {"taus": [0.1, 0.2, 0.3], "ef_fractions": [0.01, 0.05, 0.1]},
    "stability": {"trials": 10, "subsample_fraction": 0.8, "methods": ["explor", "erm"]},
    "loo": {"clusters": 5},
    "synth": {"n_id": 2000, "n_ood": 2000, "d": 8},
}


# The range of every key: (test, wording). The ``pseudo`` and ``net`` ranges
# are the config dataclasses' own declarations.
_RANGES = {
    "method": (lambda v: v in METHODS, f"one of {METHODS}"),
    "latent.components": (lambda v: v is None or v >= 1, "null or >= 1"),
    "latent.sigma": (lambda v: v > 0, "> 0"),
    **{
        f"{section}.{f.name}": f.metadata["range"]
        for section, cls in (("pseudo", PseudoLabelConfig), ("net", NetConfig))
        for f in fields(cls)
        if "range" in f.metadata
    },
    "metrics.taus": (lambda v: all(0.0 < t <= 1.0 for t in v), "a list of values in (0, 1]"),
    "metrics.ef_fractions": (lambda v: all(0.0 < t <= 1.0 for t in v), "a list of values in (0, 1]"),
    "stability.trials": (lambda v: v >= 2, ">= 2"),
    "stability.subsample_fraction": FRACTION,
    "stability.methods": (lambda v: len(v) >= 1 and all(m in METHODS for m in v), f"a nonempty list of methods from {METHODS}"),
    "loo.clusters": (lambda v: v >= 1, ">= 1"),
    "synth.n_id": (lambda v: v >= 10, ">= 10"),
    "synth.n_ood": (lambda v: v >= 10, ">= 10"),
    "synth.d": (lambda v: v >= 2, ">= 2"),
}


# For each key whose default is null, a value of the kind it may take instead.
_NULL_KINDS = {"latent.components": 0}


def _merge_config(base: dict, override: dict, path: str = "", schema: dict = DEFAULTS) -> dict:
    """``base`` with ``override``'s keys, each checked against its default in ``schema``."""
    out = copy.deepcopy(base)
    for key, val in override.items():
        where = f"{path}.{key}" if path else key
        if key not in schema:
            raise ConfigError(f"unknown config key {where!r}")
        default = schema[key]
        if isinstance(default, dict):
            if not isinstance(val, dict):
                raise ConfigError(f"config key {where!r} must be an object")
            out[key] = _merge_config(base[key], val, where, default)
        elif default is None and not (val is None or same_kind(_NULL_KINDS[where], val)):
            raise ConfigError(f"config key {where!r} must be null or of type {type(_NULL_KINDS[where]).__name__}, got {val!r}")
        elif default is not None and not same_kind(default, val):
            raise ConfigError(f"config key {where!r} must be of the same type as its default {default!r}, got {val!r}")
        else:
            out[key] = val
    return out


def load_config(path: str | None) -> dict:
    """DEFAULTS overlaid with the JSON file at ``path`` (if any)."""
    if path is None:
        return copy.deepcopy(DEFAULTS)

    def reject(name):
        raise ConfigError(f"{path}: non-finite number {name} is not allowed")

    try:
        with open_text(path, ConfigError) as fh:
            doc = json.load(fh, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from None
    except RecursionError:
        raise ConfigError(f"{path}: not valid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return _merge_config(DEFAULTS, doc)


# Dataclass-backed keys with no flag of their own: the Adam constants are set
# in the config file, and the expansion switch is the --redraw/--freeze pair.
_NO_FLAG = ("beta1", "beta2", "eps", "redraw_expansion_each_batch")


def _list_parser(kind):
    def parse(text):
        return [kind(x.strip()) for x in text.split(",") if x.strip() != ""]

    parse.__name__ = f"comma-separated {kind.__name__}"
    return parse


def _flag_map(section: dict, path: str = "") -> dict:
    """flag dest -> (dotted config key, value parser) for every key under ``section`` that has a flag.

    The dest is the key itself, and the parser follows the default's type (a
    null default's from ``_NULL_KINDS``); list items are comma separated.
    """
    out = {}
    for key, default in section.items():
        where = f"{path}.{key}" if path else key
        if isinstance(default, dict):
            out.update(_flag_map(default, where))
        elif key not in _NO_FLAG:
            kind = _NULL_KINDS[where] if default is None else default
            parse = _list_parser(type(kind[0])) if isinstance(kind, list) else type(kind)
            out["stability_methods" if where == "stability.methods" else key] = (where, parse)
    return out


FLAG_MAP = _flag_map(DEFAULTS)


def _flag_overrides(args: argparse.Namespace) -> dict:
    """The config document spelled by the flags given on the command line."""
    doc = {}
    for dest, (where, _) in FLAG_MAP.items():
        val = getattr(args, dest, None)
        if val is not None:
            section, _, key = where.rpartition(".")
            (doc.setdefault(section, {}) if section else doc)[key] = val
    if getattr(args, "redraw_expansion", None) is not None:
        doc.setdefault("net", {})["redraw_expansion_each_batch"] = args.redraw_expansion
    return doc


def _check_range(cfg: dict, where: str) -> None:
    """Check the value at dotted key ``where`` of ``cfg`` against its ``_RANGES`` entry."""
    ok, wording = _RANGES[where]
    section, _, key = where.rpartition(".")
    val = (cfg[section] if section else cfg)[key]
    if not ok(val):
        raise ConfigError(f"config key {where!r} must be {wording}, got {val!r}")


def resolve_config(config_path, args) -> dict:
    """DEFAULTS overlaid with the config file, then with the flags; every value is checked alike.

    This runs before any data file is read, so a bad value costs no work:
    ``_merge_config`` checks each value's kind and ``_RANGES`` its range.
    """
    cfg = _merge_config(load_config(config_path), _flag_overrides(args))
    for where in _RANGES:
        _check_range(cfg, where)
    return cfg


def _load_dataset(cfg: dict, path: str) -> Dataset:
    return load_csv(path, label_column=cfg["label_column"])


def _train_bundle(cfg: dict, ds: Dataset, base_seed: int | None = None) -> TrainedBundle:
    """Train cfg['method'] on ds with streams derived from the base seed."""
    seed = cfg["seed"] if base_seed is None else base_seed
    pl_cfg = PseudoLabelConfig(**cfg["pseudo"], seed=derive_seed(seed, "ensemble"))
    net_cfg = NetConfig(**cfg["net"], seed=derive_seed(seed, "net"))
    comps = cfg["latent"]["components"]
    method = cfg["method"]
    if method == "explor":
        return train(ds, net_cfg, pl_cfg, n_components=comps, sigma=cfg["latent"]["sigma"])
    if method == "erm":
        return train_erm(ds, net_cfg, heads=pl_cfg.k, n_components=comps)
    return train_pl_ens(ds, pl_cfg, n_components=comps)


def cmd_synth(cfg: dict, out_dir: str) -> dict:
    s = cfg["synth"]
    train_ds, ood_ds = make_synthetic_radial(s["n_id"], s["n_ood"], s["d"], cfg["seed"])
    paths = {"train": f"{out_dir}/train.csv", "ood_test": f"{out_dir}/ood_test.csv"}
    save_csv(train_ds, paths["train"], label_column=cfg["label_column"])
    save_csv(ood_ds, paths["ood_test"], label_column=cfg["label_column"])
    print(f"wrote {paths['train']} ({train_ds.n} rows) and {paths['ood_test']} ({ood_ds.n} rows)")
    return paths


def cmd_fit(cfg: dict, train_path: str, out_dir: str) -> dict:
    ds = _load_dataset(cfg, train_path)
    bundle = _train_bundle(cfg, ds)
    paths = {"bundle": f"{out_dir}/bundle.json", "trace": f"{out_dir}/trace.csv"}
    save_bundle(bundle, paths["bundle"])
    trace = np.array(bundle.trace, dtype=np.float64).reshape(-1, 3)
    write_csv(paths["trace"], ["iteration", "match", "mean", "expand"], [np.arange(len(trace)), trace])
    losses = "; final losses match={:.6f} mean={:.6f} expand={:.6f}".format(*bundle.trace[-1]) if bundle.trace else ""
    print(f"fit {cfg['method']} on {ds.n} rows (latent {bundle.latent_map.s}){losses}")
    return paths


def cmd_predict(cfg: dict, bundle_path: str, data_path: str, out_dir: str, include_heads: bool = False) -> dict:
    bundle = load_bundle(bundle_path)
    # Scoring needs no labels: the label column is dropped if present.
    X = load_features(data_path, label_column=cfg["label_column"])
    if include_heads:
        scores, heads = score(bundle, X)
        heads = heads.astype(np.float64, copy=False)  # a bundle with no net writes its 0/1 votes as floats too
    else:
        scores, heads = predict(bundle, X), np.empty((len(X), 0))  # no (N, K) columns held
    header = ["index", "score"] + [f"head_{j}" for j in range(heads.shape[1])]
    paths = {"predictions": f"{out_dir}/predictions.csv"}
    write_csv(paths["predictions"], header, [np.arange(len(X)), scores, heads])
    print(f"wrote {paths['predictions']} ({len(X)} rows)")
    return paths


def _read_predictions(path: str, n: int) -> np.ndarray:
    """The n finite scores of a predictions file, one for each dataset row.

    After the header check the file is read by the dataset reader
    (:func:`data.read_records`), with the index as its integer column and the
    score as the one feature, so a bad cell names its line and column. An
    index out of range or a score that is not finite then names its line.
    """
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        header = read_header(path, reader) or []
        if header[:2] != ["index", "score"]:
            raise ConfigError(f"{path}: expected header starting with index,score")
        vals, _, idx, lines = read_records(path, reader, header, [1], index_idx=0)
    vals = vals[:, 0]
    bad = (idx < 0) | (idx >= n) | ~np.isfinite(vals)
    if bad.any():
        r = int(np.argmax(bad))
        if not 0 <= idx[r] < n:
            raise ConfigError(f"{path}: line {lines[r]}: index {idx[r]} out of range for {n} rows")
        raise ConfigError(f"{path}: line {lines[r]}: score {float(vals[r])!r} is not finite")
    scores = np.full(n, np.nan)
    scores[idx] = vals
    if len(idx) != n or np.isnan(scores).any():
        raise ConfigError(f"{path}: expected exactly one score per dataset row (0..{n - 1})")
    return scores


def cmd_eval(cfg: dict, predictions_path: str, data_path: str, out_dir: str, write_pr: bool = True) -> dict:
    # Ranking needs only the labels, so no feature cell is parsed.
    _, labels, _ = _read_csv(data_path, cfg["label_column"], label_required=True, features=False)
    scores = _read_predictions(predictions_path, len(labels))
    scored = me.ScoredSet(scores, labels)
    report = me.evaluate(scored, taus=cfg["metrics"]["taus"], ef_fractions=cfg["metrics"]["ef_fractions"])
    paths = {"report": f"{out_dir}/report.json"}
    write_json(paths["report"], report.to_dict())
    if write_pr:
        recall, precision = me.pr_curve(scored)
        paths["pr_curve"] = f"{out_dir}/pr_curve.csv"
        write_csv(paths["pr_curve"], ["recall", "precision"], [recall, precision])
    shown = " ".join(f"auprc@{t:g}={report.auprc_at[float(t)]:.4f}" for t in cfg["metrics"]["taus"])
    print(f"{shown} auprc={report.auprc:.4f} auroc={report.auroc:.4f}")
    return paths


def run_stability(
    train_ds: Dataset,
    test_ds: Dataset,
    cfg: dict,
    subsample_seeds=None,
    train_seeds=None,
) -> dict:
    """Stability protocol: retrain on row subsamples, score a fixed test set.

    The methods, trial count and subsample fraction come from
    ``cfg["stability"]``. Subsample draws are shared across methods trial by
    trial, so methods see identical training rows. Explicit seed lists
    override the derived ones (forcing identical seeds reproduces identical
    trainings exactly).
    """
    stab = cfg["stability"]
    methods, trials, fraction = stab["methods"], stab["trials"], stab["subsample_fraction"]
    _check_range(cfg, "stability.trials")
    count = fraction_count(fraction, train_ds.n)
    seed = cfg["seed"]
    if subsample_seeds is None:
        subsample_seeds = [derive_seed(seed, "stability_subsample", t) for t in range(trials)]
    if train_seeds is None:
        train_seeds = [derive_seed(seed, "stability_train", t) for t in range(trials)]
    out = {"trials": trials, "subsample_fraction": fraction, "methods": {}}
    for method in methods:
        mcfg = copy.deepcopy(cfg)
        mcfg["method"] = method
        rows = []
        for t in range(trials):
            sub = train_ds.take(draw(train_ds.n, count, generator(subsample_seeds[t])))
            bundle = _train_bundle(mcfg, sub, base_seed=train_seeds[t])
            rows.append(predict(bundle, test_ds.features))
        matrix = np.stack(rows)
        rep = me.bootstrap_variance(matrix)
        out["methods"][method] = {
            "matrix": matrix,
            "mean_variance": rep.mean_variance,
            "top": [
                {
                    "index": int(i),
                    "variance": float(rep.per_instance[i]),
                    "scores": [float(v) for v in matrix[:, i]],
                }
                for i in rep.top_indices
            ],
        }
    return out


def cmd_stability(cfg: dict, train_path: str, test_path: str, out_dir: str) -> dict:
    train_ds = _load_dataset(cfg, train_path)
    test_ds = _load_dataset(cfg, test_path)
    result = run_stability(train_ds, test_ds, cfg)
    doc = {
        "trials": result["trials"],
        "subsample_fraction": result["subsample_fraction"],
        "seed": cfg["seed"],
        "methods": {},
    }
    paths = {"report": f"{out_dir}/stability.json"}
    for method, block in result["methods"].items():
        doc["methods"][method] = {"mean_variance": block["mean_variance"], "top": block["top"]}
        matrix = block["matrix"]
        score_path = f"{out_dir}/stability_scores_{method}.csv"
        paths[f"scores_{method}"] = score_path
        write_csv(score_path, ["trial"] + [f"i{j}" for j in range(matrix.shape[1])], [np.arange(len(matrix)), matrix])
        print(f"{method}: mean variance {block['mean_variance']:.6f} over {result['trials']} trials")
    write_json(paths["report"], doc)
    return paths


def cmd_loo(cfg: dict, data_path: str, out_dir: str) -> dict:
    ds = _load_dataset(cfg, data_path)
    k = cfg["loo"]["clusters"]
    lm = fit_pca(ds.features, cfg["latent"]["components"])
    model = cluster_split(ds, lm, k=k, seed=derive_seed(cfg["seed"], "clusters"))
    folds = leave_one_out_folds(ds, model)

    results = []
    for j, (train_idx, test_idx) in enumerate(folds):
        bundle = _train_bundle(cfg, ds.take(train_idx), base_seed=derive_seed(cfg["seed"], "loo_fold", j))
        scores = predict(bundle, ds.take(test_idx).features)
        scored = me.ScoredSet(scores, ds.labels[test_idx])
        report = me.evaluate(scored, taus=cfg["metrics"]["taus"], ef_fractions=cfg["metrics"]["ef_fractions"])
        results.append(FoldResult(fold=j, test_size=int(test_idx.size), report=report.to_dict()))
        print(f"fold {j}: test={test_idx.size} auprc={report.auprc:.4f} auroc={report.auroc:.4f}")

    summary = weighted_summary(results)
    doc = {
        "clusters": k,
        "folds": [{"fold": r.fold, "test_size": r.test_size, "report": r.report} for r in results],
        "summary": summary,
    }
    paths = {"report": f"{out_dir}/loo.json", "folds": f"{out_dir}/folds.csv"}
    write_json(paths["report"], doc)

    # One fold's rows at a time, so memory stays O(n) whatever the number of folds.
    index = np.arange(ds.n)
    write_csv(paths["folds"], ["index", "fold", "role"], [])
    for j, (_, test_idx) in enumerate(folds):
        role = np.full(ds.n, "train")
        role[test_idx] = "test"
        write_csv(paths["folds"], None, [index, np.full(ds.n, j), role])
    print(f"summary: auprc={summary['auprc']:.4f} auroc={summary['auroc']:.4f}")
    return paths


def _ablate_variants(cfg: dict, axis: str):
    """(variant name, config) rows for one ablation axis."""
    if axis == "loss_mode":
        for mode in LOSS_MODES:
            c = copy.deepcopy(cfg)
            c["method"] = "explor"
            c["net"]["loss_mode"] = mode
            yield mode, c
    elif axis == "pl_family":
        for family in ("tree", "forest"):
            c = copy.deepcopy(cfg)
            c["method"] = "explor"
            if family == "tree":
                c["pseudo"]["trees_per_labeler"] = 1
            elif c["pseudo"]["trees_per_labeler"] < 2:
                c["pseudo"]["trees_per_labeler"] = 10
            yield f"explor_{family}", c
            yield f"pl_ens_{family}", {**c, "method": "pl_ens"}
    elif axis == "bottleneck":
        for name, hidden in (("full", cfg["net"]["hidden"]), ("tiny", [32, 32])):
            c = copy.deepcopy(cfg)
            c["method"] = "explor"
            c["net"]["hidden"] = list(hidden)
            yield name, c
    else:
        raise ConfigError(f"axis must be one of {ABLATE_AXES}, got {axis!r}")


def cmd_ablate(cfg: dict, train_path: str, test_path: str, axis: str, out_dir: str) -> dict:
    train_ds = _load_dataset(cfg, train_path)
    test_ds = _load_dataset(cfg, test_path)
    taus = cfg["metrics"]["taus"]
    header = ["variant"] + [f"auprc@{t:g}" for t in taus] + ["auprc", "auroc"]
    names, rows = [], []
    for name, vcfg in _ablate_variants(cfg, axis):
        scores = predict(_train_bundle(vcfg, train_ds), test_ds.features)
        scored = me.ScoredSet(scores, test_ds.labels)
        vals = [me.auprc_truncated(scored, t) for t in taus] + [me.auprc(scored), me.auroc(scored)]
        names.append(name)
        rows.append(vals)
        print(f"{name}: " + " ".join(f"{h}={v:.4f}" for h, v in zip(header[1:], vals)))
    paths = {"table": f"{out_dir}/ablation.csv"}
    write_csv(paths["table"], header, [np.array(names), np.array(rows, dtype=np.float64)])
    return paths


class _Parser(argparse.ArgumentParser):
    # Usage problems are exit code 1 in this tool.
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


# Per-key flag settings beyond "--" + dest with "_" as "-" and FLAG_MAP's parser.
_FLAG_EXTRAS = {
    "method": {"choices": METHODS},
    "hidden": {"help": "comma separated trunk widths"},
    "lambda_expand": {"flag": "--lambda"},
    "loss_mode": {"choices": LOSS_MODES},
}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="JSON config file; flags override its keys")
    p.add_argument("--output-dir", default=".", help="directory for output artifacts")
    for dest, (_, parse) in FLAG_MAP.items():
        extra = dict(_FLAG_EXTRAS.get(dest, {}))
        flag = extra.pop("flag", "--" + dest.replace("_", "-"))
        p.add_argument(flag, dest=dest, type=parse, default=None, **extra)
    p.add_argument("--redraw-expansion", dest="redraw_expansion", action="store_true", default=None)
    p.add_argument("--freeze-expansion", dest="redraw_expansion", action="store_false")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="explor", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate the radial-shift synthetic benchmark")
    _add_common(p)

    p = sub.add_parser("fit", help="train a bundle on a CSV dataset")
    p.add_argument("--train", required=True)
    _add_common(p)

    p = sub.add_parser("predict", help="score a dataset with a trained bundle")
    p.add_argument("--bundle", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--heads", action="store_true", help="also export per-head columns")
    _add_common(p)

    p = sub.add_parser("eval", help="rank metrics for a predictions file")
    p.add_argument("--predictions", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--no-pr-curve", action="store_true")
    _add_common(p)

    p = sub.add_parser("stability", help="variance of repeated subsample retrainings")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    _add_common(p)

    p = sub.add_parser("loo", help="leave-one-cluster-out evaluation")
    p.add_argument("--data", required=True)
    _add_common(p)

    p = sub.add_parser("ablate", help="comparison table along one ablation axis")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--axis", required=True, choices=ABLATE_AXES)
    _add_common(p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args.config, args)
        os.makedirs(args.output_dir, exist_ok=True)
        if args.command == "synth":
            cmd_synth(cfg, args.output_dir)
        elif args.command == "fit":
            cmd_fit(cfg, args.train, args.output_dir)
        elif args.command == "predict":
            cmd_predict(cfg, args.bundle, args.data, args.output_dir, include_heads=args.heads)
        elif args.command == "eval":
            cmd_eval(cfg, args.predictions, args.data, args.output_dir, write_pr=not args.no_pr_curve)
        elif args.command == "stability":
            cmd_stability(cfg, args.train, args.test, args.output_dir)
        elif args.command == "loo":
            cmd_loo(cfg, args.data, args.output_dir)
        elif args.command == "ablate":
            cmd_ablate(cfg, args.train, args.test, args.axis, args.output_dir)
        return 0
    except (TrainingDivergence, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, DatasetError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

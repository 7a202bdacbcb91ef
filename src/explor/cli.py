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
import json
import os
import sys
from dataclasses import fields

import numpy as np

from . import metrics as me
from .data import Dataset, DatasetError, SubsampleSpec, _format_float, load_csv, load_features, make_synthetic_radial, save_csv, subsample
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
)
from .pseudolabel import PseudoLabelConfig
from .seeding import derive_seed
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
    "group_column": None,
    "latent": {"components": None, "sigma": 0.5},
    "pseudo": _config_defaults(PseudoLabelConfig),
    "net": _config_defaults(NetConfig),
    "metrics": {"taus": [0.1, 0.2, 0.3], "ef_fractions": [0.01, 0.05, 0.1]},
    "stability": {"trials": 10, "subsample_fraction": 0.8, "methods": ["explor", "erm"]},
    "loo": {"clusters": 5},
    "synth": {"n_id": 2000, "n_ood": 2000, "d": 8},
}


# For each key whose default is null, a value of the kind it may take instead.
_NULL_KINDS = {"group_column": "", "latent.components": 0}


def _same_kind(default, val) -> bool:
    """Whether ``val`` may replace ``default``: a float takes an int, a bool is never a number."""
    if isinstance(default, list):
        return isinstance(val, list) and all(_same_kind(default[0], v) for v in val)
    if isinstance(val, bool) != isinstance(default, bool):
        return False
    return isinstance(val, (int, float) if isinstance(default, float) else type(default))


def _merge_config(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key {where!r}")
        if isinstance(base[key], dict):
            if not isinstance(val, dict):
                raise ConfigError(f"config key {where!r} must be an object")
            out[key] = _merge_config(base[key], val, where)
        elif base[key] is None and not (val is None or _same_kind(_NULL_KINDS[where], val)):
            raise ConfigError(f"config key {where!r} must be null or of type {type(_NULL_KINDS[where]).__name__}, got {val!r}")
        elif base[key] is not None and not _same_kind(base[key], val):
            raise ConfigError(f"config key {where!r} must be of the same type as its default {base[key]!r}, got {val!r}")
        else:
            out[key] = val
    return out


def load_config(path: str | None) -> dict:
    """DEFAULTS overlaid with the JSON file at ``path`` (if any)."""
    cfg = copy.deepcopy(DEFAULTS)
    if path is None:
        return cfg

    def reject(name):
        raise ConfigError(f"{path}: non-finite number {name} is not allowed")

    try:
        with open(path) as fh:
            doc = json.load(fh, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return _merge_config(cfg, doc)


# flag dest -> (config section or None, key, value parser)
def _csv_floats(text):
    return [float(x) for x in text.split(",") if x.strip() != ""]


def _csv_ints(text):
    return [int(x) for x in text.split(",") if x.strip() != ""]


def _csv_names(text):
    return [x.strip() for x in text.split(",") if x.strip() != ""]


# Dataclass-backed keys with no flag of their own: the Adam constants are set
# in the config file, and the expansion switch is the --redraw/--freeze pair.
_NO_FLAG = ("beta1", "beta2", "eps", "redraw_expansion_each_batch")


def _section_flags(section: str) -> dict:
    """FLAG_MAP entries for a dataclass-backed DEFAULTS section, each parsed by its default's type."""
    parse = {int: int, float: float, str: str, list: _csv_ints}
    return {
        key: (section, key, parse[type(val)])
        for key, val in DEFAULTS[section].items()
        if key not in _NO_FLAG
    }


FLAG_MAP = {
    "method": (None, "method", str),
    "seed": (None, "seed", int),
    "label_column": (None, "label_column", str),
    "group_column": (None, "group_column", str),
    "components": ("latent", "components", int),
    "sigma": ("latent", "sigma", float),
    **_section_flags("pseudo"),
    **_section_flags("net"),
    "taus": ("metrics", "taus", _csv_floats),
    "ef_fractions": ("metrics", "ef_fractions", _csv_floats),
    "trials": ("stability", "trials", int),
    "subsample_fraction": ("stability", "subsample_fraction", float),
    "stability_methods": ("stability", "methods", _csv_names),
    "clusters": ("loo", "clusters", int),
    "n_id": ("synth", "n_id", int),
    "n_ood": ("synth", "n_ood", int),
    "d": ("synth", "d", int),
}


def _apply_flags(cfg: dict, args: argparse.Namespace) -> dict:
    cfg = copy.deepcopy(cfg)
    for dest, (section, key, _) in FLAG_MAP.items():
        val = getattr(args, dest, None)
        if val is None:
            continue
        if section is None:
            cfg[key] = val
        else:
            cfg[section][key] = val
    if getattr(args, "redraw_expansion", None) is not None:
        cfg["net"]["redraw_expansion_each_batch"] = args.redraw_expansion
    return cfg


def resolve_config(config_path, args) -> dict:
    cfg = _apply_flags(load_config(config_path), args)
    if cfg["method"] not in METHODS:
        raise ConfigError(f"method must be one of {METHODS}, got {cfg['method']!r}")
    for m in cfg["stability"]["methods"]:
        if m not in METHODS:
            raise ConfigError(f"stability method must be one of {METHODS}, got {m!r}")
    return cfg


def _load_dataset(cfg: dict, path: str) -> Dataset:
    return load_csv(path, label_column=cfg["label_column"], group_column=cfg["group_column"])


def _write_csv(path, header, rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _write_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


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
    _write_csv(
        paths["trace"],
        ["iteration", "match", "mean", "expand"],
        ([str(i), _format_float(a), _format_float(b), _format_float(c)] for i, (a, b, c) in enumerate(bundle.trace)),
    )
    last = bundle.trace[-1] if bundle.trace else (0.0, 0.0, 0.0)
    print(
        f"fit {cfg['method']} on {ds.n} rows (latent {bundle.latent_map.s}); "
        f"final losses match={last[0]:.6f} mean={last[1]:.6f} expand={last[2]:.6f}"
    )
    return paths


def cmd_predict(cfg: dict, bundle_path: str, data_path: str, out_dir: str, include_heads: bool = False) -> dict:
    bundle = load_bundle(bundle_path)
    # Scoring needs no labels: the label column is dropped if present.
    X = load_features(data_path, label_column=cfg["label_column"], group_column=cfg["group_column"])
    scores, columns = score(bundle, X)
    width = columns.shape[1] if include_heads else 0
    header = ["index", "score"] + [f"head_{j}" for j in range(width)]

    def rows():
        for i in range(len(X)):
            yield [str(i), _format_float(scores[i])] + [_format_float(v) for v in columns[i, :width]]

    paths = {"predictions": f"{out_dir}/predictions.csv"}
    _write_csv(paths["predictions"], header, rows())
    print(f"wrote {paths['predictions']} ({len(X)} rows)")
    return paths


def _read_predictions(path: str, n: int) -> np.ndarray:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header[:2] != ["index", "score"]:
            raise ConfigError(f"{path}: expected header starting with index,score")
        scores = np.full(n, np.nan)
        count = 0
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.split(",")
            try:
                i = int(parts[0])
                s = float(parts[1])
            except (ValueError, IndexError):
                raise ConfigError(f"{path}: line {lineno}: bad row {line!r}") from None
            if not 0 <= i < n:
                raise ConfigError(f"{path}: line {lineno}: index {i} out of range for {n} rows")
            scores[i] = s
            count += 1
    if count != n or np.isnan(scores).any():
        raise ConfigError(f"{path}: expected exactly one score per dataset row (0..{n - 1})")
    return scores


def cmd_eval(cfg: dict, predictions_path: str, data_path: str, out_dir: str, write_pr: bool = True) -> dict:
    ds = _load_dataset(cfg, data_path)
    scores = _read_predictions(predictions_path, ds.n)
    scored = me.ScoredSet(scores, ds.labels)
    report = me.evaluate(scored, taus=cfg["metrics"]["taus"], ef_fractions=cfg["metrics"]["ef_fractions"])
    paths = {"report": f"{out_dir}/report.json"}
    _write_json(paths["report"], report.to_dict())
    if write_pr:
        recall, precision = me.pr_curve(scored)
        paths["pr_curve"] = f"{out_dir}/pr_curve.csv"
        _write_csv(
            paths["pr_curve"],
            ["recall", "precision"],
            ([_format_float(r), _format_float(p)] for r, p in zip(recall, precision)),
        )
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
    if trials < 2:
        raise ConfigError(f"stability needs at least 2 trials, got {trials}")
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
            sub, _, _ = subsample(train_ds, SubsampleSpec(fraction, 1.0, subsample_seeds[t]))
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
        _write_csv(
            score_path,
            ["trial"] + [f"i{j}" for j in range(matrix.shape[1])],
            ([str(t)] + [_format_float(v) for v in matrix[t]] for t in range(matrix.shape[0])),
        )
        print(f"{method}: mean variance {block['mean_variance']:.6f} over {result['trials']} trials")
    _write_json(paths["report"], doc)
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
    _write_json(paths["report"], doc)

    def fold_rows():
        for j, (train_idx, test_idx) in enumerate(folds):
            role = np.full(ds.n, "train", dtype=object)
            role[test_idx] = "test"
            for i in range(ds.n):
                yield [str(i), str(j), role[i]]

    _write_csv(paths["folds"], ["index", "fold", "role"], fold_rows())
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
    rows = []
    for name, vcfg in _ablate_variants(cfg, axis):
        scores = predict(_train_bundle(vcfg, train_ds), test_ds.features)
        scored = me.ScoredSet(scores, test_ds.labels)
        vals = [me.auprc_truncated(scored, t) for t in taus] + [me.auprc(scored), me.auroc(scored)]
        rows.append([name] + [_format_float(v) for v in vals])
        print(f"{name}: " + " ".join(f"{h}={v:.4f}" for h, v in zip(header[1:], vals)))
    paths = {"table": f"{out_dir}/ablation.csv"}
    _write_csv(paths["table"], header, rows)
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
    for dest, (_, _, parse) in FLAG_MAP.items():
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


if __name__ == "__main__":
    sys.exit(main())

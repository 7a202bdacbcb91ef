"""End-to-end acceptance suite: ten numbered criteria, one test each.

Each test prints a single [PASS]/[FAIL] line with the measured quantities
(visible with -s or -rA; the assert message carries the same line). Criteria
with runtime budgets assert the measured wall time too.

The direction checks (criteria 5-7) train at documented scaled-down sizes;
the shared five-seed benchmark is trained once and reused.
"""

import json
import math
import time

import numpy as np
import pytest

from explor.cli import DEFAULTS, _merge_config, main, run_stability
from explor.data import Dataset, make_synthetic_radial
from explor.latent import decode, encode, expand_with, fit_pca
from explor.metrics import ScoredSet, auprc_truncated, auroc, evaluate
from explor.model import (
    ExplorNet,
    NetConfig,
    loss_terms,
    predict,
    sigmoid,
    train,
    train_erm,
    train_pl_ens,
)
from explor.pseudolabel import PseudoLabelConfig
from explor.seeding import derive_seed, generator
from explor.splits import (
    FoldResult,
    _assign,
    cluster_split,
    leave_one_out_folds,
    weighted_summary,
)

from test_metrics import oracle_auprc_grid, oracle_auroc_pairwise, random_scored_set


def report(num, name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {name}: {detail}"
    print(line)
    assert ok, line


BENCH_SEEDS = (0, 1, 2, 3, 4)


def bench_configs(seed, trees_per_labeler=1):
    net = NetConfig(
        hidden=(64, 64), iterations=2000, batch_size=256, seed=derive_seed(seed, "net")
    )
    pl = PseudoLabelConfig(
        k=64, trees_per_labeler=trees_per_labeler, seed=derive_seed(seed, "ensemble")
    )
    return net, pl


@pytest.fixture(scope="module")
def benchmark_scores():
    """OOD auprc@0.2 of all three methods per seed at the benchmark scale."""
    t0 = time.time()
    scores = {}
    for seed in BENCH_SEEDS:
        train_ds, ood = make_synthetic_radial(2000, 2000, 8, seed=seed)
        net_cfg, pl_cfg = bench_configs(seed)
        bundles = {
            "explor": train(train_ds, net_cfg, pl_cfg),
            "erm": train_erm(train_ds, net_cfg, heads=pl_cfg.k),
            "pl_ens": train_pl_ens(train_ds, pl_cfg),
        }
        scores[seed] = {
            name: auprc_truncated(ScoredSet(predict(b, ood.features), ood.labels), 0.2)
            for name, b in bundles.items()
        }
    return {"scores": scores, "elapsed": time.time() - t0}


def test_criterion_01_metric_oracles():
    """auprc@tau vs 1e8-cell grid integration; auroc vs pairwise counting."""
    t0 = time.time()
    rng = np.random.default_rng(20260822)
    cases = 10_000
    worst_auprc = 0.0
    worst_auroc = 0.0
    for _ in range(cases):
        scores, labels = random_scored_set(rng, n_max=8)
        s = ScoredSet(scores, labels)
        for tau in (0.1, 0.2, 0.3, 1.0):
            got = auprc_truncated(s, tau)
            want = oracle_auprc_grid(list(scores), list(labels), tau)
            worst_auprc = max(worst_auprc, abs(got - want))
        worst_auroc = max(worst_auroc, abs(auroc(s) - oracle_auroc_pairwise(list(scores), list(labels))))
    elapsed = time.time() - t0
    ok = worst_auprc <= 1e-6 and worst_auroc <= 1e-12 and elapsed < 30
    report(
        1, "metric oracles", ok,
        f"{cases} sets, max |auprc err|={worst_auprc:.2e} (<=1e-6), "
        f"max |auroc err|={worst_auroc:.2e} (<=1e-12), {elapsed:.1f}s (<30s)",
    )


def sample_gradient_problem(rng, heads):
    """Random config within s<=6, hidden<=[8,8], K<=4, B<=6, kink-guarded."""
    s = int(rng.integers(2, 7))
    layers = int(rng.integers(1, 3))
    hidden = tuple(int(w) for w in rng.integers(2, 9, size=layers))
    b = int(rng.integers(1, 7))
    for _ in range(64):
        net = ExplorNet(s, hidden, heads, seed=int(rng.integers(1 << 30)))
        for name in net.param_names():
            net.params[name] = rng.normal(0.0, 0.6, size=net.params[name].shape)
        Z = rng.normal(0.0, 1.0, size=(b, s))
        G = rng.integers(0, 2, size=(b, heads)).astype(np.float64)
        Zx = Z * (1.0 + np.abs(rng.normal(0.0, 0.5, size=b)))[:, None]
        Gx = rng.integers(0, 2, size=(b, heads)).astype(np.float64)
        p = sigmoid(net.logits(Z)).mean(axis=1)
        px = sigmoid(net.logits(Zx)).mean(axis=1)
        gap = min(np.abs(p - G.mean(axis=1)).min(), np.abs(px - Gx.mean(axis=1)).min())
        if gap > 1e-3:  # keep finite differences away from the |p-q| kink
            return net, Z, G, Zx, Gx
    raise AssertionError("could not sample a kink-free problem")


def test_criterion_02_gradient_check():
    """Analytic gradients of all loss modes vs central finite differences."""
    from explor.model import loss_and_grads

    t0 = time.time()
    rng = np.random.default_rng(7)
    modes = ["full"] * 60 + ["match_only"] * 20 + ["mean_only"] * 20 + ["single_head"] * 20
    h = 1e-5
    worst = 0.0
    for mode in modes:
        heads = 1 if mode == "single_head" else int(rng.integers(1, 5))
        net, Z, G, Zx, Gx = sample_gradient_problem(rng, heads)
        cfg = NetConfig(hidden=net.hidden, lambda_expand=0.5, loss_mode=mode, seed=0)
        _, _, grads = loss_and_grads(net, Z, G, Zx, Gx, cfg)
        for name in net.param_names():
            flat = net.params[name].reshape(-1)
            fd = np.zeros(flat.size)
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + h
                hi, _ = loss_terms(net, Z, G, Zx, Gx, cfg)
                flat[i] = keep - h
                lo, _ = loss_terms(net, Z, G, Zx, Gx, cfg)
                flat[i] = keep
                fd[i] = (hi - lo) / (2.0 * h)
            a = grads[name].reshape(-1)
            rel = np.abs(a - fd) / np.maximum(np.maximum(np.abs(a), np.abs(fd)), 1e-3)
            worst = max(worst, float(rel.max()))
    elapsed = time.time() - t0
    ok = worst <= 1e-5 and elapsed < 60
    report(
        2, "gradient check", ok,
        f"{len(modes)} configs, max rel err={worst:.2e} (<=1e-5), {elapsed:.1f}s (<60s)",
    )


def test_criterion_03_expansion_law():
    """Mean radial growth = sigma*sqrt(2/pi) within 3 SE; no row shrinks."""
    t0 = time.time()
    n, sigma = 100_000, 0.5
    rng = np.random.default_rng(3)
    Z = rng.standard_normal((n, 3))
    Zx = expand_with(Z, generator(11).normal(0.0, sigma, size=len(Z)))
    norms = np.linalg.norm(Z, axis=1)
    norms_x = np.linalg.norm(Zx, axis=1)
    growth = norms_x / norms - 1.0
    target = sigma * math.sqrt(2.0 / math.pi)
    se = sigma * math.sqrt(1.0 - 2.0 / math.pi) / math.sqrt(n)
    gap = abs(float(growth.mean()) - target)
    no_shrink = bool(np.all(norms_x >= norms))
    elapsed = time.time() - t0
    ok = gap <= 3 * se and no_shrink and elapsed < 10
    report(
        3, "expansion law", ok,
        f"mean growth {growth.mean():.6f} vs {target:.6f} (gap {gap:.2e} <= 3SE={3*se:.2e}), "
        f"no shrink={no_shrink}, {elapsed:.1f}s (<10s)",
    )


def test_criterion_04_pca_contracts():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((40, 6))
    lm = fit_pca(X, 6)
    err = float(np.max(np.abs(decode(lm, encode(lm, X)) - X)))

    X5 = rng.standard_normal((5, 3))
    lm5 = fit_pca(X5, 3)
    cov = np.cov(X5, rowvar=False, ddof=1)
    eig = np.sort(np.linalg.eigvalsh(cov))[::-1]
    eig_err = float(np.max(np.abs(lm5.explained_variance - eig[: lm5.s])))
    ok = err < 1e-8 and eig_err < 1e-8
    report(
        4, "pca contracts", ok,
        f"roundtrip err={err:.2e} (<1e-8), eigenvalue err={eig_err:.2e} (<1e-8)",
    )


def test_criterion_05_synthetic_ood_direction(benchmark_scores):
    scores, elapsed = benchmark_scores["scores"], benchmark_scores["elapsed"]
    wins = sum(scores[s]["explor"] >= scores[s]["erm"] for s in BENCH_SEEDS)
    pairs = " ".join(f"s{s}:{scores[s]['explor']:.3f}/{scores[s]['erm']:.3f}" for s in BENCH_SEEDS)
    ok = wins >= 4 and elapsed < 300
    report(
        5, "synthetic OOD direction", ok,
        f"explor>=erm (auprc@0.2) in {wins}/5 seeds [{pairs}], {elapsed:.0f}s (<300s)",
    )


def test_criterion_06_variance_reduction():
    t0 = time.time()
    wins = 0
    ratios = []
    for seed in BENCH_SEEDS:
        cfg = _merge_config(DEFAULTS, {
            "seed": seed,
            "pseudo": {"k": 64},
            "net": {"hidden": [32, 32], "iterations": 500, "batch_size": 256},
        })
        train_ds, ood = make_synthetic_radial(1200, 800, 8, seed=seed)
        out = run_stability(train_ds, ood, cfg)
        ve = out["methods"]["explor"]["mean_variance"]
        vr = out["methods"]["erm"]["mean_variance"]
        ratios.append(ve / vr)
        wins += ve <= 0.5 * vr
    elapsed = time.time() - t0
    shown = " ".join(f"s{s}:{r:.3f}" for s, r in zip(BENCH_SEEDS, ratios))
    ok = wins >= 4 and elapsed < 600
    report(
        6, "variance reduction", ok,
        f"explor var <= 0.5*erm var in {wins}/5 seeds (T=10, rho=0.8) [{shown}], {elapsed:.0f}s (<600s)",
    )


def test_criterion_07_bagging_direction(benchmark_scores):
    scores, bench_elapsed = benchmark_scores["scores"], benchmark_scores["elapsed"]
    tree_wins = sum(scores[s]["explor"] >= scores[s]["pl_ens"] for s in BENCH_SEEDS)

    t0 = time.time()
    forest_wins = 0
    forest_pairs = []
    for seed in BENCH_SEEDS:
        train_ds, ood = make_synthetic_radial(2000, 2000, 8, seed=seed)
        net_cfg, pl_cfg = bench_configs(seed, trees_per_labeler=5)
        b_ex = train(train_ds, net_cfg, pl_cfg)
        b_pl = train_pl_ens(train_ds, pl_cfg)
        a_ex = auprc_truncated(ScoredSet(predict(b_ex, ood.features), ood.labels), 0.2)
        a_pl = auprc_truncated(ScoredSet(predict(b_pl, ood.features), ood.labels), 0.2)
        forest_wins += a_ex >= a_pl
        forest_pairs.append(f"s{seed}:{a_ex:.3f}/{a_pl:.3f}")
    elapsed = bench_elapsed + (time.time() - t0)
    ok = tree_wins >= 4 and forest_wins >= 4 and elapsed < 600
    report(
        7, "bagging direction", ok,
        f"explor>=pl_ens in {tree_wins}/5 (tree) and {forest_wins}/5 (forest, 5 trees/labeler) "
        f"seeds [{' '.join(forest_pairs)}], {elapsed:.0f}s (<600s)",
    )


def test_criterion_08_determinism(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "latent": {"components": 4},
        "pseudo": {"k": 8, "max_depth": 4},
        "net": {"hidden": [16, 16], "iterations": 60, "batch_size": 64},
        "synth": {"n_id": 300, "n_ood": 150, "d": 5},
    }))
    assert main(["synth", "--config", str(cfg_path), "--output-dir", str(tmp_path)]) == 0
    blobs = {}
    for run in ("a", "b"):
        d = tmp_path / run
        d.mkdir()
        base = ["--config", str(cfg_path), "--output-dir", str(d)]
        assert main(["fit", "--train", str(tmp_path / "train.csv"), *base]) == 0
        assert main(["predict", "--bundle", str(d / "bundle.json"), "--data", str(tmp_path / "ood_test.csv"), *base]) == 0
        assert main(["eval", "--predictions", str(d / "predictions.csv"), "--data", str(tmp_path / "ood_test.csv"), *base]) == 0
        blobs[run] = {
            name: (d / name).read_bytes()
            for name in ("bundle.json", "predictions.csv", "report.json")
        }
    same = {name: blobs["a"][name] == blobs["b"][name] for name in blobs["a"]}
    ok = all(same.values())
    report(8, "determinism", ok, f"byte-identical re-run artifacts: {same}")


def test_criterion_09_split_integrity():
    train_ds, _ = make_synthetic_radial(600, 60, 6, seed=9)
    lm = fit_pca(train_ds.features, 6)
    model = cluster_split(train_ds, lm, k=5, seed=31)
    folds = leave_one_out_folds(train_ds, model)

    all_test = np.sort(np.concatenate([test for _, test in folds]))
    partition = bool(np.array_equal(all_test, np.arange(train_ds.n))) and all(
        np.intersect1d(tr, te).size == 0 for tr, te in folds
    )

    Z = encode(lm, train_ds.features)
    pos = np.flatnonzero(train_ds.labels == 1)
    labels, _ = _assign(Z[pos], model.centroids)
    assign_stable = bool(np.array_equal(labels, model.assignment[pos]))
    centroid_gap = max(
        float(np.max(np.abs(Z[pos][labels == j].mean(axis=0) - model.centroids[j])))
        for j in range(model.k)
    )
    fixed_point = assign_stable and centroid_gap <= 1e-6

    rng = np.random.default_rng(10)
    results = []
    for j, (_, test_idx) in enumerate(folds):
        s = ScoredSet(rng.random(test_idx.size), train_ds.labels[test_idx])
        results.append(FoldResult(fold=j, test_size=int(test_idx.size), report=evaluate(s).to_dict()))
    summary = weighted_summary(results)
    w = np.array([r.test_size for r in results], dtype=np.float64)
    manual_err = 0.0
    for key in ("auprc", "auroc", "prevalence"):
        manual = float(np.dot(w, [r.report[key] for r in results]) / w.sum())
        manual_err = max(manual_err, abs(summary[key] - manual))
    for key in results[0].report["auprc_at"]:
        manual = float(np.dot(w, [r.report["auprc_at"][key] for r in results]) / w.sum())
        manual_err = max(manual_err, abs(summary["auprc_at"][key] - manual))

    ok = partition and fixed_point and manual_err <= 1e-12
    report(
        9, "split integrity", ok,
        f"partition={partition}, fixed point={fixed_point} (centroid gap {centroid_gap:.1e}), "
        f"weighted summary err={manual_err:.1e} (<=1e-12)",
    )


def test_criterion_10_edge_contracts():
    # Zero-iteration bundle: untrained heads sit at exactly 0.5.
    train_ds, ood = make_synthetic_radial(200, 50, 4, seed=12)
    net_cfg = NetConfig(hidden=(8,), iterations=0, batch_size=32, seed=1)
    pl_cfg = PseudoLabelConfig(k=4, max_depth=3, seed=2)
    b = train(train_ds, net_cfg, pl_cfg)
    g = b.ensemble.ensemble_mean(encode(b.latent_map, ood.features))
    zero_iter = bool(np.array_equal(predict(b, ood.features), (g + 0.5) / 2.0))

    # lambda = 0: the total is exactly the mean + match parts.
    rng = np.random.default_rng(13)
    net = ExplorNet(4, (6,), 3, seed=5)
    for name in net.param_names():
        net.params[name] = rng.normal(0.0, 0.5, size=net.params[name].shape)
    Z = rng.standard_normal((5, 4))
    G = rng.integers(0, 2, (5, 3)).astype(float)
    cfg = NetConfig(hidden=(6,), lambda_expand=0.0, seed=0)
    total, parts = loss_terms(net, Z, G, 2.0 * Z, G, cfg)
    lambda_zero = total == parts["match"] + parts["mean"]

    # All-tied scores: AUROC is exactly one half.
    tied = auroc(ScoredSet(np.full(7, 0.4), [1, 0, 1, 1, 0, 0, 1])) == 0.5

    ok = zero_iter and lambda_zero and tied
    report(
        10, "edge contracts", ok,
        f"zero-iteration bag exact={zero_iter}, lambda0 additivity={lambda_zero}, tied auroc half={tied}",
    )

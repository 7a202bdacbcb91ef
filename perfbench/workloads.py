"""The four workloads: what each sets up, the operation it times, and its checks.

Every input comes from ``make_synthetic_radial`` with the run's seed, and the
same seed also seeds the labelers and the network, so a seed fixes a run's
inputs and outputs. Library calls go through module attributes looked up at
call time, so the spans that ``tracing.install`` puts in place see them.

Sizes are chosen so that one operation takes a few seconds on one core and a
run of 15 s holds several of them; the README gives the reasons per workload.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

import explor.data as ed
import explor.latent as el
import explor.metrics as em
import explor.model as mo
import explor.splits as es
from explor.pseudolabel import PseudoLabelConfig
from explor.seeding import derive_seed
import oracles
from oracles import require

CHILD = str(Path(__file__).resolve().parent / "cli_child.py")
TRAIN_ROWS = 2000
DIMS = 8
OOD_ROWS = 20000
TAU = 0.1
SAMPLE_ROWS = 256  # rows checked against the pure-Python tree walk
TOL = 1e-12
MIB = float(1 << 20)


class OpFailed(RuntimeError):
    """One timed operation did not complete."""


def sha256(*paths):
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def run_cli(args, spans=None):
    cmd = [sys.executable, CHILD] + (["--spans", str(spans)] if spans else []) + [str(a) for a in args]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=150)
    except subprocess.TimeoutExpired:
        raise OpFailed(f"explor {args[0]} did not finish in 150 s") from None
    if proc.returncode != 0:
        raise OpFailed(f"explor {args[0]} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")


def sample_rows(n, seed):
    rng = np.random.default_rng(derive_seed(seed, "perfbench_sample"))
    return np.sort(rng.choice(n, size=min(SAMPLE_ROWS, n), replace=False))


def check_ranking(scores, labels, auroc, auprc_tau, where):
    """The reported AUROC and truncated AUPRC match the oracles; OOD AUROC > 0.5."""
    want_auroc = oracles.auroc_pairs(scores, labels)
    want_auprc = oracles.auprc_steps(scores, labels, TAU)
    require(abs(auroc - want_auroc) <= TOL, f"{where}: auroc {auroc!r} != pairwise count {want_auroc!r}")
    require(abs(auprc_tau - want_auprc) <= TOL, f"{where}: auprc@{TAU} {auprc_tau!r} != step sum {want_auprc!r}")
    require(auroc > 0.5, f"{where}: auroc {auroc!r} is not above chance")


def check_votes(fractions, k, where):
    scaled = np.asarray(fractions) * k
    require(bool(np.all(np.abs(scaled - np.round(scaled)) <= 1e-9)), f"{where}: vote fractions not multiples of 1/{k}")


def check_round_trip(bundle, path, X, where):
    """Save, reload, and score again: the scores must be bit-identical.
    Returns the scores."""
    mo.save_bundle(bundle, path)
    scores = mo.predict(bundle, X)
    require(np.array_equal(mo.predict(mo.load_bundle(path), X), scores), f"{where}: save/load round trip changed the scores")
    return scores


def check_oracle_scores(doc, X, scores, where):
    want = oracles.bundle_scores(doc, X)
    worst = float(np.max(np.abs(want - np.asarray(scores))))
    require(worst <= TOL, f"{where}: scores differ from the bundle oracle by {worst!r}")


def check_trace(trace, iterations, lam, where):
    arr = np.asarray(trace, dtype=np.float64)
    require(arr.shape == (iterations, 3), f"{where}: trace shape {arr.shape}, want ({iterations}, 3)")
    require(bool(np.isfinite(arr).all()), f"{where}: non-finite value in the loss trace")
    total = arr[:, 0] + arr[:, 1] + lam * arr[:, 2]
    w = max(1, iterations // 10)
    require(total[-w:].mean() < total[:w].mean(), f"{where}: loss did not fall ({total[:w].mean()} -> {total[-w:].mean()})")


class Workload:
    name = ""
    in_process = True  # False: the operation runs in child processes

    def setup(self, work, seed):
        """Build the inputs; returns the state the operation and checks use.

        ``state["files"]`` lists files whose bytes must repeat across set-ups.
        """
        raise NotImplementedError

    def op(self, state, out, spans_dir=None):
        """One timed operation; returns what the checks need."""
        raise NotImplementedError

    def digest(self, result):
        """Fingerprint of one operation's output; repeated operations must agree."""
        raise NotImplementedError

    def check(self, state, result, work):
        """Raise CheckFailed on any mismatch in the last operation's output;
        returns the quality metrics."""
        raise NotImplementedError


class _Fit(Workload):
    """In-process library fit, scored afterwards on a held-out OOD set."""

    iterations = 0
    warmup_iterations = 10
    lam = 0.0

    def setup(self, work, seed):
        train_ds, ood = ed.make_synthetic_radial(TRAIN_ROWS, OOD_ROWS, DIMS, seed)
        state = {"seed": seed, "train": train_ds, "ood": ood, "files": []}
        self.fit(state, self.warmup_iterations)  # lets lazy allocation and caches settle
        return state

    def op(self, state, out, spans_dir=None):
        return self.fit(state, self.iterations)

    def digest(self, bundle):
        h = hashlib.sha256(repr(bundle.trace).encode())
        for name in sorted(bundle.net.params):
            h.update(bundle.net.params[name].tobytes())
        return h.hexdigest()

    def check(self, state, bundle, work):
        ood = state["ood"]
        check_trace(bundle.trace, self.iterations, self.lam, self.name)
        path = Path(work) / "bundle.json"
        scores = check_round_trip(bundle, path, ood.features, self.name)
        doc = json.loads(path.read_text())
        rows = sample_rows(ood.n, state["seed"])
        check_oracle_scores(doc, ood.features[rows], scores[rows], self.name)
        if bundle.ensemble is not None:
            Z = el.encode(bundle.latent_map, ood.features)
            check_votes(bundle.ensemble.ensemble_mean(Z), bundle.ensemble.k, self.name)
        report = em.evaluate(em.ScoredSet(scores, ood.labels), taus=(TAU,))
        check_ranking(scores, ood.labels, report.auroc, report.auprc_at[TAU], self.name)
        return {"auprc_0.1": report.auprc_at[TAU], "auroc": report.auroc, "bundle_mb": path.stat().st_size / MIB}


class FitExplor(_Fit):
    name = "fit_explor"
    iterations = 200
    lam = 0.5

    def fit(self, state, iterations):
        s = state["seed"]
        cfg = mo.NetConfig(hidden=(64, 64), iterations=iterations, lambda_expand=self.lam, seed=s)
        return mo.train(state["train"], cfg, PseudoLabelConfig(k=64, seed=s))


class FitErmWide(_Fit):
    name = "fit_erm_wide"
    iterations = 60

    def fit(self, state, iterations):
        cfg = mo.NetConfig(hidden=(512, 512), iterations=iterations, seed=state["seed"])
        return mo.train_erm(state["train"], cfg, heads=64)


class ScreenLibrary(Workload):
    """`explor predict` then `explor eval` on a labelled library, as subprocesses."""

    name = "screen_library"
    in_process = False
    library_rows = 50000
    fit_iterations = 20

    def setup(self, work, seed):
        work = Path(work)
        work.mkdir(parents=True, exist_ok=True)
        train_ds, library = ed.make_synthetic_radial(TRAIN_ROWS, self.library_rows, DIMS, seed)
        library_csv, bundle_json = work / "library.csv", work / "bundle.json"
        ed.save_csv(library, library_csv)
        cfg = mo.NetConfig(iterations=self.fit_iterations, seed=seed)  # default 512x512 width
        model = mo.train(train_ds, cfg, PseudoLabelConfig(k=64, seed=seed))
        mo.save_bundle(model, bundle_json)
        return {
            "seed": seed,
            "library": library,
            "model": model,
            "library_csv": library_csv,
            "bundle_json": bundle_json,
            "files": [library_csv, bundle_json],
        }

    def op(self, state, out, spans_dir=None):
        def spans(tag):
            return Path(spans_dir) / f"{tag}.json" if spans_dir else None

        common = ["--output-dir", out, "--seed", state["seed"]]
        run_cli(["predict", "--bundle", state["bundle_json"], "--data", state["library_csv"], *common], spans("0-predict"))
        run_cli(["eval", "--predictions", Path(out) / "predictions.csv", "--data", state["library_csv"], *common], spans("1-eval"))
        return Path(out)

    def digest(self, out):
        return sha256(out / "predictions.csv", out / "report.json")

    def check(self, state, out, work):
        name, lib, model = self.name, state["library"], state["model"]
        lines = (out / "predictions.csv").read_text().splitlines()
        require(lines[0].split(",")[:2] == ["index", "score"], f"{name}: bad predictions header {lines[0]!r}")
        require(len(lines) - 1 == lib.n, f"{name}: {len(lines) - 1} predictions for {lib.n} library rows")
        cells = [line.split(",") for line in lines[1:]]
        require([int(c[0]) for c in cells] == list(range(lib.n)), f"{name}: prediction rows out of order")
        scores = np.array([float(c[1]) for c in cells])

        doc = json.loads(Path(state["bundle_json"]).read_text())
        rows = sample_rows(lib.n, state["seed"])
        X = lib.features[rows]
        walked = oracles.labeler_votes(doc, oracles.latent_codes(doc, X))
        votes = model.ensemble.predict_matrix(el.encode(model.latent_map, X))
        require(np.array_equal(votes, walked), f"{name}: labeler votes differ from the tree walk")
        check_votes(votes.mean(axis=1), model.ensemble.k, name)
        check_oracle_scores(doc, X, scores[rows], name)
        check_round_trip(model, Path(work) / "round_trip.json", X, name)

        report = json.loads((out / "report.json").read_text())
        auprc_tau = report["auprc_at"][repr(TAU)]
        check_ranking(scores, lib.labels, report["auroc"], auprc_tau, name)
        return {"auprc_0.1": auprc_tau, "auroc": report["auroc"], "bundle_mb": state["bundle_json"].stat().st_size / MIB}


class LooPlEns(Workload):
    """`explor loo --method pl_ens`: k-means, then one labeler ensemble per held-out cluster."""

    name = "loo_pl_ens"
    in_process = False
    clusters = 5

    def setup(self, work, seed):
        work = Path(work)
        work.mkdir(parents=True, exist_ok=True)
        data, _ = ed.make_synthetic_radial(TRAIN_ROWS, 10, DIMS, seed)
        data_csv, ref_json = work / "data.csv", work / "fold0.json"
        ed.save_csv(data, data_csv)
        # Fold 0 again through the library, with the seeds `explor loo` derives
        # from --seed: its scores let the checks test the command's fold report.
        lm = el.fit_pca(data.features)
        split = es.cluster_split(data, lm, k=self.clusters, seed=derive_seed(seed, "clusters"))
        train_idx, test_idx = es.leave_one_out_folds(data, split)[0]
        pl = PseudoLabelConfig(k=64, seed=derive_seed(derive_seed(seed, "loo_fold", 0), "ensemble"))
        ref = mo.train_pl_ens(data.take(train_idx), pl)
        mo.save_bundle(ref, ref_json)
        return {
            "seed": seed,
            "data": data,
            "data_csv": data_csv,
            "ref": ref,
            "ref_json": ref_json,
            "ref_test": test_idx,
            "files": [data_csv, ref_json],
        }

    def op(self, state, out, spans_dir=None):
        spans = Path(spans_dir) / "0-loo.json" if spans_dir else None
        args = ["loo", "--method", "pl_ens", "--clusters", self.clusters, "--data", state["data_csv"]]
        run_cli([*args, "--output-dir", out, "--seed", state["seed"]], spans)
        return Path(out)

    def digest(self, out):
        return sha256(out / "loo.json", out / "folds.csv")

    def check(self, state, out, work):
        name, data, ref = self.name, state["data"], state["ref"]
        lines = (out / "folds.csv").read_text().splitlines()
        require(lines[0] == "index,fold,role", f"{name}: bad folds header {lines[0]!r}")
        table = [(int(i), int(j), role) for i, j, role in (line.split(",") for line in lines[1:])]
        owner = oracles.test_folds(table, data.n)
        require(int(owner.max()) + 1 == self.clusters, f"{name}: {int(owner.max()) + 1} folds, want {self.clusters}")
        # A full-width PCA is a rotation about the mean, so raw distances are latent distances.
        require(min(128, data.n - 1) >= data.d, f"{name}: latent map is not full width")
        bad = oracles.nearest_centroid_consistent(data.features, data.labels, owner)
        require(bad == 0, f"{name}: {bad} rows are not in the fold of their nearest cluster centroid")

        doc = json.loads((out / "loo.json").read_text())
        folds = doc["folds"]
        require([f["test_size"] for f in folds] == np.bincount(owner).tolist(), f"{name}: fold sizes disagree with folds.csv")
        sizes = [f["test_size"] for f in folds]
        reports = [f["report"] for f in folds]
        summary = doc["summary"]
        for key in ("auprc", "auroc", "prevalence"):
            want = oracles.weighted_mean([r[key] for r in reports], sizes)
            require(abs(summary[key] - want) <= TOL, f"{name}: summary {key} {summary[key]!r} != weighted mean {want!r}")
        for group in ("auprc_at", "ef_at"):
            for key in reports[0][group]:
                want = oracles.weighted_mean([r[group][key] for r in reports], sizes)
                require(abs(summary[group][key] - want) <= TOL, f"{name}: summary {group}[{key}] != weighted mean")

        test_idx = state["ref_test"]
        require(np.array_equal(np.flatnonzero(owner == 0), test_idx), f"{name}: fold 0 test rows differ from cluster_split")
        X = data.features[test_idx]
        scores = check_round_trip(ref, Path(work) / "round_trip.json", X, name)
        check_votes(scores, ref.ensemble.k, name)
        ref_doc = json.loads(Path(state["ref_json"]).read_text())
        rows = sample_rows(X.shape[0], state["seed"])
        check_oracle_scores(ref_doc, X[rows], scores[rows], name)
        fold0 = reports[0]
        check_ranking(scores, data.labels[test_idx], fold0["auroc"], fold0["auprc_at"][repr(TAU)], f"{name} fold 0")
        require(summary["auroc"] > 0.5, f"{name}: summary auroc {summary['auroc']!r} is not above chance")
        return {
            "auprc_0.1": summary["auprc_at"][repr(TAU)],
            "auroc": summary["auroc"],
            "bundle_mb": state["ref_json"].stat().st_size / MIB,
        }


WORKLOADS = {w.name: w for w in (FitExplor(), FitErmWide(), ScreenLibrary(), LooPlEns())}

"""k-means clustering and leave-one-cluster-out folds."""

import numpy as np
import pytest

from explor.data import Dataset
from explor.latent import fit_pca
from explor.metrics import ScoredSet, evaluate
from explor.splits import (
    ClusterModel,
    FoldResult,
    _assign,
    _lloyd,
    cluster_split,
    kmeans,
    leave_one_out_folds,
    weighted_summary,
)


def oracle_objective(Z, centroids):
    d2 = ((Z[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return float(d2.min(axis=1).sum())


def blobs(seed=0, n_per=40, k=3, d=4, spread=0.15):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-4, 4, size=(k, d))
    Z = np.concatenate([c + spread * rng.standard_normal((n_per, d)) for c in centers])
    return Z


class TestKmeans:
    def test_objective_history_non_increasing(self):
        for seed in range(5):
            Z = blobs(seed=seed)
            _, _, history = _lloyd(Z, 3, seed=seed)
            diffs = np.diff(history)
            assert np.all(diffs <= 1e-9 * max(1.0, history[0]))

    def test_history_matches_oracle_objective(self):
        Z = blobs(seed=3)
        centroids, labels, history = _lloyd(Z, 3, seed=1)
        assert abs(history[-1] - oracle_objective(Z, centroids)) < 1e-9

    def test_final_assignment_is_fixed_point(self):
        Z = blobs(seed=4)
        centroids, labels, _ = _lloyd(Z, 3, seed=2)
        again, _ = _assign(Z, centroids)
        assert np.array_equal(labels, again)

    def test_k1_centroid_is_mean(self):
        Z = blobs(seed=5, k=2)
        c = kmeans(Z, 1, seed=0)
        assert np.array_equal(c[0], Z.mean(axis=0))

    def test_k_equals_n_reaches_zero_objective(self):
        Z = np.arange(12, dtype=np.float64).reshape(6, 2)
        c = kmeans(Z, 6, seed=0)
        assert oracle_objective(Z, c) == 0.0

    def test_bounds_validated(self):
        Z = np.zeros((4, 2))
        with pytest.raises(ValueError, match="k must be"):
            kmeans(Z, 0)
        with pytest.raises(ValueError, match="k must be"):
            kmeans(Z, 5)
        with pytest.raises(ValueError, match="2-d"):
            kmeans(np.zeros(4), 1)

    @pytest.mark.parametrize("k", [2.5, 2.0, True, "2"])
    def test_non_integer_k_rejected(self, k):
        with pytest.raises(ValueError, match="k must be an integer"):
            kmeans(np.arange(8.0).reshape(4, 2), k)

    def test_deterministic(self):
        Z = blobs(seed=6)
        assert np.array_equal(kmeans(Z, 3, seed=9), kmeans(Z, 3, seed=9))

    def test_duplicate_points_force_empty_cluster_repair(self):
        # Two distinct values and k=3 guarantee a duplicate centroid at
        # seeding, so the repair branch must run and still terminate.
        Z = np.concatenate([np.zeros((10, 2)), np.ones((10, 2))])
        for seed in range(6):
            c = kmeans(Z, 3, seed=seed)
            assert c.shape == (3, 2) and np.all(np.isfinite(c))

    def test_separated_blobs_recovered(self):
        Z = blobs(seed=7, n_per=50, k=3, spread=0.05)
        centroids, labels, _ = _lloyd(Z, 3, seed=1)
        # Each true blob lands in exactly one cluster.
        for start in range(0, 150, 50):
            assert len(set(labels[start : start + 50].tolist())) == 1
        assert len(set(labels.tolist())) == 3


def random_ds(seed=0, n=120, d=5):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    return Dataset(X, (X[:, 0] > 0).astype(int))


class TestClusterSplit:
    def test_positive_assignment_is_kmeans_fixed_point(self):
        ds = random_ds(seed=1)
        lm = fit_pca(ds.features, 3)
        model = cluster_split(ds, lm, k=3, seed=5)
        from explor.latent import encode

        Z = encode(lm, ds.features)
        again, _ = _assign(Z, model.centroids)
        assert np.array_equal(model.assignment, again)
        # Positive rows reproduce the k-means labels they were clustered with.
        pos = np.flatnonzero(ds.labels == 1)
        pos_labels, _ = _assign(Z[pos], model.centroids)
        assert np.array_equal(model.assignment[pos], pos_labels)

    def test_needs_k_positives(self):
        X = np.random.default_rng(2).standard_normal((20, 3))
        y = np.zeros(20, dtype=int)
        y[:2] = 1
        ds = Dataset(X, y)
        lm = fit_pca(ds.features, 2)
        with pytest.raises(ValueError, match="positives"):
            cluster_split(ds, lm, k=3)

    @pytest.mark.parametrize("k", ["2", True, 2.0, 0])
    def test_k_is_checked_before_the_positives_are_counted(self, k):
        """A ``k`` that is no integer >= 1 is a ValueError naming ``k``, never a TypeError from ``pos.size < k``."""
        ds = random_ds(seed=1)
        with pytest.raises(ValueError, match=r"^k must be >= 1"):
            cluster_split(ds, fit_pca(ds.features, 3), k=k)

    def test_folds_partition_dataset(self):
        ds = random_ds(seed=3, n=90)
        lm = fit_pca(ds.features, 3)
        model = cluster_split(ds, lm, k=4, seed=2)
        folds = leave_one_out_folds(ds, model)
        assert len(folds) == 4
        all_test = np.concatenate([test for _, test in folds])
        assert np.array_equal(np.sort(all_test), np.arange(ds.n))
        for train, test in folds:
            assert np.intersect1d(train, test).size == 0
            assert train.size + test.size == ds.n

    def test_empty_cluster_rejected(self):
        ds = random_ds(seed=4, n=30)
        assignment = np.arange(30, dtype=np.int64) % 2  # cluster 2 never used
        model = ClusterModel(centroids=np.zeros((3, 2)), assignment=assignment)
        with pytest.raises(ValueError, match="empty"):
            leave_one_out_folds(ds, model)

    def test_single_cluster_rejected(self):
        ds = random_ds(seed=5, n=30)
        model = ClusterModel(
            centroids=np.zeros((1, 2)), assignment=np.zeros(30, dtype=np.int64)
        )
        with pytest.raises(ValueError, match="whole dataset"):
            leave_one_out_folds(ds, model)

    def test_assignment_shape_checked(self):
        ds = random_ds(seed=6, n=30)
        model = ClusterModel(
            centroids=np.zeros((2, 2)), assignment=np.zeros(29, dtype=np.int64)
        )
        with pytest.raises(ValueError, match="shape"):
            leave_one_out_folds(ds, model)


class TestWeightedSummary:
    def fold(self, fold_id, seed, n):
        rng = np.random.default_rng(seed)
        s = ScoredSet(rng.random(n), rng.integers(0, 2, n))
        if s.labels.sum() in (0, n):
            s = ScoredSet(s.scores, np.append(s.labels[:-1], 1 - s.labels[-1]))
        return FoldResult(fold=fold_id, test_size=n, report=evaluate(s).to_dict())

    def test_matches_manual_average(self):
        folds = [self.fold(0, 1, 40), self.fold(1, 2, 25), self.fold(2, 3, 60)]
        out = weighted_summary(folds)
        w = np.array([40.0, 25.0, 60.0])

        def manual(vals):
            return float(np.dot(w, vals) / w.sum())

        assert abs(out["auroc"] - manual([f.report["auroc"] for f in folds])) < 1e-12
        assert abs(out["auprc"] - manual([f.report["auprc"] for f in folds])) < 1e-12
        for key in folds[0].report["auprc_at"]:
            expect = manual([f.report["auprc_at"][key] for f in folds])
            assert abs(out["auprc_at"][key] - expect) < 1e-12
        for key in folds[0].report["ef_at"]:
            expect = manual([f.report["ef_at"][key] for f in folds])
            assert abs(out["ef_at"][key] - expect) < 1e-12
        assert out["counts"]["n"] == 125
        assert out["counts"]["positives"] == sum(f.report["counts"]["positives"] for f in folds)

    def test_single_fold_passthrough(self):
        f = self.fold(0, 4, 30)
        out = weighted_summary([f])
        assert out["auroc"] == f.report["auroc"]
        assert out["counts"]["n"] == 30

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no folds"):
            weighted_summary([])

"""OOD evaluation splits: latent clusters held out one at a time.

Clusters are found with k-means over the latent codes of the positives only;
every instance (positive or negative) is then assigned to its nearest
centroid. Holding out one cluster at a time yields folds whose test region
was never seen in training. Cluster-size weighted averages summarize the
folds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import SEED, Dataset, check_value
from .latent import LatentMap, encode
from .seeding import generator

_TOL = 1e-6
_MAX_ITER = 100


def _assign(Z: np.ndarray, centroids: np.ndarray):
    """Nearest-centroid index per row (ties toward the lowest id) and distances."""
    d2 = ((Z[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    labels = np.argmin(d2, axis=1)  # argmin takes the first minimum
    return labels, d2[np.arange(Z.shape[0]), labels]


def _kmeans_pp(Z: np.ndarray, k: int, rng) -> np.ndarray:
    """k-means++ seeding: first uniform, then proportional to squared distance."""
    n = Z.shape[0]
    chosen = [int(rng.integers(n))]
    for _ in range(1, k):
        d2 = ((Z[:, None, :] - Z[chosen][None, :, :]) ** 2).sum(axis=2).min(axis=1)
        total = d2.sum()
        if total > 0:
            chosen.append(int(rng.choice(n, p=d2 / total)))
        else:
            chosen.append(int(rng.integers(n)))  # all duplicates
    return Z[chosen].copy()


def _lloyd(Z: np.ndarray, k: int, seed: int):
    """Lloyd's iterations; returns (centroids, labels, per-assignment objective history)."""
    rng = generator(seed)
    centroids = _kmeans_pp(Z, k, rng)
    history = []
    labels = None
    for _ in range(_MAX_ITER):
        labels, d2 = _assign(Z, centroids)
        history.append(float(d2.sum()))
        new = centroids.copy()
        for j in range(k):
            members = labels == j
            if members.any():
                new[j] = Z[members].mean(axis=0)
        # Empty clusters grab the point currently farthest from its centroid,
        # which can only lower later objectives.
        empties = [j for j in range(k) if not (labels == j).any()]
        if empties:
            _, dist = _assign(Z, new)
            taken = set()
            for j in empties:
                order = np.argsort(-dist, kind="stable")
                pick = next(int(i) for i in order if int(i) not in taken)
                taken.add(pick)
                new[j] = Z[pick]
        shift = float(np.max(np.linalg.norm(new - centroids, axis=1)))
        centroids = new
        if shift < _TOL:
            break
    labels, d2 = _assign(Z, centroids)
    history.append(float(d2.sum()))
    return centroids, labels, history


def kmeans(Z, k: int, seed: int = 0) -> np.ndarray:
    """Cluster latent rows; returns the (k, s) centroid matrix."""
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {Z.shape}")
    k = check_value("k", k, 1, (lambda v: 1 <= v <= Z.shape[0], f"an integer in [1, {Z.shape[0]}]"))
    seed = check_value("seed", seed, 0, SEED)
    centroids, _, _ = _lloyd(Z, k, seed)
    return centroids


@dataclass
class ClusterModel:
    """Centroids fit on the positives plus the all-instance assignment."""

    centroids: np.ndarray
    assignment: np.ndarray

    @property
    def k(self) -> int:
        return self.centroids.shape[0]


def cluster_split(ds: Dataset, lm: LatentMap, k: int = 5, seed: int = 0) -> ClusterModel:
    """Cluster the positives in latent space and assign every instance.

    Requires at least k positive instances.
    """
    k = check_value("k", k, 1, (lambda v: v >= 1, ">= 1"))
    pos = np.flatnonzero(ds.labels == 1)
    if pos.size < k:
        raise ValueError(f"need at least k={k} positives, got {pos.size}")
    Z = encode(lm, ds.features)
    centroids = kmeans(Z[pos], k, seed)
    assignment, _ = _assign(Z, centroids)
    return ClusterModel(centroids=centroids, assignment=assignment.astype(np.int64))


def leave_one_out_folds(ds: Dataset, model: ClusterModel):
    """One (train_indices, test_indices) pair per cluster.

    Fold j holds out cluster j entirely. Folds partition the dataset; every
    cluster must be nonempty.
    """
    if model.assignment.shape != (ds.n,):
        raise ValueError(f"assignment must have shape ({ds.n},), got {model.assignment.shape}")
    folds = []
    for j in range(model.k):
        test = np.flatnonzero(model.assignment == j)
        if test.size == 0:
            raise ValueError(f"cluster {j} is empty")
        train = np.flatnonzero(model.assignment != j)
        if train.size == 0:
            raise ValueError(f"cluster {j} covers the whole dataset, no train side left")
        folds.append((train, test))
    return folds


@dataclass
class FoldResult:
    """Evaluation of one held-out cluster."""

    fold: int
    test_size: int
    report: dict  # EvalReport.to_dict() shape


def weighted_summary(fold_results) -> dict:
    """Test-size weighted average of every metric across folds.

    Operates on EvalReport dicts, walking the first report's keys in their
    order, so the summary carries the same keys: the ``counts`` are summed.
    """
    if not fold_results:
        raise ValueError("no folds to summarize")
    weights = np.array([fr.test_size for fr in fold_results], dtype=np.float64)
    total = weights.sum()

    def walk(values, summed):
        if isinstance(values[0], dict):
            return {key: walk([v[key] for v in values], summed or key == "counts") for key in values[0]}
        if summed:
            return int(sum(values))
        return float(np.dot(weights, np.asarray(values, dtype=np.float64)) / total)

    return walk([fr.report for fr in fold_results], False)

"""Independent computations of explor's outputs, written without the library.

Each function takes plain inputs -- a bundle's JSON document, score and label
arrays, fold tables -- and recomputes what the package should have produced,
by a different route where one exists: labelers by walking their node lists
one row at a time, the network by its raw weight arrays, AUROC by counting
ordered positive/negative pairs, truncated AUPRC by stepping down the ranked
list. ``test_oracles.py`` checks each one on cases small enough to work by
hand.
"""

from __future__ import annotations

import math

import numpy as np


class CheckFailed(AssertionError):
    """A program output disagreed with an oracle or a required property."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def latent_codes(bundle_doc, X):
    lm = bundle_doc["latent_map"]
    return (np.asarray(X, dtype=np.float64) - np.array(lm["mean"])) @ np.array(lm["components"]).T


def labeler_votes(bundle_doc, Z):
    """(n, K) hard labels from a row-by-row walk of each labeler's trees.

    A tree votes 1 when its leaf fraction reaches the labeler's decision
    threshold; a labeler says 1 when at least half of its trees vote 1.
    """
    labelers = bundle_doc["ensemble"]["labelers"]
    out = np.zeros((len(Z), len(labelers)), dtype=np.int64)
    for i, z in enumerate(np.asarray(Z, dtype=np.float64).tolist()):
        for k, lab in enumerate(labelers):
            ones = 0
            for tree in lab["trees"]:
                node = 0
                while tree["feature"][node] >= 0:
                    go_left = z[tree["feature"][node]] <= tree["threshold"][node]
                    node = tree["left"][node] if go_left else tree["right"][node]
                ones += tree["value"][node] >= lab["decision_threshold"]
            out[i, k] = 2 * ones >= len(lab["trees"])
    return out


def head_logits(bundle_doc, Z):
    """Head logits from the bundle's raw weight arrays: ELU trunk, linear heads."""
    net = bundle_doc["net"]
    params = {k: np.array(v["data"], dtype=np.float64).reshape(v["shape"]) for k, v in net["params"].items()}
    h = np.asarray(Z, dtype=np.float64)
    for i in range(len(net["hidden"])):
        h = h @ params[f"trunk.{i}.w"].T + params[f"trunk.{i}.b"]
        h = np.where(h > 0, h, np.expm1(np.minimum(h, 0.0)))
    return h @ params["heads.w"].T + params["heads.b"]


def head_probs(bundle_doc, Z):
    # tanh form of the logistic function, a different route from exp ratios.
    return 0.5 * (1.0 + np.tanh(0.5 * head_logits(bundle_doc, Z)))


def bundle_scores(bundle_doc, X):
    """The deployed score of each method from the bundle document alone."""
    Z = latent_codes(bundle_doc, X)
    method = bundle_doc["method"]
    if method == "explor":
        return 0.5 * (labeler_votes(bundle_doc, Z).mean(axis=1) + head_probs(bundle_doc, Z).mean(axis=1))
    if method == "erm":
        return head_probs(bundle_doc, Z).mean(axis=1)
    if method == "pl_ens":
        return labeler_votes(bundle_doc, Z).mean(axis=1)
    raise CheckFailed(f"unknown bundle method {method!r}")


def auroc_pairs(scores, labels):
    """Share of (positive, negative) pairs ranked correctly, ties counting half.

    Pairs are counted exactly with a binary search of each positive's score
    among the sorted negative scores.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels).astype(bool)
    pos, neg = s[y], np.sort(s[~y])
    below = np.searchsorted(neg, pos, side="left")
    tied = np.searchsorted(neg, pos, side="right") - below
    return (float(below.sum()) + 0.5 * float(tied.sum())) / (pos.size * neg.size)


def auprc_steps(scores, labels, tau):
    """Truncated AUPRC by walking the ranking (score descending, index ascending).

    Each positive at rank r with running hit count t lifts recall to t/P; the
    precision t/r holds over the recall step it closes, clipped at tau.
    """
    s = [float(v) for v in scores]
    y = [int(v) for v in labels]
    total = sum(y)
    hits, area, prev = 0, 0.0, 0.0
    for rank, i in enumerate(sorted(range(len(s)), key=lambda i: (-s[i], i)), start=1):
        if not y[i]:
            continue
        hits += 1
        recall = hits / total
        area += (hits / rank) * (min(recall, tau) - min(prev, tau))
        prev = recall
        if prev >= tau:
            break
    return area / tau


def test_folds(fold_rows, n):
    """Fold id of each row's test role, from ``(index, fold, role)`` rows.

    Every fold must list every row once, and every row must be a test row in
    exactly one fold.
    """
    folds = {}
    for index, fold, role in fold_rows:
        folds.setdefault(fold, {})[index] = role
    require(all(sorted(rows) == list(range(n)) for rows in folds.values()), "a fold does not list every row once")
    owner = np.full(n, -1, dtype=np.int64)
    for fold, rows in folds.items():
        for index, role in rows.items():
            require(role in ("train", "test"), f"fold {fold}: unknown role {role!r}")
            if role == "test":
                require(owner[index] < 0, f"row {index} is a test row in two folds")
                owner[index] = fold
    require(bool((owner >= 0).all()), "some row is a test row in no fold")
    return owner


def nearest_centroid_consistent(X, labels, owner, rel_tol=1e-9):
    """Leave-one-cluster-out geometry: each fold's test rows are exactly the
    rows nearest to that fold's centroid, the mean of its positive rows.

    Distances may be taken in the raw space when the latent map is a full
    rotation. Returns the number of rows that violate the rule.
    """
    X = np.asarray(X, dtype=np.float64)
    pos = np.asarray(labels) == 1
    k = int(owner.max()) + 1
    cents = np.stack([X[pos & (owner == j)].mean(axis=0) for j in range(k)])
    d2 = ((X[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
    own = d2[np.arange(X.shape[0]), owner]
    return int((own > d2.min(axis=1) * (1.0 + rel_tol) + rel_tol).sum())


def weighted_mean(values, weights):
    return math.fsum(v * w for v, w in zip(values, weights)) / math.fsum(weights)

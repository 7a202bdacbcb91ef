"""Diverse tree ensembles that supply pseudo-labels.

Each labeler sees its own without-replacement row and column subsample and
fits a small CART tree (or a majority-vote forest of them) on it. Split
quality is weighted Gini impurity. ``fit_tree`` stable-argsorts each column
once per tree and hands every node its rows in each column's sorted order,
divided at a split by one boolean row mask; restricted to a node, the
presort is the node's own stable sort. A node scores every (feature, cut)
candidate in one 2-D array, with +inf for cuts between equal values or
leaving fewer than ``min_leaf`` rows on a side, and splits at the first
minimum of that array flattened feature-major: ties go to the lowest
feature index, then the lowest threshold, so fitting is fully
deterministic. The threshold is the midpoint of the two values around the
cut, or the lower value where the midpoint rounds onto the upper one (two
adjacent doubles) or overflows. Tree feature indices always refer to the
original columns.

Prediction lays every tree of every labeler out as a complete binary tree
of depth D, the depth of the deepest tree grown, in heap order: node i has
children 2i+1 and 2i+2. A leaf above depth D becomes a pad node (feature 0,
threshold +inf) whose vote is copied into both subtrees, so every row takes
exactly D steps. Each step is one flat gather of feature and
threshold for all trees and rows at once, one gather of X, and
``idx = 2*idx + 1 + go_right``. Rows go right iff not x <= threshold, so a
NaN goes right.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .data import Dataset, SubsampleSpec, subsample
from .seeding import derive_seed, generator


@dataclass(frozen=True)
class PseudoLabelConfig:
    """Ensemble shape and diversity knobs.

    ``trees_per_labeler`` = 1 gives single-tree labelers; larger values give
    a majority-vote forest per labeler.
    """

    k: int = 64
    max_depth: int = 6
    min_leaf: int = 2
    instance_fraction: float = 0.632
    feature_fraction: float = 0.5
    trees_per_labeler: int = 1
    decision_threshold: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if not self.k >= 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not self.max_depth >= 0:
            raise ValueError(f"max_depth must be >= 0, got {self.max_depth}")
        if not self.min_leaf >= 1:
            raise ValueError(f"min_leaf must be >= 1, got {self.min_leaf}")
        if not self.trees_per_labeler >= 1:
            raise ValueError(f"trees_per_labeler must be >= 1, got {self.trees_per_labeler}")
        if not (0.0 < self.instance_fraction <= 1.0):
            raise ValueError(f"instance_fraction must be in (0, 1], got {self.instance_fraction}")
        if not (0.0 < self.feature_fraction <= 1.0):
            raise ValueError(f"feature_fraction must be in (0, 1], got {self.feature_fraction}")
        if not (0.0 <= self.decision_threshold <= 1.0):
            raise ValueError(f"decision_threshold must be in [0, 1], got {self.decision_threshold}")


class Tree:
    """A CART tree as flat node arrays with explicit child indices.

    ``feature[i] == -1`` marks a leaf; ``value[i]`` is the node's positive
    fraction. Internal nodes route left iff x[feature] <= threshold. The
    arrays are checked on construction, so a bundle's tree cannot link into
    a neighbouring tree of the packed tables.
    """

    def __init__(self, feature, threshold, left, right, value):
        self.feature = np.asarray(feature, dtype=np.int32)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.int32)
        self.right = np.asarray(right, dtype=np.int32)
        self.value = np.asarray(value, dtype=np.float64)
        n = self.feature.size
        arrays = (self.feature, self.threshold, self.left, self.right, self.value)
        if n == 0 or any(a.shape != (n,) for a in arrays):
            raise ValueError(f"tree node arrays must be 1-d, nonempty and equally long, got {[a.shape for a in arrays]}")
        if np.any(self.feature < -1):
            raise ValueError("tree features must be >= -1")
        if not np.all(np.isfinite(self.threshold)):
            raise ValueError("tree thresholds must be finite")
        internal = self.feature >= 0
        children = np.concatenate([self.left[internal], self.right[internal]])
        if np.any((children < 0) | (children >= n)):
            raise ValueError(f"tree child index outside [0, {n})")
        if not np.all((self.value >= 0.0) & (self.value <= 1.0)):
            raise ValueError("tree node values must be in [0, 1]")

    @property
    def n_nodes(self) -> int:
        return self.feature.size

    def to_dict(self) -> dict:
        return {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "value": self.value.tolist(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "Tree":
        return cls(doc["feature"], doc["threshold"], doc["left"], doc["right"], doc["value"])


def fit_tree(X, y, max_depth: int = 6, min_leaf: int = 2) -> Tree:
    """Grow a CART tree on (X, y) with depth and leaf-size stopping rules."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n, d = X.shape
    if n == 0:
        raise ValueError("fit_tree needs at least one row")
    Xt = np.ascontiguousarray(X.T)
    col = (np.arange(d) * n)[:, None]  # Xt.take(order + col)[j] is Xt[j, order[j]]
    in_left = np.zeros(n, dtype=bool)  # one row mask for every split, cleared after use
    feature, threshold, left, right, value = [], [], [], [], []

    def grow(order, pos, depth):
        # order[j] lists the node's rows sorted by column j; pos counts its positives.
        node = len(feature)
        m = order.shape[1]
        frac = pos / m
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(frac)
        if depth >= max_depth or m < 2 * min_leaf or frac in (0.0, 1.0):
            return node
        # Cut c puts a column's first c + 1 sorted rows left; only cuts lo..hi-1
        # leave min_leaf rows on both sides, and column i of the arrays is cut lo + i.
        lo, hi = min_leaf - 1, m - min_leaf
        sv = Xt.take(order + col)
        ok = sv[:, lo + 1 : hi + 1] > sv[:, lo:hi]
        if not ok.any():
            return node
        n_left = np.arange(lo + 1, hi + 1)
        n_right = m - n_left
        pos_left = np.cumsum(y.take(order[:, :hi]), axis=1)[:, lo:]
        p_l = pos_left / n_left
        p_r = (pos - pos_left) / n_right
        gini_l = 1.0 - p_l**2 - (1.0 - p_l) ** 2
        gini_r = 1.0 - p_r**2 - (1.0 - p_r) ** 2
        weighted = (n_left * gini_l + n_right * gini_r) / m
        weighted[~ok] = np.inf
        # The first minimum in feature-major order: lowest feature, then lowest threshold.
        j, i = divmod(int(np.argmin(weighted)), hi - lo)
        a, b = sv[j, lo + i : lo + i + 2].tolist()  # Python floats overflow to inf silently
        t = (a + b) / 2.0
        if not a <= t < b:  # the midpoint rounded onto b, or overflowed: cut at a
            t = a
        n_l, pos_l = lo + i + 1, int(pos_left[j, i])
        in_left[order[j, :n_l]] = True
        go_left = in_left.take(order)
        in_left[order[j, :n_l]] = False
        feature[node] = j
        threshold[node] = t
        left[node] = grow(order[go_left].reshape(d, n_l), pos_l, depth + 1)
        right[node] = grow(order[~go_left].reshape(d, m - n_l), pos - pos_l, depth + 1)
        return node

    grow(np.argsort(Xt, axis=1, kind="stable"), int(y.sum()), 0)
    return Tree(feature, threshold, left, right, value)


class PseudoLabelEnsemble:
    """K labelers as one flat list of trees in labeler order, plus packed node tables.

    Labeler j's trees are ``trees[j*T:(j+1)*T]`` with T =
    ``config.trees_per_labeler``; every tree votes with ``config``'s
    decision threshold.
    """

    def __init__(self, trees, config: PseudoLabelConfig):
        self.trees = list(trees)
        self.config = config
        if len(self.trees) != config.k * config.trees_per_labeler:
            raise ValueError(f"ensemble needs {config.k} labelers of {config.trees_per_labeler} trees, got {len(self.trees)} trees")
        self._pack()

    def _pack(self):
        nt = len(self.trees)
        sizes = np.array([t.n_nodes for t in self.trees])
        start = np.cumsum(sizes) - sizes
        feature = np.concatenate([t.feature for t in self.trees]).astype(np.intp)
        threshold = np.concatenate([t.threshold for t in self.trees])
        shift = np.repeat(start, sizes)
        left = np.concatenate([t.left for t in self.trees]) + shift
        right = np.concatenate([t.right for t in self.trees]) + shift
        # One level of the complete trees at a time: node[t, i] is the real
        # node that heap slot i of tree t stands for; a leaf stands for all
        # of its pad descendants.
        node = start[:, None]
        feats, thrs = [], []
        while True:
            internal = feature[node] >= 0
            if not internal.any():
                break
            if len(feats) >= self.config.max_depth:
                raise ValueError(f"a tree is deeper than max_depth={self.config.max_depth}")
            feats.append(np.where(internal, feature[node], 0))
            thrs.append(np.where(internal, threshold[node], np.inf))
            children = np.empty((nt, 2 * node.shape[1]), dtype=np.intp)
            children[:, 0::2] = np.where(internal, left[node], node)
            children[:, 1::2] = np.where(internal, right[node], node)
            node = children
        self._depth = len(feats)
        # (nt, 2^D - 1) tables; the zero-width first block keeps D = 0 (root-only trees) valid.
        self._feat = np.concatenate([np.zeros((nt, 0), np.intp), *feats], axis=1)
        self._thr = np.concatenate([np.zeros((nt, 0)), *thrs], axis=1)
        self._leaf_vote = np.concatenate([t.value for t in self.trees])[node] >= self.config.decision_threshold
        # Rows need at least this many columns: one more than the largest split feature id.
        self.n_features = int(feature.max()) + 1

    @property
    def k(self) -> int:
        return self.config.k

    def predict_matrix(self, X) -> np.ndarray:
        """(N, K) hard pseudo-labels for every labeler at once."""
        X = np.ascontiguousarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] < self.n_features:
            raise ValueError(f"expected shape (N, >= {self.n_features}), got {X.shape}")
        n, d = X.shape
        nt, inner = self._feat.shape
        # take() reads the tables and X as flat arrays: tree t's slot i is
        # at t * width + i, and X[r, f] is at r * d + f.
        base = (np.arange(nt) * inner)[:, None]
        row = (np.arange(n) * d)[None, :]
        idx = np.zeros((nt, n), dtype=np.intp)
        for _ in range(self._depth):
            node = base + idx
            go_left = X.take(self._feat.take(node) + row) <= self._thr.take(node)
            # idx = 2*idx + 1 + go_right, in place.
            idx *= 2
            idx += 2
            idx -= go_left
        idx += (np.arange(nt) * (inner + 1))[:, None] - inner
        votes = self._leaf_vote.take(idx).reshape(self.k, self.config.trees_per_labeler, n)
        return (votes.mean(axis=1) >= 0.5).T.astype(np.int64)

    def ensemble_mean(self, X) -> np.ndarray:
        """Mean of the K hard labels per row; values are multiples of 1/K."""
        return self.predict_matrix(X).mean(axis=1)

    def to_dict(self) -> dict:
        t, threshold = self.config.trees_per_labeler, float(self.config.decision_threshold)
        labelers = [self.trees[j * t : (j + 1) * t] for j in range(self.k)]
        return {
            "labelers": [{"trees": [tree.to_dict() for tree in lab], "decision_threshold": threshold} for lab in labelers],
            "config": asdict(self.config),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "PseudoLabelEnsemble":
        """Rebuild from ``to_dict`` output; each labeler must agree with the config, and there must be k of them."""
        config = PseudoLabelConfig(**doc["config"])
        labelers = doc["labelers"]
        for j, lab in enumerate(labelers):
            if len(lab["trees"]) != config.trees_per_labeler:
                raise ValueError(f"labeler {j} has {len(lab['trees'])} trees, config says {config.trees_per_labeler}")
            if lab["decision_threshold"] != config.decision_threshold:
                raise ValueError(f"labeler {j} has decision_threshold {lab['decision_threshold']}, config says {config.decision_threshold}")
        return cls([Tree.from_dict(t) for lab in labelers for t in lab["trees"]], config)


def fit_ensemble(ds: Dataset, cfg: PseudoLabelConfig) -> PseudoLabelEnsemble:
    """Fit K labelers, each on its own seeded row/column subsample.

    Per-labeler streams are derived from (cfg.seed, labeler index), so the
    result is identical no matter in what order labelers are fit.
    """
    y = ds.labels
    if np.unique(y).size < 2:
        raise ValueError("fit_ensemble needs both classes in the training set")
    trees = []
    for k in range(cfg.k):
        seed_k = derive_seed(cfg.seed, "labeler", k)
        sub, _, cols = subsample(
            ds, SubsampleSpec(cfg.instance_fraction, cfg.feature_fraction, seed_k)
        )
        for t in range(cfg.trees_per_labeler):
            if cfg.trees_per_labeler == 1:
                tx, ty = sub.features, sub.labels
            else:
                # Forest diversity: re-subsample the labeler's rows per tree.
                rng = generator(derive_seed(seed_k, "tree", t))
                m = math.ceil(cfg.instance_fraction * sub.n)
                pick = np.sort(rng.choice(sub.n, size=m, replace=False))
                tx, ty = sub.features[pick], sub.labels[pick]
            tree = fit_tree(tx, ty, cfg.max_depth, cfg.min_leaf)
            # Remap split features from subsample-local ids to original columns.
            internal = tree.feature >= 0
            tree.feature[internal] = cols[tree.feature[internal]]
            trees.append(tree)
    return PseudoLabelEnsemble(trees, cfg)

"""Diverse tree ensembles that supply pseudo-labels.

Each labeler sees its own without-replacement row and column subsample and
fits a small CART tree (or a majority-vote forest of them) on it. Split
quality is weighted Gini impurity.

Trees grow level by level, a block of equal-shape trees at a time:
``fit_ensemble`` grows trees of up to ``_BLOCK_ROWS`` rows in all together,
and ``fit_tree`` is the block of one. The rows of each node stay one
contiguous run of each column's stable presort; restricted to a node, the
presort is the node's own stable sort. An ensemble stable-sorts each
training column once, since restricted to a tree's ascending rows that
order is the tree's own. One set of array operations handles every node of every tree
of a level. A segmented cumsum counts the positives left of each cut. The
weighted Gini of every (node, feature, cut) candidate is formed in the IEEE
operation order of the per-node formula, with +inf for cuts between equal
values, cuts leaving fewer than ``min_leaf`` rows on a side, and pure
nodes. ``minimum.reduceat`` then picks each node's first minimum of its
candidates flattened feature-major: ties go to the lowest feature index,
then the lowest threshold, so fitting is fully deterministic. Two boolean
compresses move the rows of all left children, then of all right children,
into the next level's runs. The threshold is the midpoint of the two values
around the cut, or the lower value where the midpoint rounds onto the upper
one (two adjacent doubles) or overflows. At the end each tree's nodes are
renumbered into preorder, a node before its left subtree before its right
one, as a recursive grower numbers them; so a tree has the same bytes
whatever block it grew in. Tree feature indices always refer to the
original columns.

Prediction walks the trees' own nodes, concatenated into flat arrays: a
leaf has threshold NaN and links to itself on both sides. Each of D steps,
D the depth of the deepest tree, is one flat gather of feature and
threshold for all trees and rows at once, one gather of X and one of the
child. Rows go left iff x <= threshold, so a NaN goes right and a row at a
leaf stays there.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .data import FRACTION, SEED, Dataset, check_fields, draw, fraction_count, ranged
from .seeding import derive_seed, generator


@dataclass(frozen=True)
class PseudoLabelConfig:
    """Ensemble shape and diversity knobs.

    ``trees_per_labeler`` = 1 gives single-tree labelers; larger values give
    a majority-vote forest per labeler.
    """

    k: int = ranged(64, lambda v: v >= 1, ">= 1")
    max_depth: int = ranged(6, lambda v: v >= 0, ">= 0")
    min_leaf: int = ranged(2, lambda v: v >= 1, ">= 1")
    instance_fraction: float = ranged(0.632, *FRACTION)
    feature_fraction: float = ranged(0.5, *FRACTION)
    trees_per_labeler: int = ranged(1, lambda v: v >= 1, ">= 1")
    decision_threshold: float = ranged(0.5, lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
    seed: int = ranged(0, *SEED)

    def __post_init__(self):
        check_fields(self)


def _node_ints(values, name: str) -> np.ndarray:
    """A tree's node ints as int32; a float, a bool or an int outside int32 is an error, never truncated."""
    a = np.asarray(values)
    bools = not isinstance(values, np.ndarray) and not {bool, np.bool_}.isdisjoint(map(type, values))
    if a.size and (a.dtype.kind not in "iu" or bools):
        raise ValueError(f"tree {name} entries must be integers")
    out = a.astype(np.int32)
    if not (out == a).all():
        raise ValueError(f"tree {name} entries must be integers that fit in int32")
    return out


class Tree:
    """A CART tree as flat node arrays with explicit child indices.

    ``feature[i] == -1`` marks a leaf; ``value[i]`` is the node's positive
    fraction. Internal nodes route left iff x[feature] <= threshold. The
    arrays are checked on construction, so a bundle's tree cannot link into
    a neighbouring tree of the packed tables, back to its root or twice to
    one node.
    """

    def __init__(self, feature, threshold, left, right, value):
        self.feature = _node_ints(feature, "feature")
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = _node_ints(left, "left")
        self.right = _node_ints(right, "right")
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
        # No link to the root and none twice: what the root reaches is a tree.
        links = np.bincount(children, minlength=n)
        if links[0] or links.max() > 1:
            raise ValueError("tree child links must reach each node at most once and never the root")
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


# The most rows, summed over its trees, that one block grows together. It
# bounds the level temporaries, about ten (d, rows) arrays, whatever K * T is.
_BLOCK_ROWS = 4096


def fit_tree(X, y, max_depth: int = 6, min_leaf: int = 2) -> Tree:
    """Grow a CART tree on (X, y) with depth and leaf-size stopping rules.

    This is the level-wise grower run on a block of one tree. ``max_depth``
    and ``min_leaf`` must be in the ranges :class:`PseudoLabelConfig` declares.
    """
    cfg = PseudoLabelConfig(max_depth=max_depth, min_leaf=min_leaf)
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n, d = X.shape
    if n == 0:
        raise ValueError("fit_tree needs at least one row")
    if d == 0:  # nothing to split on
        return Tree([-1], [0.0], [-1], [-1], [y.sum() / n])
    Xt = np.ascontiguousarray(X.T)
    (tree,) = _grow(Xt, y, np.argsort(Xt, axis=1, kind="stable"), np.arange(d)[None], cfg.max_depth, cfg.min_leaf)
    return tree


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _grow(Xt, y, order, cols, max_depth, min_leaf) -> list:
    """Grow B trees of n rows and d columns each, one level of all of them at a time.

    ``Xt`` (d, B*n) holds tree b's values in columns b*n..(b+1)*n and ``y``
    its labels; ``order[j]`` lists each tree's rows sorted by column j within
    the tree's own run of n. ``cols`` (B, d) maps a tree's column j to the
    feature id it is stored under.
    """
    d, total = order.shape
    n_trees = cols.shape[0]
    flat = (np.arange(d) * total)[:, None]  # Xt.take(order + flat)[j] is Xt[j, order[j]]
    in_left = np.zeros(total, dtype=bool)
    # The level's nodes: each owns positions start..start+size of every row of order.
    size = np.full(n_trees, total // n_trees)
    start = np.arange(n_trees) * size[0]
    tree = np.arange(n_trees)
    levels = []  # per level: (tree, value, split, feature, threshold)
    for depth in range(max_depth + 1):
        width = order.shape[1]
        pos = np.add.reduceat(y.take(order[0]), start)
        value = pos / size
        if depth == max_depth:
            levels.append((tree, value, np.zeros(size.size, dtype=bool), None, None))
            break
        node = np.repeat(np.arange(size.size), size)  # the node of each position
        sv = Xt.take(order + flat)
        labels = y.take(order)
        # Segmented cumsum: each node's first position subtracts the positives of the nodes before it.
        labels[:, start[1:]] -= pos[:-1]
        pos_left = np.cumsum(labels, axis=1, out=labels)
        n_left = np.arange(1, width + 1) - np.repeat(start, size)
        n_right = np.repeat(size, size) - n_left
        # Cut c puts a node's first c + 1 sorted rows left; it needs min_leaf rows
        # on each side, distinct values around it, and a node that is not pure.
        ok = np.zeros((d, width), dtype=bool)
        np.greater(sv[:, 1:], sv[:, :-1], out=ok[:, :-1])
        ok &= (n_left >= min_leaf) & (n_right >= min_leaf) & ((pos > 0) & (pos < size))[node]
        # The weighted Gini (n_l * g(p_l) + n_r * g(p_r)) / m with g(p) = 1 - p**2 - (1 - p)**2,
        # in that formula's operation order so trees keep their bytes. It is formed in
        # place, freeing each temporary early, so a level holds only a few (d, width) buffers.
        gini_l = np.divide(pos_left, n_left)
        np.subtract(pos[node], pos_left, out=pos_left)
        gini_r = np.divide(pos_left, n_right)  # 0 / 0 at each node's last position, masked below
        del pos_left, labels
        tmp = np.empty_like(gini_l)
        for g in (gini_l, gini_r):
            np.subtract(1.0, g, out=tmp)
            np.square(tmp, out=tmp)
            np.square(g, out=g)
            np.subtract(1.0, g, out=g)
            g -= tmp
        del tmp
        gini_l *= n_left
        gini_r *= n_right
        weighted = np.add(gini_l, gini_r, out=gini_l)
        del gini_r
        weighted /= size[node]
        np.logical_not(ok, out=ok)
        np.copyto(weighted, np.inf, where=ok)
        # The first minimum of each node's (d, m) block, flattened feature-major.
        col_min = np.minimum.reduceat(weighted, start, axis=1)
        best = col_min.min(axis=0, initial=np.inf)
        split = best < np.inf
        j = (col_min == best).argmax(axis=0)
        at = np.arange(width)
        in_j = j[node] * width + at  # each position in its node's column j
        hit = weighted.take(in_j) == best[node]
        cut = np.minimum.reduceat(np.where(hit, at, width), start)
        feature = j[split]
        a = sv[feature, cut[split]]
        b = sv[feature, cut[split] + 1]
        t = (a + b) / 2.0
        # The midpoint rounded onto b, or overflowed: cut at a.
        threshold = np.where((a <= t) & (t < b), t, a)
        levels.append((tree, value, split, cols[tree[split], feature], threshold))
        if not split.any():
            break
        # Rows up to the cut in the split column go left: mark them, then read
        # the mark in every column's order and compress left, then right.
        in_left[order.take(in_j)] = at <= cut[node]
        go_left = in_left.take(order)
        keep = split[node]
        go_left &= keep
        go_right = np.not_equal(keep, go_left)
        order = np.concatenate([np.compress(go.ravel(), order).reshape(d, -1) for go in (go_left, go_right)], axis=1)
        n_l = cut[split] - start[split] + 1
        size = np.concatenate([n_l, size[split] - n_l])
        start = np.cumsum(size) - size
        tree = np.concatenate([tree[split], tree[split]])
    return _preorder(levels, n_trees)


def _preorder(levels, n_trees) -> list:
    """Number each tree's nodes in preorder, as a recursive grower would, and build the Trees.

    A level's split nodes have their left children first, then their right
    children, in the same order at the next level. A left child follows its
    parent; a right child follows the parent's whole left subtree.
    """
    below = np.zeros(0, dtype=np.intp)
    subtree = []
    for _, value, split, _, _ in reversed(levels):
        s = np.ones(value.size, dtype=np.intp)
        s[split] += below[: below.size // 2] + below[below.size // 2 :]
        subtree.append(s)
        below = s
    subtree.reverse()
    n_nodes = subtree[0]
    first = np.cumsum(n_nodes) - n_nodes
    total = int(n_nodes.sum())
    feature = np.full(total, -1, dtype=np.int32)
    threshold = np.zeros(total)
    left = np.full(total, -1, dtype=np.int32)
    right = np.full(total, -1, dtype=np.int32)
    value = np.empty(total)
    pre = np.zeros(n_trees, dtype=np.intp)
    for depth, (tree, val, split, feat, thr) in enumerate(levels):
        at = first[tree] + pre
        value[at] = val
        if not split.any():
            break
        at = at[split]
        feature[at] = feat
        threshold[at] = thr
        pre_l = pre[split] + 1
        pre_r = pre_l + subtree[depth + 1][: pre_l.size]
        left[at] = pre_l
        right[at] = pre_r
        pre = np.concatenate([pre_l, pre_r])
    return [
        Tree(*(arr[o : o + m] for arr in (feature, threshold, left, right, value)))
        for o, m in zip(first.tolist(), n_nodes.tolist())
    ]


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
        sizes = np.array([t.n_nodes for t in self.trees])
        self._roots = np.cumsum(sizes) - sizes
        feature = np.concatenate([t.feature for t in self.trees]).astype(np.intp)
        leaf = feature < 0
        # Rows need at least this many columns: one more than the largest split feature id.
        self.n_features = int(feature.max()) + 1
        self._feat = np.where(leaf, 0, feature)
        self._thr = np.where(leaf, np.nan, np.concatenate([t.threshold for t in self.trees]))
        self._vote = np.concatenate([t.value for t in self.trees]) >= self.config.decision_threshold
        # Row i holds node i's right, then left child, so flat entry 2i + go_left is
        # where a row goes from node i; a leaf is its own child.
        links = np.stack([np.concatenate([t.right for t in self.trees]), np.concatenate([t.left for t in self.trees])], axis=1)
        shift = np.repeat(self._roots, sizes)[:, None]
        self._children = np.where(leaf[:, None], np.arange(leaf.size)[:, None], links + shift)
        # The deepest tree's depth, one level of real nodes at a time.
        self._depth = 0
        level = self._roots[~leaf[self._roots]]
        while level.size:
            if self._depth >= self.config.max_depth:
                raise ValueError(f"a tree is deeper than max_depth={self.config.max_depth}")
            self._depth += 1
            level = self._children[level].ravel()
            level = level[~leaf[level]]

    @property
    def k(self) -> int:
        return self.config.k

    def predict_matrix(self, X) -> np.ndarray:
        """(N, K) hard pseudo-labels for every labeler at once."""
        X = np.ascontiguousarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] < self.n_features:
            raise ValueError(f"expected shape (N, >= {self.n_features}), got {X.shape}")
        n, d = X.shape
        # take() reads X as a flat array: X[r, f] is at r * d + f.
        row = (np.arange(n) * d)[None, :]
        node = np.repeat(self._roots[:, None], n, axis=1)
        for _ in range(self._depth):
            go_left = X.take(self._feat.take(node) + row) <= self._thr.take(node)
            node = self._children.take(2 * node + go_left)
        votes = self._vote.take(node).reshape(self.k, self.config.trees_per_labeler, n)
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
    result is identical no matter in what order labelers are fit. Trees are
    grown in blocks of at most ``_BLOCK_ROWS`` rows in all, each gathered
    from the training matrix when its block starts.
    """
    if np.unique(ds.labels).size < 2:
        raise ValueError("fit_ensemble needs both classes in the training set")
    # rank[i, j] is row i's place in column j's stable sort, so sorting a tree's
    # rows by rank gives the tree's own stable sort, because its rows ascend.
    # One column at a time keeps the sort's index temporary to one column.
    rank = np.empty(ds.features.shape, dtype=np.intp)
    for j, column in enumerate(ds.features.T):
        rank[np.argsort(column, kind="stable"), j] = np.arange(ds.n)
    trees, block = [], []
    for rows, cols in _tree_draws(ds.n, ds.d, cfg):
        block.append((rows, cols))
        if (len(block) + 1) * rows.size > _BLOCK_ROWS:
            trees += _grow_subsamples(ds.features, rank, ds.labels, block, cfg)
            block = []
    if block:
        trees += _grow_subsamples(ds.features, rank, ds.labels, block, cfg)
    return PseudoLabelEnsemble(trees, cfg)


def _tree_draws(n: int, d: int, cfg: PseudoLabelConfig):
    """Each tree's sorted (rows, cols) of an (n, d) training set, in labeler order.

    Labeler k draws rows, then columns, from its seed; a forest tree re-draws its labeler's rows from its own.
    """
    m = fraction_count(cfg.instance_fraction, n)
    c = fraction_count(cfg.feature_fraction, d)
    m_tree = fraction_count(cfg.instance_fraction, m)
    for k in range(cfg.k):
        seed_k = derive_seed(cfg.seed, "labeler", k)
        rng = generator(seed_k)
        rows, cols = draw(n, m, rng), draw(d, c, rng)
        if cfg.trees_per_labeler == 1:
            yield rows, cols
            continue
        for t in range(cfg.trees_per_labeler):
            yield rows[draw(m, m_tree, generator(derive_seed(seed_k, "tree", t)))], cols


def _grow_subsamples(X, rank, y, block, cfg: PseudoLabelConfig) -> list:
    """The trees of one block of equal-shape (rows, cols) draws from the training matrix ``X``."""
    rows = np.stack([r for r, _ in block])
    cols = np.stack([c for _, c in block])
    (b, n), d = rows.shape, cols.shape[1]
    at = (rows[:, None, :], cols[:, :, None])  # (b, d, n): tree i's row r of column j
    # Ranks within a column are distinct, so any sort of them is the stable one.
    order = np.argsort(rank[at], axis=2) + (np.arange(b) * n)[:, None, None]
    order = order.transpose(1, 0, 2).reshape(d, b * n)
    values = X[at].transpose(1, 0, 2).reshape(d, b * n)
    return _grow(values, y[rows].ravel(), order, cols, cfg.max_depth, cfg.min_leaf)

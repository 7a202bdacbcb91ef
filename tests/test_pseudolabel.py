"""CART splitting and the diverse labeler ensemble.

The split oracle re-scans every candidate (feature, midpoint) pair with
naive loops and checks that each internal node of a fitted tree attains the
minimum weighted Gini. Tie-break rules are pinned by exact integer-valued
constructions. A reference CART, the per-node argsort and per-feature
loop ``fit_tree`` used to run, must grow the same trees byte for byte. The
prediction oracle walks one tree for one row at a time, node by node, and
the packed complete-tree walk must match it exactly.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from explor import data
from explor.data import Dataset, fraction_count, make_synthetic_radial
from explor.latent import encode, fit_pca
from explor.pseudolabel import (
    PseudoLabelConfig,
    PseudoLabelEnsemble,
    Tree,
    fit_ensemble,
    fit_tree,
)
from explor.seeding import derive_seed, generator


# ---------------------------------------------------------------- oracles

def oracle_weighted_gini(y_left, y_right):
    def gini(y):
        if len(y) == 0:
            return 0.0
        p = sum(y) / len(y)
        return 1.0 - p * p - (1.0 - p) * (1.0 - p)

    n = len(y_left) + len(y_right)
    return (len(y_left) * gini(y_left) + len(y_right) * gini(y_right)) / n


def oracle_candidates(X, y, min_leaf):
    """All (feature, midpoint threshold, weighted Gini) triples."""
    out = []
    for j in range(X.shape[1]):
        vals = sorted(set(X[:, j]))
        for a, b in zip(vals, vals[1:]):
            t = (a + b) / 2.0
            left = [y[i] for i in range(len(y)) if X[i, j] <= t]
            right = [y[i] for i in range(len(y)) if X[i, j] > t]
            if len(left) < min_leaf or len(right) < min_leaf:
                continue
            out.append((j, t, oracle_weighted_gini(left, right)))
    return out


def walk_and_check(tree, X, y, min_leaf, max_depth):
    """Recompute each node's row set; check optimality, midpoints, leaf stats."""
    stack = [(0, np.arange(len(y)), 0)]
    while stack:
        node, rows, depth = stack.pop()
        ys = y[rows]
        f = int(tree.feature[node])
        if f < 0:
            assert rows.size >= 1
            assert tree.value[node] == ys.mean()
            continue
        assert depth < max_depth
        t = tree.threshold[node]
        # Threshold must be a midpoint of consecutive distinct values here.
        vals = np.unique(X[rows, f])
        mids = (vals[:-1] + vals[1:]) / 2.0
        assert t in mids
        go_left = X[rows, f] <= t
        assert go_left.sum() >= min_leaf and (~go_left).sum() >= min_leaf
        # Exhaustive re-scan: the chosen split attains the minimum.
        cands = oracle_candidates(X[rows], list(ys), min_leaf)
        got = oracle_weighted_gini(list(ys[go_left]), list(ys[~go_left]))
        best = min(g for _, _, g in cands)
        assert got <= best + 1e-12
        stack.append((int(tree.left[node]), rows[go_left], depth + 1))
        stack.append((int(tree.right[node]), rows[~go_left], depth + 1))


def oracle_fraction(tree, x):
    """Leaf positive fraction of one row; ties go left, NaN fails <= and goes right."""
    node = 0
    while tree.feature[node] >= 0:
        go_left = x[tree.feature[node]] <= tree.threshold[node]
        node = tree.left[node] if go_left else tree.right[node]
    return float(tree.value[node])


def oracle_fractions(tree, X):
    return np.array([oracle_fraction(tree, x) for x in X])


def labeler_trees(ens, j):
    """Labeler j's trees: its block of the flat, labeler-ordered tree list."""
    t = ens.config.trees_per_labeler
    return ens.trees[j * t : (j + 1) * t]


def oracle_matrix(ens, X):
    """(N, K) hard labels: each tree votes on its leaf fraction, each labeler takes the majority."""
    out = np.zeros((len(X), ens.k), dtype=np.int64)
    for j in range(ens.k):
        for i, x in enumerate(X):
            votes = [oracle_fraction(t, x) >= ens.config.decision_threshold for t in labeler_trees(ens, j)]
            out[i, j] = sum(votes) / len(votes) >= 0.5
    return out


def reference_best_split(X, y, min_leaf):
    """The per-node split search ``fit_tree`` used to run: a stable argsort of
    every feature at every node, features scanned in a Python loop, and only
    strict improvements accepted. Kept as the byte-identity reference; the
    one change is the midpoint fallback to the lower value."""
    n = y.size
    total_pos = int(y.sum())
    best = None
    best_gini = np.inf
    for j in range(X.shape[1]):
        v = X[:, j]
        order = np.argsort(v, kind="stable")
        sv = v[order]
        cum_pos = np.cumsum(y[order])
        cut = np.flatnonzero(sv[1:] > sv[:-1])
        if cut.size == 0:
            continue
        n_left = cut + 1
        n_right = n - n_left
        ok = (n_left >= min_leaf) & (n_right >= min_leaf)
        if not ok.any():
            continue
        cut = cut[ok]
        n_left = n_left[ok]
        n_right = n_right[ok]
        pos_left = cum_pos[cut]
        pos_right = total_pos - pos_left
        p_l = pos_left / n_left
        p_r = pos_right / n_right
        gini_l = 1.0 - p_l**2 - (1.0 - p_l) ** 2
        gini_r = 1.0 - p_r**2 - (1.0 - p_r) ** 2
        weighted = (n_left * gini_l + n_right * gini_r) / n
        k = int(np.argmin(weighted))  # first minimum: lowest threshold wins
        if weighted[k] < best_gini:
            best_gini = float(weighted[k])
            i = int(cut[k])
            t = (sv[i] + sv[i + 1]) / 2.0
            best = (j, t if sv[i] <= t < sv[i + 1] else sv[i])
    return best


def reference_fit_tree(X, y, max_depth=6, min_leaf=2):
    """Recursive CART on the reference split search, numbering nodes in preorder."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    feature, threshold, left, right, value = [], [], [], [], []

    def grow(rows, depth):
        node = len(feature)
        ys = y[rows]
        frac = float(ys.mean())
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(frac)
        if depth >= max_depth or rows.size < 2 * min_leaf or frac in (0.0, 1.0):
            return node
        split = reference_best_split(X[rows], ys, min_leaf)
        if split is None:
            return node
        j, t = split
        go_left = X[rows, j] <= t
        feature[node] = j
        threshold[node] = t
        left[node] = grow(rows[go_left], depth + 1)
        right[node] = grow(rows[~go_left], depth + 1)
        return node

    grow(np.arange(X.shape[0]), 0)
    return Tree(feature, threshold, left, right, value)


TREE_ARRAYS = ("feature", "threshold", "left", "right", "value")


def assert_same_bytes(got, want):
    for name in TREE_ARRAYS:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def tree_depth(tree, node=0):
    if tree.feature[node] < 0:
        return 0
    return 1 + max(tree_depth(tree, int(tree.left[node])), tree_depth(tree, int(tree.right[node])))


# ------------------------------------------------------------------- cart

class TestFitTree:
    def test_clean_split(self):
        tree = fit_tree(np.array([[1.0], [2.0], [3.0], [4.0]]), np.array([0, 0, 1, 1]))
        assert tree.feature[0] == 0 and tree.threshold[0] == 2.5
        out = oracle_fractions(tree, np.array([[0.0], [2.5], [2.6], [9.0]]))
        assert out.tolist() == [0.0, 0.0, 1.0, 1.0]

    def test_boundary_goes_left(self):
        tree = Tree([0, -1, -1], [0.5, 0.0, 0.0], [1, -1, -1], [2, -1, -1], [0.5, 0.2, 0.8])
        X = np.array([[0.5], [np.nextafter(0.5, 1.0)], [np.nextafter(0.5, 0.0)]])
        assert oracle_fractions(tree, X).tolist() == [0.2, 0.8, 0.2]
        assert hand_ensemble([tree]).predict_matrix(X)[:, 0].tolist() == [0, 1, 0]

    def test_tie_takes_lowest_feature(self):
        X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]])
        tree = fit_tree(X, np.array([0, 0, 1, 1]), min_leaf=1)
        assert tree.feature[0] == 0

    def test_tie_takes_lowest_threshold(self):
        # Splits at 1.5 and 3.5 both give weighted Gini 1/3.
        tree = fit_tree(np.array([[1.0], [2.0], [3.0], [4.0]]), np.array([1, 0, 0, 1]), min_leaf=1)
        assert tree.threshold[0] == 1.5

    def test_pure_node_is_leaf(self):
        tree = fit_tree(np.ones((5, 2)) * np.arange(5)[:, None], np.ones(5, dtype=int))
        assert tree.n_nodes == 1 and tree.feature[0] == -1 and tree.value[0] == 1.0

    def test_single_row_is_leaf(self):
        tree = fit_tree(np.array([[3.0]]), np.array([1]))
        assert tree.n_nodes == 1 and tree.value[0] == 1.0

    def test_no_columns_is_leaf(self):
        tree = fit_tree(np.zeros((3, 0)), np.array([0, 1, 1]))
        assert tree.n_nodes == 1 and tree.feature[0] == -1 and tree.value[0] == 2 / 3

    def test_constant_features_are_leaf(self):
        tree = fit_tree(np.ones((6, 3)), np.array([0, 1, 0, 1, 0, 1]))
        assert tree.n_nodes == 1 and tree.value[0] == 0.5

    def test_max_depth_honored(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((200, 4))
        y = (X[:, 0] * X[:, 1] > 0).astype(int)
        for depth in (0, 1, 2, 4):
            tree = fit_tree(X, y, max_depth=depth, min_leaf=1)
            assert tree_depth(tree) <= depth

    def test_nodes_optimal_by_exhaustive_rescan(self):
        """Every internal node's split minimizes weighted Gini (n <= 50)."""
        rng = np.random.default_rng(7)
        for trial in range(25):
            n = int(rng.integers(5, 51))
            X = np.round(rng.standard_normal((n, 3)), 1)  # coarse grid forces ties
            y = rng.integers(0, 2, n)
            if y.sum() in (0, n):
                continue
            tree = fit_tree(X, y, max_depth=3, min_leaf=2)
            walk_and_check(tree, X, y, min_leaf=2, max_depth=3)

    def test_min_leaf_blocks_small_children(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0], [5.0]])
        y = np.array([1, 0, 0, 0, 0])
        # min_leaf=2 forbids isolating row 0; best allowed split is 2.5 or later.
        tree = fit_tree(X, y, min_leaf=2)
        if tree.feature[0] >= 0:
            assert tree.threshold[0] >= 2.5

    def test_monotone_transform_keeps_training_predictions(self):
        """Strictly increasing per-feature maps leave the fitted partition alone."""
        rng = np.random.default_rng(11)
        X = rng.standard_normal((60, 3))
        y = (X[:, 0] + X[:, 2] > 0.2).astype(int)
        t1 = fit_tree(X, y, max_depth=4)
        X2 = X.copy()
        X2[:, 0] = np.exp(X2[:, 0])
        X2[:, 2] = np.arctan(X2[:, 2])
        t2 = fit_tree(X2, y, max_depth=4)
        assert np.array_equal(oracle_fractions(t1, X), oracle_fractions(t2, X2))

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((80, 4))
        y = rng.integers(0, 2, 80)
        a, b = fit_tree(X, y), fit_tree(X, y)
        assert np.array_equal(a.feature, b.feature)
        assert np.array_equal(a.threshold, b.threshold)

    @pytest.mark.parametrize("a, b", [
        (np.nextafter(1.0, 2.0), np.nextafter(np.nextafter(1.0, 2.0), 2.0)),  # (a + b) / 2 rounds to b
        (1e308, 1.5e308),  # a + b overflows to +inf
        (-1.5e308, -1e308),  # a + b overflows to -inf
    ])
    def test_midpoint_that_leaves_the_gap_cuts_at_the_lower_value(self, a, b):
        tree = fit_tree([[a], [a], [b], [b]], [0, 0, 1, 1], min_leaf=1)
        assert tree.feature[0] == 0 and tree.threshold[0] == a
        assert tree.value.tolist() == [0.5, 0.0, 1.0]
        assert oracle_fractions(tree, np.array([[a], [b]])).tolist() == [0.0, 1.0]

    def test_rejects_no_rows(self):
        with pytest.raises(ValueError, match="at least one row"):
            fit_tree(np.zeros((0, 2)), np.zeros(0, dtype=int))

    def test_json_roundtrip(self):
        rng = np.random.default_rng(17)
        X = rng.standard_normal((50, 3))
        y = rng.integers(0, 2, 50)
        tree = fit_tree(X, y)
        back = Tree.from_dict(json.loads(json.dumps(tree.to_dict())))
        for name in ("feature", "threshold", "left", "right", "value"):
            assert np.array_equal(getattr(back, name), getattr(tree, name))
        assert np.array_equal(oracle_fractions(back, X), oracle_fractions(tree, X))


# Values that make ties, constant columns, midpoints that round onto the
# upper value (adjacent doubles) and sums that overflow.
_ONE_UP = np.nextafter(1.0, 2.0)
TRICKY_VALUES = [-2.0, 0.0, 0.5, 1.0, _ONE_UP, np.nextafter(_ONE_UP, 2.0), 3.0, -1.5e308, -1e308, 1e308, 1.5e308]


@st.composite
def small_fits(draw):
    n = draw(st.integers(1, 24))
    d = draw(st.integers(1, 4))
    pools = [st.sampled_from(TRICKY_VALUES), st.floats(-4, 4, width=16), st.just(1.0)]
    cols = [draw(st.lists(draw(st.sampled_from(pools)), min_size=n, max_size=n)) for _ in range(d)]
    y = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return np.array(cols, dtype=np.float64).T.reshape(n, d), np.array(y), draw(st.integers(0, 10)), draw(st.integers(1, 3))


@st.composite
def small_ensembles(draw):
    """A dataset and config whose K·T trees of up to a few hundred rows span one or several blocks."""
    n = draw(st.integers(2, 400))
    d = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    X = rng.integers(-2, 3, (n, d)).astype(float) if draw(st.booleans()) else rng.standard_normal((n, d))
    if draw(st.booleans()):
        X[:, draw(st.integers(0, d - 1))] = 1.0
    y = rng.integers(0, 2, n)
    y[0], y[-1] = 0, 1
    cfg = PseudoLabelConfig(
        k=draw(st.integers(1, 24)),
        trees_per_labeler=draw(st.integers(1, 4)),
        max_depth=draw(st.integers(0, 8)),
        min_leaf=draw(st.integers(1, 5)),
        instance_fraction=draw(st.sampled_from([0.3, 0.632, 1.0])),
        feature_fraction=draw(st.sampled_from([0.5, 1.0])),
        seed=seed,
    )
    return Dataset(X, y), cfg


class TestFitTreeMatchesReference:
    """The presorted one-pass ``fit_tree`` grows the reference's trees byte for byte."""

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # the reference's numpy midpoint
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(small_fits())
    def test_small_fits(self, case):
        X, y, max_depth, min_leaf = case
        assert_same_bytes(fit_tree(X, y, max_depth, min_leaf), reference_fit_tree(X, y, max_depth, min_leaf))

    def test_every_labeler_of_a_benchmark_shaped_fit(self):
        # The benchmark's training set (N=2000, d=8) encoded by its PCA map, k=64 labelers.
        train, _ = make_synthetic_radial(2000, 10, 8, 7)
        ds = Dataset(encode(fit_pca(train.features), train.features), train.labels)
        cfg = PseudoLabelConfig(k=64, seed=7)
        ens = fit_ensemble(ds, cfg)
        for j in range(cfg.k):
            rows, cols = labeler_subsample(ds, cfg, j)
            want = reference_fit_tree(ds.features[rows][:, cols], ds.labels[rows], cfg.max_depth, cfg.min_leaf)
            want.feature[want.feature >= 0] = cols[want.feature[want.feature >= 0]]
            assert_same_bytes(ens.trees[j], want)

    def test_every_tree_of_a_criterion_7_shaped_forest(self):
        # Criterion 7's forest labelers: 64 labelers of 5 trees on the encoded benchmark set.
        train, _ = make_synthetic_radial(2000, 10, 8, 11)
        ds = Dataset(encode(fit_pca(train.features), train.features), train.labels)
        cfg = PseudoLabelConfig(k=64, trees_per_labeler=5, seed=derive_seed(11, "ensemble"))
        ens = fit_ensemble(ds, cfg)
        for i, tree in enumerate(ens.trees):
            rows, cols = tree_subsample(ds, cfg, *divmod(i, cfg.trees_per_labeler))
            want = reference_fit_tree(ds.features[rows][:, cols], ds.labels[rows], cfg.max_depth, cfg.min_leaf)
            want.feature[want.feature >= 0] = cols[want.feature[want.feature >= 0]]
            assert_same_bytes(tree, want)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(small_ensembles())
    def test_small_ensembles_tree_by_tree(self, case):
        """Trees grown together, across block boundaries, are each ``fit_tree`` on the tree's own subsample."""
        ds, cfg = case
        ens = fit_ensemble(ds, cfg)
        for i, tree in enumerate(ens.trees):
            rows, cols = tree_subsample(ds, cfg, *divmod(i, cfg.trees_per_labeler))
            want = fit_tree(ds.features[rows][:, cols], ds.labels[rows], cfg.max_depth, cfg.min_leaf)
            want.feature[want.feature >= 0] = cols[want.feature[want.feature >= 0]]
            assert_same_bytes(tree, want)



# --------------------------------------------------------------- ensemble

NAN = float("nan")


@pytest.mark.parametrize("kw", [
    {"k": 0}, {"k": NAN},
    {"max_depth": -1}, {"max_depth": NAN},
    {"min_leaf": 0}, {"min_leaf": NAN},
    {"trees_per_labeler": 0}, {"trees_per_labeler": NAN},
    {"instance_fraction": 0.0}, {"instance_fraction": NAN},
    {"feature_fraction": 1.5}, {"feature_fraction": NAN},
    {"decision_threshold": -0.1}, {"decision_threshold": 1.5}, {"decision_threshold": NAN},
    {"decision_threshold": True}, {"instance_fraction": True}, {"decision_threshold": np.True_},
])
def test_config_rejects(kw):
    with pytest.raises(ValueError, match=next(iter(kw))):
        PseudoLabelConfig(**kw)


def demo_ds(n=200, d=8, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int)
    return Dataset(X, y)


def labeler_subsample(ds, cfg, j):
    """The (rows, columns) labeler j is fit on: rows, then columns, drawn from its own seed."""
    rng = generator(derive_seed(cfg.seed, "labeler", j))
    rows = data.draw(ds.n, fraction_count(cfg.instance_fraction, ds.n), rng)
    return rows, data.draw(ds.d, fraction_count(cfg.feature_fraction, ds.d), rng)


def tree_subsample(ds, cfg, j, t):
    """The (rows, columns) tree t of labeler j is fit on: the labeler's draw, re-drawn per tree in a forest."""
    rows, cols = labeler_subsample(ds, cfg, j)
    if cfg.trees_per_labeler == 1:
        return rows, cols
    rng = generator(derive_seed(derive_seed(cfg.seed, "labeler", j), "tree", t))
    return rows[data.draw(rows.size, fraction_count(cfg.instance_fraction, rows.size), rng)], cols


class TestEnsemble:
    def test_shapes_and_subset_sizes(self):
        ds = demo_ds()
        cfg = PseudoLabelConfig(k=8, seed=5)
        ens = fit_ensemble(ds, cfg)
        assert ens.k == 8 and len(ens.trees) == 8
        for j in range(ens.k):
            rows, cols = labeler_subsample(ds, cfg, j)
            assert rows.size == math.ceil(0.632 * ds.n)
            assert cols.size == math.ceil(0.5 * ds.d)
            for tree in labeler_trees(ens, j):
                internal = tree.feature[tree.feature >= 0]
                assert set(internal.tolist()) <= set(cols.tolist())

    def test_fraction_counts_decimal_rows_and_columns(self):
        """0.07 of 100 is 7 rows and 7 columns, though 0.07 * 100 rounds up to 8 in doubles."""
        rng = np.random.default_rng(4)
        ds = Dataset(rng.standard_normal((100, 100)), np.arange(100) % 2)
        cfg = PseudoLabelConfig(k=4, instance_fraction=0.07, feature_fraction=0.07, seed=2)
        ens = fit_ensemble(ds, cfg)
        for j in range(cfg.k):
            rows, cols = labeler_subsample(ds, cfg, j)
            assert rows.size == 7 and cols.size == 7
            want = fit_tree(ds.features[rows][:, cols], ds.labels[rows], cfg.max_depth, cfg.min_leaf)
            want.feature[want.feature >= 0] = cols[want.feature[want.feature >= 0]]
            assert_same_bytes(ens.trees[j], want)

    def test_labelers_differ(self):
        """No two labelers see the same rows and columns at once."""
        ds = demo_ds(n=300)
        cfg = PseudoLabelConfig(k=64, seed=1)
        seen = set()
        for j in range(cfg.k):
            rows, cols = labeler_subsample(ds, cfg, j)
            key = (tuple(rows), tuple(cols))
            assert key not in seen
            seen.add(key)

    def test_labeler_is_tree_fit_on_its_subsample(self):
        """A single-tree labeler is ``fit_tree`` on its subsample, split features mapped to original columns."""
        ds = demo_ds()
        cfg = PseudoLabelConfig(k=3, max_depth=4, seed=6)
        ens = fit_ensemble(ds, cfg)
        for j in range(cfg.k):
            rows, cols = labeler_subsample(ds, cfg, j)
            want = fit_tree(ds.features[rows][:, cols], ds.labels[rows], cfg.max_depth, cfg.min_leaf)
            (got,) = labeler_trees(ens, j)
            internal = want.feature >= 0
            assert np.array_equal(got.feature[internal], cols[want.feature[internal]])
            for name in ("threshold", "left", "right", "value"):
                assert np.array_equal(getattr(got, name), getattr(want, name))

    def test_prefix_stability(self):
        """Labeler k depends only on (seed, k), not on K."""
        ds = demo_ds()
        small = fit_ensemble(ds, PseudoLabelConfig(k=4, seed=9))
        large = fit_ensemble(ds, PseudoLabelConfig(k=8, seed=9))
        X = np.random.default_rng(2).standard_normal((40, ds.d))
        assert np.array_equal(small.predict_matrix(X), large.predict_matrix(X)[:, :4])

    def test_matrix_matches_per_labeler_predictions(self):
        """Packed traversal agrees with walking each labeler's trees row by row."""
        ds = demo_ds()
        ens = fit_ensemble(ds, PseudoLabelConfig(k=12, seed=3))
        X = np.random.default_rng(4).standard_normal((60, ds.d))
        M = ens.predict_matrix(X)
        assert M.dtype == np.int64 and set(np.unique(M).tolist()) <= {0, 1}
        assert np.array_equal(M, oracle_matrix(ens, X))

    def test_ensemble_mean_is_fraction_of_k(self):
        ds = demo_ds()
        ens = fit_ensemble(ds, PseudoLabelConfig(k=10, seed=7))
        X = np.random.default_rng(8).standard_normal((30, ds.d))
        m = ens.ensemble_mean(X)
        assert np.array_equal(m, ens.predict_matrix(X).mean(axis=1))
        assert np.all(np.abs(m * 10 - np.round(m * 10)) < 1e-12)

    def test_deterministic(self):
        ds = demo_ds()
        X = np.random.default_rng(10).standard_normal((25, ds.d))
        a = fit_ensemble(ds, PseudoLabelConfig(k=6, seed=21)).predict_matrix(X)
        b = fit_ensemble(ds, PseudoLabelConfig(k=6, seed=21)).predict_matrix(X)
        assert np.array_equal(a, b)

    def test_fit_memory_is_bounded_by_the_block(self):
        """Trees grow a block at a time, so a benchmark-shaped fit's traced peak stays small (38 MiB in one block)."""
        train, _ = make_synthetic_radial(2000, 10, 8, 7)
        ds = Dataset(encode(fit_pca(train.features), train.features), train.labels)
        tracemalloc.start()
        try:
            fit_ensemble(ds, PseudoLabelConfig(k=64, seed=7))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_single_class_rejected(self):
        ds = Dataset(np.random.default_rng(0).standard_normal((20, 3)), np.ones(20, dtype=int))
        with pytest.raises(ValueError, match="both classes"):
            fit_ensemble(ds, PseudoLabelConfig(k=4, seed=0))

    def test_forest_majority_vote(self):
        ds = demo_ds(n=250)
        ens = fit_ensemble(ds, PseudoLabelConfig(k=5, trees_per_labeler=7, seed=2))
        X = np.random.default_rng(6).standard_normal((40, ds.d))
        votes = np.stack([oracle_fractions(t, X) >= ens.config.decision_threshold for t in labeler_trees(ens, 3)])
        manual = (votes.mean(axis=0) >= 0.5).astype(int)
        assert np.array_equal(ens.predict_matrix(X)[:, 3], manual)

    def test_serialization_roundtrip(self):
        ds = demo_ds()
        ens = fit_ensemble(ds, PseudoLabelConfig(k=6, trees_per_labeler=3, seed=11))
        back = PseudoLabelEnsemble.from_dict(json.loads(json.dumps(ens.to_dict())))
        X = np.random.default_rng(12).standard_normal((50, ds.d))
        assert np.array_equal(back.predict_matrix(X), ens.predict_matrix(X))
        assert back.config == ens.config

    def test_decision_threshold_applies(self):
        ds = demo_ds()
        strict = fit_ensemble(ds, PseudoLabelConfig(k=4, seed=13, decision_threshold=0.99))
        lax = fit_ensemble(ds, PseudoLabelConfig(k=4, seed=13, decision_threshold=0.01))
        X = np.random.default_rng(14).standard_normal((80, ds.d))
        assert strict.predict_matrix(X).sum() <= lax.predict_matrix(X).sum()

    @pytest.mark.parametrize("k,trees_per_labeler,n_trees", [(2, 1, 1), (2, 1, 3), (2, 3, 5), (1, 2, 1)])
    def test_tree_count_must_be_k_times_trees_per_labeler(self, k, trees_per_labeler, n_trees):
        with pytest.raises(ValueError, match="trees"):
            PseudoLabelEnsemble([STUMP] * n_trees, PseudoLabelConfig(k=k, trees_per_labeler=trees_per_labeler))

    @pytest.mark.parametrize("breakage,match", [
        ("labeler_dropped", "labelers"),
        ("tree_dropped", "trees"),
        ("tree_moved", "trees"),
        ("threshold_differs", "decision_threshold"),
    ])
    def test_from_dict_rejects_labelers_that_disagree_with_config(self, breakage, match):
        """Each labeler must hold trees_per_labeler trees at the config's threshold, and there must be k of them."""
        ens = fit_ensemble(demo_ds(), PseudoLabelConfig(k=4, trees_per_labeler=2, seed=15))
        doc = json.loads(json.dumps(ens.to_dict()))
        labs = doc["labelers"]
        if breakage == "labeler_dropped":
            labs.pop()
        elif breakage == "tree_dropped":
            labs[1]["trees"].pop()
        elif breakage == "tree_moved":
            # Moving a tree keeps the total at k * trees_per_labeler.
            labs[0]["trees"].append(labs[3]["trees"].pop())
        else:
            labs[2]["decision_threshold"] = 0.25
        with pytest.raises(ValueError, match=match):
            PseudoLabelEnsemble.from_dict(doc)


# ---------------------------------------------------- packed walk vs oracle

def hand_ensemble(*labelers, threshold=0.5):
    """Ensemble of hand-built labelers, each a list of Trees."""
    cfg = PseudoLabelConfig(k=len(labelers), trees_per_labeler=len(labelers[0]), decision_threshold=threshold)
    return PseudoLabelEnsemble([t for trees in labelers for t in trees], cfg)


def tie_and_nan_rows(ens, d, n, seed):
    """Rows whose values sit exactly on split thresholds, with some NaNs."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    for tree in ens.trees:
        for f, t in zip(tree.feature, tree.threshold):
            if f >= 0:
                X[rng.random(n) < 0.3, f] = t
    X[rng.random((n, d)) < 0.1] = np.nan
    return X


# Root splits x0 <= 0: a leaf on the left (depth 1); on the right x1 <= 1
# leads to a split on x0 <= 2 (leaves at depth 3) or a leaf at depth 2.
MIXED = Tree(
    [0, -1, 1, 0, -1, -1, -1],
    [0.0, 0.0, 1.0, 2.0, 0.0, 0.0, 0.0],
    [1, -1, 3, 4, -1, -1, -1],
    [2, -1, 6, 5, -1, -1, -1],
    [0.5, 0.1, 0.6, 0.5, 0.9, 0.2, 0.7],
)
STUMP = Tree([1, -1, -1], [0.5, 0.0, 0.0], [1, -1, -1], [2, -1, -1], [0.5, 0.2, 0.8])
ROOT = Tree([-1], [0.0], [-1], [-1], [0.7])


class TestPackedWalk:
    def test_nan_goes_right(self):
        ens = hand_ensemble([STUMP], [MIXED])
        X = np.array([[0.0, np.nan], [np.nan, 0.5], [np.nan, np.nan], [1.0, np.nan]])
        # STUMP: NaN x1 reaches the 0.8 leaf. MIXED: NaN x0 goes right at the root.
        assert ens.predict_matrix(X).tolist() == [[1, 0], [0, 0], [1, 1], [1, 1]]
        assert np.array_equal(ens.predict_matrix(X), oracle_matrix(ens, X))

    @pytest.mark.parametrize("labelers", [([STUMP], [MIXED]), ([STUMP, MIXED, ROOT], [MIXED, ROOT, STUMP])])
    def test_zero_rows_give_zero_by_k(self, labelers):
        assert hand_ensemble(*labelers).predict_matrix(np.zeros((0, 2))).shape == (0, 2)

    def test_root_only_trees(self):
        ens = hand_ensemble([ROOT], [Tree([-1], [0.0], [-1], [-1], [0.2])])
        X = np.array([[np.nan], [3.0], [-1.0]])
        assert ens.predict_matrix(X).tolist() == [[1, 0]] * 3
        fitted = fit_ensemble(demo_ds(), PseudoLabelConfig(k=5, max_depth=0, seed=4))
        X = tie_and_nan_rows(fitted, 8, 20, seed=1)
        assert np.array_equal(fitted.predict_matrix(X), oracle_matrix(fitted, X))

    def test_leaves_at_mixed_depths(self):
        ens = hand_ensemble([MIXED], [STUMP], [ROOT])
        grid = [-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, np.nan]
        X = np.array([[a, b] for a in grid for b in grid])
        assert np.array_equal(ens.predict_matrix(X), oracle_matrix(ens, X))

    def test_forest_labelers_with_mixed_depths(self):
        ens = hand_ensemble([MIXED, STUMP, ROOT], [ROOT, ROOT, STUMP], threshold=0.65)
        X = tie_and_nan_rows(ens, 2, 80, seed=2)
        assert np.array_equal(ens.predict_matrix(X), oracle_matrix(ens, X))

    @pytest.mark.parametrize("trees,max_depth", [(1, 6), (3, 6), (3, 10)])
    def test_fitted_ensembles_and_from_dict(self, trees, max_depth):
        ds = demo_ds(n=300)
        ens = fit_ensemble(ds, PseudoLabelConfig(k=6, trees_per_labeler=trees, max_depth=max_depth, min_leaf=1, seed=8))
        back = PseudoLabelEnsemble.from_dict(json.loads(json.dumps(ens.to_dict())))
        rng = np.random.default_rng(9)
        for X in (ds.features, 3.0 * rng.standard_normal((40, ds.d)), tie_and_nan_rows(ens, ds.d, 60, seed=3)):
            expect = oracle_matrix(ens, X)
            assert np.array_equal(ens.predict_matrix(X), expect)
            assert np.array_equal(back.predict_matrix(X), expect)

    def test_tree_deeper_than_max_depth_rejected(self):
        with pytest.raises(ValueError, match="deeper"):
            PseudoLabelEnsemble([MIXED], PseudoLabelConfig(k=1, max_depth=2))

    def test_build_memory_scales_with_nodes_not_depth(self):
        """A 41-node chain of depth 20 packs in memory that grows with its nodes, not with 2^20."""
        # Internal node 2j splits x0 <= j: a leaf on the left, the next split on the right.
        n = 41
        feature = [0 if i % 2 == 0 and i < n - 1 else -1 for i in range(n)]
        threshold = [i / 2 if f == 0 else 0.0 for i, f in enumerate(feature)]
        left = [i + 1 if f == 0 else -1 for i, f in enumerate(feature)]
        right = [i + 2 if f == 0 else -1 for i, f in enumerate(feature)]
        value = [(i // 2) % 2 for i in range(n)]
        chain = Tree(feature, threshold, left, right, value)
        tracemalloc.start()
        try:
            ens = PseudoLabelEnsemble([chain], PseudoLabelConfig(k=1, max_depth=20))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        X = np.arange(-1.0, 21.5, 0.5)[:, None]
        assert np.array_equal(ens.predict_matrix(X), oracle_matrix(ens, X))

    @pytest.mark.parametrize(
        "breakage",
        ["left_negative", "right_past_end", "link_to_root", "linked_twice", "cyclic", "short_value", "feature_below_leaf", "value_above_one", "value_nan", "empty"],
    )
    def test_malformed_tree_rejected(self, breakage):
        """A child link outside the tree would read a node of the next tree in the packed
        tables, and one back to the root or to a node already linked is not a tree."""
        arrays = {k: list(v) for k, v in STUMP.to_dict().items()}
        if breakage == "left_negative":
            arrays["left"][0] = -1
        elif breakage == "right_past_end":
            arrays["right"][0] = 3
        elif breakage == "link_to_root":
            arrays = {k: list(v) for k, v in MIXED.to_dict().items()}
            arrays["right"][2] = 0
        elif breakage == "linked_twice":
            arrays = {k: list(v) for k, v in MIXED.to_dict().items()}
            arrays["right"][3] = 1
        elif breakage == "cyclic":
            arrays = {"feature": [0, -1], "threshold": [0.0, 0.0], "left": [0, -1], "right": [1, -1], "value": [0.5, 0.5]}
        elif breakage == "short_value":
            arrays["value"].pop()
        elif breakage == "feature_below_leaf":
            arrays["feature"][1] = -2
        elif breakage == "value_above_one":
            arrays["value"][2] = 1.5
        elif breakage == "value_nan":
            arrays["value"][0] = float("nan")
        else:
            arrays = {k: [] for k in arrays}
        with pytest.raises(ValueError):
            Tree.from_dict(arrays)

    def test_too_few_columns_rejected(self):
        ens = hand_ensemble([MIXED])
        with pytest.raises(ValueError, match="shape"):
            ens.predict_matrix(np.zeros((3, 1)))

"""Hand-worked cases for the benchmark's oracles.

Run with ``python3 -m pytest perfbench/test_oracles.py`` or
``python3 perfbench/test_oracles.py``.
"""

import math

import numpy as np

import oracles as o


def _tree(feature, threshold, left, right, value):
    return {"feature": feature, "threshold": threshold, "left": left, "right": right, "value": value}


# Split on x0 at 0.5: left leaf 0.0, right leaf 1.0.
STUMP = _tree([0, -1, -1], [0.5, 0.0, 0.0], [1, -1, -1], [2, -1, -1], [0.5, 0.0, 1.0])
# Split on x1 at 0.0: left leaf 0.75, right leaf 0.25.
STUMP_X1 = _tree([1, -1, -1], [0.0, 0.0, 0.0], [1, -1, -1], [2, -1, -1], [0.5, 0.75, 0.25])
LEAF_ONE = _tree([-1], [0.0], [-1], [-1], [1.0])


def _bundle(labelers=None, net=None, method="explor", d=2):
    return {
        "method": method,
        "latent_map": {"mean": [0.0] * d, "components": np.eye(d).tolist()},
        "ensemble": None if labelers is None else {"labelers": labelers},
        "net": net,
    }


def _labeler(trees, threshold=0.5):
    return {"trees": trees, "decision_threshold": threshold}


def test_tree_walk_routes_ties_left_and_takes_majority():
    doc = _bundle([_labeler([STUMP]), _labeler([STUMP_X1]), _labeler([STUMP, STUMP_X1, LEAF_ONE])])
    Z = np.array([[0.5, 0.0], [0.7, 1.0], [0.2, -1.0]])
    # Row 0: x0 = 0.5 goes left (0.0 -> 0); x1 = 0 goes left (0.75 -> 1);
    # forest votes 0, 1, 1 -> 1. Row 1: 1; 0.25 -> 0; votes 1, 0, 1 -> 1.
    # Row 2: 0; 1; votes 0, 1, 1 -> 1.
    assert o.labeler_votes(doc, Z).tolist() == [[0, 1, 1], [1, 0, 1], [0, 1, 1]]
    # A one-in-two forest is a tie, which counts as a majority.
    tie = _bundle([_labeler([STUMP, LEAF_ONE])])
    assert o.labeler_votes(tie, np.array([[0.0, 0.0]])).tolist() == [[1]]


def test_forward_pass_by_hand():
    net = {
        "hidden": [2],
        "params": {
            "trunk.0.w": {"shape": [2, 2], "data": [1.0, 0.0, 0.0, 1.0]},
            "trunk.0.b": {"shape": [2], "data": [0.0, 0.0]},
            "heads.w": {"shape": [1, 2], "data": [1.0, 1.0]},
            "heads.b": {"shape": [1], "data": [0.5]},
        },
    }
    doc = _bundle(net=net, method="erm")
    # elu(2) = 2, elu(-1) = e^-1 - 1; logit = 2 + e^-1 - 1 + 0.5.
    want = 1.5 + math.exp(-1.0)
    assert abs(o.head_logits(doc, np.array([[2.0, -1.0]]))[0, 0] - want) < 1e-15
    assert abs(o.head_probs(doc, np.array([[2.0, -1.0]]))[0, 0] - 1.0 / (1.0 + math.exp(-want))) < 1e-15


def test_bagged_score_averages_votes_and_heads():
    net = {
        "hidden": [1],
        "params": {
            "trunk.0.w": {"shape": [1, 2], "data": [0.0, 0.0]},
            "trunk.0.b": {"shape": [1], "data": [0.0]},
            "heads.w": {"shape": [2, 1], "data": [0.0, 0.0]},
            "heads.b": {"shape": [2], "data": [0.0, 0.0]},
        },
    }
    doc = _bundle([_labeler([STUMP]), _labeler([LEAF_ONE])], net=net)
    # Votes (0, 1) -> 0.5; all-zero weights give head probabilities 0.5.
    assert o.bundle_scores(doc, np.array([[0.0, 0.0]])).tolist() == [0.5]
    # Votes (1, 1) -> 1.0, so the score is (1.0 + 0.5) / 2.
    assert o.bundle_scores(doc, np.array([[1.0, 0.0]])).tolist() == [0.75]
    doc["method"] = "pl_ens"
    assert o.bundle_scores(doc, np.array([[1.0, 0.0]])).tolist() == [1.0]


def test_auroc_counts_pairs_and_half_ties():
    # Positives 0.9 and 0.7 against negatives 0.8 and 0.6: 3 of 4 pairs.
    assert o.auroc_pairs([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0]) == 0.75
    assert o.auroc_pairs([0.5, 0.5], [1, 0]) == 0.5
    assert o.auroc_pairs([0.1, 0.9], [1, 0]) == 0.0


def test_truncated_auprc_by_hand():
    scores, labels = [0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0]
    # Hits at ranks 1 and 3: precision 1 over recall (0, 0.5], 2/3 over (0.5, 1].
    assert o.auprc_steps(scores, labels, 0.5) == 1.0
    assert abs(o.auprc_steps(scores, labels, 1.0) - (0.5 + 0.5 * 2 / 3)) < 1e-15
    assert abs(o.auprc_steps(scores, labels, 0.75) - (0.5 + 0.25 * 2 / 3) / 0.75) < 1e-15
    # Tied scores rank by ascending index: the negative at index 0 comes first.
    assert o.auprc_steps([0.5, 0.5], [0, 1], 1.0) == 0.5


def test_fold_table_and_cluster_geometry():
    # Positives near 0 and near 10; negatives at 2 and 9.
    X = np.array([[0.0], [1.0], [10.0], [11.0], [2.0], [9.0]])
    y = np.array([1, 1, 1, 1, 0, 0])
    fold = [0, 0, 1, 1, 0, 1]
    rows = [(i, j, "test" if fold[i] == j else "train") for j in (0, 1) for i in range(6)]
    owner = o.test_folds(rows, 6)
    assert owner.tolist() == fold
    assert o.nearest_centroid_consistent(X, y, owner) == 0
    # Moving the negative at 2 into the far fold breaks the rule for that row.
    assert o.nearest_centroid_consistent(X, y, np.array([0, 0, 1, 1, 1, 1])) == 1


def test_fold_table_rejects_double_test_rows():
    rows = [(0, 0, "test"), (1, 0, "train"), (0, 1, "test"), (1, 1, "test")]
    try:
        o.test_folds(rows, 2)
    except o.CheckFailed:
        return
    raise AssertionError("a row tested in two folds was accepted")


def test_weighted_mean_by_fold_size():
    assert o.weighted_mean([0.5, 0.9], [1, 3]) == 0.8


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print(f"ok {name}")

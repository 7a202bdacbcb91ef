"""Ranking metric contracts, checked against independent oracles.

The oracles here recompute everything from first principles: the PR walk in
pure python, truncated AUPRC by numeric integration of the step function,
AUROC by brute-force pair counting. Implementation results must agree to
tight tolerances.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from explor.metrics import (
    ScoredSet,
    auprc,
    auprc_truncated,
    auroc,
    bootstrap_variance,
    enrichment_factor,
    evaluate,
    pr_curve,
)


# ---------------------------------------------------------------- oracles

def oracle_pr_points(scores, labels):
    """PR walk in pure python: descending score, ties by original index."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    pos = sum(labels)
    pts, tp = [], 0
    for rank, i in enumerate(order, start=1):
        tp += labels[i]
        pts.append((tp / pos, tp / rank))
    return pts


def oracle_auprc_grid_literal(scores, labels, tau, cells=1_000_000):
    """Midpoint-rule integration, literally evaluating the step function.

    P(r) is the precision of the first emitted point whose recall >= r.
    """
    pts = oracle_pr_points(scores, labels)
    recalls = np.array([p[0] for p in pts])
    precisions = np.array([p[1] for p in pts])
    h = tau / cells
    grid = (np.arange(cells) + 0.5) * h
    first = np.searchsorted(recalls, grid, side="left")
    return float(precisions[first].sum() * h / tau)


def oracle_auprc_grid(scores, labels, tau, cells=100_000_000):
    """Same midpoint-rule sum, accumulated per step interval by counting.

    Identical to the literal grid evaluation (each midpoint lands in exactly
    one step interval); counting just avoids materializing the grid.
    """
    pts = oracle_pr_points(scores, labels)
    h = tau / cells

    def n_mid(x):
        # midpoints (k - 0.5) h <= x  <=>  k <= x / h + 0.5
        return math.floor(min(x, tau) / h + 0.5)

    total = 0.0
    prev = 0.0
    for r, p in pts:
        if r > prev:
            total += p * (n_mid(r) - n_mid(prev))
            prev = r
    return total * h / tau


def oracle_auroc_pairwise(scores, labels):
    """Mean over (positive, negative) pairs of win=1, tie=1/2."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            total += 1.0 if p > q else (0.5 if p == q else 0.0)
    return total / (len(pos) * len(neg))


def random_scored_set(rng, n_max=8):
    """Random small set with at least one positive and one negative."""
    while True:
        n = int(rng.integers(2, n_max + 1))
        labels = rng.integers(0, 2, n)
        if 0 < labels.sum() < n:
            break
    # Coarse score values force plenty of ties.
    scores = rng.integers(0, 4, n) / 4.0
    return scores, labels


# -------------------------------------------------------------- scored set

class TestScoredSet:
    def test_fractional_labels_rejected_not_truncated(self):
        with pytest.raises(ValueError, match="0/1"):
            ScoredSet([0.1, 0.2, 0.3], [0.9, 1.5, 0.0])


# --------------------------------------------------------------- pr_curve

class TestPrCurve:
    def test_perfect_ranking(self):
        s = ScoredSet([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        recall, precision = pr_curve(s)
        assert np.allclose(recall, [0.5, 1.0, 1.0, 1.0])
        assert np.allclose(precision, [1.0, 1.0, 2 / 3, 0.5])

    def test_reversed_ranking(self):
        s = ScoredSet([0.2, 0.9], [1, 0])
        recall, precision = pr_curve(s)
        assert np.allclose(recall, [0.0, 1.0])
        assert np.allclose(precision, [0.0, 0.5])

    def test_tie_broken_by_index(self):
        s = ScoredSet([0.9, 0.9, 0.8], [0, 1, 1])
        recall, precision = pr_curve(s)
        assert np.allclose(recall, [0.0, 0.5, 1.0])
        assert np.allclose(precision, [0.0, 0.5, 2 / 3])

    def test_ranked_once_and_read_only(self):
        """Every metric reads the set's one ranking, which no caller can write to."""
        s = ScoredSet([0.2, 0.9, 0.2, 0.5], [0, 1, 1, 0])
        r = s.ranking()
        assert r.tolist() == [1, 3, 0, 2] and not r.flags.writeable
        evaluate(s, taus=(0.5,), ef_fractions=(0.5,))
        pr_curve(s)
        assert s.ranking() is r

    def test_matches_oracle_on_random_sets(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            scores, labels = random_scored_set(rng)
            recall, precision = pr_curve(ScoredSet(scores, labels))
            pts = oracle_pr_points(list(scores), list(labels))
            assert np.allclose(recall, [p[0] for p in pts], atol=1e-15)
            assert np.allclose(precision, [p[1] for p in pts], atol=1e-15)

    def test_needs_a_positive(self):
        with pytest.raises(ValueError, match="positive"):
            pr_curve(ScoredSet([0.1, 0.2], [0, 0]))


# ------------------------------------------------------- truncated auprc

class TestAuprcTruncated:
    # Hand-derived case: scores 0.9..0.5, labels 1,0,1,1,0.
    # Precision levels 1, 2/3, 3/4 at recalls 1/3, 2/3, 1.
    HAND = ([0.9, 0.8, 0.7, 0.6, 0.5], [1, 0, 1, 1, 0])

    def test_hand_values(self):
        s = ScoredSet(*self.HAND)
        assert np.isclose(auprc_truncated(s, 0.2), 1.0, rtol=1e-12)
        assert np.isclose(auprc_truncated(s, 0.4), 17 / 18, rtol=1e-12)
        assert np.isclose(auprc_truncated(s, 0.5), 8 / 9, rtol=1e-12)
        assert np.isclose(auprc_truncated(s, 1.0), 29 / 36, rtol=1e-12)

    def test_single_positive_ranked_first(self):
        s = ScoredSet([0.9, 0.5, 0.4, 0.3], [1, 0, 0, 0])
        assert auprc_truncated(s, 0.2) == 1.0

    def test_bool_tau_rejected(self):
        """``True`` is not a tau: it would score at tau = 1 and report under the key 1.0."""
        s = ScoredSet([0.9, 0.1, 0.5], [1, 0, 1])
        with pytest.raises(ValueError, match=r"tau must be in \(0, 1\] and of the kind of 0.0, got True"):
            auprc_truncated(s, True)
        with pytest.raises(ValueError, match="tau must be"):
            evaluate(s, taus=(True,))

    def test_tau_one_is_average_precision(self):
        """With tau = 1 the integral is the mean precision over hit points."""
        rng = np.random.default_rng(7)
        for _ in range(100):
            scores, labels = random_scored_set(rng)
            s = ScoredSet(scores, labels)
            prev, hits = 0.0, []
            for r, p in oracle_pr_points(list(scores), list(labels)):
                if r > prev:
                    hits.append(p)
                    prev = r
            assert np.isclose(auprc(s), sum(hits) / len(hits), rtol=1e-12)

    def test_matches_fine_grid_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            scores, labels = random_scored_set(rng)
            s = ScoredSet(scores, labels)
            for tau in (0.1, 0.2, 0.3, 1.0):
                got = auprc_truncated(s, tau)
                want = oracle_auprc_grid(list(scores), list(labels), tau)
                assert abs(got - want) < 1e-6

    def test_counting_grid_equals_literal_grid(self):
        """The fast counted integration is the literal midpoint sum."""
        rng = np.random.default_rng(13)
        for _ in range(10):
            scores, labels = random_scored_set(rng)
            for tau in (0.1, 0.3, 1.0):
                lit = oracle_auprc_grid_literal(list(scores), list(labels), tau, cells=1_000_000)
                cnt = oracle_auprc_grid(list(scores), list(labels), tau, cells=1_000_000)
                assert abs(lit - cnt) < 1e-9

    def test_invariant_under_monotone_transforms(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            scores, labels = random_scored_set(rng)
            s0 = ScoredSet(scores, labels)
            for f in (lambda x: x, lambda x: x**3, lambda x: 1 / (1 + np.exp(-x))):
                s1 = ScoredSet(f(np.asarray(scores)), labels)
                assert auprc_truncated(s1, 0.3) == auprc_truncated(s0, 0.3)
                assert auprc(s1) == auprc(s0)

    def test_mass_monotone_in_tau(self):
        """tau * AUPRC@tau is an integral of a nonnegative step, so it grows."""
        rng = np.random.default_rng(17)
        for _ in range(50):
            scores, labels = random_scored_set(rng)
            s = ScoredSet(scores, labels)
            taus = np.linspace(0.05, 1.0, 20)
            mass = [t * auprc_truncated(s, t) for t in taus]
            assert all(b >= a - 1e-12 for a, b in zip(mass, mass[1:]))

    def test_tau_out_of_range(self):
        s = ScoredSet([0.5, 0.4], [1, 0])
        for tau in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                auprc_truncated(s, tau)


# ------------------------------------------------------------------ auroc

class TestAuroc:
    def test_perfect_and_inverted(self):
        assert auroc(ScoredSet([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])) == 1.0
        assert auroc(ScoredSet([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0])) == 0.0

    def test_all_tied_is_exactly_half(self):
        s = ScoredSet([0.7] * 6, [1, 0, 1, 0, 0, 1])
        assert auroc(s) == 0.5

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(500):
            scores, labels = random_scored_set(rng)
            got = auroc(ScoredSet(scores, labels))
            want = oracle_auroc_pairwise(list(scores), list(labels))
            assert abs(got - want) < 1e-12

    def test_flip_labels_negate_scores(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            scores, labels = random_scored_set(rng)
            a = auroc(ScoredSet(scores, labels))
            b = auroc(ScoredSet(-np.asarray(scores), 1 - np.asarray(labels)))
            assert np.isclose(a, b, atol=1e-12)

    def test_needs_both_classes(self):
        with pytest.raises(ValueError):
            auroc(ScoredSet([0.1, 0.2], [1, 1]))


# ------------------------------------------------------ enrichment factor

class TestEnrichmentFactor:
    def test_hand_case(self):
        scores = [10.0, 9, 8, 7, 6, 5, 4, 3, 2, 1]
        labels = [1, 0, 1, 0, 0, 1, 1, 0, 0, 0]
        s = ScoredSet(scores, labels)
        # ceil(0.25 * 10) = 3 top items hold 2 of 4 positives.
        assert np.isclose(enrichment_factor(s, 0.25), (2 / 3) / 0.4, rtol=1e-12)

    def test_full_list_is_exactly_one(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            scores, labels = random_scored_set(rng)
            assert enrichment_factor(ScoredSet(scores, labels), 1.0) == 1.0

    def test_random_ranking_averages_to_one(self):
        """EF of a random ranking is 1 in expectation."""
        rng = np.random.default_rng(37)
        labels = np.zeros(200, dtype=int)
        labels[:60] = 1
        vals = []
        for _ in range(200):
            vals.append(enrichment_factor(ScoredSet(rng.random(200), labels), 0.25))
        assert abs(np.mean(vals) - 1.0) < 0.1

    def test_ceil_boundary(self):
        s = ScoredSet([0.9, 0.8, 0.7, 0.6], [1, 0, 0, 1])
        # ceil(0.26 * 4) = 2 -> precision 1/2, prevalence 1/2.
        assert np.isclose(enrichment_factor(s, 0.26), 1.0, rtol=1e-12)
        # ceil(0.5 * 4) = 2 as well.
        assert enrichment_factor(s, 0.26) == enrichment_factor(s, 0.5)
        # 0.07 * 100 is 7.000000000000001 in doubles; the top set is still 7 rows.
        s = ScoredSet(np.arange(100, 0, -1), [1] * 7 + [0] * 93)
        assert enrichment_factor(s, 0.07) == 1.0 / 0.07


# ------------------------------------------------------- variance reports

class TestBootstrapVariance:
    def test_hand_case(self):
        rep = bootstrap_variance([[0.0, 1.0], [2.0, 5.0]])
        assert np.allclose(rep.per_instance, [2.0, 8.0])
        assert rep.mean_variance == 5.0
        assert rep.top_indices.tolist() == [1, 0]

    def test_matches_manual_ddof1(self):
        rng = np.random.default_rng(41)
        M = rng.random((7, 20))
        rep = bootstrap_variance(M)
        manual = ((M - M.mean(axis=0)) ** 2).sum(axis=0) / 6
        assert np.allclose(rep.per_instance, manual, rtol=1e-12)
        assert np.isclose(rep.mean_variance, manual.mean(), rtol=1e-12)

    def test_tie_takes_lowest_indices(self):
        rep = bootstrap_variance([[0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]])
        assert rep.top_indices.tolist() == [0, 1, 2]

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            bootstrap_variance([[1.0, 2.0]])


# ------------------------------------------------------------ eval report

class TestEvaluate:
    def test_report_contents(self):
        s = ScoredSet([0.9, 0.8, 0.7, 0.6, 0.5], [1, 0, 1, 1, 0])
        rep = evaluate(s, taus=(0.2, 0.5), ef_fractions=(0.2, 1.0))
        assert np.isclose(rep.auprc_at[0.2], 1.0)
        assert np.isclose(rep.auprc_at[0.5], 8 / 9)
        assert np.isclose(rep.auprc, 29 / 36)
        assert rep.prevalence == 0.6
        assert rep.counts == {"n": 5, "positives": 3, "negatives": 2}
        assert rep.ef_at[1.0] == 1.0


@st.composite
def permuted_sets(draw, tied):
    """(scores, labels, perm) with both classes; ``tied`` draws from four score values, else all scores differ."""
    n = draw(st.integers(2, 40))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n).filter(lambda y: 0 < sum(y) < n))
    values = st.sampled_from([0.0, 0.25, 0.5, 1.0]) if tied else st.floats(-1e6, 1e6, allow_nan=False)
    scores = draw(st.lists(values, min_size=n, max_size=n, unique=not tied))
    return np.array(scores), np.array(labels), np.array(draw(st.permutations(range(n))))


class TestPermutationProperties:
    """Permuting scores and labels together: what must stay fixed, and what may move.

    Ties break by ascending index, so under ties the ranking, and with it
    AUPRC and EF, depend on the order of the rows; only AUROC, which counts
    a tie as half a win, is a function of the multiset of (score, label)
    pairs. With distinct scores the ranking itself is order-free.
    """

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(permuted_sets(tied=False))
    def test_distinct_scores_leave_every_field_unchanged(self, case):
        scores, labels, perm = case
        assert evaluate(ScoredSet(scores[perm], labels[perm])).to_dict() == evaluate(ScoredSet(scores, labels)).to_dict()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(permuted_sets(tied=True))
    def test_ties_leave_auroc_unchanged_and_equal_to_the_pair_count(self, case):
        scores, labels, perm = case
        want = oracle_auroc_pairwise(scores.tolist(), labels.tolist())
        assert auroc(ScoredSet(scores, labels)) == want
        assert auroc(ScoredSet(scores[perm], labels[perm])) == want

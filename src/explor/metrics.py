"""Ranking metrics for scored binary sets.

The central quantity is truncated AUPRC: the average of the step-function
precision over recalls in (0, tau], which weights the head of the ranked
list. tau = 1 recovers step-wise average precision. Ties in score are always
broken by ascending original index so every metric is a pure function of its
inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import fraction_count


class ScoredSet:
    """Scores with binary labels, ranked descending (ties: lowest index first).

    The set is ranked once, on first use, and every metric reads that
    ranking, so the scores must not change after construction.
    """

    def __init__(self, scores, labels):
        s = np.asarray(scores, dtype=np.float64)
        y = np.asarray(labels)
        if s.ndim != 1 or y.shape != s.shape:
            raise ValueError(f"scores and labels must be 1-d and aligned, got {s.shape} vs {y.shape}")
        if s.size == 0:
            raise ValueError("empty scored set")
        if not np.all(np.isfinite(s)):
            raise ValueError("scores must be finite")
        if not np.all((y == 0) | (y == 1)):  # before the cast, which would truncate 0.5 to 0
            raise ValueError("labels must be 0/1")
        y = y.astype(np.int64)
        self.scores = s
        self.labels = y
        self._ranking = None

    @property
    def n(self) -> int:
        return self.scores.size

    @property
    def positives(self) -> int:
        return int(self.labels.sum())

    def ranking(self) -> np.ndarray:
        """The indices in rank order, read-only."""
        if self._ranking is None:
            # Stable sort on negated scores: descending by score, ascending index on ties.
            self._ranking = np.argsort(-self.scores, kind="stable")
            self._ranking.flags.writeable = False
        return self._ranking


def _require_positive(s: ScoredSet, op: str) -> None:
    if s.positives == 0:
        raise ValueError(f"{op} needs at least one positive label")


def pr_curve(s: ScoredSet):
    """Precision-recall points emitted after each item of the ranked list.

    Returns
    -------
    (recall, precision) : two (N,) arrays; recall is non-decreasing and ends at 1.
    """
    _require_positive(s, "pr_curve")
    ranked = s.labels[s.ranking()]
    tp = np.cumsum(ranked)
    recall = tp / s.positives
    precision = tp / np.arange(1, s.n + 1)
    return recall, precision


def auprc_truncated(s: ScoredSet, tau: float) -> float:
    """Average precision-at-recall over (0, tau].

    The integrand is the right-continuous step function whose value at r is
    the precision of the first ranked item with recall >= r; the exact
    integral is divided by tau.
    """
    if not (0.0 < tau <= 1.0):
        raise ValueError(f"tau must be in (0, 1], got {tau}")
    recall, precision = pr_curve(s)
    # Recall increases exactly at positive items; those define the step levels.
    hit = np.diff(recall, prepend=0.0) > 0
    levels = recall[hit]
    prec = precision[hit]
    lows = np.concatenate(([0.0], levels[:-1]))
    widths = np.minimum(levels, tau) - np.minimum(lows, tau)
    return float(np.dot(prec, widths) / tau)


def auprc(s: ScoredSet) -> float:
    """Untruncated step-wise AUPRC (tau = 1)."""
    return auprc_truncated(s, 1.0)


def auroc(s: ScoredSet) -> float:
    """Probability a random positive outranks a random negative, ties at half.

    Computed with the rank-sum formula using average ranks, so an all-tied
    set gives exactly 0.5.
    """
    pos, n = s.positives, s.n
    neg = n - pos
    if pos == 0 or neg == 0:
        raise ValueError("auroc needs both classes present")
    order = np.argsort(s.scores, kind="stable")
    sorted_scores = s.scores[order]
    starts = np.flatnonzero(np.concatenate(([True], sorted_scores[1:] != sorted_scores[:-1])))
    ends = np.concatenate((starts[1:], [n]))
    avg_rank = (starts + 1 + ends) / 2.0
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.repeat(avg_rank, ends - starts)
    rank_sum = float(ranks[s.labels == 1].sum())
    return (rank_sum - pos * (pos + 1) / 2.0) / (pos * neg)


def enrichment_factor(s: ScoredSet, top_fraction: float) -> float:
    """Precision among the top ``fraction_count(top_fraction, N)`` items over the base prevalence."""
    n_top = fraction_count(top_fraction, s.n)
    _require_positive(s, "enrichment_factor")
    hits = int(s.labels[s.ranking()[:n_top]].sum())
    return (hits / n_top) / (s.positives / s.n)


@dataclass
class VarianceReport:
    per_instance: np.ndarray
    mean_variance: float
    top_indices: np.ndarray


def bootstrap_variance(score_matrix) -> VarianceReport:
    """Per-instance score variance across repeated trainings.

    ``score_matrix`` has one row per training and one column per instance.
    Variance is the unbiased (ddof=1) estimator; ``top_indices`` are the
    up-to-three highest-variance instances, lowest index first on ties.
    """
    M = np.asarray(score_matrix, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] < 2:
        raise ValueError(f"need a (T, N) matrix with T >= 2, got shape {M.shape}")
    var = M.var(axis=0, ddof=1)
    top = np.argsort(-var, kind="stable")[: min(3, var.size)]
    return VarianceReport(per_instance=var, mean_variance=float(var.mean()), top_indices=top)


@dataclass
class EvalReport:
    """Metric bundle for one scored evaluation set."""

    auprc_at: dict = field(default_factory=dict)
    auprc: float = 0.0
    auroc: float = 0.0
    ef_at: dict = field(default_factory=dict)
    prevalence: float = 0.0
    counts: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        # Float dict keys become their repr so JSON round-trips exactly.
        return {
            "auprc_at": {repr(float(t)): v for t, v in self.auprc_at.items()},
            "auprc": self.auprc,
            "auroc": self.auroc,
            "ef_at": {repr(float(f)): v for f, v in self.ef_at.items()},
            "prevalence": self.prevalence,
            "counts": dict(self.counts),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "EvalReport":
        return cls(
            auprc_at={float(k): v for k, v in doc["auprc_at"].items()},
            auprc=doc["auprc"],
            auroc=doc["auroc"],
            ef_at={float(k): v for k, v in doc["ef_at"].items()},
            prevalence=doc["prevalence"],
            counts=dict(doc["counts"]),
        )


def evaluate(s: ScoredSet, taus=(0.1, 0.2, 0.3), ef_fractions=(0.01, 0.05, 0.1)) -> EvalReport:
    """Full EvalReport: truncated AUPRCs, AUPRC, AUROC, enrichment factors."""
    pos = s.positives
    return EvalReport(
        auprc_at={float(t): auprc_truncated(s, t) for t in taus},
        auprc=auprc(s),
        auroc=auroc(s),
        ef_at={float(f): enrichment_factor(s, f) for f in ef_fractions},
        prevalence=pos / s.n,
        counts={"n": s.n, "positives": pos, "negatives": s.n - pos},
    )

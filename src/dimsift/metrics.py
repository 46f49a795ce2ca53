"""Rank metrics and diagnostic analyses over dimension-wise scores.

spearman and auroc are the two quality metrics used everywhere: rank
correlation of predictions against labels, and corruption-detection quality
of a score column against a corruption mask. The remaining functions analyze
score tables themselves: how fast the union of per-dimension top sets grows,
and how many per-dimension top scorers a single global ranking would miss.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .data import Dataset, top_sets, write_json
from .errors import DataError
from .influence import SelfInfluenceTable
from .model import RegressionHead, check_pair


def _average_ranks(a: np.ndarray) -> np.ndarray:
    """1-based ranks of a 1-D array, tied values sharing the mean of their ranks.

    The algorithm of scipy.stats.rankdata(method="average"): sort, tie
    groups, and for a group spanning sorted positions [lo, hi) the rank
    (lo + 1 + hi) / 2, an exact half-integer. Without ties the ranks are
    1..N written through the sort order. A tie group's members share one
    rank, so their order in the sort does not matter and numpy's default
    sort serves (6x faster than a stable one on 40k floats). A NaN
    anywhere gives all-NaN ranks, as scipy's default nan_policy does.
    """
    if np.isnan(a).any():
        return np.full(a.shape, np.nan)
    order = np.argsort(a)
    s = a[order]
    starts = np.r_[True, s[1:] != s[:-1]]
    del s
    if starts.all():
        ranks = np.empty(a.size)
        ranks[order] = np.arange(1.0, a.size + 1)
        return ranks
    dense = np.empty(a.size, dtype=np.intp)
    dense[order] = np.cumsum(starts)
    count = np.r_[np.flatnonzero(starts), a.size]
    return 0.5 * (count[dense] + count[dense - 1] + 1)


def _centered_ranks(a: np.ndarray) -> np.ndarray:
    """Average-tie ranks of a 1-D array less their mean; a DataError if a is constant."""
    if np.all(a == a[0]):
        raise DataError("rank correlation undefined for a constant input")
    r = _average_ranks(a)
    r -= r.mean()
    return r


def _correlation(rx: np.ndarray, ry: np.ndarray) -> float:
    """Pearson correlation of two centered vectors."""
    return float((rx @ ry) / np.sqrt((rx @ rx) * (ry @ ry)))


def spearman(pred: np.ndarray, target: np.ndarray) -> float:
    """Spearman rank correlation: Pearson correlation of average-tie ranks.

    Raises DataError when either input is constant (correlation undefined).
    """
    x = np.asarray(pred, dtype=np.float64).ravel()
    y = np.asarray(target, dtype=np.float64).ravel()
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    if x.size < 2:
        raise DataError("need at least two points for a rank correlation")
    rx = _centered_ranks(x)
    return _correlation(rx, _centered_ranks(y))


def auroc(scores: np.ndarray, positive_mask: np.ndarray) -> float:
    """Area under the ROC curve via the rank-sum statistic.

    Equals the fraction of (positive, negative) pairs where the positive
    scores higher, counting ties as half. Raises DataError when only one
    class is present; a NaN score gives NaN.

    Each positive is binary-searched in one sorted copy of the negatives, so
    the statistic is an exact integer sum over 2 and no argsort or gather
    over all N rows is built.
    """
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    pos = np.asarray(positive_mask, dtype=bool).reshape(-1)
    if s.shape != pos.shape:
        raise ValueError(f"length mismatch: {s.shape} vs {pos.shape}")
    n_pos = int(np.count_nonzero(pos))
    n_neg = s.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("AUROC undefined: scores contain a single class")
    neg = s[~pos]
    neg.sort()
    hits = s[pos]
    # a NaN sorts last among the negatives and propagates through max
    if np.isnan(neg[-1]) or np.isnan(hits.max()):
        return math.nan
    # a positive beats the left negatives below it and ties the right - left equal to it
    left = np.searchsorted(neg, hits, "left")
    right = np.searchsorted(neg, hits, "right")
    u = (int(left.sum()) + int(right.sum())) / 2.0
    return float(u / (n_pos * n_neg))


def per_dim_auroc(scores: np.ndarray, mask: np.ndarray) -> list[Optional[float]]:
    """AUROC of each score column against the same column of a corruption mask.

    None for a column whose mask holds a single class, where AUROC is undefined.
    """
    return [auroc(s, m) if m.any() and not m.all() else None for s, m in zip(scores.T, mask.T)]


@dataclass
class MetricReport:
    """Per-dimension rank-correlation summary for one fitted head."""

    per_dim_spearman: list[float]
    mean_spearman: float
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "per_dim_spearman": self.per_dim_spearman,
            "mean_spearman": self.mean_spearman,
            "metadata": self.metadata,
        }

    def save(self, path: str | Path) -> None:
        write_json(path, self.to_dict())


def evaluate_heads(heads: Sequence[RegressionHead], ds: Dataset) -> list[MetricReport]:
    """Per-dimension Spearman of each head's predictions against ds's labels.

    ds is read once for all the heads, a chunk of features and labels at a
    time (Dataset.blocks), so StreamLabels are drawn here, into one
    dimension-major (K, N) buffer; a held label matrix is ranked in place.
    Each head predicts into a buffer like it, so every dimension's
    predictions are ranked as a contiguous row; each label column is ranked
    once for all the heads. Each report's metadata holds n_samples and
    dim_names.
    """
    n, k = len(ds), ds.n_dims
    for head in heads:
        check_pair(head, ds)
    if n < 2:
        raise DataError("need at least two points for a rank correlation")
    preds = [np.empty((k, n)) for _ in heads]
    held = ds.label_matrix
    labels = np.empty((k, n)) if held is None else held.T
    start = 0
    for x, y in ds.blocks():
        stop = start + len(x)
        if held is None:
            labels[:, start:stop] = y.T
        for head, pred in zip(heads, preds):
            pred[:, start:stop] = head.predict_batch(x).T
        start = stop
        del x, y  # released before the next chunk is read
    # each label column is ranked once for every head, which gives spearman(pred, label) bit for bit
    per_dim = [[] for _ in heads]
    for j in range(k):
        ry = _centered_ranks(labels[j])
        for pred, out in zip(preds, per_dim):
            out.append(_correlation(_centered_ranks(pred[j]), ry))
    return [
        MetricReport(p, float(np.mean(p)), {"n_samples": n, "dim_names": list(ds.dim_names)})
        for p in per_dim
    ]


def evaluate_head(head: RegressionHead, ds: Dataset) -> MetricReport:
    """Per-dimension Spearman of head predictions against ds's labels (evaluate_heads)."""
    [report] = evaluate_heads([head], ds)
    return report


@dataclass
class OverlapCurve:
    """Cumulative union size of per-dimension top sets, as a fraction of N."""

    cumulative_ratios: list[float]
    dim_order: list[int]
    rho: float

    def final(self) -> float:
        return self.cumulative_ratios[-1]

    def to_csv(self, path: str | Path) -> None:
        lines = ["j,dim,cumulative_ratio"]
        for j, (dim, ratio) in enumerate(zip(self.dim_order, self.cumulative_ratios), start=1):
            lines.append(f"{j},{dim},{ratio!r}")
        Path(path).write_text("\n".join(lines) + "\n")


def overlap_curve(scores: SelfInfluenceTable, rho: float) -> OverlapCurve:
    """How the union of per-dimension top-ceil(rho N) sets grows dimension by dimension.

    Entry j is |union of the first j risk sets| / N, the dimensions taken
    in order 0..K-1 (dim_order). Nondecreasing by construction. Identical
    score columns give a flat curve at rho, disjoint top sets a line up to
    K * ceil(rho N) / N.
    """
    n, k = scores.scores.shape
    top = scores.top_sets(rho)
    member = np.zeros(n, dtype=bool)
    ratios = []
    for t in top:
        member[t] = True
        ratios.append(float(member.sum()) / n)
    return OverlapCurve(cumulative_ratios=ratios, dim_order=list(range(k)), rho=float(rho))


@dataclass
class MaskingReport:
    """How many per-dimension top scorers a single global ranking misses.

    masked[k] counts samples in dimension k's top-ceil(rho N) set that are
    absent from the global top-ceil(rho N) set; masked_corrupted[k]
    additionally requires corrupted[k] to be set, None when no corruption
    mask was supplied.
    """

    rho: float
    budget: int
    dim_names: list[str]
    masked: list[int]
    masked_corrupted: list[Optional[int]]

    def to_dict(self) -> dict:
        return {
            "rho": self.rho,
            "budget": self.budget,
            "per_dim": [
                {
                    "dim": self.dim_names[k],
                    "masked": self.masked[k],
                    "masked_corrupted": self.masked_corrupted[k],
                }
                for k in range(len(self.dim_names))
            ],
        }


def masking_report(
    scores: SelfInfluenceTable,
    global_scores: np.ndarray,
    rho: float,
    corrupted: np.ndarray | None = None,
) -> MaskingReport:
    """Count per-dimension top scorers hidden by a single global ranking."""
    n, k = scores.scores.shape
    g = np.asarray(global_scores, dtype=np.float64).ravel()
    if g.shape[0] != n:
        raise ValueError(f"global_scores must have one entry per sample, got {g.shape[0]} for {n}")
    if corrupted is not None:
        corrupted = np.asarray(corrupted, dtype=bool)
        if corrupted.shape != (n, k):
            raise ValueError(f"corruption mask shape {corrupted.shape} != scores {(n, k)}")
    top = scores.top_sets(rho)
    in_global = np.zeros(n, dtype=bool)
    in_global[top_sets(g, rho)] = True
    hidden = [t[~in_global[t]] for t in top]
    return MaskingReport(
        rho=float(rho),
        budget=top.shape[1],
        dim_names=list(scores.dim_names),
        masked=[len(h) for h in hidden],
        masked_corrupted=[
            None if corrupted is None else int(corrupted[h, j].sum()) for j, h in enumerate(hidden)
        ],
    )

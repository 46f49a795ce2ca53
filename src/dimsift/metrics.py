"""Rank metrics and diagnostic analyses over dimension-wise scores.

spearman and auroc are the two quality metrics used everywhere: rank
correlation of predictions against labels, and corruption-detection quality
of a score column against a corruption mask. The remaining functions analyze
score tables themselves: how fast the union of per-dimension top sets grows,
how two dimensions' scores scatter against each other, and how many
per-dimension top scorers a single global ranking would miss.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .data import Dataset, ceil_count
from .errors import DataError
from .influence import SelfInfluenceTable
from .model import RegressionHead
from .refine import top_scorer_indices


def _average_ranks(a: np.ndarray) -> np.ndarray:
    """1-based ranks of a 1-D array, tied values sharing the mean of their ranks.

    The algorithm of scipy.stats.rankdata(method="average"): stable sort,
    tie groups, and for a group spanning sorted positions [lo, hi) the rank
    (lo + 1 + hi) / 2, an exact half-integer. A NaN anywhere gives all-NaN
    ranks, as scipy's default nan_policy does.
    """
    if np.isnan(a).any():
        return np.full(a.shape, np.nan)
    order = np.argsort(a, kind="stable")
    s = a[order]
    starts = np.r_[True, s[1:] != s[:-1]]
    dense = np.empty(a.size, dtype=np.intp)
    dense[order] = np.cumsum(starts)
    count = np.r_[np.flatnonzero(starts), a.size]
    return 0.5 * (count[dense] + count[dense - 1] + 1)


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
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise DataError("rank correlation undefined for a constant input")
    rx = _average_ranks(x)
    ry = _average_ranks(y)
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    return float((rx @ ry) / np.sqrt((rx @ rx) * (ry @ ry)))


def auroc(scores: np.ndarray, positive_mask: np.ndarray) -> float:
    """Area under the ROC curve via the rank-sum statistic.

    Equals the fraction of (positive, negative) pairs where the positive
    scores higher, counting ties as half. Raises DataError when only one
    class is present.
    """
    s = np.asarray(scores, dtype=np.float64).ravel()
    pos = np.asarray(positive_mask, dtype=bool).ravel()
    if s.shape != pos.shape:
        raise ValueError(f"length mismatch: {s.shape} vs {pos.shape}")
    n_pos = int(pos.sum())
    n_neg = s.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("AUROC undefined: scores contain a single class")
    ranks = _average_ranks(s)
    u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def per_dim_auroc(scores: np.ndarray, mask: np.ndarray) -> list[Optional[float]]:
    """AUROC of each score column against the same column of a corruption mask.

    None for a column whose mask holds a single class, where AUROC is undefined.
    """
    out: list[Optional[float]] = []
    for k in range(mask.shape[1]):
        col = mask[:, k]
        out.append(auroc(scores[:, k], col) if col.any() and not col.all() else None)
    return out


def _pearson(x: np.ndarray, y: np.ndarray) -> Optional[float]:
    dx = x - x.mean()
    dy = y - y.mean()
    den = np.sqrt((dx @ dx) * (dy @ dy))
    if den == 0.0:
        return None
    return float((dx @ dy) / den)


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
        Path(path).write_text(json.dumps(self.to_dict(), sort_keys=True) + "\n")


def evaluate_head(head: RegressionHead, ds: Dataset, metadata: dict | None = None) -> MetricReport:
    """Per-dimension Spearman of head predictions against the dataset labels."""
    if ds.n_dims != head.n_dims:
        raise DataError(f"head has {head.n_dims} dimensions, dataset has {ds.n_dims}")
    pred = head.predict_batch(ds.features)
    per_dim = [spearman(pred[:, k], ds.labels[:, k]) for k in range(ds.n_dims)]
    meta = dict(metadata or {})
    meta.setdefault("n_samples", len(ds))
    meta.setdefault("dim_names", ds.dim_names)
    return MetricReport(
        per_dim_spearman=per_dim,
        mean_spearman=float(np.mean(per_dim)),
        metadata=meta,
    )


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


def overlap_curve(
    scores: SelfInfluenceTable, rho: float, dim_order: Sequence[int] | None = None
) -> OverlapCurve:
    """How the union of per-dimension top-ceil(rho N) sets grows dimension by dimension.

    Entry j is |union of the first j risk sets| / N. Nondecreasing by
    construction; the final value does not depend on dim_order. Identical
    score columns give a flat curve at rho, disjoint top sets a line up to
    K * ceil(rho N) / N.
    """
    n, k = scores.scores.shape
    order = list(range(k)) if dim_order is None else [int(j) for j in dim_order]
    if sorted(order) != list(range(k)):
        raise ValueError(f"dim_order must be a permutation of 0..{k - 1}, got {order}")
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must be in [0, 1], got {rho}")
    m = ceil_count(rho, n)
    member = np.zeros(n, dtype=bool)
    ratios = []
    for j in order:
        member[top_scorer_indices(scores.scores[:, j], m)] = True
        ratios.append(float(member.sum()) / n)
    return OverlapCurve(cumulative_ratios=ratios, dim_order=order, rho=float(rho))


@dataclass
class HeterogeneityView:
    """Scatter export of two dimensions' scores plus a global score, normalized."""

    records: list[dict]
    pearson: Optional[float]
    spearman: Optional[float]
    dim_a: int
    dim_b: int
    degenerate_dims: list[int]

    def to_csv(self, path: str | Path) -> None:
        lines = ["id,x,y,global"]
        for r in self.records:
            lines.append(f"{r['id']},{r['x']!r},{r['y']!r},{r['global']!r}")
        Path(path).write_text("\n".join(lines) + "\n")


def _minmax(col: np.ndarray) -> tuple[np.ndarray, bool]:
    lo, hi = float(col.min()), float(col.max())
    if hi > lo:
        return (col - lo) / (hi - lo), False
    return np.zeros_like(col), True


def heterogeneity_export(
    scores: SelfInfluenceTable,
    dim_a: int,
    dim_b: int,
    global_scores: np.ndarray,
) -> HeterogeneityView:
    """Per-sample scatter of two dimensions' scores with correlation summary.

    Each column (the two dimensions and the global score) is min-max
    normalized independently; a constant column normalizes to zeros and is
    flagged. Correlations are computed on the raw columns and set to None
    when undefined.
    """
    n, k = scores.scores.shape
    for d in (dim_a, dim_b):
        if not 0 <= d < k:
            raise ValueError(f"dimension index {d} out of range for {k} dimensions")
    g = np.asarray(global_scores, dtype=np.float64).ravel()
    if g.shape[0] != n:
        raise ValueError(f"global_scores must have one entry per sample, got {g.shape[0]} for {n}")
    a = scores.scores[:, dim_a]
    b = scores.scores[:, dim_b]
    na, da = _minmax(a)
    nb, db = _minmax(b)
    ng, dg = _minmax(g)
    degenerate = []
    if da:
        degenerate.append(dim_a)
    if db:
        degenerate.append(dim_b)
    if dg:
        degenerate.append(-1)  # -1 flags the global column
    records = [
        {"id": scores.sample_ids[i], "x": float(na[i]), "y": float(nb[i]), "global": float(ng[i])}
        for i in range(n)
    ]
    pear = None if (da or db) else _pearson(a, b)
    try:
        rank_corr = None if (da or db) else spearman(a, b)
    except DataError:
        rank_corr = None
    return HeterogeneityView(
        records=records,
        pearson=pear,
        spearman=rank_corr,
        dim_a=dim_a,
        dim_b=dim_b,
        degenerate_dims=degenerate,
    )


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
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must be in [0, 1], got {rho}")
    if corrupted is not None:
        corrupted = np.asarray(corrupted, dtype=bool)
        if corrupted.shape != (n, k):
            raise ValueError(f"corruption mask shape {corrupted.shape} != scores {(n, k)}")
    m = ceil_count(rho, n)
    in_global = np.zeros(n, dtype=bool)
    in_global[top_scorer_indices(g, m)] = True
    masked: list[int] = []
    masked_cor: list[Optional[int]] = []
    for j in range(k):
        top = top_scorer_indices(scores.scores[:, j], m)
        hidden = top[~in_global[top]]
        masked.append(int(hidden.shape[0]))
        if corrupted is None:
            masked_cor.append(None)
        else:
            masked_cor.append(int(corrupted[hidden, j].sum()))
    return MaskingReport(
        rho=float(rho),
        budget=m,
        dim_names=list(scores.dim_names),
        masked=masked,
        masked_corrupted=masked_cor,
    )

"""Training-set refinement from per-dimension risk scores.

Two refinement families operate on an (N, K) self-influence table:

    pruning      per dimension, take the top ceil(rho * N) scorers as that
                 dimension's risk set and remove the union
    reweighting  z-score each column, push scores through a temperature
                 sigmoid, and rescale so the global mean weight is one

plus two scalar baselines (per-dimension loss ranking and a single global
score) that share the same selection mechanics for matched-budget
comparisons.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import ceil_count, long_csv_lines, write_lines
from .errors import DataError
from .influence import SelfInfluenceTable
from .model import LossTable

DEFAULT_RHO = 0.005
DEFAULT_TEMPERATURE = 1.0
DEFAULT_EPSILON = 1e-8


def top_scorer_indices(col: np.ndarray, m: int) -> np.ndarray:
    """Indices of the m largest scores, ties broken toward the smaller index."""
    if not 0 <= m <= col.shape[0]:
        raise ValueError(f"selection size {m} out of range for {col.shape[0]} scores")
    order = np.argsort(-col, kind="stable")  # stable desc keeps ties in index order
    return order[:m]


@dataclass
class PruneResult:
    """Outcome of a pruning pass.

    kept_ids preserves the input corpus order. per_dim_risk_sets lists each
    dimension's selected ids in rank order (highest score first); scalar
    strategies leave it empty. thresholds[k] is the smallest selected score
    in dimension k, +inf when nothing was selected.
    """

    kept_ids: list[str]
    removed_ids: list[str]
    per_dim_risk_sets: list[list[str]]
    thresholds: list[float]
    rho: float

    def to_dict(self) -> dict:
        return {
            "rho": self.rho,
            "kept_ids": self.kept_ids,
            "removed_ids": self.removed_ids,
            "per_dim_risk_sets": self.per_dim_risk_sets,
            "thresholds": self.thresholds,
        }

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "PruneResult":
        p = Path(path)
        if not p.exists():
            raise DataError(f"prune file not found: {p}")
        try:
            d = json.loads(p.read_text())
            return cls(
                kept_ids=[str(x) for x in d["kept_ids"]],
                removed_ids=[str(x) for x in d["removed_ids"]],
                per_dim_risk_sets=[[str(x) for x in s] for s in d["per_dim_risk_sets"]],
                thresholds=[float(x) for x in d["thresholds"]],
                rho=float(d["rho"]),
            )
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
            raise DataError(f"invalid prune file {p}: {e}") from None

    def removal_csv(self, path: str | Path, dim_names: Sequence[str] | None = None) -> None:
        """CSV of removed ids with the dimensions whose risk set flagged them."""
        by_id: dict[str, list[str]] = {sid: [] for sid in self.removed_ids}
        for k, risk in enumerate(self.per_dim_risk_sets):
            name = dim_names[k] if dim_names is not None else str(k)
            for sid in risk:
                if sid in by_id:
                    by_id[sid].append(name)
        lines = ["id,removed_by_dims"]
        for sid in self.removed_ids:
            lines.append(f"{sid},{'|'.join(by_id[sid])}")
        Path(path).write_text("\n".join(lines) + "\n")


@dataclass
class WeightMatrix:
    """Per-sample, per-dimension training weights with global mean one."""

    weights: np.ndarray
    sample_ids: list[str]
    temperature: float
    epsilon: float
    per_dim_stats: list[tuple[float, float]]

    def to_dict(self) -> dict:
        return {
            "temperature": self.temperature,
            "epsilon": self.epsilon,
            "per_dim_stats": [[m, s] for m, s in self.per_dim_stats],
            "sample_ids": self.sample_ids,
            "weights": self.weights.tolist(),
        }

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "WeightMatrix":
        p = Path(path)
        if not p.exists():
            raise DataError(f"weight file not found: {p}")
        try:
            d = json.loads(p.read_text())
            return cls(
                weights=np.asarray(d["weights"], dtype=np.float64),
                sample_ids=[str(x) for x in d["sample_ids"]],
                temperature=float(d["temperature"]),
                epsilon=float(d["epsilon"]),
                per_dim_stats=[(float(m), float(s)) for m, s in d["per_dim_stats"]],
            )
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
            raise DataError(f"invalid weight file {p}: {e}") from None

    def to_csv(self, path: str | Path, dim_names: Sequence[str] | None = None) -> None:
        k = self.weights.shape[1]
        names = list(dim_names) if dim_names is not None else [str(j) for j in range(k)]
        write_lines(path, long_csv_lines("id,dim,weight", self.sample_ids, names, self.weights))


def _validate_rho(rho: float) -> float:
    rho = float(rho)
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must be in [0, 1], got {rho}")
    return rho


def _union_prune(
    scores: np.ndarray, sample_ids: list[str], rho: float, collect_risk_sets: bool = True
) -> PruneResult:
    n, k = scores.shape
    m = ceil_count(rho, n)
    removed = np.zeros(n, dtype=bool)
    risk_sets: list[list[str]] = []
    thresholds: list[float] = []
    for j in range(k):
        top = top_scorer_indices(scores[:, j], m)
        removed[top] = True
        thresholds.append(float(scores[top[-1], j]) if m > 0 else math.inf)
        if collect_risk_sets:
            risk_sets.append([sample_ids[i] for i in top])
    kept = [sample_ids[i] for i in range(n) if not removed[i]]
    gone = [sample_ids[i] for i in range(n) if removed[i]]
    return PruneResult(
        kept_ids=kept,
        removed_ids=gone,
        per_dim_risk_sets=risk_sets,
        thresholds=thresholds,
        rho=rho,
    )


def ddp_select(scores: SelfInfluenceTable, rho: float) -> PruneResult:
    """Dimension-disentangled pruning: remove the union of per-dimension top sets.

    Each dimension contributes its top ceil(rho * N) samples by self-influence
    (ties to the smaller sample index), so a sample harmful to any single
    dimension is removed even when its other dimensions look benign. The
    removed count is between ceil(rho * N) and min(N, K * ceil(rho * N)).
    """
    return _union_prune(scores.scores, scores.sample_ids, _validate_rho(rho))


def loss_prune_select(losses: LossTable, rho: float) -> PruneResult:
    """Per-dimension pruning by plain loss instead of self-influence.

    Same union mechanics as ddp_select; a scalar baseline that ignores the
    feature-norm factor, so high-leverage low-residual samples rank
    differently than under self-influence.
    """
    values = np.asarray(losses.values, dtype=np.float64)
    if values.ndim != 2 or len(losses.sample_ids) != values.shape[0]:
        raise ValueError("losses must be an (N, K) table with matching ids")
    return _union_prune(values, list(losses.sample_ids), _validate_rho(rho))


def global_prune_select(
    scalar_scores: np.ndarray, sample_ids: Sequence[str], rho_total: float
) -> PruneResult:
    """Prune the top ceil(rho_total * N) samples by one scalar score.

    The matched-budget baseline for dimension-wise pruning: a single ranking
    cannot see which dimension a sample harms, so dominant-variance dimensions
    can mask minority-dimension corruption.
    """
    scores = np.asarray(scalar_scores, dtype=np.float64)
    ids = [str(s) for s in sample_ids]
    if scores.ndim != 1 or len(ids) != scores.shape[0]:
        raise ValueError("scalar_scores must be one score per sample id")
    rho_total = _validate_rho(rho_total)
    n = scores.shape[0]
    m = ceil_count(rho_total, n)
    top = top_scorer_indices(scores, m)
    removed = np.zeros(n, dtype=bool)
    removed[top] = True
    return PruneResult(
        kept_ids=[ids[i] for i in range(n) if not removed[i]],
        removed_ids=[ids[i] for i in range(n) if removed[i]],
        per_dim_risk_sets=[],
        thresholds=[],
        rho=rho_total,
    )


def ddr_weights(
    scores: SelfInfluenceTable,
    temperature: float = DEFAULT_TEMPERATURE,
    epsilon: float = DEFAULT_EPSILON,
) -> WeightMatrix:
    """Dimension-disentangled reweighting: smooth down-weighting of risky entries.

    Per column k: z = (S - mean_k) / (std_k + epsilon), raw weight
    1 / (1 + exp(z / temperature)), then every entry is divided by the global
    mean of the raw weights over all N * K entries, making the final global
    mean exactly one. A constant column gets z = 0 (raw weight one half
    everywhere) rather than amplifying float noise through the epsilon guard.
    Weights stay strictly positive and nonincreasing in the raw score.
    """
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    s = scores.scores
    n, k = s.shape
    z = np.zeros_like(s)
    stats: list[tuple[float, float]] = []
    for j in range(k):
        col = s[:, j]
        mu = float(col.mean())
        sigma = float(col.std())  # population std, ddof=0
        stats.append((mu, sigma))
        if col.max() > col.min():
            z[:, j] = (col - mu) / (sigma + epsilon)
        # else: constant column, keep z = 0
    # clamp the sigmoid argument so extreme outliers cannot underflow to 0
    arg = np.clip(z / temperature, -700.0, 700.0)
    raw = 1.0 / (1.0 + np.exp(arg))
    w = raw / raw.mean()
    return WeightMatrix(
        weights=w,
        sample_ids=list(scores.sample_ids),
        temperature=float(temperature),
        epsilon=float(epsilon),
        per_dim_stats=stats,
    )

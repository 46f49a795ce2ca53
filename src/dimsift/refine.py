"""Training-set refinement from per-dimension risk scores.

Two refinement families operate on an (N, K) self-influence table:

    pruning      per dimension, take the top ceil(rho * N) scorers as that
                 dimension's risk set and remove the union
    reweighting  z-score each column, push scores through a temperature
                 sigmoid, and rescale so the global mean weight is one; the
                 z-score divides by the column's std plus EPSILON

plus two scalar baselines (per-dimension loss ranking and a single global
score) that share the same selection mechanics for matched-budget
comparisons.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain, compress
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import (
    RowIds,
    id_list,
    long_csv_lines,
    number_rows,
    read_json,
    take_ids,
    top_sets,
    write_json,
    write_lines,
)
from .errors import DataError
from .influence import SelfInfluenceTable

DEFAULT_RHO = 0.005
DEFAULT_TEMPERATURE = 1.0
# added to a column's std before it divides: DDR's z-score guard
EPSILON = 1e-8
# the type of the scalar score file `score --method global` writes
SCALAR_SCORE_TYPE = "global_tracin"


@dataclass
class PruneResult:
    """Outcome of a pruning pass.

    kept_ids preserves the input corpus order. per_dim_risk_sets lists each
    dimension's selected ids in rank order (highest score first); scalar
    strategies leave it empty. thresholds[k] is the smallest selected score
    in dimension k; every dimension selects ceil(rho * N) rows, so when that
    is zero thresholds is empty, as a scalar strategy's is. A selection from
    RowIds holds views of them; one from other ids holds lists of str.
    """

    kept_ids: Sequence[str]
    removed_ids: Sequence[str]
    per_dim_risk_sets: list[Sequence[str]]
    thresholds: list[float]
    rho: float

    def _doc(self, ids) -> dict:
        return {
            "rho": self.rho,
            "kept_ids": ids(self.kept_ids),
            "removed_ids": ids(self.removed_ids),
            "per_dim_risk_sets": [ids(s) for s in self.per_dim_risk_sets],
            "thresholds": self.thresholds,
        }

    def to_dict(self) -> dict:
        return self._doc(list)

    def save(self, path: str | Path) -> None:
        """Write json.dumps(to_dict(), sort_keys=True) and a newline, a piece at a time."""
        write_json(path, self._doc(lambda ids: ids))

    @classmethod
    def load(cls, path: str | Path) -> "PruneResult":
        """The result save wrote to path; rho must be in [0, 1]."""

        def read(d):
            rho = float(number_rows([[d["rho"]]], "rho")[0, 0])
            if not 0.0 <= rho <= 1.0:  # NaN fails too
                raise DataError(f"line 1: rho must be in [0, 1], got {rho}")
            return cls(
                kept_ids=id_list(d["kept_ids"], "kept_ids"),
                removed_ids=id_list(d["removed_ids"], "removed_ids"),
                per_dim_risk_sets=[id_list(s, "per_dim_risk_sets") for s in d["per_dim_risk_sets"]],
                thresholds=number_rows([d["thresholds"]], "thresholds")[0].tolist(),
                rho=rho,
            )

        return read_json(path, "prune", read)

    def removal_csv(self, path: str | Path, dim_names: Sequence[str] | None = None) -> None:
        """CSV of removed ids with the dimensions whose risk set flagged them.

        Each risk set flags its removed rows in one bool array: RowIds match
        by row number, so only the ids written are formatted.
        """
        removed, risk_sets = self.removed_ids, self.per_dim_risk_sets
        names = [str(k) for k in range(len(risk_sets))] if dim_names is None else dim_names
        if isinstance(removed, RowIds):
            flags = [np.isin(removed.rows, risk.rows) for risk in risk_sets]
        else:
            flags = [np.fromiter(map(set(risk).__contains__, removed), bool) for risk in risk_sets]
        lines = (f"{sid},{'|'.join(compress(names, row))}\n" for sid, *row in zip(removed, *flags))
        write_lines(path, chain(["id,removed_by_dims\n"], lines))


@dataclass
class WeightMatrix:
    """Per-sample, per-dimension training weights with global mean one."""

    weights: np.ndarray
    sample_ids: Sequence[str]
    temperature: float
    per_dim_stats: list[tuple[float, float]]

    def _doc(self, sample_ids, weights) -> dict:
        return {
            "temperature": self.temperature,
            "per_dim_stats": [[m, s] for m, s in self.per_dim_stats],
            "sample_ids": sample_ids,
            "weights": weights,
        }

    def to_dict(self) -> dict:
        return self._doc(list(self.sample_ids), self.weights.tolist())

    def save(self, path: str | Path) -> None:
        """Write json.dumps(to_dict(), sort_keys=True) and a newline, one weight row at a time."""
        write_json(path, self._doc(self.sample_ids, self.weights))

    @classmethod
    def load(cls, path: str | Path) -> "WeightMatrix":
        """The weights save wrote to path; each weight nonnegative, the temperature positive."""

        def read(d):
            ids = id_list(d["sample_ids"], "sample_ids")
            stats = number_rows(d["per_dim_stats"], "per_dim_stats", 2)
            weights = number_rows(d["weights"], "weights", len(stats), ids)
            # written so that NaN fails: every comparison with it is False
            bad = ~np.all((weights >= 0.0) & (weights < math.inf), axis=1)
            if bad.any():
                raise DataError(f"sample {ids[bad.argmax()]!r} on line 1: weights must be "
                                "nonnegative and finite")
            temperature = float(number_rows([[d["temperature"]]], "temperature")[0, 0])
            if not 0.0 < temperature < math.inf:
                raise DataError(f"line 1: temperature must be positive and finite, got {temperature}")
            return cls(weights, ids, temperature, list(map(tuple, stats.tolist())))

        return read_json(path, "weight", read)

    def to_csv(self, path: str | Path, dim_names: Sequence[str] | None = None) -> None:
        k = self.weights.shape[1]
        names = list(dim_names) if dim_names is not None else [str(j) for j in range(k)]
        write_lines(path, long_csv_lines("id,dim,weight", self.sample_ids, names, self.weights))


def _union_prune(
    values: np.ndarray, top: np.ndarray, sample_ids: Sequence[str], rho: float
) -> PruneResult:
    """Remove the union of the (K, m) top sets top of the (N, K) matrix values."""
    removed = np.zeros(values.shape[0], dtype=bool)
    removed[top] = True
    return PruneResult(
        kept_ids=take_ids(sample_ids, ~removed),
        removed_ids=take_ids(sample_ids, removed),
        per_dim_risk_sets=[take_ids(sample_ids, t) for t in top],
        thresholds=[float(values[t[-1], j]) for j, t in enumerate(top) if t.size],
        rho=float(rho),
    )


def ddp_select(scores: SelfInfluenceTable, rho: float) -> PruneResult:
    """Dimension-disentangled pruning: remove the union of per-dimension top sets.

    Each dimension contributes its top ceil(rho * N) samples by self-influence
    (ties to the smaller sample index), so a sample harmful to any single
    dimension is removed even when its other dimensions look benign. The
    removed count is between ceil(rho * N) and min(N, K * ceil(rho * N)).
    """
    return _union_prune(scores.scores, scores.top_sets(rho), scores.sample_ids, rho)


def loss_prune_select(values: np.ndarray, sample_ids: Sequence[str], rho: float) -> PruneResult:
    """Per-dimension pruning by plain loss instead of self-influence.

    values is the (N, K) loss matrix of model.per_dim_loss, one row per
    sample id. Same union mechanics as ddp_select; a scalar baseline that
    ignores the feature-norm factor, so high-leverage low-residual samples
    rank differently than under self-influence.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or len(sample_ids) != values.shape[0]:
        raise ValueError("losses must be an (N, K) matrix with one row per sample id")
    return _union_prune(values, top_sets(values, rho), sample_ids, rho)


def load_scalar_scores(path: str | Path) -> tuple[list[str], np.ndarray]:
    """The ids and scores of a scalar score file, as `score --method global` writes it."""

    def read(doc):
        if doc["type"] != SCALAR_SCORE_TYPE:
            raise DataError(f"type must be {SCALAR_SCORE_TYPE!r}, got {doc['type']!r:.40}")
        ids = id_list(doc["ids"], "ids")
        return ids, number_rows([doc["scores"]], "scores", len(ids))[0]

    return read_json(path, "scalar score", read)


def global_prune_select(
    scalar_scores: np.ndarray, sample_ids: Sequence[str], rho: float
) -> PruneResult:
    """Prune the top ceil(rho * N) samples by one scalar score.

    The matched-budget baseline for dimension-wise pruning: a single ranking
    cannot see which dimension a sample harms, so dominant-variance dimensions
    can mask minority-dimension corruption. This is union pruning over one
    column, with per_dim_risk_sets and thresholds left empty.
    """
    scores = np.asarray(scalar_scores, dtype=np.float64)
    if scores.ndim != 1 or len(sample_ids) != scores.shape[0]:
        raise ValueError("scalar_scores must be one score per sample id")
    result = _union_prune(scores[:, None], top_sets(scores, rho), sample_ids, rho)
    return replace(result, per_dim_risk_sets=[], thresholds=[])


def ddr_weights(scores: SelfInfluenceTable, temperature: float = DEFAULT_TEMPERATURE) -> WeightMatrix:
    """Dimension-disentangled reweighting: smooth down-weighting of risky entries.

    Per column k: z = (S - mean_k) / (std_k + EPSILON), raw weight
    1 / (1 + exp(z / temperature)), then every entry is divided by the global
    mean of the raw weights over all N * K entries, making the final global
    mean exactly one. A constant column gets z = 0 (raw weight one half
    everywhere) rather than amplifying float noise through the EPSILON guard.
    Weights stay strictly positive and nonincreasing in the raw score.
    """
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    s = scores.scores
    # z, the sigmoid argument, the raw weight and the weight in turn fill one
    # N x K buffer, each step in place and rounded as the plain expression
    w = np.zeros_like(s)
    stats: list[tuple[float, float]] = []
    for j in range(s.shape[1]):
        col = s[:, j]
        mu = float(col.mean())
        sigma = float(col.std())  # population std, ddof=0
        stats.append((mu, sigma))
        if col.max() > col.min():
            np.subtract(col, mu, out=w[:, j])
            w[:, j] /= sigma + EPSILON
        # else: constant column, keep z = 0
    w /= temperature
    # clamp the sigmoid argument so extreme outliers cannot underflow to 0
    np.clip(w, -700.0, 700.0, out=w)
    np.exp(w, out=w)
    w += 1.0
    np.divide(1.0, w, out=w)
    w /= w.mean()
    return WeightMatrix(
        weights=w,
        sample_ids=scores.sample_ids,
        temperature=float(temperature),
        per_dim_stats=stats,
    )

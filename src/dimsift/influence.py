"""Dimension-wise influence scores under an identity-Hessian approximation.

For a model with per-dimension losses L_k and scope parameters theta, the
influence of training point z on test point z' decomposes over dimension
pairs:

    phi[j, k] = lambda_j * lambda_k * <grad L_j(z'), grad L_k(z)>

and the influence of z' on the total loss is the sum of all K*K entries,
which equals the single inner product of the lambda-aggregated gradients.
The diagonal of phi at z = z' gives per-dimension self-influence; for a
head-only scope it collapses to the forward-only closed form

    S[i, k] = r[i, k]^2 * (|h_i|^2 + 1)

because the gradient of dimension k touches only that head's weights and
bias. A shared layer adds one Gram term per dimension pair (see
_gram_terms), so every batched score is a few matrix products over the
dataset; grad_per_dimension assembles the gradients one sample at a time as
the reference. Scores are computed at one final checkpoint; the Hessian is
taken to be the identity throughout.

Self-influence tables are lambda-free so they can be reused under different
dimension weightings; the pairwise matrix, the aggregated scalar, and the
row-sum scores include the lambda factors.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .data import Dataset, Sample
from .errors import DataError
from .model import RegressionHead, Scope


@dataclass(frozen=True)
class InfluenceConfig:
    """Scope and dimension weights used by the influence operations.

    lambdas must be nonnegative and finite; a zero entry silences that
    dimension's contribution wherever lambdas apply. hessian is recorded for
    provenance and only the identity approximation is implemented.
    """

    scope: Scope = Scope.HEAD_ONLY
    lambdas: Optional[tuple[float, ...]] = None
    hessian: str = "identity"

    def __post_init__(self):
        if self.hessian != "identity":
            raise ValueError(f"only the identity Hessian approximation is supported, got {self.hessian!r}")
        if self.lambdas is not None:
            lam = np.asarray(self.lambdas, dtype=np.float64)
            if np.any(lam < 0) or not np.all(np.isfinite(lam)):
                raise ValueError("influence lambdas must be nonnegative and finite")

    def resolved_lambdas(self, n_dims: int) -> np.ndarray:
        if self.lambdas is None:
            return np.ones(n_dims)
        lam = np.asarray(self.lambdas, dtype=np.float64)
        if lam.shape != (n_dims,):
            raise ValueError(f"lambdas must have {n_dims} entries, got shape {lam.shape}")
        return lam


@dataclass
class SelfInfluenceTable:
    """Per-sample, per-dimension self-influence scores (lambda-free)."""

    scores: np.ndarray
    sample_ids: list[str]
    dim_names: list[str]
    scope: Scope
    lambdas: np.ndarray

    def __post_init__(self):
        self.scores = np.ascontiguousarray(self.scores, dtype=np.float64)
        if self.scores.ndim != 2:
            raise ValueError("scores must be an (N, K) matrix")
        n, k = self.scores.shape
        if len(self.sample_ids) != n:
            raise ValueError(f"{len(self.sample_ids)} ids for {n} score rows")
        if len(self.dim_names) != k:
            raise ValueError(f"{len(self.dim_names)} dim names for {k} score columns")
        if not np.all(np.isfinite(self.scores)):
            raise ValueError("scores must be finite")
        if np.any(self.scores < 0):
            raise ValueError("self-influence scores must be nonnegative")
        self.lambdas = np.asarray(self.lambdas, dtype=np.float64)

    @property
    def n_samples(self) -> int:
        return self.scores.shape[0]

    @property
    def n_dims(self) -> int:
        return self.scores.shape[1]

    def global_scores(self) -> np.ndarray:
        """global_tracin_self from a head-only table: (scores * lambda^2).sum(1).

        Head-only per-dimension gradients sit on disjoint parameter blocks, so
        the squared norm of their lambda-weighted sum is the lambda^2-weighted
        sum of the per-dimension squared norms. A shared layer adds
        cross-dimension terms the table does not hold, so other scopes are
        refused.
        """
        if self.scope != Scope.HEAD_ONLY:
            raise ValueError(
                f"a {self.scope.value} score table does not determine global scores; "
                "use global_tracin_self with the head"
            )
        return (self.scores * self.lambdas**2).sum(axis=1)

    def to_csv(self, path: str | Path) -> None:
        """Long-format CSV: one (id, dim, score) row per table entry."""
        lines = ["id,dim,score"]
        for i, sid in enumerate(self.sample_ids):
            for k, name in enumerate(self.dim_names):
                lines.append(f"{sid},{name},{float(self.scores[i, k])!r}")
        Path(path).write_text("\n".join(lines) + "\n")

    def dumps(self) -> str:
        head = {
            "type": "self_influence",
            "scope": self.scope.value,
            "lambdas": self.lambdas.tolist(),
            "dim_names": self.dim_names,
        }
        lines = [json.dumps(head, separators=(",", ":"))]
        for i, sid in enumerate(self.sample_ids):
            lines.append(
                json.dumps(
                    {"type": "row", "id": sid, "scores": self.scores[i].tolist()},
                    separators=(",", ":"),
                )
            )
        return "\n".join(lines) + "\n"

    def to_jsonl(self, path: str | Path) -> None:
        Path(path).write_text(self.dumps())

    @classmethod
    def loads(cls, text: str) -> "SelfInfluenceTable":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise DataError("empty score file")
        try:
            head = json.loads(lines[0])
        except json.JSONDecodeError as e:
            raise DataError(f"malformed score header: {e}") from None
        if not isinstance(head, dict) or head.get("type") != "self_influence":
            raise DataError("line 1: first line must be a self_influence header object")
        dim_names = head.get("dim_names")
        if not isinstance(dim_names, list):
            raise DataError("score header needs a dim_names list")
        ids, rows = [], []
        k = len(dim_names)
        for ln_no, ln in enumerate(lines[1:], start=2):
            try:
                rec = json.loads(ln)
            except json.JSONDecodeError as e:
                raise DataError(f"malformed score row on line {ln_no}: {e}") from None
            if not isinstance(rec, dict) or "id" not in rec:
                raise DataError(f"line {ln_no}: score row must be an object with an id")
            sc = rec.get("scores")
            if rec.get("type") != "row" or not isinstance(sc, list) or len(sc) != k:
                raise DataError(f"invalid score row for id {rec['id']!r} on line {ln_no}")
            ids.append(str(rec["id"]))
            rows.append(sc)
        try:
            return cls(
                scores=np.asarray(rows, dtype=np.float64),
                sample_ids=ids,
                dim_names=[str(x) for x in dim_names],
                scope=Scope(head["scope"]),
                lambdas=np.asarray(head["lambdas"], dtype=np.float64),
            )
        except (KeyError, TypeError, ValueError) as e:
            raise DataError(f"invalid score file: {e}") from None

    @classmethod
    def load(cls, path: str | Path) -> "SelfInfluenceTable":
        p = Path(path)
        if not p.exists():
            raise DataError(f"score file not found: {p}")
        return cls.loads(p.read_text())


@dataclass
class DisentangledMatrix:
    """K x K dimension-pair influence matrix for one (train, test) sample pair."""

    phi: np.ndarray
    train_id: str
    test_id: str

    def total(self) -> float:
        return float(self.phi.sum())


# -- gradient assembly -------------------------------------------------------


def _check_scope(head: RegressionHead, scope: Scope) -> None:
    if scope == Scope.LAST_TWO_LAYERS and head.shared_weight is None:
        raise ValueError("last_two_layers scope requires a head with a shared layer")


def scope_dim(head: RegressionHead, scope: Scope) -> int:
    """Flat parameter count covered by the scope."""
    _check_scope(head, scope)
    k, p = head.n_dims, head.head_width
    n_head = k * (p + 1)
    if scope == Scope.HEAD_ONLY:
        return n_head
    m, d = head.shared_weight.shape
    return m * d + m + n_head


def _residual_and_input(head: RegressionHead, sample: Sample):
    x = np.asarray(sample.features, dtype=np.float64)
    if x.shape != (head.feature_dim,):
        raise DataError(
            f"sample {sample.id!r} has {x.shape} features, head expects ({head.feature_dim},)"
        )
    u = x if head.shared_weight is None else head.shared_weight @ x + head.shared_bias
    r = head.weights @ u + head.biases - np.asarray(sample.labels, dtype=np.float64)
    return x, u, r


def grad_per_dimension(head: RegressionHead, sample: Sample, cfg: InfluenceConfig) -> np.ndarray:
    """(K, P) matrix whose row k is the flat scope gradient of L_k = 0.5 r_k^2.

    Layout: for a last-two-layers scope the shared weight block (row-major)
    comes first, then the shared bias, then per-dimension head blocks
    [w_k, b_k] in dimension order. Head-only scopes drop the shared blocks.
    Dimension k's loss touches only head block k, so rows are supported on
    disjoint head blocks and differ only in the shared-layer part.
    """
    _check_scope(head, cfg.scope)
    x, u, r = _residual_and_input(head, sample)
    k, p = head.n_dims, head.head_width
    n_p = scope_dim(head, cfg.scope)
    off = n_p - k * (p + 1)
    grads = np.zeros((k, n_p))
    for j in range(k):
        blk = off + j * (p + 1)
        grads[j, blk : blk + p] = r[j] * u
        grads[j, blk + p] = r[j]
    if cfg.scope == Scope.LAST_TWO_LAYERS:
        m, d = head.shared_weight.shape
        for j in range(k):
            grads[j, : m * d] = r[j] * np.outer(head.weights[j], x).ravel()
            grads[j, m * d : m * d + m] = r[j] * head.weights[j]
    return grads


# -- scoring -----------------------------------------------------------------


def _check_pair(head: RegressionHead, ds: Dataset) -> None:
    if ds.n_dims != head.n_dims:
        raise DataError(f"head has {head.n_dims} dimensions, dataset has {ds.n_dims}")
    if ds.feature_dim != head.feature_dim:
        raise DataError(f"head expects {head.feature_dim} features, dataset has {ds.feature_dim}")


def _gram_terms(head: RegressionHead, ds: Dataset, cfg: InfluenceConfig):
    """Batched factors of every per-dimension gradient inner product.

    For sample i and dimensions j, k of one scope,

        <grad L_j(z_i), grad L_k(z_i)> = r_ij r_ik (G_jk a_i + [j == k] b_i)

    with G = W_head W_head^T, b_i = |u_i|^2 + 1 from the head blocks (u_i is
    the head input, 1 the bias) and a_i = |x_i|^2 + 1 from the shared-layer
    blocks, which is 0 for head-only scopes. This is the per-example
    gradient-norm identity for linear layers (Goodfellow 2015), so no
    gradient is assembled. Returns (r, a, b, G).
    """
    _check_pair(head, ds)
    _check_scope(head, cfg.scope)
    x = ds.features
    u = head.head_inputs(x)
    r = u @ head.weights.T + head.biases - ds.labels
    b = np.einsum("ij,ij->i", u, u) + 1.0
    if cfg.scope == Scope.LAST_TWO_LAYERS:
        a = np.einsum("ij,ij->i", x, x) + 1.0
    else:
        a = np.zeros(len(ds))
    return r, a, b, head.weights @ head.weights.T


def self_influence_closed_form(
    head: RegressionHead, ds: Dataset, cfg: InfluenceConfig
) -> SelfInfluenceTable:
    """Forward-pass-only self-influence for head-only scopes.

    S[i, k] = r[i, k]^2 * (|u_i|^2 + 1), where u_i is the head input and the
    trailing 1 accounts for the bias coordinate. Equals the squared norm of
    the explicit per-dimension gradient without assembling any gradient, in
    O(N * d) arithmetic.
    """
    if cfg.scope != Scope.HEAD_ONLY:
        raise ValueError("closed-form self-influence is defined for the head_only scope")
    return self_influence_explicit(head, ds, cfg)


def self_influence_explicit(
    head: RegressionHead, ds: Dataset, cfg: InfluenceConfig
) -> SelfInfluenceTable:
    """Self-influence S[i, k] = |grad L_k(z_i)|^2 = r_ik^2 (G_kk a_i + b_i).

    Valid for any scope; see _gram_terms for the factors. grad_per_dimension
    assembles the same gradients one sample at a time and is the reference
    the tests check this against.
    """
    r, a, b, gram = _gram_terms(head, ds, cfg)
    scores = r * r * (np.diag(gram) * a[:, None] + b[:, None])
    return SelfInfluenceTable(
        scores=scores,
        sample_ids=ds.ids,
        dim_names=ds.dim_names,
        scope=cfg.scope,
        lambdas=cfg.resolved_lambdas(ds.n_dims),
    )


def disentangled_matrix(
    head: RegressionHead, z_train: Sample, z_test: Sample, cfg: InfluenceConfig
) -> DisentangledMatrix:
    """Dimension-pair influence matrix phi for one train/test sample pair.

    phi[j, k] = lambda_j lambda_k <grad L_j(z_test), grad L_k(z_train)>.
    For head-only scopes the per-dimension gradients live on disjoint
    parameter blocks, so off-diagonal entries are exactly zero; a shared
    layer couples dimensions and produces nonzero off-diagonals.
    """
    lam = cfg.resolved_lambdas(head.n_dims)
    g_test = grad_per_dimension(head, z_test, cfg)
    g_train = grad_per_dimension(head, z_train, cfg)
    phi = (lam[:, None] * lam[None, :]) * (g_test @ g_train.T)
    return DisentangledMatrix(phi=phi, train_id=z_train.id, test_id=z_test.id)


def scalar_influence(
    head: RegressionHead, z_train: Sample, z_test: Sample, cfg: InfluenceConfig
) -> float:
    """Aggregate influence of z_train on z_test's total weighted loss.

    Computed as one inner product of the two lambda-aggregated gradients,
    not by summing the pairwise matrix; the two routes agree up to float
    roundoff, which is what makes the decomposition checkable.
    """
    lam = cfg.resolved_lambdas(head.n_dims)
    g_test = lam @ grad_per_dimension(head, z_test, cfg)
    g_train = lam @ grad_per_dimension(head, z_train, cfg)
    return float(g_test @ g_train)


def global_tracin_self(head: RegressionHead, ds: Dataset, cfg: InfluenceConfig) -> np.ndarray:
    """Per-sample scalar self-influence |sum_k lambda_k grad L_k(z)|^2.

    With rho_i = lambda * r_i this is |rho_i W_head|^2 a_i + |rho_i|^2 b_i
    (factors as in _gram_terms).
    """
    r, a, b, _ = _gram_terms(head, ds, cfg)
    rho = cfg.resolved_lambdas(head.n_dims) * r
    v = rho @ head.weights
    return np.einsum("ij,ij->i", v, v) * a + np.einsum("ij,ij->i", rho, rho) * b


def row_sum_scores(head: RegressionHead, ds: Dataset, cfg: InfluenceConfig) -> np.ndarray:
    """(N, K) ablation scores: entry (i, j) sums row j of the pairwise matrix at z_i.

    Row sums keep cross-dimension terms, so for head-only scopes (exact zero
    off-diagonals) the result reduces to lambda_j^2 times the self-influence
    column, while shared-layer scopes mix dimensions. With rho_i = lambda * r_i
    the entry is rho_ij ((rho_i G)_j a_i + rho_ij b_i) (factors as in
    _gram_terms).
    """
    r, a, b, gram = _gram_terms(head, ds, cfg)
    rho = cfg.resolved_lambdas(head.n_dims) * r
    return rho * ((rho @ gram) * a[:, None] + rho * b[:, None])

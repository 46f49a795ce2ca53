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
_gram_terms), so every batched score is a few matrix products over each
row chunk of the dataset; grad_per_dimension assembles the gradients one
sample at a time as the reference. Scores are computed at one final
checkpoint; the Hessian is taken to be the identity throughout.

Self-influence tables are lambda-free so they can be reused under different
dimension weightings; the pairwise matrix, the aggregated scalar, and the
row-sum scores include the lambda factors.
"""
from __future__ import annotations

import io
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .data import (
    Dataset,
    Sample,
    check_unique,
    extend_numbers,
    first_duplicate,
    long_csv_lines,
    read_file,
    table_lines,
    table_rows,
    top_sets,
    write_lines,
)
from .errors import DataError
from .model import RegressionHead, Scope, check_pair


@dataclass(frozen=True)
class InfluenceConfig:
    """Scope and dimension weights used by the influence operations.

    lambdas must be nonnegative and finite; a zero entry silences that
    dimension's contribution wherever lambdas apply.
    """

    scope: Scope = Scope.HEAD_ONLY
    lambdas: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        if self.lambdas is not None:
            lam = np.asarray(self.lambdas, dtype=np.float64)
            if np.any(lam < 0) or not np.all(np.isfinite(lam)):
                raise ValueError("lambdas: must be nonnegative and finite")

    def resolved_lambdas(self, n_dims: int) -> np.ndarray:
        if self.lambdas is None:
            return np.ones(n_dims)
        lam = np.asarray(self.lambdas, dtype=np.float64)
        if lam.shape != (n_dims,):
            raise ValueError(f"lambdas must have {n_dims} entries, got shape {lam.shape}")
        return lam


@dataclass
class SelfInfluenceTable:
    """Per-sample, per-dimension self-influence scores (lambda-free); scores is read-only."""

    scores: np.ndarray
    sample_ids: Sequence[str]
    dim_names: list[str]
    scope: Scope
    lambdas: np.ndarray
    _top_sets: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.scores = np.ascontiguousarray(self.scores, dtype=np.float64)
        self.scores.setflags(write=False)
        if self.scores.ndim != 2:
            raise ValueError("scores must be an (N, K) matrix")
        n, k = self.scores.shape
        if len(self.sample_ids) != n:
            raise ValueError(f"{len(self.sample_ids)} ids for {n} score rows")
        if len(self.dim_names) != k:
            raise ValueError(f"{len(self.dim_names)} dim names for {k} score columns")
        dup = first_duplicate(self.dim_names)
        if dup is not None:
            raise ValueError(f"repeated dimension name {self.dim_names[dup]!r}")
        lo, hi = self.scores.min(initial=0.0), self.scores.max(initial=0.0)
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError("scores must be finite")
        if lo < 0:
            raise ValueError("self-influence scores must be nonnegative")
        self.lambdas = np.asarray(self.lambdas, dtype=np.float64)

    @property
    def n_samples(self) -> int:
        return self.scores.shape[0]

    @property
    def n_dims(self) -> int:
        return self.scores.shape[1]

    def top_sets(self, rho: float) -> np.ndarray:
        """data.top_sets of the read-only scores, ranked once per rho for every caller."""
        rho = float(rho)
        if rho not in self._top_sets:
            self._top_sets[rho] = top_sets(self.scores, rho)
        return self._top_sets[rho]

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
        lines = long_csv_lines("id,dim,score", self.sample_ids, self.dim_names, self.scores)
        write_lines(path, lines)

    def _lines(self) -> Iterator[str]:
        head = {
            "type": "self_influence",
            "scope": self.scope.value,
            "lambdas": self.lambdas.tolist(),
            "dim_names": self.dim_names,
        }
        return table_lines(head, "row", self.sample_ids, {"scores": self.scores})

    def dumps(self) -> str:
        return "".join(self._lines())

    def to_jsonl(self, path: str | Path) -> None:
        write_lines(path, self._lines())

    @classmethod
    def _read(cls, lines: Iterable[str]) -> "SelfInfluenceTable":
        rows = table_rows(lines, "score", "self_influence", "row")
        ln_no, _, head = next(rows)
        k = len(head["dim_names"])
        lam = array("d")
        extend_numbers(lam, head.get("lambdas"), "lambdas", None, ln_no, k)
        scope, names = head.get("scope"), [s.value for s in Scope]
        if scope not in names:
            raise DataError(f"line {ln_no}: scope must be one of {names}, got {scope!r:.40}")
        ids: list[str] = []
        line_of = array("l")
        scores = array("d")
        for ln_no, sid, rec in rows:
            extend_numbers(scores, rec.get("scores"), "scores", sid, ln_no, k)
            ids.append(sid)
            line_of.append(ln_no)
        check_unique(ids, line_of)
        try:
            return cls(
                scores=np.frombuffer(scores).reshape(len(ids), k),
                sample_ids=ids,
                dim_names=head["dim_names"],
                scope=Scope(scope),
                lambdas=np.frombuffer(lam),
            )
        except ValueError as e:
            raise DataError(str(e)) from None

    @classmethod
    def loads(cls, text: str) -> "SelfInfluenceTable":
        return cls._read(io.StringIO(text, newline=None))

    @classmethod
    def load(cls, path: str | Path) -> "SelfInfluenceTable":
        return read_file(path, "score", cls._read)


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


def _gram_terms(head: RegressionHead, ds: Dataset, cfg: InfluenceConfig, out=None):
    """Batched factors of every per-dimension gradient inner product, a row chunk at a time.

    For sample i and dimensions j, k of one scope,

        <grad L_j(z_i), grad L_k(z_i)> = r_ij r_ik (G_jk a_i + [j == k] b_i)

    with G = W_head W_head^T, b_i = |u_i|^2 + 1 from the head blocks (u_i is
    the head input, 1 the bias) and a_i = |x_i|^2 + 1 from the shared-layer
    blocks, which is 0 for head-only scopes. This is the per-example
    gradient-norm identity for linear layers (Goodfellow 2015), so no
    gradient is assembled. Yields (start, stop, r, a, b) per chunk of
    ds.blocks() (a is one zero in head-only scopes), so the labels,
    features, activations u and the callers' temporaries are one chunk's.
    The callers overwrite r, written into out[start:stop] if an (N, K) out
    is given.
    """
    check_pair(head, ds)
    _check_scope(head, cfg.scope)
    start = 0
    for x, y in ds.blocks():
        stop = start + len(x)
        u = head.head_inputs(x)
        r = np.matmul(u, head.weights.T, out=None if out is None else out[start:stop])
        r += head.biases
        r -= y
        del y
        b = np.einsum("ij,ij->i", u, u)
        b += 1.0
        del u  # released before the caller's temporaries
        a = np.zeros(1)
        if cfg.scope == Scope.LAST_TWO_LAYERS:
            a = np.einsum("ij,ij->i", x, x)
            a += 1.0
        del x  # released before the next chunk is read
        yield start, stop, r, a, b
        start = stop


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


def _self_scores(head: RegressionHead, ds: Dataset, cfg: InfluenceConfig, table: bool, scalar: bool):
    """The (N, K) self-influence scores and the (N,) global scores, each None unless asked for.

    Both come from one pass of _gram_terms: a chunk's global scores are
    taken from a copy of its residuals before the scores overwrite them.
    """
    lam = cfg.resolved_lambdas(head.n_dims)
    two = cfg.scope == Scope.LAST_TWO_LAYERS
    gram_diag = np.diag(head.weights @ head.weights.T)
    scores = np.empty((len(ds), ds.n_dims)) if table else None
    glob = np.empty(len(ds)) if scalar else None
    for start, stop, r, a, b in _gram_terms(head, ds, cfg, scores):
        if scalar:
            rho = r * lam if table else np.multiply(r, lam, out=r)
            part = np.einsum("ij,ij->i", rho, rho, out=glob[start:stop])
            part *= b
            # the |rho_i W_head|^2 a_i term is exactly 0 in head-only scopes, where a is zero
            if two:
                v = rho @ head.weights
                part += np.einsum("ij,ij->i", v, v) * a
                del v  # released before the next chunk is read
            del rho
        if table:
            r *= r
            if two:
                r *= gram_diag * a[:, None] + b[:, None]
            else:
                # a is zero in head-only scopes, so the factor is exactly b
                r *= b[:, None]
    return scores, glob


def _table(scores: np.ndarray, ds: Dataset, cfg: InfluenceConfig) -> SelfInfluenceTable:
    return SelfInfluenceTable(
        scores=scores,
        sample_ids=ds.ids,
        dim_names=ds.dim_names,
        scope=cfg.scope,
        lambdas=cfg.resolved_lambdas(ds.n_dims),
    )


def self_influence_explicit(
    head: RegressionHead, ds: Dataset, cfg: InfluenceConfig
) -> SelfInfluenceTable:
    """Self-influence S[i, k] = |grad L_k(z_i)|^2 = r_ik^2 (G_kk a_i + b_i).

    Valid for any scope; see _gram_terms for the factors. grad_per_dimension
    assembles the same gradients one sample at a time and is the reference
    the tests check this against.
    """
    scores, _ = _self_scores(head, ds, cfg, table=True, scalar=False)
    return _table(scores, ds, cfg)


def self_and_global_scores(
    head: RegressionHead, ds: Dataset, cfg: InfluenceConfig
) -> tuple[SelfInfluenceTable, np.ndarray]:
    """self_influence_explicit and global_tracin_self, bit for bit, from one pass over the features."""
    scores, glob = _self_scores(head, ds, cfg, table=True, scalar=True)
    return _table(scores, ds, cfg), glob


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
    return _self_scores(head, ds, cfg, table=False, scalar=True)[1]


def row_sum_scores(head: RegressionHead, ds: Dataset, cfg: InfluenceConfig) -> np.ndarray:
    """(N, K) ablation scores: entry (i, j) sums row j of the pairwise matrix at z_i.

    Row sums keep cross-dimension terms, so for head-only scopes (exact zero
    off-diagonals) the result reduces to lambda_j^2 times the self-influence
    column, while shared-layer scopes mix dimensions. With rho_i = lambda * r_i
    the entry is rho_ij ((rho_i G)_j a_i + rho_ij b_i) (factors as in
    _gram_terms).
    """
    lam = cfg.resolved_lambdas(head.n_dims)
    gram = head.weights @ head.weights.T
    out = np.empty((len(ds), ds.n_dims))
    for start, stop, rho, a, b in _gram_terms(head, ds, cfg):
        rho *= lam
        part = out[start:stop]
        if cfg.scope == Scope.LAST_TWO_LAYERS:
            np.matmul(rho, gram, out=part)
            part *= a[:, None]
            part += rho * b[:, None]
        else:
            # the (rho_i G) a_i term is exactly 0 in head-only scopes, where a is zero
            np.multiply(rho, b[:, None], out=part)
        part *= rho
    return out

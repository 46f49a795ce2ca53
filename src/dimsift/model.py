"""Per-dimension linear regression heads over shared features.

Both fitting paths read the features once, a row chunk at a time, into the
moments of the normal equations over augmented inputs [h; 1]: A = [h 1]'
diag(w) [h 1], B = [h 1]' diag(w) y and y' diag(w) y, one set shared by
every dimension without sample weights, one per dimension with them
(_normal_equations). Neither [h; 1] nor a feature matrix is built.

    closed form     per-dimension weighted ridge, solving (A + alpha D)
                    beta = B with no penalty on the bias coordinate (D has
                    a zero in the bias slot); an unweighted fit has one Gram
                    matrix and one solve for all dimensions
    gradient        full-batch gradient descent on the sum of per-dimension
                    squared-error losses, each scaled by its fixed lambda,
                    stepping the arrays [W_shared b_shared], W_head and
                    b_head; the model is affine, so each loss is a quadratic
                    form in the moments and an epoch costs O(K (d+1)^2) at
                    any N

An optional shared affine layer (identity activation) sits below the heads so
that influence scopes covering the last two layers have coupled parameters.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Optional

import numpy as np

from .data import Dataset, number_rows, read_json, write_json
from .errors import DataError, NumericalError


class Scope(str, Enum):
    """Parameter scope used for gradients and influence scores."""

    HEAD_ONLY = "head_only"
    LAST_TWO_LAYERS = "last_two_layers"


@dataclass
class RegressionHead:
    """K independent affine heads, optionally on top of one shared affine layer.

    weights is (K, p) where p is the feature dimension, or the hidden width
    when a shared layer is present. fit_info carries fitting diagnostics
    (method, loss trajectory) and is not used by prediction.
    """

    weights: np.ndarray
    biases: np.ndarray
    shared_weight: Optional[np.ndarray] = None
    shared_bias: Optional[np.ndarray] = None
    fit_info: Optional[dict] = None

    def __post_init__(self):
        self.weights = np.ascontiguousarray(self.weights, dtype=np.float64)
        self.biases = np.ascontiguousarray(self.biases, dtype=np.float64)
        if self.weights.ndim != 2 or self.biases.shape != (self.weights.shape[0],):
            raise ValueError(
                f"weights must be (K, p) with matching (K,) biases, "
                f"got {self.weights.shape} and {self.biases.shape}"
            )
        if (self.shared_weight is None) != (self.shared_bias is None):
            raise ValueError("shared_weight and shared_bias must be given together")
        if self.shared_weight is not None:
            self.shared_weight = np.ascontiguousarray(self.shared_weight, dtype=np.float64)
            self.shared_bias = np.ascontiguousarray(self.shared_bias, dtype=np.float64)
            m, _ = self.shared_weight.shape
            if self.shared_bias.shape != (m,):
                raise ValueError("shared_bias must have one entry per hidden unit")
            if self.weights.shape[1] != m:
                raise ValueError(
                    f"head width {self.weights.shape[1]} does not match hidden width {m}"
                )
        for a in (self.weights, self.biases, self.shared_weight, self.shared_bias):
            if a is not None and not np.all(np.isfinite(a)):
                raise ValueError("head parameters must be finite")

    @property
    def n_dims(self) -> int:
        return self.weights.shape[0]

    @property
    def head_width(self) -> int:
        """Width of the head input: d, or the hidden width with a shared layer."""
        return self.weights.shape[1]

    @property
    def feature_dim(self) -> int:
        if self.shared_weight is not None:
            return self.shared_weight.shape[1]
        return self.weights.shape[1]

    def head_inputs(self, features: np.ndarray) -> np.ndarray:
        """Inputs seen by the heads: raw features, or shared-layer activations."""
        x = np.atleast_2d(np.asarray(features, dtype=np.float64))
        if self.shared_weight is None:
            return x
        u = x @ self.shared_weight.T
        u += self.shared_bias
        return u

    def predict_batch(self, features: np.ndarray) -> np.ndarray:
        out = self.head_inputs(features) @ self.weights.T
        out += self.biases
        return out

    def predict(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=np.float64)
        if features.ndim == 1:
            return self.predict_batch(features[None, :])[0]
        return self.predict_batch(features)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        out = {
            "weights": self.weights.tolist(),
            "biases": self.biases.tolist(),
            "shared_weight": None if self.shared_weight is None else self.shared_weight.tolist(),
            "shared_bias": None if self.shared_bias is None else self.shared_bias.tolist(),
            "fit_info": self.fit_info,
        }
        return out

    def save(self, path: str | Path) -> None:
        write_json(path, self.to_dict())

    @classmethod
    def load(cls, path: str | Path) -> "RegressionHead":
        """The head save wrote to path; every parameter entry must be a JSON number."""

        def read(d):
            sw, sb = d.get("shared_weight"), d.get("shared_bias")
            return cls(
                weights=number_rows(d["weights"], "weights"),
                biases=number_rows([d["biases"]], "biases")[0],
                shared_weight=None if sw is None else number_rows(sw, "shared_weight"),
                shared_bias=None if sb is None else number_rows([sb], "shared_bias")[0],
                fit_info=d.get("fit_info"),
            )

        return read_json(path, "head", read)


@dataclass(frozen=True)
class TrainConfig:
    """Fitting settings shared by the closed-form and gradient paths.

    lambdas are fixed positive per-dimension loss weights (None means all
    ones). ridge_alpha only affects the closed form. hidden_dim, when set,
    is the width (at least 1) of a shared affine layer and forces the
    gradient path. Every head fits its bias. The gradient path has no ridge
    term, so `run` and `fit` refuse a ridge_alpha other than the default
    there (pipeline.check_gd_settings).
    """

    lambdas: Optional[tuple[float, ...]] = None
    ridge_alpha: float = 1e-6
    lr: float = 0.05
    epochs: int = 200
    seed: int = 0
    hidden_dim: Optional[int] = None

    def __post_init__(self):
        # written so that NaN fails: every comparison with it is False
        if not 0 <= self.ridge_alpha < math.inf:
            raise ValueError(f"ridge_alpha: must be nonnegative and finite, got {self.ridge_alpha}")
        if self.hidden_dim is not None and self.hidden_dim < 1:
            raise ValueError(f"hidden_dim: must be at least 1, got {self.hidden_dim}")
        if self.epochs < 1:
            raise ValueError(f"epochs: must be at least 1, got {self.epochs}")
        if not 0 < self.lr < math.inf:
            raise ValueError(f"lr: must be positive and finite, got {self.lr}")

    def resolved_lambdas(self, n_dims: int) -> np.ndarray:
        if self.lambdas is None:
            return np.ones(n_dims)
        lam = np.asarray(self.lambdas, dtype=np.float64)
        if lam.shape != (n_dims,):
            raise ValueError(f"lambdas must have {n_dims} entries, got shape {lam.shape}")
        if np.any(lam <= 0) or not np.all(np.isfinite(lam)):
            raise ValueError("training lambdas must be positive and finite")
        return lam


def _resolve_weights(weights, n: int, k: int) -> np.ndarray:
    # accept a refine.WeightMatrix without importing it
    w = getattr(weights, "weights", weights)
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (n, k):
        raise ValueError(f"sample weights must have shape ({n}, {k}), got {w.shape}")
    # no N-sized bool array: NaN propagates through min and max, and an infinity is max
    if not (w.min(initial=0.0) >= 0 and np.isfinite(w.max(initial=0.0))):
        raise ValueError("sample weights must be nonnegative and finite")
    return w


def _normal_equations(ds: Dataset, w: Optional[np.ndarray], rows=None) -> list:
    """Normal equations of [x 1] against the labels y of ds, summed over its feature chunks.

    rows, ascending positions, restricts them to those rows (every row if
    None; not combined with weights), and each chunk's labels are read
    with its features (Dataset.blocks). Unit weights (w None) give the one
    system every dimension shares: [(A, B, yy)] with A = [x 1]'[x 1],
    B = [x 1]'y and yy
    the (K,) column sums of y * y. Weights w (N, K) give dimension k its own
    system, A_k = [x 1]' diag(w_k) [x 1], B_k = [x 1]' diag(w_k) y_k and
    yy_k = y_k' diag(w_k) y_k, all K formed in the same pass over the
    features. Each chunk adds its x'Wx, x'W1, 1'W1, x'Wy, 1'Wy and y'Wy
    terms, so [x 1] is never built. Every dimension's right-hand side comes
    from one product x'(w * y) and the column sums of w * y, and only the
    Grams are formed per dimension, each from its own x * w_k: numpy sends a
    product with one label column to gemv, whose OpenBLAS result depends on
    the thread count, and x'(w * y) has K columns. One chunk gives the
    one-shot products bit for bit; more are summed in row order, so the
    system of rows is that of ds.select(rows) bit for bit.
    """

    def terms(x, y, wb):
        if wb is None:
            yy = np.einsum("ij,ij->j", y, y)
            return [[x.T @ x, x.T @ y, x.sum(axis=0), float(len(x)), y.sum(axis=0), yy]]
        wy = wb * y
        xwy, wysum, wyy = x.T @ wy, wy.sum(axis=0), np.einsum("ij,ij->j", wy, y)
        del wy
        out = []
        for j in range(ds.n_dims):
            xw = x * wb[:, j : j + 1]
            col = slice(j, j + 1)
            out.append([x.T @ xw, xwy[:, col], xw.sum(axis=0), wb[:, j].sum(), wysum[col], wyy[col]])
            del xw  # released before the next dimension's
        return out

    sums, start = None, 0
    for x, y in ds.blocks(rows):
        stop = start + len(x)
        part = terms(x, y, None if w is None else w[start:stop])
        sums = part if sums is None else [[s + p for s, p in zip(ts, tp)] for ts, tp in zip(sums, part)]
        start = stop
        del x, y  # released before the next chunk is read
    if sums is None:
        sums = terms(np.empty((0, ds.feature_dim)), np.empty((0, ds.n_dims)), None if w is None else w[:0])
    systems = []
    for a, b, col, total, ysum, yy in sums:
        a = np.block([[a, col[:, None]], [col[None, :], np.array([[total]])]])
        b = np.vstack([b, ysum[None, :]])
        systems.append((a, b, yy))
    return systems


def _fit_systems(ds: Dataset, weights, rows) -> tuple[bool, list]:
    """Whether the fit of ds has one system shared by every dimension, and its _normal_equations.

    Without sample weights, and with all-one weights, every dimension
    shares one system; other weights give each dimension its own. rows and
    weights do not combine. numpy's overflow warnings are silenced: an
    overflow leaves moments that are not finite, which the fits report.
    """
    if rows is not None and weights is not None:
        raise ValueError("row positions and sample weights cannot be combined")
    w = None if weights is None else _resolve_weights(weights, len(ds), ds.n_dims)
    # min and max, not w == 1.0, so no N-sized bool array is built
    if w is not None and w.min(initial=1.0) == 1.0 == w.max(initial=1.0):
        w = None
    with np.errstate(over="ignore", invalid="ignore"):
        return w is None, _normal_equations(ds, w, rows)


def _solve(a: np.ndarray, b: np.ndarray, cfg: TrainConfig, what: str) -> np.ndarray:
    """Ridge solve of (A + alpha D) beta = B; D is the identity with the bias slot zeroed.

    A NumericalError naming the system (what) if it is rank deficient at
    alpha=0, singular, or has no finite solution.
    """
    p = a.shape[0]
    reg = np.eye(p)
    reg[-1, -1] = 0.0
    a = a + cfg.ridge_alpha * reg
    try:
        if cfg.ridge_alpha == 0.0 and np.linalg.matrix_rank(a) < p:
            raise NumericalError(
                f"normal equations for {what} are rank deficient at alpha=0; "
                "use a positive ridge_alpha or more effective samples"
            )
        beta = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as e:
        raise NumericalError(f"normal equations for {what} are singular: {e}") from None
    if not np.all(np.isfinite(beta)):
        raise NumericalError(f"normal equations for {what} have no finite solution")
    return beta


def fit_closed_form(
    ds: Dataset, weights=None, config: TrainConfig | None = None, rows=None
) -> RegressionHead:
    """Weighted ridge solution of the features of ds against its labels.

    The features and labels are read a row chunk at a time
    (Dataset.blocks), so a synthetic corpus's rows come from its sample
    stream and no feature or label matrix is built.

    rows, ascending positions and no sample weights, fits only those rows:
    their features and labels are gathered a chunk at a time, and the fit is
    that of ds.select(rows) bit for bit.

    Minimizes sum_i w_ik * 0.5 * (w_k . h_i + b_k - y_ik)^2 + 0.5 * alpha * |w_k|^2
    over augmented inputs [h; 1]; the bias coordinate is not penalized. The
    normal equations come straight from the feature chunks, and [h; 1] is
    never built. Without sample weights every dimension shares one set of
    normal equations: one Gram matrix, one rank check and one solve with K
    right-hand sides; all-one weights are the unweighted fit and take that
    route. Other weights give each dimension its own system, all formed in
    one pass over the features.
    Zero-weight samples drop out of the normal equations exactly. Positive
    per-dimension loss weights rescale each dimension's objective uniformly
    and therefore do not change the solution. With alpha = 0 a rank-deficient
    design raises NumericalError instead of returning an arbitrary solution.
    """
    cfg = config or TrainConfig()
    if cfg.hidden_dim is not None:
        raise ValueError("closed-form fitting supports head-only models; use fit_gd for a shared layer")
    d, k = ds.feature_dim, ds.n_dims
    cfg.resolved_lambdas(k)  # validate even though the solution ignores them
    shared, systems = _fit_systems(ds, weights, rows)
    # an overflow leaves a solution that is not finite, which _solve reports
    with np.errstate(over="ignore", invalid="ignore"):
        if shared:
            [(a, b, _)] = systems
            beta = _solve(a, b, cfg, "all dimensions")
        else:
            beta = np.hstack([_solve(a, b, cfg, f"dimension {j}") for j, (a, b, _) in enumerate(systems)])
    info = {"method": "closed_form", "ridge_alpha": cfg.ridge_alpha, "weighted": weights is not None}
    return RegressionHead(weights=beta[:d].T, biases=beta[d], fit_info=info)


def _gd_moments(ds: Dataset, weights, lambdas: np.ndarray, rows=None) -> tuple:
    """The moments (A, B, yy, c) of the gradient-descent loss, from one pass over the features.

    A is the (d+1, d+1) Gram matrix every dimension shares, or a (K, d+1,
    d+1) stack of them with sample weights; B is (d+1, K), yy (K,), and c =
    lambda / N over the N fitted rows (_normal_equations).
    """
    shared, systems = _fit_systems(ds, weights, rows)
    a = systems[0][0] if shared else np.stack([a for a, _, _ in systems])
    b = np.hstack([b for _, b, _ in systems])
    yy = np.concatenate([yy for _, _, yy in systems])
    return a, b, yy, np.asarray(lambdas) / (len(ds) if rows is None else len(rows))


def _gd_loss_and_grads(moments: tuple, s: Optional[np.ndarray], hw: np.ndarray, hb: np.ndarray):
    """The loss of gradient descent and its gradients in S, W_head and b_head.

    S = [W_shared b_shared] is (m, d+1), or None head-only; W_head is (K,
    p) and b_head (K,). The loss is L = (1/N) sum_ik lambda_k w_ik 0.5
    r_ik^2 over the N fitted rows. The model is affine throughout (the
    shared layer has identity activation), so dimension k predicts Theta_k
    . [x; 1], where Theta = S' W_head' + e b_head' is (d+1, K), S is the
    identity head-only and e is the bias slot's unit vector. L is then 0.5
    sum_k c_k (Theta_k' A_k Theta_k - 2 Theta_k' B_k + yy_k) in the moments
    (A, B, yy, c) of _gd_moments, and dL/dTheta = g = c * (A Theta - B), so
    dW_head = g' S', db_head = g[d] and dS = W_head' g' (None head-only).
    An evaluation costs O(K (d+1)^2) at any N. An overflow leaves a loss
    that is not finite, which fit_gd reports.
    """
    a, b, yy, c = moments
    d = b.shape[0] - 1
    with np.errstate(over="ignore", invalid="ignore"):
        if s is None:
            t = np.vstack([hw.T, hb])
        else:
            t = s.T @ hw.T
            t[d] += hb
        at = a @ t if a.ndim == 2 else np.einsum("kij,jk->ik", a, t)
        quad, lin = np.einsum("ik,ik->k", t, at), np.einsum("ik,ik->k", t, b)
        loss = float(0.5 * (c * (quad - 2.0 * lin + yy)).sum())
        g = c * (at - b)
        if s is None:
            return loss, None, g[:d].T, g[d]
        return loss, hw.T @ g.T, g.T @ s.T, g[d]


def fit_gd(ds: Dataset, weights=None, config: TrainConfig | None = None, rows=None) -> RegressionHead:
    """Full-batch gradient descent of the features of ds against its labels.

    Takes the arguments of fit_closed_form: rows, ascending positions and no
    sample weights, fits only those rows, and the fit is that of
    ds.select(rows) bit for bit; all-one weights are the unweighted fit.
    The features are read once, a row chunk at a time, into the moments of
    _gd_moments, and every epoch works on those, so the sample stream is
    read once whatever the number of epochs.

    Head parameters start at zero; a shared layer, when requested, starts from
    a small seeded gaussian. Each epoch steps S = [W_shared b_shared], W_head
    and b_head against their gradients from _gd_loss_and_grads: the
    per-dimension losses scaled by the fixed lambdas and summed.

    The per-epoch loss trajectory is recorded in fit_info. A non-finite loss
    raises NumericalError naming the epoch.
    """
    cfg = config or TrainConfig()
    moments = _gd_moments(ds, weights, cfg.resolved_lambdas(ds.n_dims), rows)
    d, k, m = ds.feature_dim, ds.n_dims, cfg.hidden_dim
    s = None
    if m is not None:
        init = 0.1 * np.random.default_rng([cfg.seed, 0]).standard_normal(m * d + m)
        s = np.hstack([init[: m * d].reshape(m, d), init[m * d :, None]])
    hw, hb = np.zeros((k, d if m is None else m)), np.zeros(k)
    history: list[float] = []

    for epoch in range(cfg.epochs):
        loss, g_s, g_hw, g_hb = _gd_loss_and_grads(moments, s, hw, hb)
        if not np.isfinite(loss):
            raise NumericalError(f"training diverged: non-finite loss at epoch {epoch}")
        history.append(loss)
        if s is not None:
            s = s - cfg.lr * g_s
        hw, hb = hw - cfg.lr * g_hw, hb - cfg.lr * g_hb

    info = {
        "method": "gd",
        "epochs": cfg.epochs,
        "lr": cfg.lr,
        "seed": cfg.seed,
        "loss_history": history,
    }
    sw, sb = (None, None) if s is None else (s[:, :d], s[:, d])
    return RegressionHead(hw, hb, sw, sb, fit_info=info)


def check_pair(head: RegressionHead, ds: Dataset) -> None:
    """A DataError unless head and ds agree on the dimension and feature counts."""
    if ds.n_dims != head.n_dims:
        raise DataError(f"head has {head.n_dims} dimensions, dataset has {ds.n_dims}")
    if ds.feature_dim != head.feature_dim:
        raise DataError(f"head expects {head.feature_dim} features, dataset has {ds.feature_dim}")


def residuals(head: RegressionHead, ds: Dataset) -> np.ndarray:
    """(N, K) matrix of prediction minus label, predicted a feature chunk at a time."""
    check_pair(head, ds)
    out = np.empty((len(ds), ds.n_dims))
    start = 0
    for x, y in ds.blocks():
        stop = start + len(x)
        np.subtract(head.predict_batch(x), y, out=out[start:stop])
        start = stop
        del x, y  # released before the next chunk is read
    return out


def per_dim_loss(head: RegressionHead, ds: Dataset) -> np.ndarray:
    """(N, K) per-sample, per-dimension losses 0.5 * r^2 (no lambdas, no sample weights)."""
    r = residuals(head, ds)
    return 0.5 * r * r

"""Per-dimension linear regression heads over shared features.

Supported fitting paths:

    closed form     per-dimension weighted ridge over augmented inputs [h; 1],
                    solving (X' diag(w) X + alpha D) beta = X' diag(w) y with
                    no penalty on the bias coordinate (D has a zero in the
                    bias slot); the blocks of these normal equations come
                    straight from the features, so [h; 1] is never built, and
                    an unweighted fit shares one set of normal equations (one
                    Gram matrix, one solve) across all dimensions
    gradient        full-batch gradient descent on the weighted sum of
                    per-dimension squared-error losses, with a fixed (Equal),
                    learned (uncertainty log-variance), or per-epoch random
                    (softmax draws) combination of dimensions

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


STRATEGIES = ("equal", "uncertainty", "rlw")


@dataclass
class RegressionHead:
    """K independent affine heads, optionally on top of one shared affine layer.

    weights is (K, p) where p is the feature dimension, or the hidden width
    when a shared layer is present. fit_info carries fitting diagnostics
    (loss trajectory, learned loss-balance state) and is not used by
    prediction.
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
    adds a shared affine layer and forces the gradient path. fit_bias=False
    drops the intercept from the closed form (useful for hand-checked cases).
    The gradient path ignores both, so `run` and `fit` refuse them there
    (pipeline.check_gd_settings).
    """

    lambdas: Optional[tuple[float, ...]] = None
    ridge_alpha: float = 1e-6
    lr: float = 0.05
    epochs: int = 200
    strategy: str = "equal"
    seed: int = 0
    hidden_dim: Optional[int] = None
    fit_bias: bool = True

    def __post_init__(self):
        # written so that NaN fails: every comparison with it is False
        if not 0 <= self.ridge_alpha < math.inf:
            raise ValueError(f"ridge_alpha must be nonnegative and finite, got {self.ridge_alpha}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}, expected one of {STRATEGIES}")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if not 0 < self.lr < math.inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr}")

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
    if weights is None:
        return np.ones((n, k))
    # accept a refine.WeightMatrix without importing it
    w = getattr(weights, "weights", weights)
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (n, k):
        raise ValueError(f"sample weights must have shape ({n}, {k}), got {w.shape}")
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ValueError("sample weights must be nonnegative and finite")
    return w


def _normal_equations(x: np.ndarray, y: np.ndarray, w: Optional[np.ndarray], fit_bias: bool):
    """Normal equations of [x 1] against y (N, K) under row weights w, or unit weights.

    Returns A = [x 1]' W [x 1] and B = [x 1]' W y, built from the blocks x'Wx,
    x'W1, 1'W1, x'Wy and 1'Wy, so [x 1] is never materialised. Only a weighted
    system allocates an N x d temporary, x * w.
    """
    xw = x if w is None else x * w[:, None]
    a = x.T @ xw
    b = xw.T @ y
    if not fit_bias:
        return a, b
    col = xw.sum(axis=0)
    total = float(len(x)) if w is None else w.sum()
    a = np.block([[a, col[:, None]], [col[None, :], np.array([[total]])]])
    b = np.vstack([b, (y.sum(axis=0) if w is None else w @ y)[None, :]])
    return a, b


def _solve(a: np.ndarray, b: np.ndarray, cfg: TrainConfig, what: str, tol=None) -> np.ndarray:
    """Ridge solve of (A + alpha D) beta = B; D is the identity with the bias slot zeroed."""
    p = a.shape[0]
    reg = np.eye(p)
    if cfg.fit_bias:
        reg[-1, -1] = 0.0
    a = a + cfg.ridge_alpha * reg
    if cfg.ridge_alpha == 0.0 and np.linalg.matrix_rank(a, tol) < p:
        raise NumericalError(
            f"normal equations for {what} are rank deficient at alpha=0; "
            "use a positive ridge_alpha or more effective samples"
        )
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as e:
        raise NumericalError(f"normal equations for {what} are singular: {e}") from None


def fit_closed_form_arrays(
    x: np.ndarray, y: np.ndarray, weights=None, config: TrainConfig | None = None, drop=None
) -> RegressionHead:
    """Weighted ridge solution of features x (N, d) against labels y (N, K).

    x and y are used as given, finite float64 as a Dataset holds them.

    drop, ascending row indices and no sample weights, leaves those rows out
    without copying the others: their normal equations are subtracted from
    those of all rows, and an empty drop is the undropped fit bit for bit.
    The difference keeps the full Gram's rounding, so dominant dropped rows
    cost digits: 20 of 2000 x 16 gaussian rows, features and labels scaled by
    1, 1e3 and 1e4, agreed with a fit of the kept rows to ~1e-15, 1.2e-10 and
    1.9e-8 normwise relative.

    Minimizes sum_i w_ik * 0.5 * (w_k . h_i + b_k - y_ik)^2 + 0.5 * alpha * |w_k|^2
    over augmented inputs [h; 1]; the bias coordinate is not penalized. The
    normal equations come straight from the feature matrix, and [h; 1] is
    never built. Without sample weights every dimension shares one set of
    normal equations: one Gram matrix, one rank check and one solve with K
    right-hand sides; all-one weights are the unweighted fit and take that
    route. Other weights give each dimension its own system.
    Zero-weight samples drop out of the normal equations exactly. Positive
    per-dimension loss weights rescale each dimension's objective uniformly
    and therefore do not change the solution. With alpha = 0 a rank-deficient
    design raises NumericalError instead of returning an arbitrary solution.
    """
    cfg = config or TrainConfig()
    if cfg.hidden_dim is not None:
        raise ValueError(
            "closed-form fitting supports head-only models; use fit_gd_arrays for a shared layer"
        )
    (n, d), k = x.shape, y.shape[1]
    cfg.resolved_lambdas(k)  # validate even though the solution ignores them
    if drop is not None and weights is not None:
        raise ValueError("dropped rows and sample weights cannot be combined")
    w = None if weights is None else _resolve_weights(weights, n, k)
    if w is None or np.all(w == 1.0):
        a, b = _normal_equations(x, y, None, cfg.fit_bias)
        tol = None
        if drop is not None:
            # the difference keeps the full Gram's rounding, up to n eps |A|: the rank check allows for it
            tol = np.linalg.norm(a, 2) * n * np.finfo(np.float64).eps
            a_drop, b_drop = _normal_equations(x[drop], y[drop], None, cfg.fit_bias)
            a, b = a - a_drop, b - b_drop
        beta = _solve(a, b, cfg, "all dimensions", tol)
    else:
        beta = np.hstack([
            _solve(*_normal_equations(x, y[:, j : j + 1], w[:, j], cfg.fit_bias), cfg, f"dimension {j}")
            for j in range(k)
        ])
    head_w = beta[:d].T
    head_b = beta[d] if cfg.fit_bias else np.zeros(k)
    info = {
        "method": "closed_form",
        "ridge_alpha": cfg.ridge_alpha,
        "weighted": weights is not None,
        "fit_bias": cfg.fit_bias,
    }
    return RegressionHead(weights=head_w, biases=head_b, fit_info=info)


def fit_closed_form(
    ds: Dataset, weights=None, config: TrainConfig | None = None
) -> RegressionHead:
    """fit_closed_form_arrays on the features and labels of ds."""
    return fit_closed_form_arrays(ds.features, ds.labels, weights, config)


class GDObjective:
    """Full-batch objective with per-dimension mean losses and analytic gradients.

    Parameters are packed into one flat vector:

        head only     [head weights (K*p), head biases (K)]
        shared layer  [shared weights (m*d), shared bias (m)] + head block

    per_dim_losses_and_grads returns L (K,) with
    L_k = (1/N) sum_i lambda_k w_ik 0.5 r_ik^2 and the (K, P) matrix of
    gradients dL_k/dtheta, so callers can combine dimensions with any weights.
    """

    def __init__(
        self, x: np.ndarray, y: np.ndarray, weights, lambdas: np.ndarray, hidden_dim: Optional[int]
    ):
        self.x = x
        self.y = y
        self.n, self.d = x.shape
        self.k = y.shape[1]
        self.hidden_dim = hidden_dim
        lam = np.asarray(lambdas)[None, :]
        if weights is None:
            self.coef = lam / self.n  # (1, K), shared by every sample
        else:
            self.coef = lam * _resolve_weights(weights, self.n, self.k) / self.n  # (N, K)
        p_head = hidden_dim if hidden_dim is not None else self.d
        self.p_head = p_head
        self.n_shared = 0 if hidden_dim is None else hidden_dim * self.d + hidden_dim
        self.n_params = self.n_shared + self.k * p_head + self.k
        # the per-epoch (N, m) and (N, K) arrays are written into buffers kept
        # for the whole fit. Fresh ones every epoch are mapped and unmapped
        # each time once they are above the allocator's mmap threshold, which
        # measured 1.7x the fit time at N = 12k, m = 16 on a 2-core x86 VM;
        # below it they fragment the heap and raise the peak RSS
        self._u = None if hidden_dim is None else np.empty((self.n, hidden_dim))
        self._r = np.empty((self.n, self.k))
        self._cr = np.empty((self.n, self.k))

    def init_params(self, seed: int) -> np.ndarray:
        theta = np.zeros(self.n_params)
        if self.hidden_dim is not None:
            rng = np.random.default_rng([seed, 0])
            m = self.hidden_dim
            theta[: m * self.d + m] = 0.1 * rng.standard_normal(m * self.d + m)
        return theta

    def _unpack(self, theta: np.ndarray):
        if self.hidden_dim is None:
            shared_w = shared_b = None
            rest = theta
        else:
            m = self.hidden_dim
            shared_w = theta[: m * self.d].reshape(m, self.d)
            shared_b = theta[m * self.d : m * self.d + m]
            rest = theta[self.n_shared :]
        hw = rest[: self.k * self.p_head].reshape(self.k, self.p_head)
        hb = rest[self.k * self.p_head :]
        return shared_w, shared_b, hw, hb

    def to_head(self, theta: np.ndarray, fit_info: Optional[dict] = None) -> RegressionHead:
        shared_w, shared_b, hw, hb = self._unpack(theta)
        return RegressionHead(
            weights=hw.copy(),
            biases=hb.copy(),
            shared_weight=None if shared_w is None else shared_w.copy(),
            shared_bias=None if shared_b is None else shared_b.copy(),
            fit_info=fit_info,
        )

    def _head_inputs(self, shared_w, shared_b) -> np.ndarray:
        """u = x W_s^T + b_s (x itself without a shared layer), valid until the next call."""
        if shared_w is None:
            return self.x
        np.matmul(self.x, shared_w.T, out=self._u)
        self._u += shared_b
        return self._u

    def per_dim_losses_and_grads(self, theta: np.ndarray):
        shared_w, shared_b, hw, hb = self._unpack(theta)
        u = self._head_inputs(shared_w, shared_b)
        r, cr = self._r, self._cr  # (N, K) each
        np.matmul(u, hw.T, out=r)
        r += hb
        r -= self.y
        np.multiply(self.coef, r, out=cr)
        r *= cr  # the residuals are not needed past the losses
        losses = 0.5 * np.sum(r, axis=0)
        grads = np.zeros((self.k, self.n_params))
        off = self.n_shared
        ph = self.p_head
        for j in range(self.k):
            grads[j, off + j * ph : off + (j + 1) * ph] = cr[:, j] @ u
            grads[j, off + self.k * ph + j] = cr[:, j].sum()
        if shared_w is not None:
            m = self.hidden_dim
            sx = cr.T @ self.x  # (K, d), row j = sum_i cr_ij x_i
            sc = cr.sum(axis=0)  # (K,)
            for j in range(self.k):
                grads[j, : m * self.d] = np.outer(hw[j], sx[j]).ravel()
                grads[j, m * self.d : m * self.d + m] = hw[j] * sc[j]
        return losses, grads


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max())
    return e / e.sum()


def fit_gd_arrays(
    x: np.ndarray, y: np.ndarray, weights=None, config: TrainConfig | None = None
) -> RegressionHead:
    """Full-batch gradient descent of features x (N, d) against labels y (N, K).

    x and y are used as given, finite float64 as a Dataset holds them.

    Head parameters start at zero; a shared layer, when requested, starts from
    a small seeded gaussian. Strategies:

        equal        dimensions combined with the fixed lambdas
        uncertainty  per-dimension log-variances s_k (init 0) are learned
                     jointly, objective sum_k exp(-s_k) L_k + 0.5 s_k
        rlw          per-epoch dimension weights drawn as the softmax of K
                     seeded standard normals, multiplying the fixed lambdas

    The per-epoch loss trajectory is recorded in fit_info. A non-finite loss
    raises NumericalError naming the epoch.
    """
    cfg = config or TrainConfig()
    k = y.shape[1]
    lam = cfg.resolved_lambdas(k)
    obj = GDObjective(x, y, weights, lam, cfg.hidden_dim)
    theta = obj.init_params(cfg.seed)
    s = np.zeros(k)
    rlw_rng = np.random.default_rng([cfg.seed, 1])
    history: list[float] = []

    for epoch in range(cfg.epochs):
        losses, grads = obj.per_dim_losses_and_grads(theta)
        if cfg.strategy == "equal":
            c = np.ones(k)
            total = float(losses.sum())
        elif cfg.strategy == "uncertainty":
            c = np.exp(-s)
            total = float(c @ losses + 0.5 * s.sum())
        else:  # rlw
            c = _softmax(rlw_rng.standard_normal(k))
            total = float(c @ losses)
        if not np.isfinite(total):
            raise NumericalError(f"training diverged: non-finite loss at epoch {epoch}")
        history.append(total)
        theta = theta - cfg.lr * (c @ grads)
        if cfg.strategy == "uncertainty":
            s = s - cfg.lr * (0.5 - c * losses)

    info = {
        "method": "gd",
        "strategy": cfg.strategy,
        "epochs": cfg.epochs,
        "lr": cfg.lr,
        "seed": cfg.seed,
        "loss_history": history,
    }
    if cfg.strategy == "uncertainty":
        info["log_vars"] = s.tolist()
    return obj.to_head(theta, fit_info=info)


def check_pair(head: RegressionHead, ds: Dataset) -> None:
    """A DataError unless head and ds agree on the dimension and feature counts."""
    if ds.n_dims != head.n_dims:
        raise DataError(f"head has {head.n_dims} dimensions, dataset has {ds.n_dims}")
    if ds.feature_dim != head.feature_dim:
        raise DataError(f"head expects {head.feature_dim} features, dataset has {ds.feature_dim}")


def residuals(head: RegressionHead, ds: Dataset) -> np.ndarray:
    """(N, K) matrix of prediction minus label."""
    check_pair(head, ds)
    return head.predict_batch(ds.features) - ds.labels


def per_dim_loss(head: RegressionHead, ds: Dataset) -> np.ndarray:
    """(N, K) per-sample, per-dimension losses 0.5 * r^2 (no lambdas, no sample weights)."""
    r = residuals(head, ds)
    return 0.5 * r * r

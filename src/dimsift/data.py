"""Datasets for multi-dimension regression: synthetic corpora, label corruption, splits, JSONL I/O.

A dataset is an ordered collection of samples, each carrying a feature vector,
one label per output dimension, and an optional per-dimension corruption mask.
Synthetic corpora come from a seeded linear teacher so that every downstream
score has a known ground truth to be checked against.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError


def ceil_count(rate: float, n: int) -> int:
    """ceil(rate * n), snapping products within 1e-9 of an integer first.

    Plain ceil(0.1 * 1000) gives 101 because 0.1 * 1000 is slightly above 100
    in binary floating point; callers always mean the exact rational product.
    """
    x = float(rate) * n
    r = round(x)
    if abs(x - r) <= 1e-9 * max(1.0, abs(x)):
        x = r
    return int(math.ceil(x))


def floor_count(frac: float, n: int) -> int:
    """floor(frac * n) with the same integer snapping as ceil_count."""
    x = float(frac) * n
    r = round(x)
    if abs(x - r) <= 1e-9 * max(1.0, abs(x)):
        x = r
    return int(math.floor(x))


def _frozen(a: np.ndarray, dtype=np.float64) -> np.ndarray:
    out = np.ascontiguousarray(a, dtype=dtype)
    out.setflags(write=False)
    return out


def _digest(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


@dataclass(frozen=True)
class Sample:
    """One training or test point.

    corrupted[k] is True when label k no longer comes from the original
    supervision source. None means no corruption bookkeeping is available.
    """

    id: str
    features: np.ndarray
    labels: np.ndarray
    corrupted: np.ndarray | None = None


class Dataset:
    """Immutable ordered sample collection with matrix views.

    Invariants checked on construction: consistent feature and label
    dimensions, finite values, unique ids. The backing arrays are read-only;
    refinement operations return new datasets instead of mutating.
    """

    def __init__(
        self,
        ids: Sequence[str],
        features: np.ndarray,
        labels: np.ndarray,
        dim_names: Sequence[str],
        corrupted: np.ndarray | None = None,
        manifest: dict | None = None,
    ):
        self._features = _frozen(np.atleast_2d(features))
        self._labels = _frozen(np.atleast_2d(labels))
        self._ids = [str(i) for i in ids]
        self.dim_names = [str(d) for d in dim_names]
        self.manifest = dict(manifest or {})
        n, d = self._features.shape
        if len(self._ids) != n:
            raise DataError(f"{len(self._ids)} ids for {n} feature rows")
        if self._labels.shape[0] != n:
            raise DataError(f"{self._labels.shape[0]} label rows for {n} samples")
        if self._labels.shape[1] != len(self.dim_names):
            raise DataError(
                f"label width {self._labels.shape[1]} does not match "
                f"{len(self.dim_names)} dimension names"
            )
        if not np.all(np.isfinite(self._features)):
            raise DataError("non-finite feature values")
        if not np.all(np.isfinite(self._labels)):
            raise DataError("non-finite label values")
        seen = set()
        for sid in self._ids:
            if sid in seen:
                raise DataError(f"duplicate sample id {sid!r}")
            seen.add(sid)
        if corrupted is not None:
            corrupted = np.ascontiguousarray(corrupted, dtype=bool)
            if corrupted.shape != self._labels.shape:
                raise DataError(f"corruption mask shape {corrupted.shape} != labels {self._labels.shape}")
            corrupted.setflags(write=False)
        self._corrupted = corrupted

    # -- views -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def n_dims(self) -> int:
        return self._labels.shape[1]

    @property
    def feature_dim(self) -> int:
        return self._features.shape[1]

    @property
    def ids(self) -> list[str]:
        return list(self._ids)

    @property
    def features(self) -> np.ndarray:
        """(N, d) read-only float64 matrix."""
        return self._features

    @property
    def labels(self) -> np.ndarray:
        """(N, K) read-only float64 matrix."""
        return self._labels

    @property
    def corruption_mask(self) -> np.ndarray | None:
        """(N, K) boolean matrix, or None when no corruption info exists."""
        return self._corrupted

    @property
    def samples(self) -> list[Sample]:
        mask = self._corrupted
        return [
            Sample(
                id=self._ids[i],
                features=self._features[i],
                labels=self._labels[i],
                corrupted=None if mask is None else mask[i],
            )
            for i in range(len(self._ids))
        ]

    def sample(self, i: int) -> Sample:
        mask = self._corrupted
        return Sample(
            id=self._ids[i],
            features=self._features[i],
            labels=self._labels[i],
            corrupted=None if mask is None else mask[i],
        )

    def index_of(self, sample_id: str) -> int:
        try:
            return self._ids.index(sample_id)
        except ValueError:
            raise DataError(f"unknown sample id {sample_id!r}") from None

    def select(self, indices: np.ndarray | Iterable[int]) -> "Dataset":
        """New dataset restricted to the given row indices, in the given order.

        An integer ndarray is used as is; any other iterable is read into one.
        """
        if isinstance(indices, np.ndarray) and indices.dtype.kind in "iu":
            idx = indices
        else:
            idx = np.asarray(list(indices), dtype=int)
        return Dataset(
            ids=[self._ids[i] for i in idx],
            features=self._features[idx],
            labels=self._labels[idx],
            dim_names=self.dim_names,
            corrupted=None if self._corrupted is None else self._corrupted[idx],
            manifest=self.manifest,
        )

    def select_ids(self, sample_ids: Iterable[str]) -> "Dataset":
        pos = {sid: i for i, sid in enumerate(self._ids)}
        try:
            idx = [pos[s] for s in sample_ids]
        except KeyError as e:
            raise DataError(f"unknown sample id {e.args[0]!r}") from None
        return self.select(idx)


# -- synthetic corpora -----------------------------------------------------


@dataclass(frozen=True)
class SynthConfig:
    """Linear-teacher corpus settings.

    label_noise_sd may be a scalar (shared by all dimensions) or one value per
    dimension. teacher_seed fixes the teacher weights, sample_seed fixes the
    feature draws and the clean label noise, so corpora with the same teacher
    but fresh samples are easy to build.
    """

    n_samples: int
    feature_dim: int
    n_dims: int
    label_noise_sd: float | tuple[float, ...] = 0.0
    teacher_seed: int = 0
    sample_seed: int = 0
    label_range: tuple[float, float] | None = None

    def noise_vector(self) -> np.ndarray:
        sd = np.broadcast_to(np.asarray(self.label_noise_sd, dtype=np.float64), (self.n_dims,))
        if np.any(sd < 0) or not np.all(np.isfinite(sd)):
            raise ValueError("label_noise_sd must be nonnegative and finite")
        return sd.copy()


def generate_synthetic(config: SynthConfig) -> Dataset:
    """Draw a corpus from a seeded linear teacher.

    Features are i.i.d. standard normal. Labels are W* h + b* plus independent
    gaussian noise per dimension. The manifest records both seeds and content
    digests of the teacher parameters so runs can be audited later.
    """
    if config.n_samples <= 0 or config.feature_dim <= 0 or config.n_dims <= 0:
        raise ValueError("n_samples, feature_dim and n_dims must be positive")
    sd = config.noise_vector()
    teacher_rng = np.random.default_rng(config.teacher_seed)
    w_star = teacher_rng.standard_normal((config.n_dims, config.feature_dim))
    b_star = teacher_rng.standard_normal(config.n_dims)

    sample_rng = np.random.default_rng(config.sample_seed)
    features = sample_rng.standard_normal((config.n_samples, config.feature_dim))
    noise = sample_rng.standard_normal((config.n_samples, config.n_dims)) * sd[None, :]
    labels = features @ w_star.T + b_star + noise
    if config.label_range is not None:
        lo, hi = config.label_range
        if not lo < hi:
            raise ValueError("label_range must satisfy lo < hi")
        labels = np.clip(labels, lo, hi)

    manifest = {
        "generator": "linear_teacher",
        "n_samples": config.n_samples,
        "feature_dim": config.feature_dim,
        "n_dims": config.n_dims,
        "label_noise_sd": sd.tolist(),
        "teacher_seed": config.teacher_seed,
        "sample_seed": config.sample_seed,
        "label_range": list(config.label_range) if config.label_range else None,
        "teacher_digest": {"weights": _digest(w_star), "biases": _digest(b_star)},
    }
    n = config.n_samples
    width = max(5, len(str(n - 1)))
    ids = [f"s{i:0{width}d}" for i in range(n)]
    return Dataset(
        ids=ids,
        features=features,
        labels=labels,
        dim_names=[f"dim{k}" for k in range(config.n_dims)],
        corrupted=np.zeros((n, config.n_dims), dtype=bool),
        manifest=manifest,
    )


def teacher_head(config: SynthConfig):
    """Re-derive the teacher parameters a corpus was generated from."""
    rng = np.random.default_rng(config.teacher_seed)
    w_star = rng.standard_normal((config.n_dims, config.feature_dim))
    b_star = rng.standard_normal(config.n_dims)
    return w_star, b_star


def inject_dimension_noise(
    ds: Dataset, rate: float, dims: Iterable[int], rng_seed: int
) -> Dataset:
    """Corrupt a fraction of labels independently in each selected dimension.

    For each dimension k in dims, ceil(rate * N) samples are chosen without
    replacement and their k-th label is replaced by a uniform draw over the
    empirical [min, max] of that dimension's input labels. Selections and
    replacement draws use a child stream seeded by (rng_seed, k), so different
    dimensions are corrupted independently and a single multi-dimension call
    equals a sequence of one-dimension calls with the same seed. Other label
    columns are bit-identical to the input. Returns a new dataset with the
    corruption mask extended.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must be in [0, 1], got {rate}")
    dim_list = sorted(set(int(k) for k in dims))
    if not dim_list:
        raise ValueError("dims must be a non-empty set of dimension indices")
    if dim_list[0] < 0 or dim_list[-1] >= ds.n_dims:
        raise ValueError(f"dims out of range for {ds.n_dims} dimensions: {dim_list}")

    n = len(ds)
    m = ceil_count(rate, n)
    labels = ds.labels.copy()
    mask = (
        np.zeros((n, ds.n_dims), dtype=bool)
        if ds.corruption_mask is None
        else ds.corruption_mask.copy()
    )
    clean = ds.labels  # ranges come from the pre-injection labels
    for k in dim_list:
        rng = np.random.default_rng([rng_seed, k])
        if m == 0:
            continue
        idx = rng.choice(n, size=m, replace=False)
        lo = float(clean[:, k].min())
        hi = float(clean[:, k].max())
        labels[idx, k] = rng.uniform(lo, hi, size=m)
        mask[idx, k] = True

    manifest = dict(ds.manifest)
    record = {"kind": "per_dimension", "rate": rate, "dims": dim_list, "seed": int(rng_seed)}
    manifest["noise_injections"] = list(manifest.get("noise_injections", [])) + [record]
    return Dataset(
        ids=ds.ids,
        features=ds.features,
        labels=labels,
        dim_names=ds.dim_names,
        corrupted=mask,
        manifest=manifest,
    )


def inject_correlated_noise(
    ds: Dataset,
    rate: float,
    rng_seed: int,
    severity: tuple[float, float] = (0.5, 1.0),
) -> Dataset:
    """Corrupt a common subset of samples in every dimension at once.

    Models globally broken records (wrong scale, sentinel values): each chosen
    sample gets labels pushed outside the observed range in all dimensions,
    with one shared severity u ~ U(severity) and one shared sign per sample.
    The replacement for dimension k is hi_k + u * (hi_k - lo_k) on the positive
    side, lo_k - u * (hi_k - lo_k) on the negative. Complements
    inject_dimension_noise, whose corruptions are independent per dimension.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must be in [0, 1], got {rate}")
    lo_sev, hi_sev = severity
    if not 0.0 <= lo_sev <= hi_sev:
        raise ValueError(f"severity bounds must satisfy 0 <= lo <= hi, got {severity}")

    n = len(ds)
    m = ceil_count(rate, n)
    labels = ds.labels.copy()
    mask = (
        np.zeros((n, ds.n_dims), dtype=bool)
        if ds.corruption_mask is None
        else ds.corruption_mask.copy()
    )
    if m > 0:
        rng = np.random.default_rng(rng_seed)
        idx = rng.choice(n, size=m, replace=False)
        u = rng.uniform(lo_sev, hi_sev, size=m)
        sign = rng.integers(0, 2, size=m) * 2 - 1
        lo = ds.labels.min(axis=0)
        hi = ds.labels.max(axis=0)
        width = hi - lo
        for j, i in enumerate(idx):
            if sign[j] > 0:
                labels[i, :] = hi + u[j] * width
            else:
                labels[i, :] = lo - u[j] * width
            mask[i, :] = True

    manifest = dict(ds.manifest)
    record = {
        "kind": "correlated",
        "rate": rate,
        "seed": int(rng_seed),
        "severity": [float(lo_sev), float(hi_sev)],
    }
    manifest["noise_injections"] = list(manifest.get("noise_injections", [])) + [record]
    return Dataset(
        ids=ds.ids,
        features=ds.features,
        labels=labels,
        dim_names=ds.dim_names,
        corrupted=mask,
        manifest=manifest,
    )


def split_indices(
    n: int, fractions: tuple[float, float, float], seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Seeded train/val/test row indices for an n-row corpus.

    Validation and test sizes are floor(f * n); the remainder goes to train.
    Membership comes from one seeded permutation; each part lists its rows
    in ascending order. The three parts partition range(n).
    """
    f = tuple(float(x) for x in fractions)
    if len(f) != 3 or any(x < 0 for x in f):
        raise ValueError(f"fractions must be three nonnegative reals, got {fractions}")
    if abs(sum(f) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {sum(f)}")
    n_val = floor_count(f[1], n)
    n_test = floor_count(f[2], n)
    n_train = n - n_val - n_test
    perm = np.random.default_rng(seed).permutation(n)
    return (
        np.sort(perm[:n_train]),
        np.sort(perm[n_train : n_train + n_val]),
        np.sort(perm[n_train + n_val :]),
    )


def split(
    ds: Dataset, fractions: tuple[float, float, float], seed: int
) -> tuple[Dataset, Dataset, Dataset]:
    """Seeded train/val/test split: split_indices applied to ds.

    Within each part, samples keep their original corpus order. The three
    parts partition the input.
    """
    train_idx, val_idx, test_idx = split_indices(len(ds), fractions, seed)
    return ds.select(train_idx), ds.select(val_idx), ds.select(test_idx)


# -- JSONL serialization ----------------------------------------------------


def dumps_dataset(ds: Dataset) -> str:
    """Serialize to JSON Lines: one manifest line, then one line per sample.

    Floats go through json's repr formatting, which round-trips exactly.
    """
    head = {
        "type": "manifest",
        "feature_dim": ds.feature_dim,
        "dim_names": ds.dim_names,
        "meta": ds.manifest,
    }
    lines = [json.dumps(head, separators=(",", ":"))]
    mask = ds.corruption_mask
    for i, sid in enumerate(ds.ids):
        rec = {
            "type": "sample",
            "id": sid,
            "features": ds.features[i].tolist(),
            "labels": ds.labels[i].tolist(),
        }
        if mask is not None:
            rec["corrupted"] = [bool(v) for v in mask[i]]
        lines.append(json.dumps(rec, separators=(",", ":")))
    return "\n".join(lines) + "\n"


def save_dataset(ds: Dataset, path: str | Path) -> None:
    Path(path).write_text(dumps_dataset(ds))


def loads_dataset(text: str) -> Dataset:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise DataError("empty dataset file")
    try:
        head = json.loads(lines[0])
    except json.JSONDecodeError as e:
        raise DataError(f"malformed manifest line: {e}") from None
    if not isinstance(head, dict) or head.get("type") != "manifest":
        raise DataError("line 1: first line must be a manifest object")
    meta = head.get("meta") or {}
    if not isinstance(meta, dict):
        raise DataError("line 1: manifest meta must be an object")
    try:
        feature_dim = int(head["feature_dim"])
        dim_names = [str(x) for x in head["dim_names"]]
    except (KeyError, TypeError, ValueError) as e:
        raise DataError(f"manifest missing or invalid fields: {e}") from None
    k = len(dim_names)

    ids: list[str] = []
    feats: list[list[float]] = []
    labs: list[list[float]] = []
    masks: list[list[bool]] = []
    any_mask = False
    for ln_no, ln in enumerate(lines[1:], start=2):
        try:
            rec = json.loads(ln)
        except json.JSONDecodeError as e:
            raise DataError(f"malformed record on line {ln_no}: {e}") from None
        if not isinstance(rec, dict) or rec.get("type") != "sample":
            raise DataError(f"line {ln_no}: expected a sample record object")
        sid = rec.get("id")
        if sid is None:
            raise DataError(f"line {ln_no}: sample record without id")
        f = rec.get("features")
        y = rec.get("labels")
        if not isinstance(f, list) or len(f) != feature_dim:
            raise DataError(
                f"sample {sid!r}: feature length {None if not isinstance(f, list) else len(f)} "
                f"does not match manifest feature_dim {feature_dim}"
            )
        if not isinstance(y, list) or len(y) != k:
            raise DataError(
                f"sample {sid!r}: label length {None if not isinstance(y, list) else len(y)} "
                f"does not match manifest dimension count {k}"
            )
        c = rec.get("corrupted")
        if c is not None:
            if not isinstance(c, list) or len(c) != k or not all(isinstance(v, bool) for v in c):
                raise DataError(
                    f"sample {sid!r} on line {ln_no}: corruption mask must be a list of {k} booleans"
                )
            any_mask = True
            masks.append(c)
        else:
            masks.append([False] * k)
        ids.append(str(sid))
        feats.append(f)
        labs.append(y)
    if not ids:
        raise DataError("dataset file contains no samples")
    try:
        features = np.asarray(feats, dtype=np.float64)
        labels = np.asarray(labs, dtype=np.float64)
    except (TypeError, ValueError):
        raise DataError(_first_non_numeric(ids, feats, labs)) from None
    return Dataset(
        ids=ids,
        features=features,
        labels=labels,
        dim_names=dim_names,
        corrupted=np.asarray(masks, dtype=bool) if any_mask else None,
        manifest=meta,
    )


def _first_non_numeric(ids: list[str], feats: list[list], labs: list[list]) -> str:
    """Message naming the first sample whose features or labels are not all numbers."""
    for i, sid in enumerate(ids):
        for what, row in (("features", feats[i]), ("labels", labs[i])):
            try:
                np.asarray(row, dtype=np.float64)
            except (TypeError, ValueError) as e:
                # sample i sits on line i + 2, after the manifest
                return f"sample {sid!r} on line {i + 2}: non-numeric {what}: {e}"
    return "non-numeric features or labels"


def load_dataset(path: str | Path) -> Dataset:
    p = Path(path)
    if not p.exists():
        raise DataError(f"dataset file not found: {p}")
    return loads_dataset(p.read_text())

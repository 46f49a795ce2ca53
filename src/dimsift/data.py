"""Datasets for multi-dimension regression: synthetic corpora, label corruption, splits, JSONL I/O.

A dataset is an ordered collection of samples, each carrying a feature vector,
one label per output dimension, and an optional per-dimension corruption mask.
Synthetic corpora come from a seeded linear teacher so that every downstream
score has a known ground truth to be checked against.
"""
from __future__ import annotations

import hashlib
import io
import json
import math
from array import array
from dataclasses import dataclass
from itertools import chain, compress, pairwise
from operator import eq
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import DataError


def _snapped(rate: float, n: int) -> float:
    """rate * n, snapped to the nearest integer when it lies within 1e-9 of one.

    Plain ceil(0.1 * 1000) gives 101 because 0.1 * 1000 is slightly above 100
    in binary floating point; callers always mean the exact rational product.
    """
    x = float(rate) * n
    r = round(x)
    return r if abs(x - r) <= 1e-9 * max(1.0, abs(x)) else x


def ceil_count(rate: float, n: int) -> int:
    """ceil(rate * n) of the snapped product (see _snapped)."""
    return int(math.ceil(_snapped(rate, n)))


def top_sets(values: np.ndarray, rho: float) -> np.ndarray:
    """Each column's top ceil(rho * N) rows, as a read-only (K, m) index array.

    Row k lists column k's selection in rank order: highest value first, ties
    to the smaller row index. A 1-D vector counts as one column. This is the
    one selection rule of pruning, the overlap curve and the masking report.
    """
    rho = float(rho)
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must be in [0, 1], got {rho}")
    cols = values if values.ndim == 2 else values[:, None]
    out = np.empty((cols.shape[1], ceil_count(rho, cols.shape[0])), dtype=np.intp)
    # a stable sort keeps ties in row order; one column at a time keeps temporaries to one column
    for j, col in enumerate(cols.T):
        out[j] = np.argsort(-col, kind="stable")[: out.shape[1]]
    out.setflags(write=False)
    return out


def floor_count(frac: float, n: int) -> int:
    """floor(frac * n) of the snapped product, as ceil_count."""
    return int(math.floor(_snapped(frac, n)))


def _frozen(a: np.ndarray, dtype=np.float64) -> np.ndarray:
    out = np.ascontiguousarray(a, dtype=dtype)
    out.setflags(write=False)
    return out


def first_duplicate(ids: Sequence[str]) -> int | None:
    """The index of the second occurrence of the smallest repeated id, or None."""
    # sorted neighbours take 8 bytes per id; a set of the ids grows to ~50 (6 MiB at 120k)
    dup = next((a for a, b in pairwise(sorted(ids)) if a == b), None)
    return None if dup is None else ids.index(dup, ids.index(dup) + 1)


def check_unique(ids: Sequence[str], line_of: Sequence[int]) -> None:
    """A DataError naming the file line of the first repeated id (see first_duplicate), if any."""
    dup = first_duplicate(ids)
    if dup is not None:
        raise DataError(f"line {line_of[dup]}: duplicate sample id {ids[dup]!r}")


def id_list(values, what: str) -> list[str]:
    """A JSON list of distinct non-null sample ids, each read as str as a row table's ids are."""
    if type(values) is not list or None in values:
        raise DataError(f"{what} must be a list of non-null ids, got {values!r:.40}")
    ids = list(map(str, values))
    dup = first_duplicate(ids)
    if dup is not None:
        raise DataError(f"{what}: duplicate sample id {ids[dup]!r}")
    return ids


class RowIds(Sequence[str]):
    """The ids of a synthetic corpus's rows, "s" and the row number zero-padded to width digits.

    An immutable view over a read-only array of row numbers (not copied), so
    each id takes 8 bytes instead of a str and a tuple slot. An int index
    formats one id; a slice, boolean mask or index array gives another view;
    iteration formats the ids one at a time. == and != compare element-wise
    with any sequence of str, as a tuple does.
    """

    __slots__ = ("_rows", "_width")
    # rows formatted per block while iterating: tolist() of every row would hold one Python int per id
    _BLOCK = 1024

    def __init__(self, rows: np.ndarray, width: int):
        rows = np.asarray(rows, dtype=np.intp).view()
        if rows.ndim != 1:
            raise ValueError("row numbers must be a 1-D array")
        rows.setflags(write=False)
        self._rows = rows
        self._width = int(width)

    @property
    def rows(self) -> np.ndarray:
        """The read-only row numbers, one per id."""
        return self._rows

    @property
    def ascending(self) -> bool:
        """Whether the rows strictly ascend, which makes the ids unique."""
        return bool(np.all(self._rows[1:] > self._rows[:-1]))

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return f"s{int(self._rows[key]):0{self._width}d}"
        return RowIds(self._rows[key], self._width)

    def __iter__(self) -> Iterator[str]:
        fmt = f"s{{:0{self._width}d}}".format
        for start in range(0, len(self._rows), self._BLOCK):
            yield from map(fmt, self._rows[start : start + self._BLOCK].tolist())

    def index(self, value, start: int = 0, stop: int | None = None) -> int:
        lo, hi, _ = slice(start, stop).indices(len(self))
        digits = value[1:] if isinstance(value, str) and value[:1] == "s" else ""
        # 18 digits or fewer fit the row array's int64
        if digits.isascii() and digits.isdigit() and len(digits) <= 18:
            hits = np.flatnonzero(self._rows[lo:hi] == int(digits))
            # "s1" and "s00001" name the same row number; only the padded one is an id
            if hits.size and self[lo + int(hits[0])] == value:
                return lo + int(hits[0])
        raise ValueError(f"{value!r} is not in the ids")

    def __eq__(self, other) -> bool:
        if isinstance(other, RowIds):
            return len(self) == len(other) and (
                not len(self) or self._width == other._width and np.array_equal(self._rows, other._rows)
            )
        if isinstance(other, Sequence) and not isinstance(other, str):
            return len(self) == len(other) and all(map(eq, self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"RowIds({len(self)} ids, width {self._width})"


def take_ids(ids: Sequence[str], rows: np.ndarray) -> Sequence[str]:
    """The ids at an index array or boolean mask rows: a view of a RowIds, else a list."""
    if isinstance(ids, RowIds):
        return ids[rows]
    if rows.dtype == bool:
        return list(compress(ids, rows))
    return [ids[i] for i in rows]


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
        self._ids = ids if isinstance(ids, RowIds) else tuple(map(str, ids))
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
        # no N-sized bool array: NaN propagates through min and max, and an infinity is one of them
        for values, what in ((self._features, "feature"), (self._labels, "label")):
            if not (np.isfinite(values.min(initial=0.0)) and np.isfinite(values.max(initial=0.0))):
                raise DataError(f"non-finite {what} values")
        # strictly ascending row numbers are unique ids by construction
        if not (isinstance(self._ids, RowIds) and self._ids.ascending):
            dup = first_duplicate(self._ids)
            if dup is not None:
                raise DataError(f"duplicate sample id {self._ids[dup]!r}")
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
    def ids(self) -> Sequence[str]:
        """The immutable sample ids: a RowIds for synthetic rows, else a tuple of str."""
        return self._ids

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
            ids=take_ids(self._ids, idx),
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


def validate_synth(config: SynthConfig) -> np.ndarray:
    """Check the settings a draw needs; return the per-dimension label noise SD."""
    if config.n_samples <= 0 or config.feature_dim <= 0 or config.n_dims <= 0:
        raise ValueError("n_samples, feature_dim and n_dims must be positive")
    sd = config.noise_vector()
    if config.label_range is not None:
        lo, hi = config.label_range
        if not lo < hi:
            raise ValueError("label_range must satisfy lo < hi")
    return sd


# Rows of the sample stream drawn at a time: 1 MiB of features at d=16.
DRAW_BLOCK_ROWS = 8192


def _row_blocks(n: int) -> Iterator[tuple[int, int]]:
    """(start, stop) of each block of n rows, in which the draw and the scorers work.

    Each block holds DRAW_BLOCK_ROWS rows and the last one the rest, from
    DRAW_BLOCK_ROWS to twice that less one (or all n). A short last block
    could round its product differently from the one-shot product: numpy
    sends a one-row product to gemv, and OpenBLAS takes small products
    through other kernels. A one-column product would go to gemv too, whose
    OpenBLAS result depends on the thread count, so draw_synthetic forms the
    labels of a one-dimension corpus with einsum instead.
    """
    start = 0
    while start < n:
        stop = n if n - start < 2 * DRAW_BLOCK_ROWS else start + DRAW_BLOCK_ROWS
        yield start, stop
        start = stop


def _checked_rows(rows, n: int) -> np.ndarray:
    """rows as an intp array; a ValueError unless they ascend within [0, n)."""
    rows = np.asarray(rows, dtype=np.intp)
    if len(rows) and (rows[0] < 0 or rows[-1] >= n or np.any(rows[1:] < rows[:-1])):
        raise ValueError(f"row indices must be ascending and in [0, {n})")
    return rows


def sample_features(config: SynthConfig, rows: np.ndarray) -> Iterator[np.ndarray]:
    """The features of config's corpus at the ascending row indices rows, a row block at a time.

    Yields one (stop - start, d) array per block of _row_blocks(len(rows)),
    so a product over each block rounds as the one-shot product over all the
    rows does. The features come from a fresh stream of the sample seed,
    read an eighth of DRAW_BLOCK_ROWS rows at a time; standard_normal gives
    a stream's values in the same order whatever the size of each draw, so
    these are draw_synthetic's features. Only one chunk of the stream and
    the block being gathered are held, if the caller drops each block
    before asking for the next.
    """
    n, d = config.n_samples, config.feature_dim
    rows = _checked_rows(rows, n)
    chunk_rows = max(1, DRAW_BLOCK_ROWS // 8)
    rng = np.random.default_rng(config.sample_seed)
    lo = hi = 0  # the chunk holds stream rows [lo, hi)
    for start, stop in _row_blocks(len(rows)):
        block = np.empty((stop - start, d))
        i = start
        while i < stop:
            while rows[i] >= hi:
                lo, hi = hi, min(hi + chunk_rows, n)
                chunk = rng.standard_normal((hi - lo, d))
            j = i + int(np.searchsorted(rows[i:stop], hi))
            np.take(chunk, rows[i:j] - lo, axis=0, out=block[i - start : j - start])
            i = j
        yield block
        del block  # released before the next block is gathered


def draw_synthetic(
    config: SynthConfig, row_sets: Sequence[np.ndarray]
) -> tuple[np.ndarray, list[np.ndarray], dict]:
    """Clean labels of every row, the features of each row set, and the manifest.

    Features are i.i.d. standard normal. Labels are W* h + b* plus independent
    gaussian noise per dimension, clipped to label_range if one is set. The
    sample stream is read DRAW_BLOCK_ROWS rows at a time, so only one block
    of features is held beyond the rows of row_sets, each an ascending array
    of row indices; sample_features reads the same features again. The
    manifest records both seeds and content digests of the teacher
    parameters so runs can be audited later.
    """
    sd = validate_synth(config)
    n, d = config.n_samples, config.feature_dim
    row_sets = [_checked_rows(rows, n) for rows in row_sets]
    w_star, b_star = teacher_head(config)

    rng = np.random.default_rng(config.sample_seed)
    labels = np.empty((n, config.n_dims))
    features = [np.empty((len(rows), d)) for rows in row_sets]
    for start, stop in _row_blocks(n):
        block = rng.standard_normal((stop - start, d))
        if config.n_dims == 1:
            # einsum uses no BLAS, so these labels do not depend on the thread count
            np.einsum("ij,kj->ik", block, w_star, out=labels[start:stop])
        else:
            np.matmul(block, w_star.T, out=labels[start:stop])
        for rows, out in zip(row_sets, features):
            lo, hi = np.searchsorted(rows, (start, stop))
            out[lo:hi] = block[rows[lo:hi] - start]
        del block  # released before the next block is drawn
    # the noise draw follows every feature in the stream; each label is
    # (h @ w*^T + b*) + noise * sd, summed in that order
    for start, stop in _row_blocks(n):
        noise = rng.standard_normal((stop - start, config.n_dims))
        noise *= sd
        part = labels[start:stop]
        part += b_star
        part += noise
    if config.label_range is not None:
        np.clip(labels, *config.label_range, out=labels)

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
    return labels, features, manifest


def synthetic_rows(
    config: SynthConfig,
    rows: np.ndarray,
    features: np.ndarray,
    labels: np.ndarray,
    corrupted: np.ndarray,
    manifest: dict,
) -> Dataset:
    """The given rows of config's corpus as a Dataset, with the corpus's ids and dimension names.

    The ids are a RowIds view of rows, an ascending row-index array, which
    is not copied (see _synthetic_ids).
    """
    return Dataset(
        ids=_synthetic_ids(config, rows),
        features=features,
        labels=labels,
        dim_names=_synthetic_dim_names(config),
        corrupted=corrupted,
        manifest=manifest,
    )


def _synthetic_ids(config: SynthConfig, rows: np.ndarray) -> RowIds:
    """Row r's id: "s" and r zero-padded to the digits of the corpus's last row, at least five."""
    return RowIds(rows, max(5, len(str(config.n_samples - 1))))


def _synthetic_dim_names(config: SynthConfig) -> list[str]:
    return [f"dim{k}" for k in range(config.n_dims)]


def generate_synthetic(config: SynthConfig) -> Dataset:
    """Draw a corpus from a seeded linear teacher (see draw_synthetic)."""
    rows = np.arange(config.n_samples)
    labels, (features,), manifest = draw_synthetic(config, [rows])
    return synthetic_rows(
        config, rows, features, labels, np.zeros(labels.shape, dtype=bool), manifest
    )


def teacher_head(config: SynthConfig):
    """Re-derive the teacher parameters a corpus was generated from."""
    rng = np.random.default_rng(config.teacher_seed)
    w_star = rng.standard_normal((config.n_dims, config.feature_dim))
    b_star = rng.standard_normal(config.n_dims)
    return w_star, b_star


def corrupt_dimensions(
    labels: np.ndarray, mask: np.ndarray, rate: float, dims: Iterable[int], rng_seed: int
) -> dict:
    """Corrupt labels in place as inject_dimension_noise describes, mark mask, return the record.

    The record is the manifest entry of this injection.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must be in [0, 1], got {rate}")
    dim_list = sorted(set(int(k) for k in dims))
    if not dim_list:
        raise ValueError("dims must be a non-empty set of dimension indices")
    n, n_dims = labels.shape
    if dim_list[0] < 0 or dim_list[-1] >= n_dims:
        raise ValueError(f"dims out of range for {n_dims} dimensions: {dim_list}")

    m = ceil_count(rate, n)
    if m > 0:
        for k in dim_list:
            rng = np.random.default_rng([rng_seed, k])
            idx = rng.choice(n, size=m, replace=False)
            col = labels[:, k]
            # read before this column is touched, and no other dimension
            # writes it, so this is the pre-injection range
            lo = float(col.min())
            hi = float(col.max())
            col[idx] = rng.uniform(lo, hi, size=m)
            mask[idx, k] = True
    return {"kind": "per_dimension", "rate": rate, "dims": dim_list, "seed": int(rng_seed)}


def corrupt_correlated(labels: np.ndarray, mask: np.ndarray, rate: float, rng_seed: int) -> dict:
    """Corrupt a common subset of rows in every dimension at once, in place; mark mask.

    Models globally broken records (wrong scale, sentinel values): each of
    ceil(rate * N) seeded rows gets labels pushed outside the observed range in
    all dimensions, with one shared severity u ~ U(0.5, 1) and one shared
    sign per row. The replacement for dimension k is hi_k + u * (hi_k - lo_k)
    on the positive side, lo_k - u * (hi_k - lo_k) on the negative.
    Complements corrupt_dimensions, whose corruptions are independent per
    dimension. Returns the manifest entry of this injection.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must be in [0, 1], got {rate}")
    lo_sev, hi_sev = 0.5, 1.0

    m = ceil_count(rate, len(labels))
    if m > 0:
        rng = np.random.default_rng(rng_seed)
        idx = rng.choice(len(labels), size=m, replace=False)
        u = rng.uniform(lo_sev, hi_sev, size=m)[:, None]
        sign = rng.integers(0, 2, size=m) * 2 - 1
        lo = labels.min(axis=0)
        hi = labels.max(axis=0)
        width = hi - lo
        labels[idx] = np.where(sign[:, None] > 0, hi + u * width, lo - u * width)
        mask[idx] = True
    return {
        "kind": "correlated",
        "rate": rate,
        "seed": int(rng_seed),
        "severity": [lo_sev, hi_sev],
    }


@dataclass(frozen=True)
class NoiseSpec:
    """Label corruption: the noise section of a pipeline config and of `corrupt`.

    rate / dims / seed drive the per-dimension independent corruption;
    correlated_rate additionally corrupts a common seeded subset in every
    dimension with out-of-range labels (see corrupt_correlated). On a Dataset,
    corrupted_copy(ds, spec.apply) applies it to copies of the labels and mask.
    """

    rate: float = 0.0
    dims: Optional[tuple[int, ...]] = None
    seed: int = 0
    correlated_rate: float = 0.0
    correlated_seed: int = 0

    def apply(self, labels: np.ndarray, mask: np.ndarray) -> list[dict]:
        """Corrupt labels and mask in place, per dimension then correlated; return the records."""
        records = []
        if self.rate > 0.0:
            dims = range(labels.shape[1]) if self.dims is None else self.dims
            records.append(corrupt_dimensions(labels, mask, self.rate, dims, self.seed))
        if self.correlated_rate > 0.0:
            rate, seed = self.correlated_rate, self.correlated_seed
            records.append(corrupt_correlated(labels, mask, rate, seed))
        return records


def with_injections(manifest: dict, records: list[dict]) -> dict:
    """manifest with records appended to its noise_injections list; unchanged if there are none."""
    if not records:
        return manifest
    out = dict(manifest)
    out["noise_injections"] = list(out.get("noise_injections", [])) + records
    return out


def corrupted_copy(ds: Dataset, corrupt) -> Dataset:
    """ds with corrupt(labels, mask) applied to copies of its labels and mask.

    corrupt returns the manifest records of its injections; with none, the
    result is ds itself.
    """
    labels = ds.labels.copy()
    mask = (
        np.zeros(labels.shape, dtype=bool)
        if ds.corruption_mask is None
        else ds.corruption_mask.copy()
    )
    records = corrupt(labels, mask)
    if not records:
        return ds
    return Dataset(
        ids=ds.ids,
        features=ds.features,
        labels=labels,
        dim_names=ds.dim_names,
        corrupted=mask,
        manifest=with_injections(ds.manifest, records),
    )


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
    return corrupted_copy(
        ds, lambda labels, mask: [corrupt_dimensions(labels, mask, rate, dims, rng_seed)]
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


# -- JSONL and CSV serialization ---------------------------------------------
#
# Writers yield one newline-terminated line at a time and readers consume an
# open file line by line, appending numbers to array('d') buffers, so neither
# holds the whole text, its line list or one Python float per value.


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Write newline-terminated lines to path as they are produced."""
    with open(path, "w") as fh:
        fh.writelines(lines)


JSON_PIECE_ITEMS = 256


def _ids_list(o) -> list[str]:
    """json's fallback encoding: a RowIds as the list of its ids."""
    if isinstance(o, RowIds):
        return list(o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def json_pieces(doc: dict) -> Iterator[str]:
    """json.dumps(doc, sort_keys=True) + "\n", produced a piece at a time.

    A list, array or RowIds value comes JSON_PIECE_ITEMS items per piece,
    each piece encoded by one call (an array's rows through tolist()), so no
    piece holds more of the document than that many items. A RowIds anywhere
    in the document is written as the list of its ids.
    """
    encode = json.JSONEncoder(sort_keys=True, default=_ids_list).encode
    yield "{"
    sep = ""
    for key in sorted(doc):
        value = doc[key]
        yield f"{sep}{encode(key)}: "
        sep = ", "
        if not isinstance(value, (list, tuple, np.ndarray, RowIds)):
            yield encode(value)
            continue
        yield "["
        for i in range(0, len(value), JSON_PIECE_ITEMS):
            items = value[i : i + JSON_PIECE_ITEMS]
            text = encode(items.tolist() if isinstance(items, np.ndarray) else items)
            # the items without their brackets, so the pieces join into one list
            yield ("" if i == 0 else ", ") + text[1:-1]
        yield "]"
    yield "}\n"


def write_json(path: str | Path, doc: dict) -> None:
    """Write json.dumps(doc, sort_keys=True) and a newline, a piece at a time (see json_pieces)."""
    write_lines(path, json_pieces(doc))


def long_csv_lines(
    header: str, ids: Sequence[str], names: Sequence[str], values: np.ndarray
) -> Iterator[str]:
    """Long-format CSV: the header, then one `id,name,repr(value)` line per matrix cell."""
    yield header + "\n"
    for sid, row in zip(ids, values):
        for name, v in zip(names, row.tolist()):
            yield f"{sid},{name},{v!r}\n"


def read_file(path: str | Path, what: str, read):
    """read(fh) of the text file at path, open as fh; a DataError naming it if missing or unreadable."""
    p = Path(path)
    # a directory is no file either: opening one would raise IsADirectoryError
    if not p.is_file():
        raise DataError(f"{what} file not found: {p}")
    try:
        fh = open(p)
    except OSError as e:
        raise DataError(f"cannot read {what} file {p}: {e}") from None
    with fh:
        return read(fh)


def read_json(path: str | Path, what: str, read):
    """read(doc) for the JSON object doc in the file at path: the one reader of JSON documents.

    A missing or unreadable file, malformed JSON, a document that is not an
    object, and a KeyError, TypeError, ValueError or DataError raised by read
    are one DataError naming the file.
    """
    p = Path(path)

    def parse(fh):
        try:
            doc = json.load(fh)
            if not isinstance(doc, dict):
                raise TypeError(f"the document must be a JSON object, got {type(doc).__name__}")
            return read(doc)
        except (OSError, KeyError, TypeError, ValueError, DataError) as e:
            detail = f"missing key {e}" if isinstance(e, KeyError) else e
            raise DataError(f"invalid {what} file {p}: {detail}") from None

    return read_file(p, what, parse)


def extend_numbers(
    buf: array, values, what: str, sid, ln_no: int, width: int | None = None
) -> None:
    """Append a JSON list of width numbers (any length if None) to buf.

    Anything else, or a string, null or boolean in the list, is a DataError
    naming sample sid, line ln_no and the offender. sid is None for a list
    that belongs to no sample, such as a file header's.
    """
    try:
        if type(values) is not list or (width is not None and len(values) != width):
            raise ValueError
        # array('d') would store a JSON true as 1.0
        if bool in map(type, values):
            raise TypeError
        buf.extend(values)
    except (ValueError, TypeError, OverflowError) as e:
        # the text is built only here: one f-string per row would slow every load
        where = f"line {ln_no}" if sid is None else f"sample {sid!r} on line {ln_no}"
        if isinstance(e, ValueError):
            got = len(values) if type(values) is list else f"{values!r:.40}"
            size = "" if width is None else f"{width} "
            raise DataError(f"{where}: {what} must be a list of {size}numbers, got {got}") from None
        if isinstance(e, OverflowError):
            raise DataError(f"{where}: {what} out of float range: {e}") from None
        bad = next(v for v in values if isinstance(v, bool) or not isinstance(v, (int, float)))
        raise DataError(f"{where}: non-numeric {what}: {bad!r}") from None


def number_rows(
    rows, what: str, width: int | None = None, ids: Sequence[str] | None = None
) -> np.ndarray:
    """A JSON list of rows of width numbers (the first row's width if None) as an (n, width) matrix.

    The number codec of the JSON documents: each row goes through
    extend_numbers as line 1, so a bad row names the offender and, given ids
    (one per row), its sample id.
    """
    if type(rows) is not list:
        raise DataError(f"line 1: {what} must be a list of rows of numbers, got {rows!r:.40}")
    if ids is not None and len(rows) != len(ids):
        raise DataError(f"line 1: {what} must hold one row per sample id, got {len(rows)}")
    if width is None:
        width = len(rows[0]) if rows and type(rows[0]) is list else None
    buf = array("d")
    for i, row in enumerate(rows):
        extend_numbers(buf, row, what, None if ids is None else ids[i], 1, width)
    return np.frombuffer(buf).reshape(len(rows), width or 0)


def table_lines(head: dict, row_type: str, ids: Sequence[str], columns: dict) -> Iterator[str]:
    """A JSONL row table: the header line, then one {"type", "id", column: row} line per id.

    columns maps each row field to an (N, w) array, or any iterable of its
    rows; each row goes through tolist(), and json's float formatting
    round-trips exactly.
    """
    # one encoder for every line: json.dumps builds a new one per call with these separators
    encode = json.JSONEncoder(separators=(",", ":")).encode
    yield encode(head) + "\n"
    names = tuple(columns)
    for sid, *rows in zip(ids, *columns.values()):
        rec = {"type": row_type, "id": sid}
        for name, row in zip(names, rows):
            rec[name] = row.tolist()
        yield encode(rec) + "\n"


def table_rows(
    lines: Iterable[str], what: str, header_type: str, row_type: str
) -> Iterator[tuple[int, Optional[str], dict]]:
    """(line number, id, object) of each line of a JSONL row table as table_lines writes it.

    The header comes first, with id None; it must be a header_type object
    with a dim_names list, whose entries are read as strings. Every later
    line must be a row_type object with a non-null id. Blank lines are
    skipped, line numbers count from 1 in the file, and a table without rows
    is a DataError.
    """
    head = sid = None
    for ln_no, ln in enumerate(lines, start=1):
        if not ln.strip():
            continue
        try:
            rec = json.loads(ln)
        except ValueError as e:
            raise DataError(f"line {ln_no}: malformed JSON: {e}") from None
        if head is None:
            if not isinstance(rec, dict) or rec.get("type") != header_type:
                raise DataError(f"line {ln_no}: first line must be a {header_type!r} header object")
            if not isinstance(rec.get("dim_names"), list):
                raise DataError(f"line {ln_no}: {what} header needs a dim_names list")
            rec["dim_names"] = [str(x) for x in rec["dim_names"]]
            head = rec
            yield ln_no, None, rec
            continue
        if not isinstance(rec, dict) or rec.get("type") != row_type:
            raise DataError(f"line {ln_no}: expected a {row_type!r} object")
        sid = rec.get("id")
        if sid is None:
            raise DataError(f"line {ln_no}: {what} row without an id")
        yield ln_no, str(sid), rec
    if head is None:
        raise DataError(f"empty {what} file")
    if sid is None:
        raise DataError(f"{what} file contains no rows")


def _sample_lines(
    ids: Sequence[str],
    feature_dim: int,
    dim_names: list[str],
    manifest: dict,
    features: Iterable[np.ndarray],
    labels: np.ndarray,
    corrupted: np.ndarray | None,
) -> Iterator[str]:
    """The lines of a dataset file; features may be any iterable of the feature rows."""
    head = {"type": "manifest", "feature_dim": feature_dim, "dim_names": dim_names, "meta": manifest}
    columns = {"features": features, "labels": labels}
    if corrupted is not None:
        columns["corrupted"] = corrupted
    return table_lines(head, "sample", ids, columns)


def _dataset_lines(ds: Dataset) -> Iterator[str]:
    return _sample_lines(
        ds.ids, ds.feature_dim, ds.dim_names, ds.manifest, ds.features, ds.labels, ds.corruption_mask
    )


def dumps_dataset(ds: Dataset) -> str:
    """Serialize to JSON Lines: one manifest line, then one line per sample.

    Floats go through json's repr formatting, which round-trips exactly.
    """
    return "".join(_dataset_lines(ds))


def save_dataset(ds: Dataset, path: str | Path) -> None:
    write_lines(path, _dataset_lines(ds))


def save_synthetic_rows(
    path: str | Path,
    config: SynthConfig,
    rows: np.ndarray,
    labels: np.ndarray,
    corrupted: np.ndarray,
    manifest: dict,
) -> None:
    """Write the ascending rows of config's corpus with these labels and mask, as save_dataset would.

    The bytes are those of save_dataset(synthetic_rows(config, rows, ...)),
    but the features are read again from the sample stream (see
    sample_features), so no feature matrix of the rows is held. A run
    writes its corpus.jsonl and its test_clean.jsonl through here.
    """
    if labels.shape != (len(rows), config.n_dims) or corrupted.shape != labels.shape:
        raise ValueError(f"labels and mask must be ({len(rows)}, {config.n_dims}) for these rows")
    # rows are copies and no name binds a block, so each is released before the next is gathered
    features = map(np.ndarray.copy, chain.from_iterable(sample_features(config, rows)))
    ids = _synthetic_ids(config, rows)
    names = _synthetic_dim_names(config)
    lines = _sample_lines(ids, config.feature_dim, names, manifest, features, labels, corrupted)
    write_lines(path, lines)


def _read_dataset(lines: Iterable[str]) -> Dataset:
    rows = table_rows(lines, "dataset", "manifest", "sample")
    ln_no, _, head = next(rows)
    meta = head.get("meta") or {}
    if not isinstance(meta, dict):
        raise DataError(f"line {ln_no}: manifest meta must be an object")
    feature_dim = head.get("feature_dim")
    # type(True) is bool, not int, so a boolean is refused here too
    if type(feature_dim) is not int:
        raise DataError(f"line {ln_no}: feature_dim must be an integer, got {feature_dim!r}")
    dim_names = head["dim_names"]
    k = len(dim_names)

    ids: list[str] = []
    line_of = array("l")
    feats = array("d")
    labs = array("d")
    masks = bytearray()
    any_mask = False
    for ln_no, sid, rec in rows:
        extend_numbers(feats, rec.get("features"), "features", sid, ln_no, feature_dim)
        extend_numbers(labs, rec.get("labels"), "labels", sid, ln_no, k)
        c = rec.get("corrupted")
        if c is not None:
            if not isinstance(c, list) or len(c) != k or not all(isinstance(v, bool) for v in c):
                raise DataError(
                    f"sample {sid!r} on line {ln_no}: corrupted must be a list of {k} booleans"
                )
            any_mask = True
            masks.extend(c)
        else:
            masks.extend(bytes(k))
        ids.append(sid)
        line_of.append(ln_no)
    check_unique(ids, line_of)
    n = len(ids)
    return Dataset(
        ids=ids,
        features=np.frombuffer(feats).reshape(n, feature_dim),
        labels=np.frombuffer(labs).reshape(n, k),
        dim_names=dim_names,
        corrupted=np.frombuffer(masks, dtype=bool).reshape(n, k) if any_mask else None,
        manifest=meta,
    )


def loads_dataset(text: str) -> Dataset:
    return _read_dataset(io.StringIO(text, newline=None))


def load_dataset(path: str | Path) -> Dataset:
    return read_file(path, "dataset", _read_dataset)

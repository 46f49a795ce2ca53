"""Datasets for multi-dimension regression: synthetic corpora, splits, JSONL I/O.

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
from itertools import compress, pairwise
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
    to the smaller row index, as argsort(-column, kind="stable")[:m]. A 1-D
    vector counts as one column. This is the one selection rule of pruning,
    the overlap curve and the masking report.
    """
    rho = float(rho)
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must be in [0, 1], got {rho}")
    cols = values if values.ndim == 2 else values[:, None]
    out = np.empty((cols.shape[1], ceil_count(rho, cols.shape[0])), dtype=np.intp)
    m = out.shape[1]
    # a partition finds the column's m-th value in that order; only the rows
    # not below it are sorted, stably, so ties keep row order. A NaN sorts
    # last in both and is never below the cut, so it stays a candidate
    for j, col in enumerate(cols.T if m else ()):
        neg = -col
        cut = np.partition(neg, m - 1)[m - 1]
        cand = np.flatnonzero(~(neg > cut))
        out[j] = cand[np.argsort(neg[cand], kind="stable")[:m]]
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
    """The index of the second occurrence of the smallest repeated id, or None.

    A RowIds's row numbers are compared as integers, and no id is formatted:
    the smallest repeated row number is its smallest repeated id.
    """
    if isinstance(ids, RowIds):
        rows = np.sort(ids.rows)
        repeats = np.flatnonzero(rows[1:] == rows[:-1])
        return int(np.flatnonzero(ids.rows == rows[repeats[0]])[1]) if repeats.size else None
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
    dimensions, finite values, unique ids and unique dimension names. The
    backing arrays are read-only; refinement operations return new datasets
    instead of mutating.

    features is the (N, d) matrix, or the SynthConfig of a synthetic corpus
    whose rows ids.rows names (a RowIds of ascending rows): such a dataset
    holds no features and reads them from the corpus's sample stream (see
    feature_blocks). labels is the (N, K) matrix, or, for such a dataset,
    the StreamLabels that read them from the same stream (see blocks).
    """

    def __init__(
        self,
        ids: Sequence[str],
        features: np.ndarray | SynthConfig,
        labels: np.ndarray | StreamLabels,
        dim_names: Sequence[str],
        corrupted: np.ndarray | None = None,
        manifest: dict | None = None,
    ):
        self._ids = ids if isinstance(ids, RowIds) else tuple(map(str, ids))
        if isinstance(features, SynthConfig):
            if not isinstance(ids, RowIds):
                raise ValueError("the rows of a synthetic corpus need RowIds")
            _checked_rows(ids.rows, features.n_samples)
            self._source = features
            n, d = len(ids), features.feature_dim
        else:
            self._source = _frozen(np.atleast_2d(features))
            n, d = self._source.shape
        self._feature_dim = d
        if isinstance(labels, StreamLabels):
            if not isinstance(features, SynthConfig):
                raise ValueError("labels read from the sample stream need its features")
            self._labels = labels
            shape = (n, features.n_dims)
        else:
            self._labels = _frozen(np.atleast_2d(labels))
            shape = self._labels.shape
        self.dim_names = [str(d) for d in dim_names]
        self.manifest = dict(manifest or {})
        if len(self._ids) != n:
            raise DataError(f"{len(self._ids)} ids for {n} feature rows")
        if shape[0] != n:
            raise DataError(f"{shape[0]} label rows for {n} samples")
        if shape[1] != len(self.dim_names):
            raise DataError(f"label width {shape[1]} does not match {len(self.dim_names)} dimension names")
        dup = first_duplicate(self.dim_names)
        if dup is not None:
            raise DataError(f"repeated dimension name {self.dim_names[dup]!r}")
        # no N-sized bool array: NaN propagates through min and max, and an
        # infinity is one of them; the sample stream's features and clean labels are finite
        checked = [(labels.values if isinstance(labels, StreamLabels) else self._labels, "label")]
        if isinstance(self._source, np.ndarray):
            checked.append((self._source, "feature"))
        for values, what in checked:
            if not (np.isfinite(values.min(initial=0.0)) and np.isfinite(values.max(initial=0.0))):
                raise DataError(f"non-finite {what} values")
        # strictly ascending row numbers are unique ids by construction
        if not (isinstance(self._ids, RowIds) and self._ids.ascending):
            dup = first_duplicate(self._ids)
            if dup is not None:
                raise DataError(f"duplicate sample id {self._ids[dup]!r}")
        if corrupted is not None:
            corrupted = np.ascontiguousarray(corrupted, dtype=bool)
            if corrupted.shape != shape:
                raise DataError(f"corruption mask shape {corrupted.shape} != labels {shape}")
            corrupted.setflags(write=False)
        if isinstance(labels, StreamLabels):
            n_corrupted = 0 if corrupted is None else np.count_nonzero(corrupted)
            if len(labels.values) != n_corrupted:
                raise ValueError(f"{len(labels.values)} stream label values for {n_corrupted} corrupted cells")
        self._corrupted = corrupted

    # -- views -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def n_dims(self) -> int:
        return len(self.dim_names)

    @property
    def feature_dim(self) -> int:
        return self._feature_dim

    @property
    def ids(self) -> Sequence[str]:
        """The immutable sample ids: a RowIds for synthetic rows, else a tuple of str."""
        return self._ids

    @property
    def features(self) -> np.ndarray:
        """(N, d) read-only float64 matrix.

        A synthetic corpus's rows are gathered from its sample stream into a
        new matrix on every call; feature_blocks reads them a chunk at a time.
        """
        if isinstance(self._source, np.ndarray):
            return self._source
        return self.gather_features()

    def gather_features(self, rows: np.ndarray | None = None) -> np.ndarray:
        """A new read-only matrix of the features of the row positions rows (every row if None).

        rows may come in any order and repeat. They are read in ascending
        order a chunk at a time (feature_blocks), each chunk written to its
        rows' places, so no matrix of other rows is held. The sample stream
        writes ascending rows straight into the result, so then no chunk is
        held either.
        """
        order = None
        if rows is not None:
            rows = np.asarray(rows, dtype=np.intp)
            if np.any(rows[1:] < rows[:-1]):
                order = np.argsort(rows, kind="stable")
                rows = rows[order]
        out = np.empty((len(self) if rows is None else len(rows), self._feature_dim))
        if order is None and not isinstance(self._source, np.ndarray):
            for _ in sample_features(self._source, self._stream_rows(rows), out):
                pass  # each chunk is the view of its rows of out
        else:
            start = 0
            for block in self.feature_blocks(rows):
                stop = start + len(block)
                out[slice(start, stop) if order is None else order[start:stop]] = block
                start = stop
                del block  # released before the next chunk is gathered
        out.setflags(write=False)
        return out

    def feature_blocks(self, rows: np.ndarray | None = None) -> Iterator[np.ndarray]:
        """The features of the ascending row positions rows (every row if None), a chunk at a time.

        Yields one array per chunk of _row_chunks(len(rows)), in row order:
        views of the feature matrix's chunks, or gathers of rows, or a
        synthetic corpus's rows read from its sample stream (sample_features).
        Either way a product over each chunk rounds the same. The caller
        must not write a chunk; dropping each one before asking for the next
        keeps one chunk of a synthetic corpus's rows alive.
        """
        if not isinstance(self._source, np.ndarray):
            yield from sample_features(self._source, self._stream_rows(rows))
            return
        if rows is not None:
            rows = _checked_rows(rows, len(self))
        for start, stop in _row_chunks(len(self) if rows is None else len(rows)):
            yield self._source[start:stop] if rows is None else self._source[rows[start:stop]]

    def blocks(self, rows: np.ndarray | None = None) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """(features, labels) of the ascending row positions rows (every row if None), a chunk at a time.

        The chunks are feature_blocks' chunks, with label_blocks' labels:
        the fits, the scorers, residuals and the evaluation read their rows
        through it. Each chunk's labels are read before its features, so the
        pieces of the sample stream StreamLabels are formed from are gone
        when the features are drawn (sample_labels). The caller must not
        write the features; dropping each pair before asking for the next
        keeps one chunk alive.
        """
        if rows is not None:
            rows = _checked_rows(rows, len(self))
        if isinstance(self._labels, np.ndarray):
            label_blocks = self.label_blocks(rows)
            features = self.feature_blocks(rows)
        else:
            stream = self._stream_rows(rows)  # one copy, shared by both readers
            label_blocks = self._stream_label_blocks(stream, rows)
            features = sample_features(self._source, stream)
        for y in label_blocks:
            x = next(features)
            yield x, y
            del x, y  # released before the next chunk is read

    def label_blocks(self, rows: np.ndarray | None = None) -> Iterator[np.ndarray]:
        """The labels of the ascending row positions rows (every row if None), a chunk at a time.

        The chunks are feature_blocks' chunks: views or gathers of the label
        matrix's rows, or, for StreamLabels, new arrays of the clean labels
        the sample stream gives those rows (sample_labels) with each
        corrupted cell's value written over its own. No feature is kept.
        """
        if rows is not None:
            rows = _checked_rows(rows, len(self))
        labels = self._labels
        if isinstance(labels, np.ndarray):
            for start, stop in _row_chunks(len(self) if rows is None else len(rows)):
                yield labels[start:stop] if rows is None else labels[rows[start:stop]]
            return
        yield from self._stream_label_blocks(self._stream_rows(rows), rows)

    def _stream_label_blocks(self, stream: np.ndarray, rows: np.ndarray | None) -> Iterator[np.ndarray]:
        """label_blocks of StreamLabels, given the sample-stream rows stream of the positions rows."""
        mask, values = self._corrupted, self._labels.values
        # mask rows [0, done) hold the values [0, used)
        done = used = start = 0
        for y in sample_labels(self._source, stream, self._labels.noise_state):
            stop = start + len(y)
            if mask is not None:
                at = np.arange(start, stop) if rows is None else rows[start:stop]
                span = mask[done : at[-1] + 1]
                picked = np.zeros(len(span), dtype=bool)
                picked[at - done] = True
                # the values of span's cells, in row-major order, less those of rows not read
                cells = values[used : used + np.count_nonzero(span)]
                y[mask[at]] = cells[(span & picked[:, None])[span]]
                done, used = at[-1] + 1, used + len(cells)
            yield y
            start = stop
            del y  # released before the next chunk is read

    def _stream_rows(self, rows: np.ndarray | None) -> np.ndarray:
        """The sample-stream rows of a synthetic corpus's ascending row positions rows (every row if None)."""
        if rows is None:
            return self._ids.rows
        return self._ids.rows[_checked_rows(rows, len(self))]

    @property
    def labels(self) -> np.ndarray:
        """(N, K) read-only float64 matrix.

        StreamLabels are gathered into a new matrix on every call;
        label_blocks reads them a chunk at a time.
        """
        if isinstance(self._labels, np.ndarray):
            return self._labels
        out = np.empty((len(self), self.n_dims))
        for (start, stop), y in zip(_row_chunks(len(self)), self.label_blocks()):
            out[start:stop] = y
        out.setflags(write=False)
        return out

    @property
    def label_matrix(self) -> np.ndarray | None:
        """The (N, K) label matrix the dataset holds, or None for StreamLabels."""
        return self._labels if isinstance(self._labels, np.ndarray) else None

    @property
    def corruption_mask(self) -> np.ndarray | None:
        """(N, K) boolean matrix, or None when no corruption info exists."""
        return self._corrupted

    def sample(self, i: int) -> Sample:
        """Row i, read as blocks reads it; a synthetic corpus's row comes from its sample stream."""
        i = range(len(self))[i]
        [([features], [labels])] = self.blocks(np.array([i]))
        mask = self._corrupted
        return Sample(self._ids[i], features, labels, None if mask is None else mask[i])

    def index_of(self, sample_id: str) -> int:
        try:
            return self._ids.index(sample_id)
        except ValueError:
            raise DataError(f"unknown sample id {sample_id!r}") from None

    def select(self, indices: np.ndarray | Iterable[int]) -> "Dataset":
        """New dataset restricted to the given row indices, in the given order.

        An integer ndarray is used as is; any other iterable is read into one.
        Strictly ascending rows of a synthetic corpus stay in its sample
        stream: the result holds a RowIds of their row numbers and the same
        SynthConfig, and reads no feature. Otherwise it holds its rows'
        features as a matrix; a synthetic corpus's are gathered from its
        sample stream (gather_features), so no matrix of other rows is built.
        The result holds its labels as a matrix (StreamLabels are gathered).
        """
        if isinstance(indices, np.ndarray) and indices.dtype.kind in "iu":
            idx = indices
        else:
            idx = np.asarray(list(indices), dtype=int)
        src = self._source
        if isinstance(src, np.ndarray):
            features = src[idx]
        elif np.all(idx[1:] > idx[:-1]):
            features = src
            idx = _checked_rows(idx, len(self))
        else:
            features = self.gather_features(idx)
        return Dataset(
            ids=take_ids(self._ids, idx),
            features=features,
            labels=self.labels[idx],
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
    but fresh samples are easy to build. These six values fix every label of
    the corpus, which is never clipped (see draw_synthetic).
    """

    n_samples: int
    feature_dim: int
    n_dims: int
    label_noise_sd: float | tuple[float, ...] = 0.0
    teacher_seed: int = 0
    sample_seed: int = 0

    def noise_vector(self) -> np.ndarray:
        try:
            sd = np.broadcast_to(np.asarray(self.label_noise_sd, dtype=np.float64), (self.n_dims,))
        except ValueError:
            raise ValueError(
                f"label_noise_sd: must be one SD or {self.n_dims}, got {self.label_noise_sd}"
            ) from None
        if np.any(sd < 0) or not np.all(np.isfinite(sd)):
            raise ValueError("label_noise_sd: must be nonnegative and finite")
        return sd.copy()


def validate_synth(config: SynthConfig) -> np.ndarray:
    """Check the settings a draw needs; return the per-dimension label noise SD."""
    for key in ("n_samples", "feature_dim", "n_dims"):
        if getattr(config, key) <= 0:
            raise ValueError(f"{key}: must be positive, got {getattr(config, key)}")
    return config.noise_vector()


# Rows in which the draw and every reader of features work: 128 KiB of features at d=16.
CHUNK_ROWS = 1024


def _row_chunks(n: int) -> Iterator[tuple[int, int]]:
    """(start, stop) of each chunk of n rows, in which the draw and every reader of features work.

    Each chunk holds CHUNK_ROWS rows (read at call time) and the last one
    the rest, from CHUNK_ROWS to twice that less one (or all n), so every
    reader holds one chunk of temporaries at any number of rows. A short
    last chunk could round its product differently from the one-shot
    product: numpy sends a one-row product to gemv, and OpenBLAS takes small
    products through other kernels. A one-column product would go to gemv
    too, whose OpenBLAS result depends on the thread count, so draw_synthetic
    forms the labels of a one-dimension corpus with einsum instead.
    """
    size = CHUNK_ROWS
    start = 0
    while start < n:
        stop = n if n - start < 2 * size else start + size
        yield start, stop
        start = stop


def _checked_rows(rows, n: int) -> np.ndarray:
    """rows as an intp array; a ValueError unless they ascend within [0, n)."""
    rows = np.asarray(rows, dtype=np.intp)
    if len(rows) and (rows[0] < 0 or rows[-1] >= n or np.any(rows[1:] < rows[:-1])):
        raise ValueError(f"row indices must be ascending and in [0, {n})")
    return rows


def sample_features(
    config: SynthConfig, rows: np.ndarray, out: np.ndarray | None = None
) -> Iterator[np.ndarray]:
    """The features of config's corpus at the ascending row indices rows, a row chunk at a time.

    Yields one (stop - start, d) array per chunk of _row_chunks(len(rows)),
    so a product over each chunk rounds as the one-shot product over all the
    rows does. Each chunk is a new array, or the view of its rows of out, a
    (len(rows), d) matrix given to be written. The features come from a
    fresh stream of the sample seed; standard_normal gives a stream's values
    in the same order whatever the size of each draw, so these are the
    features draw_synthetic formed the labels from. Each chunk draws the
    stream up to its own last row, CHUNK_ROWS rows at a time into one
    buffer that is freed before the chunk is yielded: between chunks only
    the generator and one row of features are held, if the caller drops
    each chunk before asking for the next (sample_labels' pieces are
    formed then, see Dataset.blocks).
    """
    n, d = config.n_samples, config.feature_dim
    rows = _checked_rows(rows, n)
    rng = np.random.default_rng(config.sample_seed)
    hi = 0  # the stream is drawn up to row hi
    last = None  # the features of row hi - 1

    def chunk(start, stop):
        nonlocal hi, last
        block = np.empty((stop - start, d)) if out is None else out[start:stop]
        # rows drawn already repeat the last chunk's last row
        i = start + int(np.searchsorted(rows[start:stop], hi))
        if i > start:
            block[: i - start] = last
        if i < stop:
            end = rows[stop - 1] + 1
            # features form no product, so any pieces do: CHUNK_ROWS-row ones keep the buffer
            # within the one C-row piece test_the_refit_holds_little_beyond_the_kept_rows allows
            buffer = np.empty((min(CHUNK_ROWS, end - hi), d))
            while i < stop:
                lo, hi = hi, min(hi + CHUNK_ROWS, end)
                piece = rng.standard_normal(out=buffer[: hi - lo])
                j = i + int(np.searchsorted(rows[i:stop], hi))
                # the positions lie in the piece: "clip" lets take write out directly,
                # where "raise" would fill a temporary of the same size first
                np.take(piece, rows[i:j] - lo, axis=0, out=block[i - start : j - start], mode="clip")
                i = j
            last = block[-1].copy()
        return block

    for start, stop in _row_chunks(len(rows)):
        # not bound here: this generator resumes only after the next chunk's
        # labels are read, and the chunk is freed as soon as the caller drops it
        yield chunk(start, stop)


def sample_labels(config: SynthConfig, rows: np.ndarray, noise_state: dict) -> Iterator[np.ndarray]:
    """The clean labels of config's corpus at the ascending row indices rows, a row chunk at a time.

    The chunks are sample_features' chunks, each a new (stop - start, K)
    array. The labels are draw_synthetic's bit for bit: the stream is read
    in the draw's own chunks (_row_chunks(N)), and each piece that holds a
    wanted row forms its labels as the draw did, (h @ w*^T + b*) + noise *
    sd, from its features and its piece of the label noise, which a second
    generator, restored to noise_state (see noise_state), reads after them.
    Every piece's features and noise are drawn, wanted or not, so a pass
    draws N x K noise values as well as N x d features. A piece's features
    and noise are freed once its labels are formed: between chunks only
    the labels of the piece a chunk ended in are held, if the caller drops
    each chunk before asking for the next.
    """
    n, d, k = config.n_samples, config.feature_dim, config.n_dims
    rows = _checked_rows(rows, n)
    rng = np.random.default_rng(config.sample_seed)
    noise_rng = np.random.default_rng(config.sample_seed)
    noise_rng.bit_generator.state = noise_state
    w_star, b_star = teacher_head(config)
    sd = config.noise_vector()
    pieces = _row_chunks(n)  # the draw's chunks, so each label is formed by the draw's product
    hi = 0
    piece = None  # the labels of stream rows [lo, hi), if one of them is read
    for start, stop in _row_chunks(len(rows)):
        labels = np.empty((stop - start, k))
        i = start
        while i < stop:
            if rows[i] >= hi:
                piece = None
                lo, hi = next(pieces)
                x = rng.standard_normal((hi - lo, d))
                if rows[i] < hi:
                    piece = np.empty((hi - lo, k))
                    _teacher_product(x, w_star, piece)
                    piece += b_star
                del x
                noise = noise_rng.standard_normal((hi - lo, k))
                if piece is not None:
                    noise *= sd
                    piece += noise
                del noise
                continue
            j = i + int(np.searchsorted(rows[i:stop], hi))
            np.take(piece, rows[i:j] - lo, axis=0, out=labels[i - start : j - start], mode="clip")
            i = j
        if stop == len(rows):
            piece = None  # the last chunk is read: released while the caller uses it
        yield labels
        del labels  # released before the next chunk is gathered


def _teacher_product(x: np.ndarray, w_star: np.ndarray, out: np.ndarray) -> None:
    """x @ w*^T into out.

    einsum for one dimension, which uses no BLAS: numpy sends a one-column
    product to gemv, whose OpenBLAS result depends on the thread count.
    """
    if len(w_star) == 1:
        np.einsum("ij,kj->ik", x, w_star, out=out)
    else:
        np.matmul(x, w_star.T, out=out)


def noise_state(config: SynthConfig) -> dict:
    """The sample seed's generator state after the last feature of config's corpus, where its label noise starts.

    Found by drawing every feature, 256 rows at a time into one small buffer.
    """
    n, d = config.n_samples, config.feature_dim
    rng = np.random.default_rng(config.sample_seed)
    buffer = np.empty((min(n, 256), d))
    for lo in range(0, n, 256):
        rng.standard_normal(out=buffer[: min(256, n - lo)])
    return rng.bit_generator.state


@dataclass(frozen=True, eq=False)
class StreamLabels:
    """The labels of a synthetic corpus's rows, read from its sample stream (see Dataset.blocks).

    noise_state is noise_state(config) of the corpus, where its label noise
    starts. values holds one float per corrupted cell of the rows, in the
    row-major order of their corruption mask: each is written over the
    clean label the stream gives that cell. Clean labels have none.
    """

    noise_state: dict
    values: np.ndarray


def synth_manifest(config: SynthConfig) -> dict:
    """The manifest of config's corpus: its settings, and digests of the teacher parameters for audits."""
    sd = validate_synth(config)
    w_star, b_star = teacher_head(config)
    return {
        "generator": "linear_teacher",
        "n_samples": config.n_samples,
        "feature_dim": config.feature_dim,
        "n_dims": config.n_dims,
        "label_noise_sd": sd.tolist(),
        "teacher_seed": config.teacher_seed,
        "sample_seed": config.sample_seed,
        "teacher_digest": {"weights": _digest(w_star), "biases": _digest(b_star)},
    }


def draw_synthetic(config: SynthConfig) -> tuple[np.ndarray, dict]:
    """Clean labels of every row of config's corpus, and its manifest (synth_manifest).

    Features are i.i.d. standard normal. Labels are W* h + b* plus independent
    gaussian noise per dimension, unclipped; the noise draw follows every
    feature in the sample stream. The stream is read a row chunk at a time
    (_row_chunks), each chunk drawn into one buffer, and no feature is kept:
    sample_features reads the same features again, and sample_labels the same
    labels.
    """
    manifest = synth_manifest(config)
    sd = config.noise_vector()
    n, d = config.n_samples, config.feature_dim
    w_star, b_star = teacher_head(config)

    rng = np.random.default_rng(config.sample_seed)
    labels = np.empty((n, config.n_dims))
    rows = min(n, CHUNK_ROWS + n % CHUNK_ROWS)  # the longest chunk
    buffer = np.empty((rows, d))  # each chunk of features is drawn into it
    for start, stop in _row_chunks(n):
        _teacher_product(rng.standard_normal(out=buffer[: stop - start]), w_star, labels[start:stop])
    del buffer
    # each label is (h @ w*^T + b*) + noise * sd, summed in that order
    buffer = np.empty((rows, config.n_dims))
    for start, stop in _row_chunks(n):
        noise = rng.standard_normal(out=buffer[: stop - start])
        noise *= sd
        part = labels[start:stop]
        part += b_star
        part += noise
    return labels, manifest


def synthetic_rows(
    config: SynthConfig,
    rows: np.ndarray,
    labels: np.ndarray | StreamLabels,
    corrupted: np.ndarray | None,
    manifest: dict,
) -> Dataset:
    """The given rows of config's corpus as a Dataset, with the corpus's ids and dimension names.

    The ids are a RowIds view of rows, an ascending row-index array, which
    is not copied (see _synthetic_ids). The features stay in the corpus's
    sample stream, read a chunk at a time (see Dataset.feature_blocks), and
    StreamLabels read the labels there too (see Dataset.blocks).
    """
    return Dataset(
        ids=_synthetic_ids(config, rows),
        features=config,
        labels=labels,
        dim_names=_synthetic_dim_names(config),
        corrupted=corrupted,
        manifest=manifest,
    )


def _synthetic_ids(config: SynthConfig, rows: np.ndarray) -> RowIds:
    """Row r's id: "s" and r zero-padded to _id_width(config) digits."""
    return RowIds(rows, _id_width(config))


def _id_width(config: SynthConfig) -> int:
    """The digits of the corpus's last row, at least five."""
    return max(5, len(str(config.n_samples - 1)))


def _synthetic_dim_names(config: SynthConfig) -> list[str]:
    return [f"dim{k}" for k in range(config.n_dims)]


# the rows a stream digest covers: bound at import, so a file's digest never follows a patched CHUNK_ROWS
_DIGEST_ROWS = CHUNK_ROWS


def stream_digest(config: SynthConfig) -> str:
    """_digest of the first min(N, CHUNK_ROWS) rows of config's sample stream.

    A sample-stream row table stores it, and its reader draws the rows
    again and compares: NumPy does not promise that a Generator's stream
    stays fixed across versions, so another stream is refused, not read.
    """
    m = min(config.n_samples, _DIGEST_ROWS)
    rng = np.random.default_rng(config.sample_seed)
    # hashed a few rows at a time, each piece drawn into one small buffer
    piece = np.empty((min(m, 64), config.feature_dim))
    h = hashlib.sha256()
    for start in range(0, m, len(piece)):
        h.update(rng.standard_normal(out=piece[: min(len(piece), m - start)]))
    return h.hexdigest()[:16]


def generate_synthetic(config: SynthConfig) -> Dataset:
    """Draw a corpus from a seeded linear teacher (see draw_synthetic); its features stay in the stream."""
    labels, manifest = draw_synthetic(config)
    return synthetic_rows(
        config, np.arange(config.n_samples), labels, np.zeros(labels.shape, dtype=bool), manifest
    )


def teacher_head(config: SynthConfig):
    """Re-derive the teacher parameters a corpus was generated from."""
    rng = np.random.default_rng(config.teacher_seed)
    w_star = rng.standard_normal((config.n_dims, config.feature_dim))
    b_star = rng.standard_normal(config.n_dims)
    return w_star, b_star


def checked_fractions(fractions: Sequence[float]) -> tuple[float, float, float]:
    """fractions as three floats; a ValueError naming fractions unless they are nonnegative and sum to 1."""
    f = tuple(float(x) for x in fractions)
    if len(f) != 3 or any(x < 0 for x in f):
        raise ValueError(f"fractions: must be three nonnegative reals, got {fractions}")
    if abs(sum(f) - 1.0) > 1e-9:
        raise ValueError(f"fractions: must sum to 1, got {sum(f)}")
    return f


def split_indices(
    n: int, fractions: tuple[float, float, float], seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Seeded train/val/test row indices for an n-row corpus.

    Validation and test sizes are floor(f * n); the remainder goes to train.
    Membership comes from one seeded permutation; each part lists its rows
    in ascending order. The three parts partition range(n).
    """
    f = checked_fractions(fractions)
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
    """read(fh) of the text file at path, open as fh: the one place a file's DataError names the file.

    A missing or unreadable file is a DataError naming it, and a DataError
    read raises becomes "invalid {what} file {path}: {reason}".
    """
    p = Path(path)
    # a directory is no file either: opening one would raise IsADirectoryError
    if not p.is_file():
        raise DataError(f"{what} file not found: {p}")
    try:
        fh = open(p)
    except OSError as e:
        raise DataError(f"cannot read {what} file {p}: {e}") from None
    with fh:
        try:
            return read(fh)
        except DataError as e:
            raise DataError(f"invalid {what} file {p}: {e}") from None


def read_json(path: str | Path, what: str, read):
    """read(doc) for the JSON object doc in the file at path: the one reader of JSON documents.

    A missing or unreadable file, malformed JSON, a document that is not an
    object, and a KeyError, TypeError, ValueError or DataError raised by read
    are one DataError naming the file (read_file).
    """

    def parse(fh):
        try:
            doc = json.load(fh)
            if not isinstance(doc, dict):
                raise TypeError(f"the document must be a JSON object, got {type(doc).__name__}")
            return read(doc)
        except (OSError, KeyError, TypeError, ValueError) as e:
            raise DataError(f"missing key {e}" if isinstance(e, KeyError) else str(e)) from None

    return read_file(path, what, parse)


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
    with a dim_names list, whose entries are read as strings and must be
    distinct. Every later line must be a row_type object with a non-null
    id. Blank lines are skipped, line numbers count from 1 in the file, and
    a table without rows is a DataError.
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
            dup = first_duplicate(rec["dim_names"])
            if dup is not None:
                raise DataError(f"line {ln_no}: repeated dimension name {rec['dim_names'][dup]!r}")
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


# the header's features value of a table whose features are drawn from the sample stream
FEATURE_STREAM = "sample_stream"
# the manifest fields a sample-stream table's reader rebuilds the SynthConfig from
_SYNTH_FIELDS = ("n_samples", "feature_dim", "n_dims", "label_noise_sd", "teacher_seed", "sample_seed")


def _dataset_lines(ds: Dataset) -> Iterator[str]:
    head = {"type": "manifest", "feature_dim": ds.feature_dim, "dim_names": ds.dim_names}
    src = ds._source
    if isinstance(src, np.ndarray):
        columns = {"features": src}
    else:
        # the rows carry no features: the header names the stream, which the manifest describes
        if any(ds.manifest.get(key) != getattr(src, key) for key in ("n_samples", "feature_dim", "sample_seed")):
            raise ValueError("a synthetic dataset's manifest must give its n_samples, feature_dim and sample_seed")
        head.update(features=FEATURE_STREAM, stream_digest=stream_digest(src))
        columns = {}
    head["meta"] = ds.manifest
    # StreamLabels are written a row chunk at a time as Dataset.label_blocks reads them
    held = ds.label_matrix
    columns["labels"] = (row for y in ds.label_blocks() for row in y) if held is None else held
    if ds.corruption_mask is not None:
        columns["corrupted"] = ds.corruption_mask
    return table_lines(head, "sample", ds.ids, columns)


def dumps_dataset(ds: Dataset) -> str:
    """Serialize to JSON Lines: one manifest line, then one line per sample.

    Floats go through json's repr formatting, which round-trips exactly. A
    dataset of a feature matrix writes each row's features; a synthetic
    corpus's rows carry none, and the header marks them as drawn from the
    sample stream (features "sample_stream") and stores stream_digest.
    """
    return "".join(_dataset_lines(ds))


def save_dataset(ds: Dataset, path: str | Path) -> None:
    """Write dumps_dataset(ds) to path a line at a time."""
    write_lines(path, _dataset_lines(ds))


def _stream_config(head: dict, meta: dict, ln_no: int) -> SynthConfig:
    """The SynthConfig of a sample-stream table's header on line ln_no, checked against this numpy's stream.

    It is rebuilt from the manifest meta, which must describe the header's
    feature_dim and dim_names; a stream whose digest is not the header's
    stream_digest is a DataError.
    """
    if head["features"] != FEATURE_STREAM:
        raise DataError(f"line {ln_no}: header features must be {FEATURE_STREAM!r}, got {head['features']!r:.40}")
    missing = next((key for key in _SYNTH_FIELDS if key not in meta), None)
    if missing is not None:
        raise DataError(f"line {ln_no}: a sample-stream table's meta needs {missing}")
    fields = {key: meta[key] for key in _SYNTH_FIELDS}
    for key, value in fields.items():
        if key != "label_noise_sd" and type(value) is not int:
            raise DataError(f"line {ln_no}: meta {key} must be an integer, got {value!r:.40}")
    if type(fields["label_noise_sd"]) is list:
        fields["label_noise_sd"] = tuple(fields["label_noise_sd"])
    config = SynthConfig(**fields)
    try:
        validate_synth(config)
    except (TypeError, ValueError) as e:
        raise DataError(f"line {ln_no}: meta {e}") from None
    if config.feature_dim != head["feature_dim"] or head["dim_names"] != _synthetic_dim_names(config):
        raise DataError(
            f"line {ln_no}: meta does not describe the header: a corpus of {config.feature_dim} "
            f"features and {config.n_dims} dimensions"
        )
    digest = stream_digest(config)
    if head.get("stream_digest") != digest:
        raise DataError(
            f"line {ln_no}: stream digest {head.get('stream_digest')!r:.40} is not {digest!r}, that of "
            f"the sample stream numpy {np.__version__} draws, so the features cannot be rebuilt"
        )
    return config


def _stream_row(sid: str, width: int, n: int, last: int, ln_no: int) -> int:
    """The row of a sample-stream table's id sid on line ln_no, after the row last; a DataError unless canonical."""
    digits = sid[1:]
    if not (len(sid) == width + 1 and sid[0] == "s" and digits.isascii() and digits.isdigit()):
        raise DataError(f"line {ln_no}: sample id {sid!r} is not a row id: 's' and {width} digits")
    row = int(digits)
    if row >= n:
        raise DataError(f"line {ln_no}: sample id {sid!r} is past the stream's {n} rows")
    if row <= last:
        if row == last:
            raise DataError(f"line {ln_no}: duplicate sample id {sid!r}")
        raise DataError(f"line {ln_no}: sample id {sid!r} does not ascend")
    return row


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
    # a sample-stream table's ids are read as row numbers, which must ascend
    stream = _stream_config(head, meta, ln_no) if "features" in head else None
    width = None if stream is None else _id_width(stream)
    stream_rows = array("q")

    ids: list[str] = []
    line_of = array("l")
    feats = array("d")
    labs = array("d")
    masks = bytearray()
    any_mask = False
    for ln_no, sid, rec in rows:
        if stream is None:
            extend_numbers(feats, rec.get("features"), "features", sid, ln_no, feature_dim)
            ids.append(sid)
            line_of.append(ln_no)
        elif "features" in rec:
            raise DataError(f"sample {sid!r} on line {ln_no}: a sample-stream table's rows carry no features")
        else:
            last = stream_rows[-1] if stream_rows else -1
            stream_rows.append(_stream_row(sid, width, stream.n_samples, last, ln_no))
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
    n = len(ids) if stream is None else len(stream_rows)
    labels = np.frombuffer(labs).reshape(n, k)
    corrupted = np.frombuffer(masks, dtype=bool).reshape(n, k) if any_mask else None
    if stream is not None:
        return synthetic_rows(stream, np.frombuffer(stream_rows, dtype=np.int64), labels, corrupted, meta)
    check_unique(ids, line_of)
    return Dataset(
        ids=ids,
        features=np.frombuffer(feats).reshape(n, feature_dim),
        labels=labels,
        dim_names=dim_names,
        corrupted=corrupted,
        manifest=meta,
    )


def loads_dataset(text: str) -> Dataset:
    return _read_dataset(io.StringIO(text, newline=None))


def load_dataset(path: str | Path) -> Dataset:
    """The dataset of the row table at path; a DataError names the file and, for a bad line, the line."""
    return read_file(path, "dataset", _read_dataset)

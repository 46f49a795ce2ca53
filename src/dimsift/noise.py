"""Label corruption: the noise of a pipeline config and of `corrupt`, and the cells it corrupts.

NoiseSpec.corruption is the one noise routine. It draws which cells of a
Dataset are corrupted and their new values, reading its labels only for
each column's range, so the same values can be written into a copy of
its labels (NoiseSpec.apply) or kept beside labels read from the sample
stream (corrupted_cells, data.StreamLabels).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .data import Dataset, ceil_count


def checked_dims(dims: Iterable[int], n_dims: int) -> list[int]:
    """dims as a sorted list of distinct indices; a ValueError naming dims unless they lie in [0, n_dims)."""
    dim_list = sorted(set(int(k) for k in dims))
    if not dim_list:
        raise ValueError("dims: must be a non-empty set of dimension indices")
    if dim_list[0] < 0 or dim_list[-1] >= n_dims:
        raise ValueError(f"dims: out of range for {n_dims} dimensions: {dim_list}")
    return dim_list


@dataclass(frozen=True)
class NoiseSpec:
    """Label corruption: the noise section of a pipeline config and of `corrupt`.

    rate / dims / seed drive the per-dimension independent corruption;
    correlated_rate additionally corrupts a common seeded subset in every
    dimension with out-of-range labels (see corruption). apply(ds) writes
    it into a copy of a Dataset; a run writes its cells' values over
    labels read from the sample stream (corrupted_cells).
    """

    rate: float = 0.0
    dims: Optional[tuple[int, ...]] = None
    seed: int = 0
    correlated_rate: float = 0.0
    correlated_seed: int = 0

    def __post_init__(self):
        for key in ("rate", "correlated_rate"):
            if not 0.0 <= getattr(self, key) <= 1.0:
                raise ValueError(f"{key}: must be in [0, 1], got {getattr(self, key)}")

    def check(self, n_dims: int) -> None:
        """The ValueError apply would raise on a dataset of n_dims dimensions, if any, without reading one."""
        if self.rate > 0.0 and self.dims is not None:
            checked_dims(self.dims, n_dims)

    def corruption(self, ds: Dataset) -> tuple[list, list[dict]]:
        """The writes of this corruption of ds's labels, and their manifest records.

        Per dimension first: for each dimension k of dims (every one if
        None), ceil(rate * n) rows drawn without replacement by a child
        stream seeded by (seed, k) get uniform draws of that stream over the
        column's [min, max]. So dimensions are corrupted independently, and
        one multi-dimension spec equals a sequence of one-dimension specs
        with the same seed. Then ceil(correlated_rate * n) rows drawn from
        correlated_seed model globally broken records (wrong scale, sentinel
        values): each gets labels outside the range every column has by
        then, with one shared severity u ~ U(0.5, 1) and one shared sign per
        row, hi_k + u * (hi_k - lo_k) on the positive side and
        lo_k - u * (hi_k - lo_k) on the negative.

        Each write (rows, dims, values) sets label (rows[i], dims[j]) to
        values[i, j], and a later write replaces an earlier one. The rows
        and the draws are seeded and read no label; only the ranges do, in
        one pass of ds.label_blocks() (_label_extrema). A column's range
        after its per-dimension writes is then exactly that of its other
        cells and its new values, with no label written.
        """
        n, n_dims = len(ds), ds.n_dims
        records, per_dim, shared = [], [], None
        if self.rate > 0.0:
            dims = checked_dims(range(n_dims) if self.dims is None else self.dims, n_dims)
            m = ceil_count(self.rate, n)
            for k in dims if m else ():
                rng = np.random.default_rng([self.seed, k])
                rows = rng.choice(n, size=m, replace=False)
                # the rows ascend in every write, which its readers search. A stable sort:
                # numpy's default integer argsort is other code, 128 KiB more of it resident
                order = np.argsort(rows, kind="stable")
                per_dim.append((k, rng, rows[order], order))
            records.append({"kind": "per_dimension", "rate": self.rate, "dims": dims, "seed": int(self.seed)})
        if self.correlated_rate > 0.0:
            lo_sev, hi_sev = 0.5, 1.0
            m = ceil_count(self.correlated_rate, n)
            if m:
                rng = np.random.default_rng(self.correlated_seed)
                rows = rng.choice(n, size=m, replace=False)
                u = rng.uniform(lo_sev, hi_sev, size=m)[:, None]
                order = np.argsort(rows, kind="stable")
                shared = rows[order], u[order], (rng.integers(0, 2, size=m) * 2 - 1)[order]
            records.append({
                "kind": "correlated",
                "rate": self.correlated_rate,
                "seed": int(self.correlated_seed),
                "severity": [lo_sev, hi_sev],
            })
        if not per_dim and shared is None:
            return [], records
        lo, hi, rest_lo, rest_hi = _label_extrema(ds, [(k, rows) for k, _, rows, _ in per_dim])
        writes = []
        lo_after, hi_after = rest_lo.copy(), rest_hi.copy()
        for k, rng, rows, order in per_dim:
            values = rng.uniform(lo[k], hi[k], size=len(rows))
            writes.append((rows, np.array([k]), values[order, None]))
            lo_after[k] = min(lo_after[k], values.min())
            hi_after[k] = max(hi_after[k], values.max())
        if shared is not None:
            rows, u, sign = shared
            width = hi_after - lo_after
            values = np.where(sign[:, None] > 0, hi_after + u * width, lo_after - u * width)
            writes.append((rows, np.arange(n_dims), values))
        return writes, records

    def apply(self, ds: Dataset) -> Dataset:
        """ds with this corruption (see corruption) written into copies of its labels and mask.

        The manifest gains the records; with none, the result is ds itself.
        """
        writes, records = self.corruption(ds)
        if not records:
            return ds
        labels = ds.labels.copy()
        mask = np.zeros(labels.shape, dtype=bool) if ds.corruption_mask is None else ds.corruption_mask.copy()
        for rows, dims, values in writes:
            labels[rows[:, None], dims] = values
            mask[rows[:, None], dims] = True
        return Dataset(
            ids=ds.ids,
            features=ds._source,
            labels=labels,
            dim_names=ds.dim_names,
            corrupted=mask,
            manifest=with_injections(ds.manifest, records),
        )


def _label_extrema(ds: Dataset, picks: list) -> tuple[np.ndarray, ...]:
    """NoiseSpec.corruption's column ranges of ds's labels, read a chunk at a time.

    Four (n_dims,) arrays: each column's minimum and maximum, and those of
    its cells that picks, a list of (column, ascending rows), leaves out
    (infinite if it leaves out none).
    """
    n_dims = ds.n_dims
    lo, rest_lo = np.full(n_dims, np.inf), np.full(n_dims, np.inf)
    hi, rest_hi = np.full(n_dims, -np.inf), np.full(n_dims, -np.inf)
    start = 0
    for y in ds.label_blocks():
        stop = start + len(y)
        # dimension-major, so each column is reduced as one contiguous row (4x faster)
        z = y.T.copy()
        np.minimum(lo, z.min(axis=1, initial=np.inf), out=lo)
        np.maximum(hi, z.max(axis=1, initial=-np.inf), out=hi)
        cut = [(k, rows[np.searchsorted(rows, start) : np.searchsorted(rows, stop)] - start) for k, rows in picks]
        for k, at in cut:
            z[k, at] = np.inf
        np.minimum(rest_lo, z.min(axis=1, initial=np.inf), out=rest_lo)
        for k, at in cut:
            z[k, at] = -np.inf
        np.maximum(rest_hi, z.max(axis=1, initial=-np.inf), out=rest_hi)
        start = stop
    return lo, hi, rest_lo, rest_hi


def corrupted_cells(writes: list, rows: np.ndarray, n_dims: int) -> tuple[np.ndarray, np.ndarray]:
    """The corruption mask of the ascending corpus rows rows and its cells' values, in row-major order.

    writes are NoiseSpec.corruption's; cells of other rows are left out.
    These are what StreamLabels write over the clean labels of the rows.
    """

    def hits(write_rows):
        """The positions in rows of the write's rows that rows holds, and which those are."""
        at = np.searchsorted(rows, write_rows)
        hit = at < len(rows)
        hit[hit] = rows[at[hit]] == write_rows[hit]
        return at[hit], hit

    mask = np.zeros((len(rows), n_dims), dtype=bool)
    for write_rows, dims, _ in writes:
        mask[hits(write_rows)[0][:, None], dims] = True
    cells = np.flatnonzero(mask)
    out = np.empty(len(cells))
    for write_rows, dims, values in writes:
        at, hit = hits(write_rows)
        # a later write lands on the same place as an earlier one, and replaces it
        out[np.searchsorted(cells, at[:, None] * n_dims + dims)] = values[hit]
    return mask, out


def with_injections(manifest: dict, records: list[dict]) -> dict:
    """manifest with records appended to its noise_injections list; unchanged if there are none."""
    if not records:
        return manifest
    out = dict(manifest)
    out["noise_injections"] = list(out.get("noise_injections", [])) + records
    return out

"""Synthetic corpus generation, corruption injection, splitting, and JSONL io."""

import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import ODD_TEXT, matrix_copy, peak_traced_bytes
import dimsift
from dimsift import (
    DataError,
    Dataset,
    NoiseSpec,
    PipelineConfig,
    PruneResult,
    RegressionHead,
    RowIds,
    Scope,
    SelfInfluenceTable,
    SynthConfig,
    TrainConfig,
    UsageError,
    WeightMatrix,
    ddp_select,
    ddr_weights,
    default_config,
    fit_closed_form,
    generate_synthetic,
    load_dataset,
    residuals,
    save_dataset,
    split,
)
from dimsift.data import (
    CHUNK_ROWS,
    _row_chunks,
    JSON_PIECE_ITEMS,
    ceil_count,
    draw_synthetic,
    dumps_dataset,
    first_duplicate,
    floor_count,
    json_pieces,
    loads_dataset,
    long_csv_lines,
    StreamLabels,
    noise_state,
    sample_features,
    stream_digest,
    synthetic_rows,
    table_lines,
    teacher_head,
    write_json,
)
from dimsift.refine import load_scalar_scores


# ---------------------------------------------------------------- counting

def test_ceil_count_snaps_float_products():
    # 0.1 * 1000 is 100.00000000000001 in binary floats; must not become 101
    assert ceil_count(0.1, 1000) == 100
    assert ceil_count(0.005, 2000) == 10
    assert ceil_count(0.15, 10) == 2
    assert ceil_count(0.0, 5) == 0
    assert ceil_count(1.0, 7) == 7


def test_floor_count_snaps_float_products():
    assert floor_count(0.6, 10) == 6
    assert floor_count(0.2, 10) == 2
    # 0.7 * 10 is 6.999999999999999 in binary floats; must not become 6
    assert floor_count(0.7, 10) == 7
    assert floor_count(0.0, 9) == 0


# -------------------------------------------------------------- generation

def test_generator_is_deterministic():
    cfg = SynthConfig(80, 5, 3, label_noise_sd=0.2, teacher_seed=3, sample_seed=9)
    a = generate_synthetic(cfg)
    b = generate_synthetic(cfg)
    assert dumps_dataset(a) == dumps_dataset(b)


def test_noiseless_labels_match_teacher_exactly():
    cfg = SynthConfig(60, 4, 2, label_noise_sd=0.0, teacher_seed=1, sample_seed=2)
    corpus = generate_synthetic(cfg)
    w_star, b_star = teacher_head(cfg)
    expect = corpus.features @ w_star.T + b_star
    assert np.array_equal(corpus.labels, expect)


def test_teacher_seed_controls_teacher_only():
    base = SynthConfig(40, 4, 2, label_noise_sd=0.0, teacher_seed=1, sample_seed=2)
    other = SynthConfig(40, 4, 2, label_noise_sd=0.0, teacher_seed=8, sample_seed=2)
    a, b = generate_synthetic(base), generate_synthetic(other)
    assert np.array_equal(a.features, b.features)
    assert not np.array_equal(a.labels, b.labels)


def test_residual_scale_matches_configured_noise():
    # with almost no regularisation the fitted residual RMSE estimates the
    # label noise SD; a 3-sigma band around it is 3 * sd / sqrt(2N)
    cfg = SynthConfig(200, 8, 5, label_noise_sd=0.1, teacher_seed=11, sample_seed=12)
    corpus = generate_synthetic(cfg)
    head = fit_closed_form(corpus, config=TrainConfig(ridge_alpha=1e-6))
    rmse = np.sqrt((residuals(head, corpus) ** 2).mean(axis=0))
    band = 3 * 0.1 / np.sqrt(2 * 200)
    assert np.all(np.abs(rmse - 0.1) < band)


def test_per_dimension_noise_sd():
    cfg = SynthConfig(2000, 3, 2, label_noise_sd=(0.0, 0.5), teacher_seed=5, sample_seed=6)
    corpus = generate_synthetic(cfg)
    w_star, b_star = teacher_head(cfg)
    noise = corpus.labels - (corpus.features @ w_star.T + b_star)
    assert np.all(noise[:, 0] == 0.0)
    assert abs(noise[:, 1].std() - 0.5) < 0.05


@pytest.mark.parametrize("sd", [0.3, (0.0, 0.5, 2.0)], ids=["scalar-sd", "per-dim-sd"])
def test_labels_are_teacher_plus_scaled_noise_bit_for_bit(sd):
    cfg = SynthConfig(500, 4, 3, label_noise_sd=sd, teacher_seed=7, sample_seed=8)
    corpus = generate_synthetic(cfg)
    w_star, b_star = teacher_head(cfg)
    rng = np.random.default_rng(cfg.sample_seed)
    features = rng.standard_normal((500, 4))
    noise = rng.standard_normal((500, 3))
    expect = features @ w_star.T + b_star + noise * cfg.noise_vector()
    assert np.array_equal(corpus.features, features)
    assert np.array_equal(corpus.labels, expect)


@pytest.mark.parametrize("tail", [100, 1], ids=["tail-100", "tail-1"])
def test_the_blocked_draw_is_the_one_shot_draw_bit_for_bit(tail):
    # several chunks and a remainder, which joins the last full chunk
    n = 3 * CHUNK_ROWS + tail
    cfg = SynthConfig(n, 16, 5, label_noise_sd=(0.1, 0.2, 0.3, 0.4, 0.5), teacher_seed=3,
                      sample_seed=4)
    labels, manifest = draw_synthetic(cfg)
    w_star, b_star = teacher_head(cfg)
    rng = np.random.default_rng(cfg.sample_seed)
    all_features = rng.standard_normal((n, 16))
    noise = rng.standard_normal((n, 5))
    expect = all_features @ w_star.T + b_star + noise * cfg.noise_vector()
    assert np.array_equal(labels, expect)
    # the rows' features, read again from the stream
    for r in (np.arange(0, n, 7), np.array([0, CHUNK_ROWS - 1, CHUNK_ROWS, n - 1])):
        ds = synthetic_rows(cfg, r, labels[r], np.zeros((len(r), 5), bool), manifest)
        assert np.array_equal(ds.features, all_features[r])


def test_the_stream_rejects_rows_out_of_order_or_range():
    cfg = SynthConfig(10, 2, 1, teacher_seed=0, sample_seed=1)
    for rows in ([3, 2], [-1, 4], [4, 10]):
        with pytest.raises(ValueError, match="ascending"):
            list(sample_features(cfg, np.array(rows)))
        with pytest.raises(ValueError, match="ascending"):
            synthetic_rows(cfg, np.array(rows), np.zeros((2, 1)), np.zeros((2, 1), bool), {})


def test_stream_labels_hold_one_value_per_corrupted_cell():
    cfg = SynthConfig(20, 3, 2, label_noise_sd=0.1, teacher_seed=0, sample_seed=1)
    rows, state = np.arange(20), noise_state(cfg)
    mask = np.zeros((20, 2), dtype=bool)
    mask[[3, 7], [0, 1]] = True
    # too many values, too few, and values without a mask
    for values, corrupted in ((np.zeros(3), mask), (np.zeros(1), mask), (np.zeros(1), None)):
        with pytest.raises(ValueError, match="stream label values"):
            synthetic_rows(cfg, rows, StreamLabels(state, values), corrupted, {})
    # each value is read at its own cell, over the clean label
    ds = synthetic_rows(cfg, rows, StreamLabels(state, np.array([10.0, 20.0])), mask, {})
    clean, _ = draw_synthetic(cfg)
    want = clean.copy()
    want[3, 0], want[7, 1] = 10.0, 20.0
    assert ds.labels.tobytes() == want.tobytes()


def test_feature_blocks_of_the_stream_and_of_a_matrix(monkeypatch):
    # 8-row chunks: a matrix gives views of its chunks or gathers rows, and
    # a synthetic corpus's rows read the same features from its sample stream
    monkeypatch.setattr(dimsift.data, "CHUNK_ROWS", 8)
    cfg = SynthConfig(600, 4, 2, label_noise_sd=0.1, teacher_seed=1, sample_seed=2)
    labels, manifest = draw_synthetic(cfg)
    rows = np.arange(3, 600, 2)
    stream = synthetic_rows(cfg, rows, labels[rows], np.zeros((len(rows), 2), bool), manifest)
    every = np.random.default_rng(cfg.sample_seed).standard_normal((600, 4))
    matrix = Dataset(stream.ids, every[rows], stream.labels, stream.dim_names, stream.corruption_mask,
                     stream.manifest)
    # the last: rows repeated across the ends of chunks
    for picks in (None, np.array([0, 5, 63, 64, 200, len(rows) - 1]), np.arange(130), np.repeat(np.arange(0, 40, 3), 3)):
        want = every[rows] if picks is None else every[rows[picks]]
        sizes = [stop - start for start, stop in _row_chunks(len(want))]
        for ds in (stream, matrix):
            blocks = list(ds.feature_blocks(picks))
            assert [len(b) for b in blocks] == sizes
            assert np.vstack(blocks).tobytes() == want.tobytes()
    assert max(stop - start for start, stop in _row_chunks(len(rows))) < 16
    assert all(np.shares_memory(b, matrix.features) for b in matrix.feature_blocks())
    with pytest.raises(ValueError, match="ascending"):
        list(stream.feature_blocks(np.array([5, 2])))
    # features gathers a new read-only matrix on each call, sample one row
    a, b = stream.features, stream.features
    assert a is not b and a.tobytes() == every[rows].tobytes() and not a.flags.writeable
    for i in (0, 64, -1):
        got, want = stream.sample(i), matrix.sample(i)
        assert got.id == want.id and got.features.tolist() == want.features.tolist()
    # a corrupted copy keeps reading the stream, and its file reads back as
    # the matrix's corrupted copy: the same ids, features, labels and mask
    noisy = NoiseSpec(rate=0.1, dims=(1,), seed=3).apply(stream)
    assert noisy._source is cfg
    back = loads_dataset(dumps_dataset(noisy))
    want = NoiseSpec(rate=0.1, dims=(1,), seed=3).apply(matrix)
    assert back._source == SynthConfig(600, 4, 2, (0.1, 0.1), teacher_seed=1, sample_seed=2)
    assert back.ids == want.ids
    for a, b in ((back.features, want.features), (back.labels, want.labels),
                 (back.corruption_mask, want.corruption_mask)):
        assert a.tobytes() == b.tobytes()
    with pytest.raises(ValueError, match="RowIds"):
        Dataset(list(stream.ids), cfg, stream.labels, stream.dim_names)


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two cores for two BLAS threads")
def test_one_dimension_labels_do_not_depend_on_the_blas_thread_count():
    # numpy sends a one-column product to gemv, and OpenBLAS's gemv gave these
    # labels different bytes at one and two threads
    src = str(Path(dimsift.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); "
        "from dimsift import SynthConfig, generate_synthetic; "
        "cfg = SynthConfig(16500, 64, 1, label_noise_sd=0.1, teacher_seed=0, sample_seed=1); "
        "sys.stdout.buffer.write(generate_synthetic(cfg).labels.tobytes())"
    )
    labels = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True)
        labels.append(out.stdout)
    assert len(labels[0]) == 16500 * 8
    assert labels[0] == labels[1]


def test_gathering_every_row_of_the_stream_holds_little_beyond_the_result():
    # the stream writes each chunk straight into the result, and each piece
    # of the stream is drawn into one buffer: 1.06x the result measured at
    # 20k rows, beside 1.70x when each 8192-row block was gathered and then
    # copied in, and each piece drawn fresh
    cfg = SynthConfig(20_000, 16, 5, label_noise_sd=0.1, teacher_seed=0, sample_seed=1)
    corpus = generate_synthetic(cfg)
    every = corpus.gather_features()
    want = np.random.default_rng(cfg.sample_seed).standard_normal((20_000, 16))
    assert every.tobytes() == want.tobytes() and not every.flags.writeable
    assert peak_traced_bytes(corpus.gather_features) <= 1.1 * every.nbytes


def test_generate_synthetic_holds_one_label_sized_temporary():
    # beyond the features: the labels, one chunk of the noise draw added into
    # them and the Dataset checks (1.14x the labels measured; 1.9x with
    # 8192-row blocks); an unfused sum peaks at 3.0x
    cfg = SynthConfig(20_000, 4, 64, label_noise_sd=0.1, teacher_seed=0, sample_seed=1)
    peak = peak_traced_bytes(generate_synthetic, cfg)
    features, labels = 20_000 * 4 * 8, 20_000 * 64 * 8
    assert peak < features + 2.5 * labels


def test_ids_are_unique_and_ordered():
    corpus = generate_synthetic(SynthConfig(30, 3, 2, label_noise_sd=0.0, teacher_seed=0, sample_seed=0))
    assert len(set(corpus.ids)) == 30
    assert corpus.ids == tuple(sorted(corpus.ids))
    # one immutable sequence, shared by every caller instead of copied per call:
    # a view of read-only row numbers for synthetic rows, from a file too, and
    # a tuple for a table of user data
    assert isinstance(corpus.ids, RowIds) and corpus.ids is corpus.ids
    assert not corpus.ids.rows.flags.writeable
    with pytest.raises(TypeError):
        corpus.ids[0] = "s00001"
    assert isinstance(loads_dataset(dumps_dataset(corpus)).ids, RowIds)
    assert isinstance(loads_dataset(dumps_dataset(matrix_copy(corpus))).ids, tuple)


@st.composite
def _row_ids(draw):
    """Ascending unique row numbers, an id width, and a selector of each kind over them."""
    width = draw(st.integers(5, 7))
    rows = sorted(draw(st.sets(st.integers(0, 10**width - 1), max_size=40)))
    n = len(rows)
    mask = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    picks = draw(st.lists(st.integers(-n, n - 1), max_size=10)) if n else []
    return np.array(rows, dtype=np.intp), width, draw(st.slices(max(n, 1))), mask, picks


@settings(max_examples=200, deadline=None)
@given(_row_ids())
def test_row_ids_match_the_formatted_tuple(case):
    rows, width, sl, mask, picks = case
    view, want = RowIds(rows, width), tuple(f"s{r:0{width}d}" for r in rows.tolist())
    n = len(want)
    assert len(view) == n and tuple(view) == want and list(iter(view)) == list(want)
    assert [view[i] for i in range(-n, n)] == [want[i] for i in range(-n, n)]
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            view[i]
    # a slice, a boolean mask and an index array each give another view
    for got, expect in (
        (view[sl], want[sl]),
        (view[np.array(mask, dtype=bool)], tuple(s for s, m in zip(want, mask) if m)),
        (view[np.array(picks, dtype=np.intp)], tuple(want[i] for i in picks)),
    ):
        assert isinstance(got, RowIds) and tuple(got) == expect and got == expect
    for i, sid in enumerate(want):
        assert view.index(sid) == i and sid in view
        assert view.index(sid, i) == i
        with pytest.raises(ValueError):
            view.index(sid, i + 1)
    for missing in ("s1", "x" + "0" * width, f"s{10**width}", "s" + "0" * 30, 3, None):
        assert missing not in want and missing not in view
        with pytest.raises(ValueError):
            view.index(missing)
    # == and != against a tuple, a list and another view, from either side
    other = want[:-1] + ("s" + "9" * (width + 1),) if n else ("s00000",)
    for same, differs in ((want, other), (list(want), list(other))):
        assert view == same and same == view and not view != same and not same != view
        assert view != differs and differs != view and not view == differs
    assert view == RowIds(rows.copy(), width)
    # other rows or another width differ unless there are no ids
    assert (view != RowIds(rows + 1, width)) == (view != RowIds(rows, width + 1)) == (n > 0)
    # the writers' bytes: json_pieces, table_lines and long_csv_lines take the view as the tuple
    doc = {"ids": view, "sets": [view, view[:2]], "n": n}
    plain = {"ids": list(want), "sets": [list(want), list(want[:2])], "n": n}
    assert "".join(json_pieces(doc)) == json.dumps(plain, sort_keys=True) + "\n"
    cols = {"v": np.arange(2.0 * n).reshape(n, 2)}
    assert "".join(table_lines({"type": "h"}, "r", view, cols)) == "".join(
        table_lines({"type": "h"}, "r", want, cols)
    )
    assert "".join(long_csv_lines("id,dim,v", view, ["a", "b"], cols["v"])) == "".join(
        long_csv_lines("id,dim,v", want, ["a", "b"], cols["v"])
    )


def test_a_dataset_of_row_ids_refuses_repeated_rows():
    # only strictly ascending rows skip the duplicate check
    x, y = np.zeros((3, 1)), np.zeros((3, 1))
    with pytest.raises(DataError, match="duplicate sample id 's00004'"):
        Dataset(RowIds(np.array([4, 1, 4]), 5), x, y, ["d0"])
    assert Dataset(RowIds(np.array([4, 1, 2]), 5), x, y, ["d0"]).index_of("s00001") == 1


@pytest.mark.parametrize("n, width", [(100_000, 5), (100_001, 6)])
def test_the_id_width_follows_the_last_row_number(n, width):
    cfg = SynthConfig(n, 3, 2)
    rows = np.array([0, 7, n - 1])
    ds = synthetic_rows(cfg, rows, np.zeros((3, 2)), np.zeros((3, 2), bool), {})
    want = (f"s{0:0{width}d}", f"s{7:0{width}d}", f"s{n - 1}")
    assert isinstance(ds.ids, RowIds) and ds.ids == want
    assert [ds.index_of(sid) for sid in want] == [0, 1, 2]
    with pytest.raises(DataError):
        # the other width's spelling of the same row
        ds.index_of(f"s{7:0{11 - width}d}")


def test_arrays_are_read_only():
    corpus = generate_synthetic(SynthConfig(10, 3, 2, label_noise_sd=0.0, teacher_seed=0, sample_seed=0))
    with pytest.raises(ValueError):
        corpus.features[0, 0] = 1.0
    with pytest.raises(ValueError):
        corpus.labels[0, 0] = 1.0


# --------------------------------------------------------------- injection

def _held_and_stream(cfg):
    """cfg's corpus with one corrupted cell: holding its labels, and reading them from the sample stream."""
    rows = np.arange(cfg.n_samples)
    mask = np.zeros((cfg.n_samples, cfg.n_dims), dtype=bool)
    mask[5, 1] = True
    stream = synthetic_rows(cfg, rows, StreamLabels(noise_state(cfg), np.array([9.0])), mask,
                            draw_synthetic(cfg)[1])
    return synthetic_rows(cfg, rows, stream.labels, mask, stream.manifest), stream


@pytest.mark.parametrize("held", [True, False], ids=["label_matrix", "stream_labels"])
def test_apply_corrupts_a_copy_and_leaves_its_input_unchanged(held):
    pair = _held_and_stream(SynthConfig(300, 4, 3, label_noise_sd=0.1, teacher_seed=0, sample_seed=1))
    ds = pair[0] if held else pair[1]
    labels, mask = ds.labels.tobytes(), ds.corruption_mask.tobytes()
    spec = NoiseSpec(rate=0.1, dims=(0, 2), seed=3, correlated_rate=0.01, correlated_seed=4)
    out = spec.apply(ds)
    assert ds.labels.tobytes() == labels and ds.corruption_mask.tobytes() == mask
    assert out is not ds and out.ids == ds.ids and out._source is ds._source
    assert "noise_injections" not in ds.manifest and len(out.manifest["noise_injections"]) == 2
    assert out.corruption_mask[5, 1] and out.labels[5, 1] == 9.0
    # either label source gives the same copy
    assert dumps_dataset(out) == dumps_dataset(spec.apply(pair[0]))
    # rate 0 injects nothing: the input itself, with no injection recorded
    for zero in (NoiseSpec(), NoiseSpec(rate=0.0, dims=(0, 1, 2), seed=7)):
        assert zero.apply(ds) is ds


def test_injection_exact_count_and_isolation():
    corpus = generate_synthetic(SynthConfig(1000, 4, 3, label_noise_sd=0.1, teacher_seed=0, sample_seed=1))
    out = NoiseSpec(rate=0.1, dims=(1,), seed=7).apply(corpus)
    mask = out.corruption_mask
    assert mask[:, 1].sum() == 100
    assert mask[:, 0].sum() == 0 and mask[:, 2].sum() == 0
    # untouched columns are bit-identical, touched rows all differ
    assert np.array_equal(out.labels[:, 0], corpus.labels[:, 0])
    assert np.array_equal(out.labels[:, 2], corpus.labels[:, 2])
    changed = out.labels[:, 1] != corpus.labels[:, 1]
    assert np.array_equal(changed, mask[:, 1])
    assert np.array_equal(out.features, corpus.features)


def test_injection_stays_inside_observed_range():
    corpus = generate_synthetic(SynthConfig(500, 4, 2, label_noise_sd=0.3, teacher_seed=2, sample_seed=3))
    out = NoiseSpec(rate=0.2, dims=(0, 1), seed=11).apply(corpus)
    for k in range(2):
        lo, hi = corpus.labels[:, k].min(), corpus.labels[:, k].max()
        assert out.labels[:, k].min() >= lo and out.labels[:, k].max() <= hi


def test_injection_deterministic_and_composable():
    corpus = generate_synthetic(SynthConfig(300, 4, 3, label_noise_sd=0.1, teacher_seed=0, sample_seed=1))
    once = NoiseSpec(rate=0.1, dims=(0, 2), seed=13).apply(corpus)
    again = NoiseSpec(rate=0.1, dims=(0, 2), seed=13).apply(corpus)
    assert dumps_dataset(once) == dumps_dataset(again)
    # one multi-dimension call equals a sequence of single-dimension calls
    # with the same seed: each dimension owns an independent child stream
    stepwise = NoiseSpec(rate=0.1, dims=(2,), seed=13).apply(
        NoiseSpec(rate=0.1, dims=(0,), seed=13).apply(corpus)
    )
    assert np.array_equal(once.labels, stepwise.labels)
    assert np.array_equal(once.corruption_mask, stepwise.corruption_mask)


def test_injection_masks_are_independent_across_dimensions():
    corpus = generate_synthetic(SynthConfig(1000, 4, 5, label_noise_sd=0.1, teacher_seed=3, sample_seed=4))
    mask = NoiseSpec(rate=0.1, dims=tuple(range(5)), seed=77).apply(corpus).corruption_mask.astype(float)
    for a in range(5):
        for b in range(a + 1, 5):
            assert abs(np.corrcoef(mask[:, a], mask[:, b])[0, 1]) < 0.1


def test_injection_rejects_bad_rate_and_dims():
    corpus = generate_synthetic(SynthConfig(20, 3, 2, label_noise_sd=0.0, teacher_seed=0, sample_seed=0))
    with pytest.raises(ValueError):
        NoiseSpec(rate=1.5, dims=(0,), seed=0).apply(corpus)
    with pytest.raises(ValueError):
        NoiseSpec(rate=-0.1, dims=(0,), seed=0).apply(corpus)
    with pytest.raises(ValueError):
        NoiseSpec(rate=0.1, dims=(5,), seed=0).apply(corpus)
    with pytest.raises(ValueError):
        NoiseSpec(rate=0.1, dims=(), seed=0).apply(corpus)


def test_correlated_injection_marks_every_dimension():
    corpus = generate_synthetic(SynthConfig(400, 4, 3, label_noise_sd=0.1, teacher_seed=1, sample_seed=2))
    spec = NoiseSpec(correlated_rate=0.01, correlated_seed=5)
    out = spec.apply(corpus)
    mask = out.corruption_mask
    n_hit = ceil_count(0.01, 400)
    assert mask.any(axis=1).sum() == n_hit
    # the same rows are corrupted in all dimensions, outside the clean range
    rows = np.flatnonzero(mask.any(axis=1))
    assert np.all(mask[rows].all(axis=1))
    for k in range(3):
        lo, hi = corpus.labels[:, k].min(), corpus.labels[:, k].max()
        vals = out.labels[rows, k]
        assert np.all((vals < lo) | (vals > hi))
    two = spec.apply(corpus)
    assert dumps_dataset(out) == dumps_dataset(two)


# ------------------------------------------------------------------- split

def test_split_sizes_and_partition():
    corpus = generate_synthetic(SynthConfig(10, 3, 2, label_noise_sd=0.0, teacher_seed=0, sample_seed=1))
    train, val, test = split(corpus, (0.6, 0.2, 0.2), seed=0)
    assert (len(train.ids), len(val.ids), len(test.ids)) == (6, 2, 2)
    assert sorted([*train.ids, *val.ids, *test.ids]) == sorted(corpus.ids)


def test_split_everything_to_train_is_identity():
    corpus = generate_synthetic(SynthConfig(25, 3, 2, label_noise_sd=0.1, teacher_seed=0, sample_seed=1))
    train, val, test = split(corpus, (1.0, 0.0, 0.0), seed=3)
    assert train.ids == corpus.ids
    assert np.array_equal(train.features, corpus.features)
    assert np.array_equal(train.labels, corpus.labels)
    assert len(val.ids) == 0 and len(test.ids) == 0


def test_split_deterministic_and_seed_sensitive():
    corpus = generate_synthetic(SynthConfig(40, 3, 2, label_noise_sd=0.1, teacher_seed=0, sample_seed=1))
    a = split(corpus, (0.5, 0.25, 0.25), seed=9)
    b = split(corpus, (0.5, 0.25, 0.25), seed=9)
    c = split(corpus, (0.5, 0.25, 0.25), seed=10)
    assert a[0].ids == b[0].ids and a[2].ids == b[2].ids
    assert a[0].ids != c[0].ids


def test_split_carries_corruption_mask():
    corpus = generate_synthetic(SynthConfig(100, 4, 2, label_noise_sd=0.1, teacher_seed=0, sample_seed=1))
    noisy = NoiseSpec(rate=0.2, dims=(0, 1), seed=3).apply(corpus)
    train, _, _ = split(noisy, (0.8, 0.1, 0.1), seed=1)
    for i, sid in enumerate(train.ids):
        j = noisy.index_of(sid)
        assert np.array_equal(train.corruption_mask[i], noisy.corruption_mask[j])


def test_split_rejects_bad_fractions():
    corpus = generate_synthetic(SynthConfig(10, 3, 2, label_noise_sd=0.0, teacher_seed=0, sample_seed=1))
    with pytest.raises(ValueError):
        split(corpus, (0.5, 0.2, 0.2), seed=0)
    with pytest.raises(ValueError):
        split(corpus, (1.2, -0.1, -0.1), seed=0)


# --------------------------------------------------------------------- io

def test_jsonl_round_trip(tmp_path):
    cfg = SynthConfig(30, 4, 3, label_noise_sd=0.1, teacher_seed=2, sample_seed=3)
    corpus = NoiseSpec(rate=0.1, dims=(1,), seed=4).apply(generate_synthetic(cfg))
    path = tmp_path / "corpus.jsonl"
    save_dataset(corpus, path)
    back = load_dataset(path)
    assert back.ids == corpus.ids
    assert np.array_equal(back.features, corpus.features)
    assert np.array_equal(back.labels, corpus.labels)
    assert np.array_equal(back.corruption_mask, corpus.corruption_mask)
    assert back.dim_names == corpus.dim_names
    assert back.manifest == corpus.manifest


def test_jsonl_errors_name_the_offender():
    # a table of user data, whose rows carry their features
    corpus = generate_synthetic(SynthConfig(5, 3, 2, label_noise_sd=0.0, teacher_seed=0, sample_seed=1))
    lines = dumps_dataset(matrix_copy(corpus)).splitlines()

    rec = json.loads(lines[2])
    rec["features"] = rec["features"][:-1]
    bad = "\n".join(lines[:2] + [json.dumps(rec)] + lines[3:])
    with pytest.raises(DataError, match="s00001"):
        loads_dataset(bad)

    with pytest.raises(DataError, match="duplicate sample id"):
        loads_dataset("\n".join(lines + [lines[1]]))
    with pytest.raises(DataError, match="line 2"):
        loads_dataset(lines[0] + "\n{not json\n")
    with pytest.raises(DataError, match="manifest"):
        loads_dataset("\n".join(lines[1:]))
    with pytest.raises(DataError, match="empty"):
        loads_dataset("")


FINITE = st.floats(allow_nan=False, allow_infinity=False)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | FINITE | ODD_TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(ODD_TEXT, inner, max_size=3),
    max_leaves=8,
)


@st.composite
def _datasets(draw):
    n = draw(st.integers(1, 6))
    d = draw(st.integers(1, 5))
    k = draw(st.integers(1, 4))
    return Dataset(
        ids=draw(st.lists(ODD_TEXT, min_size=n, max_size=n, unique=True)),
        features=draw(hnp.arrays(np.float64, (n, d), elements=FINITE)),
        labels=draw(hnp.arrays(np.float64, (n, k), elements=FINITE)),
        dim_names=draw(st.lists(ODD_TEXT, min_size=k, max_size=k, unique=True)),
        corrupted=draw(st.none() | hnp.arrays(bool, (n, k)).filter(np.any)),
        manifest=draw(st.dictionaries(ODD_TEXT, JSON_VALUES, max_size=3)),
    )


def _same_dataset(a, b):
    assert a.ids == b.ids and a.dim_names == b.dim_names and a.manifest == b.manifest
    # bytes, so -0.0 and subnormals must come back bit for bit
    assert a.features.tobytes() == b.features.tobytes()
    assert a.labels.tobytes() == b.labels.tobytes()
    if a.corruption_mask is None:
        assert b.corruption_mask is None
    else:
        assert np.array_equal(a.corruption_mask, b.corruption_mask)


@settings(max_examples=150, deadline=None)
@given(_datasets(), st.data())
def test_jsonl_file_and_text_round_trips_agree(ds, data):
    text = dumps_dataset(ds)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ds.jsonl"
        save_dataset(ds, path)
        assert path.read_bytes() == text.encode()
        _same_dataset(load_dataset(path), ds)
        _same_dataset(loads_dataset(text), ds)
        # a file cut at any byte either loads or is a DataError, never another exception
        cut = data.draw(st.integers(0, len(text)), label="cut")
        path.write_text(text[:cut])
        for load, src in ((load_dataset, path), (loads_dataset, text[:cut])):
            try:
                load(src)
            except DataError:
                pass


# any JSON value, half the time one a loader is likely to mishandle:
# non-finite and out-of-range numbers, numbers as text, booleans and null
ODD_JSON = st.sampled_from(
    [math.inf, -math.inf, math.nan, 10**400, -(10**400), 2**63, "8", 8.9, True, None]
)
ANY_JSON = ODD_JSON | st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | ODD_TEXT | ODD_JSON,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(ODD_TEXT, inner, max_size=3),
    max_leaves=6,
)


def _through_a_file(load):
    """loads(text) for a reader of files: load of a file holding text."""

    def loads(text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "doc.json"
            path.write_text(text)
            return load(path)

    return loads


def _row_table_texts():
    """kind: (text, loads, the one error loads may raise) of each row table and JSON document."""
    corpus = NoiseSpec(rate=0.5, dims=tuple(range(2)), seed=2).apply(
        generate_synthetic(SynthConfig(4, 3, 2, label_noise_sd=0.1, teacher_seed=0, sample_seed=1))
    )
    table = SelfInfluenceTable(
        np.arange(8.0).reshape(4, 2), corpus.ids, corpus.dim_names, Scope.HEAD_ONLY, np.ones(2)
    )
    head = RegressionHead(np.ones((2, 3)), np.zeros(2), np.eye(3), np.ones(3), {"method": "gd"})
    documents = {
        "head": (head.to_dict(), RegressionHead.load),
        "prune": (ddp_select(table, 0.5).to_dict(), PruneResult.load),
        "weights": (ddr_weights(table).to_dict(), WeightMatrix.load),
        "scalar_scores": ({"type": "global_tracin", "ids": list(corpus.ids), "scores": [0.0, 1, 2, 3]},
                          load_scalar_scores),
        "config": (default_config().to_dict(), PipelineConfig.from_file),
    }
    return {
        "dataset": (dumps_dataset(corpus), loads_dataset, DataError),
        "scores": (table.dumps(), SelfInfluenceTable.loads, DataError),
        **{kind: (json.dumps(doc), _through_a_file(load), UsageError if kind == "config" else DataError)
           for kind, (doc, load) in documents.items()},
    }


ROW_TABLES = _row_table_texts()


@pytest.mark.parametrize("kind", sorted(ROW_TABLES))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_row_table_with_one_field_replaced_loads_or_is_a_data_error(kind, data):
    # the header or one row gets one field replaced by an arbitrary JSON value;
    # a JSON document is one line, its header, and a config's fault is a UsageError
    text, loads, error = ROW_TABLES[kind]
    lines = text.splitlines()
    header = len(lines) == 1 or data.draw(st.booleans(), label="header")
    i = 0 if header else data.draw(st.integers(1, len(lines) - 1))
    rec = json.loads(lines[i])
    field = data.draw(st.sampled_from(sorted(rec)), label="field")
    rec[field] = data.draw(ANY_JSON, label="value")
    lines[i] = json.dumps(rec)
    try:
        loads("\n".join(lines) + "\n")
    except error:
        pass


@pytest.fixture(scope="module")
def big_corpus():
    cfg = SynthConfig(20_000, 16, 5, label_noise_sd=0.1, teacher_seed=0, sample_seed=1)
    return NoiseSpec(rate=0.1, dims=tuple(range(5)), seed=2).apply(generate_synthetic(cfg))


@settings(max_examples=200, deadline=None)
@given(doc=st.dictionaries(ODD_TEXT, JSON_VALUES | st.floats(), max_size=4))
def test_json_pieces_join_to_json_dumps(doc):
    assert "".join(json_pieces(doc)) == json.dumps(doc, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "n", [0, 1, JSON_PIECE_ITEMS, JSON_PIECE_ITEMS + 1, 2 * JSON_PIECE_ITEMS + 3]
)
def test_json_pieces_split_long_lists_and_arrays(n):
    rows = np.random.default_rng(n).normal(size=(n, 3))
    rows[: n // 2, 1] = np.inf
    doc = {"rows": rows, "ids": [f'"s{i}"\u00e9' for i in range(n)], "k": [[1, "a"]] * n, "z": 2}
    pieces = list(json_pieces(doc))
    assert "".join(pieces) == json.dumps({**doc, "rows": rows.tolist()}, sort_keys=True) + "\n"
    # "{", four keys, z, "}\n", and per list "[", "]" and one piece per JSON_PIECE_ITEMS items
    assert len(pieces) == 7 + 3 * (2 + -(-n // JSON_PIECE_ITEMS))


def test_write_json_writes_a_row_sum_file_a_piece_at_a_time(tmp_path):
    # the document `score --method row_sum` writes for 12k rows. Measured peak
    # over the file size: 0.17x; one json.dumps string of values.tolist() 5.1x
    n = 12_000
    values = np.random.default_rng(0).normal(size=(n, 5))
    doc = {"type": "row_sum", "ids": [f"s{i:05d}" for i in range(n)],
           "dim_names": [f"dim{k}" for k in range(5)], "values": values}
    path = tmp_path / "rows.json"
    peak = peak_traced_bytes(write_json, path, doc)
    assert peak < 0.5 * path.stat().st_size
    assert path.read_text() == json.dumps(dict(doc, values=values.tolist()), sort_keys=True) + "\n"


@pytest.mark.parametrize("stream", [False, True], ids=["matrix", "stream"])
def test_save_dataset_streams(big_corpus, tmp_path, stream):
    # one line at a time: no whole-file string, no list of lines. A synthetic
    # corpus's rows carry no features, and its digest reads 64 rows of the
    # sample stream at a time. Measured over the features and labels: 0.007x
    # from a matrix, 0.02x from the stream, mostly one block of its ids
    # formatted (0.03x plus one chunk and one piece of the stream, 1024 rows
    # each, when its rows carried features)
    ds = big_corpus if stream else matrix_copy(big_corpus)
    peak = peak_traced_bytes(save_dataset, ds, tmp_path / "ds.jsonl")
    assert peak < 0.05 * len(ds) * (ds.feature_dim + ds.n_dims) * 8


@pytest.mark.parametrize("stream", [False, True], ids=["matrix", "stream"])
def test_load_dataset_holds_little_beyond_the_arrays(big_corpus, tmp_path, stream):
    # the arrays themselves plus ids and buffer slack; no text, line list or
    # Python floats. A sample-stream table's rows hold labels, mask and row
    # numbers, and no features: measured 1.41x the labels (a matrix 6.6x)
    path = tmp_path / "ds.jsonl"
    save_dataset(big_corpus if stream else matrix_copy(big_corpus), path)
    peak = peak_traced_bytes(load_dataset, path)
    if stream:
        assert peak < 4 * big_corpus.labels.nbytes
    else:
        assert peak < 4 * (big_corpus.features.nbytes + big_corpus.labels.nbytes)


def test_dataset_select_preserves_order():
    corpus = generate_synthetic(SynthConfig(20, 3, 2, label_noise_sd=0.0, teacher_seed=0, sample_seed=1))
    sub = corpus.select([5, 2, 9])
    assert sub.ids == (corpus.ids[5], corpus.ids[2], corpus.ids[9])
    assert np.array_equal(sub.features[1], corpus.features[2])
    sub2 = corpus.select_ids([corpus.ids[3], corpus.ids[0]])
    assert sub2.ids == (corpus.ids[3], corpus.ids[0])


def test_select_gathers_only_the_selected_rows_from_the_stream(monkeypatch, big_corpus):
    # half the rows of a synthetic corpus, descending: its rows are read from
    # the sample stream in ascending order a chunk at a time and written to
    # their places, so no matrix of every row is built. Beyond one 1024-row
    # piece of the stream, over the selected features and labels this
    # measured 1.09x, whose duplicate check sorts the row numbers (sorting
    # the formatted ids measured 1.47x with 128-row pieces); gathering every
    # row first measured 2.34x. Ascending rows stay in the stream
    # (test_select_of_ascending_rows_stays_in_the_stream)
    monkeypatch.setattr(dimsift.data, "CHUNK_ROWS", 1024)
    rows = np.arange(len(big_corpus))[::-2]
    sub = big_corpus.select(rows)
    assert isinstance(sub._source, np.ndarray)
    assert np.array_equal(sub.features, big_corpus.features[rows])
    assert list(sub.ids) == [big_corpus.ids[i] for i in rows]
    peak = peak_traced_bytes(big_corpus.select, rows)
    piece = 1024 * big_corpus.feature_dim * 8
    assert peak <= 1.15 * len(rows) * (big_corpus.feature_dim + big_corpus.n_dims) * 8 + piece


def test_select_of_ascending_rows_stays_in_the_stream(big_corpus):
    # strictly ascending rows of a synthetic corpus keep its SynthConfig and
    # a RowIds of their row numbers: no feature is read, and the selection
    # holds its labels, mask and row numbers alone (measured 0.62x of those).
    # Repeated or descending rows, or any rows of a matrix, are gathered
    # into a matrix as before
    rows = np.arange(3, len(big_corpus), 2)
    sub = big_corpus.select(rows)
    assert sub._source is big_corpus._source and isinstance(sub.ids, RowIds)
    assert np.array_equal(sub.features, big_corpus.features[rows])
    assert sub.labels.tobytes() == big_corpus.labels[rows].tobytes()
    assert np.array_equal(sub.corruption_mask, big_corpus.corruption_mask[rows])
    assert peak_traced_bytes(big_corpus.select, rows) <= 1.05 * len(rows) * (2 * big_corpus.n_dims + 1) * 8
    for picks in ([5, 2, 9], [2, 2, 9]):
        if picks[0] == picks[1]:
            with pytest.raises(DataError, match="duplicate sample id"):
                big_corpus.select(picks)
        else:
            assert isinstance(big_corpus.select(picks)._source, np.ndarray)
    matrix = matrix_copy(big_corpus)
    assert isinstance(matrix.select(rows)._source, np.ndarray)
    with pytest.raises(ValueError, match="ascending"):
        big_corpus.select([-1, 4])
    # a split of the corpus stays in the stream, and writes tables without features
    for part in split(big_corpus, (0.6, 0.2, 0.2), seed=4):
        assert part._source is big_corpus._source
        assert all("features" not in json.loads(ln) for ln in dumps_dataset(part).splitlines()[1:])


def test_a_user_data_table_keeps_its_feature_column_byte_for_byte(tmp_path):
    # the one format of a feature matrix's table: header, then id, features,
    # labels and mask per row, as json writes them with no spaces
    ds = Dataset(["a", 'b"\u00e9'], np.array([[0.1, -0.0], [1e-300, 2.0]]), np.array([[3.5], [-1.0]]),
                 ["y"], np.array([[True], [False]]), {"source": "user", "n": 2})
    text = (
        '{"type":"manifest","feature_dim":2,"dim_names":["y"],"meta":{"source":"user","n":2}}\n'
        '{"type":"sample","id":"a","features":[0.1,-0.0],"labels":[3.5],"corrupted":[true]}\n'
        '{"type":"sample","id":"b\\"\\u00e9","features":[1e-300,2.0],"labels":[-1.0],"corrupted":[false]}\n'
    )
    assert dumps_dataset(ds) == text
    save_dataset(ds, tmp_path / "ds.jsonl")
    assert (tmp_path / "ds.jsonl").read_text() == text
    back = load_dataset(tmp_path / "ds.jsonl")
    assert isinstance(back._source, np.ndarray) and back.ids == ("a", 'b"\u00e9')
    assert back.features.tobytes() == ds.features.tobytes() and dumps_dataset(back) == text


def test_a_stream_table_stores_the_digest_of_its_first_rows():
    # the first min(N, CHUNK_ROWS) rows of the sample stream, hashed as _digest hashes an array
    for n in (1, 63, 65, CHUNK_ROWS + 5):
        cfg = SynthConfig(n, 3, 2, sample_seed=n)
        first = np.random.default_rng(n).standard_normal((min(n, CHUNK_ROWS), 3))
        assert stream_digest(cfg) == dimsift.data._digest(first)
        head = json.loads(dumps_dataset(generate_synthetic(cfg)).splitlines()[0])
        assert head["features"] == "sample_stream" and head["stream_digest"] == stream_digest(cfg)
    # a synthetic dataset whose manifest does not describe its stream is not written
    cfg = SynthConfig(10, 3, 2)
    ds = synthetic_rows(cfg, np.arange(10), np.zeros((10, 2)), np.zeros((10, 2), bool), {})
    with pytest.raises(ValueError, match="manifest"):
        dumps_dataset(ds)


@given(st.lists(st.sampled_from("abcdefgh"), max_size=12))
def test_first_duplicate_is_the_smallest_repeat(ids):
    repeated = sorted(sid for sid in set(ids) if ids.count(sid) > 1)
    want = [i for i, sid in enumerate(ids) if sid == repeated[0]][1] if repeated else None
    assert first_duplicate(ids) == want
    assert first_duplicate(tuple(ids)) == first_duplicate(ids)


def test_dataset_validation():
    with pytest.raises(DataError, match="duplicate"):
        Dataset(["a", "a"], np.zeros((2, 2)), np.zeros((2, 1)), ["d0"])
    with pytest.raises(DataError, match="label width"):
        Dataset(["a", "b"], np.zeros((2, 2)), np.zeros((2, 2)), ["d0"])
    with pytest.raises(DataError, match="repeated dimension name 'd0'"):
        Dataset(["a", "b"], np.zeros((2, 2)), np.zeros((2, 3)), ["d0", "d1", "d0"])
    with pytest.raises(DataError, match="non-finite"):
        Dataset(["a"], np.array([[np.nan, 0.0]]), np.zeros((1, 1)), ["d0"])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "plus-inf", "minus-inf"])
@pytest.mark.parametrize("where", ["feature", "label"])
@pytest.mark.parametrize("at", [0, 5000, -1], ids=["first", "middle", "last"])
def test_a_non_finite_value_anywhere_is_a_data_error(bad, where, at):
    # the check reduces to min and max, so the value must reach one of them
    # wherever it sits, among large values of either sign
    rng = np.random.default_rng(0)
    features, labels = rng.normal(0, 1e300, (10_000, 3)), rng.normal(0, 1e300, (10_000, 2))
    (features if where == "feature" else labels).flat[at] = bad
    with pytest.raises(DataError, match=f"^non-finite {where} values$"):
        Dataset(RowIds(np.arange(10_000), 5), features, labels, ["d0", "d1"])


@pytest.mark.parametrize("shape", [(0, 3), (4, 0)], ids=["no-rows", "no-features"])
def test_empty_arrays_are_finite(shape):
    n = shape[0]
    ds = Dataset([f"s{i}" for i in range(n)], np.zeros(shape), np.ones((n, 2)), ["d0", "d1"])
    assert ds.features.shape == shape and len(ds) == n
    empty = Dataset([f"s{i}" for i in range(n)], np.ones((n, 1)), np.zeros((n, 0)), [])
    assert empty.labels.shape == (n, 0)

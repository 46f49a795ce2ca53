"""Weighted per-dimension ridge, gradient descent on the normal-equation moments, head io."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import matrix_copy, peak_traced_bytes, random_head
from dimsift import (
    DataError,
    Dataset,
    NumericalError,
    RegressionHead,
    SynthConfig,
    TrainConfig,
    fit_closed_form,
    fit_gd,
    generate_synthetic,
    per_dim_loss,
    residuals,
)
import dimsift
import dimsift.data
import dimsift.model
from dimsift.data import draw_synthetic, dumps_dataset, loads_dataset, synthetic_rows, teacher_head
from dimsift.model import _gd_loss_and_grads, _gd_moments, _normal_equations


def tiny_corpus(n=120, d=3, k=2, sd=0.05, teacher_seed=3, sample_seed=4):
    return generate_synthetic(
        SynthConfig(n, d, k, label_noise_sd=sd, teacher_seed=teacher_seed, sample_seed=sample_seed)
    )


# ------------------------------------------------------------- closed form

def test_ridge_hand_case_leaves_the_intercept_unpenalized():
    # x = [1, 2], y = [2, 4], alpha = 1: the centred x and y are [-1/2, 1/2]
    # and [-1, 1], so w = (1/4 + 1/4 + 1)^-1 (1/2 + 1/2) = 2/3 and the
    # unpenalized bias is mean(y) - w mean(x) = 3 - 2/3 * 3/2 = 2
    corpus = Dataset(["a", "b"], np.array([[1.0], [2.0]]), np.array([[2.0], [4.0]]), ["d0"])
    head = fit_closed_form(corpus, config=TrainConfig(ridge_alpha=1.0))
    assert abs(head.weights[0, 0] - 2.0 / 3.0) < 1e-12
    assert abs(head.biases[0] - 2.0) < 1e-12


def test_noiseless_fit_recovers_teacher():
    cfg = SynthConfig(100, 5, 3, label_noise_sd=0.0, teacher_seed=7, sample_seed=8)
    corpus = generate_synthetic(cfg)
    head = fit_closed_form(corpus, config=TrainConfig(ridge_alpha=0.0))
    w_star, b_star = teacher_head(cfg)
    assert np.abs(head.weights - w_star).max() < 1e-8
    assert np.abs(head.biases - b_star).max() < 1e-8


def test_unit_weights_equal_unweighted():
    corpus = tiny_corpus()
    a = fit_closed_form(corpus, config=TrainConfig(ridge_alpha=0.1))
    b = fit_closed_form(corpus, np.ones((120, 2)), config=TrainConfig(ridge_alpha=0.1))
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.biases, b.biases)


def test_zero_weight_rows_act_as_deletion():
    corpus = tiny_corpus()
    drop = [4, 17, 60]
    weights = np.ones((120, 2))
    weights[drop, :] = 0.0
    keep = [i for i in range(120) if i not in drop]
    a = fit_closed_form(corpus, weights, config=TrainConfig(ridge_alpha=0.01))
    b = fit_closed_form(corpus.select(keep), config=TrainConfig(ridge_alpha=0.01))
    assert np.abs(a.weights - b.weights).max() < 1e-9
    assert np.abs(a.biases - b.biases).max() < 1e-9


def test_weighted_fit_matches_sqrt_weighted_lstsq():
    # independent route: minimising sum w_i (y_i - xa_i beta)^2 is ordinary
    # least squares on sqrt(w)-scaled rows
    rng = np.random.default_rng(0)
    corpus = tiny_corpus()
    weights = rng.uniform(0.1, 2.0, size=(120, 2))
    head = fit_closed_form(corpus, weights, config=TrainConfig(ridge_alpha=0.0))
    xa = np.hstack([corpus.features, np.ones((120, 1))])
    for k in range(2):
        s = np.sqrt(weights[:, k])[:, None]
        beta, *_ = np.linalg.lstsq(xa * s, corpus.labels[:, k] * s.ravel(), rcond=None)
        assert np.abs(head.weights[k] - beta[:-1]).max() < 1e-9
        assert abs(head.biases[k] - beta[-1]) < 1e-9


def test_weight_column_scaling_is_neutral_without_ridge():
    rng = np.random.default_rng(1)
    corpus = tiny_corpus()
    weights = rng.uniform(0.5, 1.5, size=(120, 2))
    scaled = weights.copy()
    scaled[:, 1] *= 3.7
    a = fit_closed_form(corpus, weights, config=TrainConfig(ridge_alpha=0.0))
    b = fit_closed_form(corpus, scaled, config=TrainConfig(ridge_alpha=0.0))
    assert np.abs(a.weights - b.weights).max() < 1e-9


def test_lambdas_do_not_move_the_per_dimension_optimum():
    corpus = tiny_corpus()
    a = fit_closed_form(corpus, config=TrainConfig(ridge_alpha=0.05))
    b = fit_closed_form(corpus, config=TrainConfig(ridge_alpha=0.05, lambdas=(4.0, 0.25)))
    assert np.array_equal(a.weights, b.weights)


def test_rank_deficiency_raises_numerical_error():
    rng = np.random.default_rng(2)
    corpus = Dataset(["a", "b", "c"], rng.normal(size=(3, 4)), rng.normal(size=(3, 2)), ["d0", "d1"])
    with pytest.raises(NumericalError):
        fit_closed_form(corpus, config=TrainConfig(ridge_alpha=0.0))
    # ridge regularisation restores solvability
    fit_closed_form(corpus, config=TrainConfig(ridge_alpha=1e-3))


def test_negative_weights_are_rejected():
    corpus = tiny_corpus()
    weights = np.ones((120, 2))
    weights[0, 0] = -1.0
    with pytest.raises(ValueError):
        fit_closed_form(corpus, weights)


def _reference_closed_form(x, y, w, alpha):
    """The textbook formulation: augmented [X 1] and one diag(w) system per dimension."""
    n, k = y.shape
    w = np.ones((n, k)) if w is None else w
    xa = np.hstack([x, np.ones((n, 1))])
    reg = np.eye(xa.shape[1])
    reg[-1, -1] = 0.0
    beta = np.column_stack([
        np.linalg.solve(xa.T @ np.diag(w[:, j]) @ xa + alpha * reg, xa.T @ np.diag(w[:, j]) @ y[:, j])
        for j in range(k)
    ])
    return beta[:-1].T, beta[-1]


@st.composite
def _fit_cases(draw):
    d = draw(st.integers(1, 6))
    k = draw(st.integers(1, 4))
    n_zero = draw(st.integers(0, 8))
    # at least twice as many positive-weight rows as unknowns keeps the systems well conditioned
    n = draw(st.integers(2 * (d + 1), 40)) + n_zero
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0, size=d)
    y = rng.normal(size=(n, k)) * 5.0
    weights = None
    if draw(st.booleans()):
        weights = rng.uniform(0.1, 3.0, size=(n, k))
        for j in range(k):
            weights[rng.choice(n, size=n_zero, replace=False), j] = 0.0
    alpha = draw(st.just(0.0) | st.floats(1e-4, 10.0))
    ds = Dataset([f"s{i}" for i in range(n)], x, y, [f"d{j}" for j in range(k)])
    return ds, weights, TrainConfig(ridge_alpha=alpha)


@settings(max_examples=200, deadline=None)
@given(_fit_cases())
def test_closed_form_matches_augmented_reference(case):
    ds, weights, cfg = case
    head = fit_closed_form(ds, weights, cfg)
    want_w, want_b = _reference_closed_form(ds.features, ds.labels, weights, cfg.ridge_alpha)
    scale = max(np.abs(want_w).max(), np.abs(want_b).max(), 1e-300)
    assert np.abs(head.weights - want_w).max() <= 1e-9 * scale
    assert np.abs(head.biases - want_b).max() <= 1e-9 * scale


def test_rank_deficiency_is_caught_in_both_paths():
    rng = np.random.default_rng(5)
    ds = Dataset([f"s{i}" for i in range(10)], rng.normal(size=(10, 4)), rng.normal(size=(10, 3)),
                 ["d0", "d1", "d2"])
    cfg = TrainConfig(ridge_alpha=0.0)
    fit_closed_form(ds, None, cfg)  # 10 rows determine 4 features + bias
    with pytest.raises(NumericalError, match="all dimensions"):
        fit_closed_form(ds.select(range(4)), None, cfg)
    # only dimension 1 keeps fewer positive-weight rows than unknowns
    weights = rng.uniform(0.5, 2.0, size=(10, 3))
    weights[4:, 1] = 0.0
    with pytest.raises(NumericalError, match="dimension 1"):
        fit_closed_form(ds, weights, cfg)


@pytest.mark.parametrize("weighted, bound", [(False, 0.25), (True, 1.5)])
def test_closed_form_peak_memory(weighted, bound):
    # an unweighted fit allocates nothing of size N; a weighted one holds one
    # N x d temporary at a time, never an [X 1] or per-dimension design copy
    rng = np.random.default_rng(0)
    n, d, k = 50_000, 16, 5
    ds = Dataset([f"s{i}" for i in range(n)], rng.normal(size=(n, d)), rng.normal(size=(n, k)),
                 [f"d{j}" for j in range(k)])
    weights = rng.uniform(0.0, 2.0, size=(n, k)) if weighted else None
    tracemalloc.start()
    try:
        fit_closed_form(ds, weights, TrainConfig(ridge_alpha=1e-6))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound * ds.features.nbytes


# ------------------------------------------------------- row chunks

# a small chunk size puts every chunk boundary in a small test
_CHUNK = 64


def _stream_and_matrix(n_rows, n_samples, seed):
    """n_rows seeded rows of a synthetic corpus, read from its sample stream and loaded as a matrix.

    The matrix comes from a table of user data, which keeps the features a
    sample-stream table leaves out.
    """
    cfg = SynthConfig(n_samples, 6, 3, label_noise_sd=0.1, teacher_seed=seed, sample_seed=seed + 1)
    labels, manifest = draw_synthetic(cfg)
    rows = np.sort(np.random.default_rng(seed).choice(n_samples, n_rows, replace=False))
    stream = synthetic_rows(cfg, rows, labels[rows], np.zeros((n_rows, 3), bool), manifest)
    return stream, loads_dataset(dumps_dataset(matrix_copy(stream)))


def _same_systems(got, want):
    assert len(got) == len(want)
    for system, system_want in zip(got, want):
        assert [a.tobytes() for a in system] == [a.tobytes() for a in system_want]


@pytest.mark.parametrize(
    "m",
    [1, _CHUNK - 1, _CHUNK, 2 * _CHUNK - 1, 2 * _CHUNK, 3 * _CHUNK + 5],
    ids=["1", "C-1", "C", "2C-1", "2C", "3C+5"],
)
def test_blocked_normal_equations_of_the_stream_are_the_matrix_ones_bit_for_bit(monkeypatch, m):
    # the unweighted and weighted systems of m rows, and the system of m rows
    # picked from 4C + m, are summed over the same row chunks whether the
    # features come from the sample stream or from a loaded feature matrix
    monkeypatch.setattr(dimsift.data, "CHUNK_ROWS", _CHUNK)
    stream, matrix = _stream_and_matrix(m, 5 * m + 20, m)
    w = np.random.default_rng(m).uniform(0.0, 2.0, size=(m, 3))
    for weights in (None, w):
        got = _normal_equations(stream, weights)
        _same_systems(got, _normal_equations(matrix, weights))
    big_stream, big_matrix = _stream_and_matrix(4 * _CHUNK + m, 5 * _CHUNK + 5 * m, m + 1)
    rows = np.sort(np.random.default_rng(m).choice(len(big_stream), m, replace=False))
    got = _normal_equations(big_stream, None, rows)
    _same_systems(got, _normal_equations(big_matrix, None, rows))
    # the picked rows' system is the system of a dataset of those rows
    _same_systems(got, _normal_equations(big_matrix.select(rows), None))
    # so are the heads
    cfg = TrainConfig(ridge_alpha=1e-6)
    for a, b, args in ((stream, matrix, (None, cfg)), (stream, matrix, (w, cfg)),
                       (big_stream, big_matrix, (None, cfg, rows))):
        assert fit_closed_form(a, *args).to_dict() == fit_closed_form(b, *args).to_dict()


@pytest.mark.parametrize("m", [_CHUNK, 2 * _CHUNK - 1], ids=["C", "2C-1"])
def test_one_block_gives_the_one_shot_normal_equations_bit_for_bit(monkeypatch, m):
    # chunks of C to 2C - 1 rows: a dataset of one chunk sums nothing
    monkeypatch.setattr(dimsift.data, "CHUNK_ROWS", _CHUNK)
    _, ds = _stream_and_matrix(m, 3 * m, m)
    x, y = ds.features, ds.labels
    w = np.random.default_rng(m).uniform(0.0, 2.0, size=(m, 3))

    def same(got, want):
        assert got.tobytes() == np.asarray(want, dtype=np.float64).tobytes()

    # [x 1]'[x 1] and [x 1]'y, their bias row and column from sums over the
    # rows, and y'y per dimension
    [(a, b, yy)] = _normal_equations(ds, None)
    same(a[:-1, :-1], x.T @ x)
    same(a[:-1, -1], x.sum(axis=0))
    same(a[-1], np.append(x.sum(axis=0), m))
    same(b, np.vstack([x.T @ y, y.sum(axis=0)]))
    same(yy, np.einsum("ij,ij->j", y, y))
    # every dimension's right-hand side from one product, x'(w * y), and the
    # column sums of w * y; only the Grams are per dimension
    rhs = np.vstack([x.T @ (w * y), (w * y).sum(axis=0)])
    wyy = np.einsum("ij,ij->j", w * y, y)
    for j, (a, b, yy) in enumerate(_normal_equations(ds, w)):
        wj = w[:, j]
        xw = x * wj[:, None]
        same(a[:-1, :-1], x.T @ xw)
        same(a[:-1, -1], xw.sum(axis=0))
        same(a[-1], np.append(xw.sum(axis=0), wj.sum()))
        same(b, rhs[:, j : j + 1])
        same(yy, wyy[j : j + 1])


def test_residuals_of_the_stream_are_the_matrix_ones_bit_for_bit(monkeypatch):
    monkeypatch.setattr(dimsift.data, "CHUNK_ROWS", _CHUNK)
    stream, matrix = _stream_and_matrix(3 * _CHUNK + 5, 400, 0)
    head = random_head(np.random.default_rng(0), 3, 6)
    got = residuals(head, stream)
    assert got.tobytes() == residuals(head, matrix).tobytes()
    assert got.tobytes() == (head.predict_batch(matrix.features) - matrix.labels).tobytes()
    assert per_dim_loss(head, stream).tobytes() == (0.5 * got * got).tobytes()


# ------------------------------------------------------- kept rows

def fit_arrays(x, y, weights=None, config=None, rows=None):
    """fit_closed_form of a Dataset holding features x and labels y."""
    ds = Dataset([f"s{i}" for i in range(len(x))], x, y, [f"d{j}" for j in range(y.shape[1])])
    return fit_closed_form(ds, weights, config, rows)


def _same_fit_as_the_kept_rows(x, y, rows, cfg):
    """The fit of rows of (x, y) is, bit for bit, the fit of a dataset of those rows alone."""
    ds = Dataset([f"s{i}" for i in range(len(x))], x, y, [f"d{j}" for j in range(y.shape[1])])
    got = fit_closed_form(ds, None, cfg, rows)
    assert got.to_dict() == fit_closed_form(ds.select(rows), None, cfg).to_dict()


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 8),
    k=st.integers(1, 4),
    spare=st.integers(0, 200),
    drop_frac=st.floats(0.0, 0.5),
)
@pytest.mark.parametrize("alpha", [0.0, 1e-6, 10.0])
def test_dropped_rows_fit_is_the_kept_rows_fit(alpha, seed, d, k, spare, drop_frac):
    rng = np.random.default_rng(seed)
    n = 3 * (d + 1) + spare
    x = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0, size=d)
    y = rng.normal(size=(n, k)) * 5.0
    # a random drop set that keeps at least 3 rows per unknown
    n_drop = min(int(drop_frac * n), n - 3 * (d + 1))
    rows = np.setdiff1d(np.arange(n), rng.choice(n, size=n_drop, replace=False))
    # 16-row chunks: up to 14 chunks of kept rows
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dimsift.data, "CHUNK_ROWS", 16)
        _same_fit_as_the_kept_rows(x, y, rows, TrainConfig(ridge_alpha=alpha))


@pytest.mark.parametrize("case, seed, alpha", [
    ("cancelling", 0, 0.0), ("cancelling", 0, 1e-6), ("cancelling", 0, 10.0),
    ("dominant", 0, 1e-6), ("dominant", 1, 1e-6), ("dominant", 2, 1e-6),
])
def test_the_kept_rows_fit_where_a_downdate_cost_digits(monkeypatch, case, seed, alpha):
    # inputs on which subtracting the dropped rows' normal equations from
    # all rows' missed the kept rows' fit
    monkeypatch.setattr(dimsift.data, "CHUNK_ROWS", _CHUNK)
    rng = np.random.default_rng(seed)
    if case == "cancelling":
        # the kept rows' labels are 1e-4 of the dropped rows', so their fit
        # is small next to the data: 4.5e-12 normwise off
        x = rng.normal(size=(109, 1)) * rng.uniform(0.1, 10.0, size=1)
        y = rng.normal(size=(109, 1)) * 5.0
        rows = np.setdiff1d(np.arange(109), rng.choice(109, size=39, replace=False))
        y[rows] *= 1e-4
    else:
        # 20 dropped rows whose features and labels are 1e3 times the
        # others': ~1.5e-10 normwise off
        x, y = rng.normal(size=(2000, 16)), rng.normal(size=(2000, 5))
        drop = rng.choice(2000, size=20, replace=False)
        x[drop] *= 1e3
        y[drop] *= 1e3
        rows = np.setdiff1d(np.arange(2000), drop)
    _same_fit_as_the_kept_rows(x, y, rows, TrainConfig(ridge_alpha=alpha))


def test_every_position_is_the_fit_of_every_row_bit_for_bit(monkeypatch):
    monkeypatch.setattr(dimsift.data, "CHUNK_ROWS", _CHUNK)
    stream, matrix = _stream_and_matrix(7 * _CHUNK + 5, 600, 3)
    cfg = TrainConfig(ridge_alpha=1e-6)
    for ds in (stream, matrix):
        got = fit_closed_form(ds, None, cfg, np.arange(len(ds)))
        assert got.to_dict() == fit_closed_form(ds, None, cfg).to_dict()


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 8),
    n=st.integers(10, 400),
    left=st.integers(0, 8),
)
def test_a_drop_leaving_fewer_rows_than_unknowns_raises_at_alpha_zero(seed, d, n, left):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d)) * rng.uniform(0.1, 100.0, size=d)
    y = rng.normal(size=(n, 2))
    left = min(left, d)
    rows = np.sort(rng.choice(n, size=left, replace=False))
    with pytest.raises(NumericalError, match="all dimensions"):
        fit_arrays(x, y, None, TrainConfig(ridge_alpha=0.0), rows)


def test_row_positions_and_sample_weights_do_not_combine():
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(20, 3)), rng.normal(size=(20, 2))
    with pytest.raises(ValueError, match="sample weights"):
        fit_arrays(x, y, np.ones((20, 2)), None, np.array([0, 1]))


# -------------------------------------------------------- gradient descent

def test_gd_equal_converges_to_closed_form():
    corpus = tiny_corpus()
    cf = fit_closed_form(corpus, config=TrainConfig(ridge_alpha=0.0))
    gd = fit_gd(corpus, None, TrainConfig(lr=0.3, epochs=4000))
    assert np.abs(gd.weights - cf.weights).max() < 1e-8
    assert np.abs(gd.biases - cf.biases).max() < 1e-8


def test_gd_records_decreasing_loss():
    corpus = tiny_corpus()
    head = fit_gd(corpus, None, TrainConfig(lr=0.1, epochs=50))
    hist = head.fit_info["loss_history"]
    assert len(hist) == 50
    assert hist[-1] < hist[0]
    assert np.all(np.isfinite(hist))


def test_gd_two_layer_trains_and_reports_scope():
    corpus = tiny_corpus(n=200, d=5, k=3, teacher_seed=1, sample_seed=2)
    cfg = TrainConfig(lr=0.05, epochs=300, hidden_dim=4, seed=3)
    head = fit_gd(corpus, None, cfg)
    assert head.weights.shape == (3, 4)
    assert head.shared_weight.shape == (4, 5)
    assert head.fit_info["loss_history"][-1] < head.fit_info["loss_history"][0]


def test_gd_divergence_raises_and_names_the_epoch():
    corpus = tiny_corpus()
    with pytest.raises(NumericalError, match="epoch"):
        fit_gd(corpus, None, TrainConfig(lr=1e6, epochs=100))


@pytest.mark.parametrize("hidden_dim", [None, 3])
def test_gd_without_weights_is_the_unit_weighted_fit_bit_for_bit(hidden_dim):
    # all-one weights take the unweighted fit's one shared system, as the
    # closed form does
    corpus = tiny_corpus(n=200, d=5, k=3, teacher_seed=1, sample_seed=2)
    cfg = TrainConfig(lr=0.05, epochs=50, hidden_dim=hidden_dim, lambdas=(1.5, 0.5, 2.0))
    a = fit_gd(corpus, None, cfg)
    b = fit_gd(corpus, np.ones((200, 3)), cfg)
    assert a.to_dict() == b.to_dict()


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("hidden_dim", [None, 3], ids=["head-only", "shared-layer"])
def test_gd_of_row_positions_is_the_fit_of_those_rows_bit_for_bit(monkeypatch, hidden_dim, weighted):
    # the moments of the rows are summed over the chunks of those rows, read
    # from the sample stream or gathered from a loaded matrix alike; weights
    # give every dimension its own system, and do not combine with rows
    monkeypatch.setattr(dimsift.data, "CHUNK_ROWS", _CHUNK)
    stream, matrix = _stream_and_matrix(5 * _CHUNK + 7, 900, 2)
    rng = np.random.default_rng(2)
    rows = np.sort(rng.choice(len(stream), 3 * _CHUNK + 5, replace=False))
    cfg = TrainConfig(epochs=30, hidden_dim=hidden_dim, lambdas=(1.5, 0.5, 2.0))
    weights = rng.uniform(0.0, 2.0, size=(len(rows), 3)) if weighted else None
    want = fit_gd(matrix.select(rows), weights, cfg).to_dict()
    assert fit_gd(stream.select(rows), weights, cfg).to_dict() == want
    if not weighted:
        for ds in (stream, matrix):
            assert fit_gd(ds, None, cfg, rows).to_dict() == want
    with pytest.raises(ValueError, match="sample weights"):
        fit_gd(stream, np.ones((len(stream), 3)), cfg, rows)


def test_a_gd_fit_reads_the_sample_stream_once(monkeypatch):
    # the epochs work on the moments, so the features are read once
    reads = []
    sample = dimsift.data.sample_features

    def counting(*args, **kwargs):
        reads.append(args[1])
        return sample(*args, **kwargs)

    monkeypatch.setattr(dimsift.data, "sample_features", counting)
    corpus = tiny_corpus(n=3000, d=4, k=2)
    weights = np.random.default_rng(0).uniform(0.0, 2.0, size=(3000, 2))
    for epochs in (1, 40):
        for w, rows in ((None, None), (weights, None), (None, np.arange(0, 3000, 3))):
            reads.clear()
            fit_gd(corpus, w, TrainConfig(epochs=epochs, hidden_dim=3), rows)
            assert len(reads) == 1


@pytest.mark.parametrize(
    "hidden_dim, weighted",
    [
        pytest.param(None, False, id="head-only"),
        pytest.param(16, False, id="shared-layer"),
        pytest.param(None, True, id="head-only-weighted"),
        pytest.param(16, True, id="shared-layer-weighted"),
    ],
)
def test_gd_peak_memory(hidden_dim, weighted):
    # a fit reads its rows once, a chunk at a time, into the moments: one
    # piece of the sample stream, one chunk of features and, weighted, that
    # chunk's w * y and x * w_k; its epochs hold (d+1) x (d+1) moments. So
    # the peak grows with N only as the largest chunk does: 1760 rows at
    # 12k, 1920 at 48k. Measured: 0.37 and 0.40 MB (0.57 and 0.60
    # weighted). Gathering the rows' features and fitting them by epochs
    # over the row chunks measured 1.75 and 6.37 MB (2.23 and 8.29 weighted)
    peaks, rows = [], []
    for n in (12_000, 48_000):
        corpus = tiny_corpus(n=n, d=16, k=5)
        weights = np.random.default_rng(0).uniform(0.0, 2.0, size=(n, 5)) if weighted else None
        cfg = TrainConfig(epochs=20, hidden_dim=hidden_dim)
        peaks.append(peak_traced_bytes(fit_gd, corpus, weights, cfg))
        rows.append(max(stop - start for start, stop in dimsift.data._row_chunks(n)))
    chunk = rows[1] * (16 + 5) * 8
    assert max(peaks) <= 2 * chunk
    assert peaks[1] <= peaks[0] * rows[1] / rows[0]


def _one_shot_objective(x, y, weights, lam, s, hw, hb):
    """The loss and the gradients in (S, W_head, b_head) from one expression over every row.

    Also returns the cancellation term sum_k c_k (|Theta_k' A_k Theta_k| +
    2 |Theta_k' B_k| + yy_k) of the moment form, each sum taken over the rows.
    """
    n, d = x.shape
    w = np.ones(y.shape) if weights is None else weights
    coef = lam / n
    u = x if s is None else x @ s[:, :d].T + s[:, d]
    pred = u @ hw.T + hb
    r = pred - y
    cr = coef * w * r
    loss = float(0.5 * np.sum(r * cr, axis=0).sum())
    g_s = None if s is None else hw.T @ np.hstack([cr.T @ x, cr.sum(axis=0)[:, None]])
    # pred_k = Theta_k . [x; 1], so Theta_k' A_k Theta_k = sum_i w_ik pred_ik^2
    quad, lin, yy = (np.sum(w * a * b, axis=0) for a, b in ((pred, pred), (pred, y), (y, y)))
    cancel = float(np.sum(coef * (np.abs(quad) + 2.0 * np.abs(lin) + yy)))
    return loss, (g_s, cr.T @ u, cr.sum(axis=0)), cancel


def _random_params(rng, d, k, hidden_dim):
    """S (None head-only), W_head and b_head away from the optimum."""
    s = None if hidden_dim is None else 0.1 * rng.standard_normal((hidden_dim, d + 1))
    p = d if hidden_dim is None else hidden_dim
    return s, 0.05 * rng.standard_normal((k, p)), 0.05 * rng.standard_normal(k)


def _flat(arrays):
    """The entries of the arrays that are not None, in one vector."""
    return np.concatenate([a.ravel() for a in arrays if a is not None])


@pytest.mark.parametrize(
    "n",
    [1, _CHUNK - 1, _CHUNK, 2 * _CHUNK - 1, 2 * _CHUNK, 3 * _CHUNK + 5],
    ids=["1", "C-1", "C", "2C-1", "2C", "3C+5"],
)
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("hidden_dim", [None, 3], ids=["head-only", "shared-layer"])
def test_the_moment_objective_is_the_one_shot_objective(monkeypatch, n, weighted, hidden_dim):
    # the moments are summed over chunks of C to 2C - 1 rows. The loss from
    # them, 0.5 sum_k c_k (Theta_k' A_k Theta_k - 2 Theta_k' B_k + yy_k),
    # cancels to the residuals' weighted sum of squares: each of its sums
    # over n rows and 2 (d + 1) coefficients rounds by at most its length
    # times eps of its magnitude, so the loss lies within (n + 2 (d + 1))
    # eps of the cancellation term of the per-row loss. The gradient, far
    # from the optimum, agrees to 1e-12 of its largest entry, and both agree
    # with finite differences
    monkeypatch.setattr(dimsift.data, "CHUNK_ROWS", _CHUNK)
    rng = np.random.default_rng(n)
    d = 4
    x, y = rng.normal(size=(n, d)), rng.normal(size=(n, 2)) + 3.0
    weights = rng.uniform(0.2, 1.8, size=(n, 2)) if weighted else None
    lam = np.array([1.3, 0.6])
    ds = Dataset([f"s{i}" for i in range(n)], x, y, ["d0", "d1"])
    moments = _gd_moments(ds, weights, lam)
    params = _random_params(rng, d, 2, hidden_dim)
    loss, *grads = _gd_loss_and_grads(moments, *params)
    want_loss, want_grads, cancel = _one_shot_objective(x, y, weights, lam, *params)
    grad, want_grad = _flat(grads), _flat(want_grads)
    eps = np.finfo(np.float64).eps
    assert abs(loss - want_loss) <= (n + 2 * (d + 1)) * eps * cancel
    assert np.abs(grad - want_grad).max() <= 1e-12 * np.abs(want_grad).max()
    rel = np.abs(_fd_grad(moments, params) - grad) / np.maximum(np.abs(grad), 1.0)
    assert rel.max() < 1e-6


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two cores for two BLAS threads")
def test_a_weighted_fit_does_not_depend_on_the_blas_thread_count():
    # the right-hand side of one label column went to gemv, and OpenBLAS's
    # gemv gave the weighted heads different bytes at one and two threads
    src = str(Path(dimsift.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import numpy as np; "
        "from dimsift import Dataset, fit_closed_form; "
        "rng = np.random.default_rng(0); n, d, k = 20000, 16, 5; "
        "ds = Dataset([str(i) for i in range(n)], rng.normal(size=(n, d)), "
        "rng.normal(size=(n, k)), [str(j) for j in range(k)]); "
        "head = fit_closed_form(ds, rng.uniform(0.0, 2.0, size=(n, k))); "
        "sys.stdout.buffer.write(head.weights.tobytes() + head.biases.tobytes())"
    )
    heads = _at_one_and_two_threads(code)
    assert len(heads[0]) == (5 * 16 + 5) * 8
    assert heads[0] == heads[1]


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two cores for two BLAS threads")
def test_a_shared_layer_gd_fit_does_not_depend_on_the_blas_thread_count():
    # unweighted and weighted, from the moments of 20k rows of the stream
    src = str(Path(dimsift.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import numpy as np; "
        "from dimsift import SynthConfig, TrainConfig, fit_gd, generate_synthetic; "
        "ds = generate_synthetic(SynthConfig(20000, 16, 5, label_noise_sd=0.1, sample_seed=1)); "
        "w = np.random.default_rng(0).uniform(0.0, 2.0, size=(20000, 5)); "
        "heads = [fit_gd(ds, weights, TrainConfig(hidden_dim=16)) for weights in (None, w)]; "
        "sys.stdout.buffer.write(b''.join(a.tobytes() for h in heads "
        "for a in (h.weights, h.biases, h.shared_weight, h.shared_bias)))"
    )
    heads = _at_one_and_two_threads(code)
    assert len(heads[0]) == 2 * (5 * 16 + 5 + 16 * 16 + 16) * 8
    assert heads[0] == heads[1]


def _at_one_and_two_threads(code: str) -> list[bytes]:
    """The standard output of a Python process running code at one and at two BLAS threads."""
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True)
        out.append(run.stdout)
    return out


def _fd_grad(moments, params, h=1e-6):
    """Central differences of the loss over every entry of each array of params, flattened."""
    grad = []
    for i, p in enumerate(params):
        if p is None:
            continue
        for idx in np.ndindex(p.shape):
            losses = []
            for step in (h, -h):
                moved = [a if a is None else a.copy() for a in params]
                moved[i][idx] += step
                losses.append(_gd_loss_and_grads(moments, *moved)[0])
            grad.append((losses[0] - losses[1]) / (2 * h))
    return np.array(grad)


@pytest.mark.parametrize("hidden_dim", [None, 3])
def test_objective_gradients_match_finite_differences(hidden_dim):
    rng = np.random.default_rng(6)
    corpus = tiny_corpus(n=40, d=4, k=2, sd=0.2, teacher_seed=5, sample_seed=6)
    weights = rng.uniform(0.2, 1.8, size=(40, 2))
    moments = _gd_moments(corpus, weights, np.array([1.3, 0.6]))
    params = _random_params(rng, 4, 2, hidden_dim)
    analytic = _flat(_gd_loss_and_grads(moments, *params)[1:])
    fd = _fd_grad(moments, params)
    rel = np.abs(fd - analytic) / np.maximum(np.abs(analytic), 1.0)
    assert rel.max() < 1e-6


# ------------------------------------------------------- predict and io

def test_predict_composes_shared_layer_and_head():
    head = RegressionHead(
        weights=np.array([[1.0, 2.0]]),
        biases=np.array([3.0]),
        shared_weight=np.eye(2),
        shared_bias=np.array([1.0, -1.0]),
    )
    # h = x + (1, -1) = (1.5, -0.75); y = 1.5 - 1.5 + 3
    assert head.predict(np.array([0.5, 0.25]))[0] == pytest.approx(3.0, abs=1e-12)


def test_per_dim_loss_is_half_squared_residual():
    corpus = tiny_corpus()
    head = fit_closed_form(corpus, config=TrainConfig(ridge_alpha=0.1))
    losses = per_dim_loss(head, corpus)
    res = residuals(head, corpus)
    assert losses.shape == (len(corpus), corpus.n_dims)
    assert np.abs(losses - 0.5 * res**2).max() < 1e-15


def test_residuals_reject_mismatched_data():
    head = RegressionHead(weights=np.ones((1, 2)), biases=np.zeros(1))
    corpus = tiny_corpus(d=3, k=1)
    with pytest.raises(DataError, match="features"):
        residuals(head, corpus)


@pytest.mark.parametrize("hidden_dim", [None, 4])
def test_head_serialisation_round_trip(tmp_path, hidden_dim):
    rng = np.random.default_rng(8)
    head = random_head(rng, 3, 5, hidden_dim)
    path = tmp_path / "head.json"
    head.save(path)
    back = RegressionHead.load(path)
    assert np.array_equal(back.weights, head.weights)
    assert np.array_equal(back.biases, head.biases)
    if hidden_dim is None:
        assert back.shared_weight is None
    else:
        assert np.array_equal(back.shared_weight, head.shared_weight)
        assert np.array_equal(back.shared_bias, head.shared_bias)


def test_head_load_rejects_garbage(tmp_path):
    path = tmp_path / "head.json"
    path.write_text("{\"weights\": [[1.0]]}")
    with pytest.raises(DataError):
        RegressionHead.load(path)


def test_config_validation():
    for width in (0, -1):
        with pytest.raises(ValueError, match="hidden_dim"):
            TrainConfig(hidden_dim=width)
    with pytest.raises(ValueError, match="nonnegative"):
        TrainConfig(ridge_alpha=-1.0)
    with pytest.raises(ValueError, match="positive"):
        TrainConfig(lambdas=(1.0, -1.0)).resolved_lambdas(2)
    # NaN fails every comparison, so each check must be written to refuse it
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="ridge_alpha: must be nonnegative and finite"):
            TrainConfig(ridge_alpha=bad)
        with pytest.raises(ValueError, match="lr: must be positive and finite"):
            TrainConfig(lr=bad)
    with pytest.raises(ValueError, match="entries"):
        TrainConfig(lambdas=(1.0,)).resolved_lambdas(2)
    with pytest.raises(ValueError, match="hidden width"):
        RegressionHead(
            weights=np.ones((2, 3)),
            biases=np.ones(2),
            shared_weight=np.ones((4, 5)),
            shared_bias=np.ones(4),
        )

"""Union pruning, smooth reweighting, and the pruning baselines."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dimsift import (
    DataError,
    PruneResult,
    Scope,
    WeightMatrix,
    ddp_select,
    ddr_weights,
    global_prune_select,
    loss_prune_select,
    overlap_curve,
)
from conftest import peak_traced_bytes
from dimsift.data import JSON_PIECE_ITEMS, RowIds, ceil_count, take_ids, top_sets
from dimsift.influence import SelfInfluenceTable
from dimsift.refine import EPSILON


def make_table(scores, ids=None):
    scores = np.asarray(scores, dtype=float)
    n, k = scores.shape
    ids = ids or [f"s{i:03d}" for i in range(n)]
    return SelfInfluenceTable(scores, ids, [f"dim{j}" for j in range(k)], Scope.HEAD_ONLY, np.ones(k))


# --------------------------------------------------------------- selection

def test_top_scorer_stable_tie_break():
    # equal scores resolve to the smallest index, deterministically
    col = np.ones(10)
    assert top_sets(col, 0.3).tolist() == [[0, 1, 2]]
    col2 = np.array([1.0, 5.0, 5.0, 0.0, 5.0])
    assert top_sets(col2, 0.4).tolist() == [[1, 2]]


@settings(max_examples=200, deadline=None)
@given(
    values=st.tuples(st.integers(1, 60), st.integers(1, 4)).flatmap(
        lambda shape: hnp.arrays(
            np.float64,
            shape,
            # few distinct integer values: most columns are full of ties
            elements=st.integers(-3, 3).map(float) | st.floats(-1e3, 1e3),
        )
    ),
    rho=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    one_dim=st.booleans(),
)
def test_top_sets_match_a_sorted_reference(values, rho, one_dim):
    if one_dim:
        values = values[:, 0]
    cols = values.reshape(values.shape[0], -1)
    m = ceil_count(rho, cols.shape[0])
    got = top_sets(values, rho)
    assert got.shape == (cols.shape[1], m)
    for j, col in enumerate(cols.T):
        ref = sorted(range(len(col)), key=lambda i: (-col[i], i))[:m]
        assert got[j].tolist() == ref


@settings(max_examples=200, deadline=None)
@given(
    values=st.tuples(st.integers(1, 300), st.integers(1, 3)).flatmap(
        lambda shape: hnp.arrays(
            np.float64,
            shape,
            # ties, signed zeros, infinities and NaN, which argsort puts last
            elements=st.sampled_from([-1.0, -0.0, 0.0, 2.0, np.inf, -np.inf, np.nan])
            | st.floats(-1e3, 1e3),
        )
    ),
    constant=st.sampled_from([0.0, 7.5, np.nan]),
    rho=st.sampled_from([0.0, 1.0, 0.01]) | st.floats(0.0, 1.0),
    one_dim=st.booleans(),
)
def test_top_sets_are_the_stable_argsort_prefix(values, constant, rho, one_dim):
    # the partition route selects exactly argsort(-col, kind="stable")[:m],
    # next to an all-equal column, for a 1-D vector too
    values = np.hstack([values, np.full((len(values), 1), constant)])
    if one_dim:
        values = values[:, 0]
    cols = values.reshape(values.shape[0], -1)
    m = ceil_count(rho, cols.shape[0])
    got = top_sets(values, rho)
    assert got.shape == (cols.shape[1], m) and not got.flags.writeable
    for j, col in enumerate(cols.T):
        assert got[j].tolist() == np.argsort(-col, kind="stable")[:m].tolist()


def test_prune_zero_rho_keeps_everything():
    table = make_table(np.random.default_rng(0).uniform(size=(20, 3)))
    result = ddp_select(table, 0.0)
    assert result.removed_ids == []
    assert result.kept_ids == table.sample_ids
    assert result.thresholds == []


def test_prune_disjoint_top_sets_remove_union():
    # each dimension flags its own block: the union has K * m members
    scores = np.zeros((30, 3))
    scores[0:3, 0] = [9, 8, 7]
    scores[10:13, 1] = [9, 8, 7]
    scores[20:23, 2] = [9, 8, 7]
    table = make_table(scores)
    result = ddp_select(table, 0.1)  # m = 3 per dimension
    assert sorted(result.removed_ids) == sorted(
        table.sample_ids[i] for i in [0, 1, 2, 10, 11, 12, 20, 21, 22]
    )
    assert result.thresholds == [7.0, 7.0, 7.0]


def test_prune_identical_columns_remove_single_set():
    col = np.arange(30, dtype=float)[:, None]
    table = make_table(np.repeat(col, 4, axis=1))
    result = ddp_select(table, 0.1)
    assert len(result.removed_ids) == 3
    assert set(result.removed_ids) == {"s029", "s028", "s027"}


def test_prune_risk_sets_are_rank_ordered_and_thresholded():
    scores = np.array([[0.5], [3.0], [1.0], [2.0]])
    table = make_table(scores)
    result = ddp_select(table, 0.5)  # m = 2
    assert result.per_dim_risk_sets == [["s001", "s003"]]
    assert result.thresholds == [2.0]
    assert result.kept_ids == ["s000", "s002"]  # corpus order, not score order


@st.composite
def score_tables(draw):
    """Random self-influence matrices with ties and all-zero columns.

    The entries come from a drawn numpy seed, far faster than drawing each
    entry through hypothesis.
    """
    n, k = draw(st.integers(1, 300)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # 1, 2 or 4 distinct integer values make most columns full of ties
    kind = draw(st.sampled_from(["uniform", "lognormal", 1, 2, 4]))
    if kind == "uniform":
        scores = rng.uniform(0.0, 1e3, size=(n, k))
    elif kind == "lognormal":
        scores = rng.lognormal(size=(n, k))
    else:
        scores = rng.integers(0, kind, size=(n, k)).astype(float)
    scores[:, draw(st.lists(st.booleans(), min_size=k, max_size=k))] = 0.0
    return scores


# every budget a rho grid over [0, 1] reaches, its ends included
budgets = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
# temperatures down to 1/256
temperatures = st.sampled_from([1 / 256, 1 / 16, 1.0]) | st.floats(1 / 256, 5.0)


@settings(max_examples=200, deadline=None)
@given(scores=score_tables(), rho=budgets)
def test_prune_budget_bounds_hold_on_random_tables(scores, rho):
    table = make_table(scores)
    n, k = scores.shape
    result = ddp_select(table, rho)
    m = ceil_count(rho, n)
    assert m <= len(result.removed_ids) <= min(n, k * m)
    assert sorted(result.kept_ids + result.removed_ids) == sorted(table.sample_ids)
    # kept preserves corpus order
    pos = {sid: i for i, sid in enumerate(table.sample_ids)}
    assert [pos[s] for s in result.kept_ids] == sorted(pos[s] for s in result.kept_ids)


@settings(max_examples=200, deadline=None)
@given(scores=score_tables(), rho=budgets)
def test_overlap_curve_is_nondecreasing_and_ends_at_the_removed_fraction(scores, rho):
    table = make_table(scores)
    n, k = scores.shape
    curve = overlap_curve(table, rho)
    assert curve.dim_order == list(range(k))
    assert np.all(np.diff(curve.cumulative_ratios) >= 0.0)
    assert curve.final() == len(ddp_select(table, rho).removed_ids) / n


def test_prune_rejects_bad_rho():
    table = make_table(np.ones((5, 2)))
    with pytest.raises(ValueError):
        ddp_select(table, -0.1)
    with pytest.raises(ValueError):
        ddp_select(table, 1.1)


@pytest.mark.parametrize("row_ids", [False, True], ids=["str-ids", "row-ids"])
@pytest.mark.parametrize("strategy", ["ddp", "loss_prune", "global_prune"])
def test_kept_ids_are_taken_from_the_ids_outside_the_removed_union(strategy, row_ids):
    # a result holds its ids and the removed mask; its kept and removed ids
    # are those of take_ids, RowIds views for RowIds, lists of str otherwise
    rng = np.random.default_rng(11)
    n, rho = 400, 0.02
    values = np.abs(np.round(rng.normal(size=(n, 3)), 1))  # ties
    ids = RowIds(np.arange(3, 3 * n + 3, 3), 5) if row_ids else [f"s{i:03d}" for i in range(n)]
    if strategy == "ddp":
        result, top = ddp_select(make_table(values, ids), rho), top_sets(values, rho)
    elif strategy == "loss_prune":
        result, top = loss_prune_select(values, ids, rho), top_sets(values, rho)
    else:
        result, top = global_prune_select(values[:, 0], ids, rho), top_sets(values[:, 0], rho)
    removed = np.isin(np.arange(n), top)
    assert result.sample_ids is ids and np.array_equal(result.removed, removed)
    kept, dropped = take_ids(ids, ~removed), take_ids(ids, removed)
    assert result.kept_ids == kept and result.removed_ids == dropped
    assert type(result.kept_ids) is type(kept) is type(result.removed_ids)
    if row_ids:
        assert np.array_equal(result.kept_ids.rows, kept.rows)
        assert np.array_equal(result.removed_ids.rows, ids.rows[removed])


def test_prune_result_round_trip(tmp_path):
    table = make_table(np.random.default_rng(2).uniform(size=(40, 3)))
    result = ddp_select(table, 0.1)
    path = tmp_path / "prune.json"
    result.save(path)
    back = PruneResult.load(path)
    assert back.kept_ids == result.kept_ids
    assert back.removed_ids == result.removed_ids
    assert back.per_dim_risk_sets == result.per_dim_risk_sets
    assert back.thresholds == result.thresholds
    assert back.rho == result.rho


def test_prune_result_load_refuses_an_id_both_kept_and_removed(tmp_path):
    doc = ddp_select(make_table(np.eye(4)), 0.25).to_dict()
    doc["kept_ids"] = doc["kept_ids"] + doc["removed_ids"][:1]
    path = tmp_path / "prune.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=f"removed_ids: sample id {doc['removed_ids'][0]!r} is also kept"):
        PruneResult.load(path)


def test_removal_csv_lists_flagging_dimensions(tmp_path):
    scores = np.zeros((10, 2))
    scores[4, 0] = 5.0  # flagged by dim0 only
    scores[4, 1] = 5.0  # and by dim1: both named
    scores[7, 1] = 4.0
    scores[2, 0] = 4.0
    table = make_table(scores)
    result = ddp_select(table, 0.2)  # m = 2
    path = tmp_path / "removed.csv"
    result.removal_csv(path, table.dim_names)
    lines = path.read_text().splitlines()
    assert lines[0] == "id,removed_by_dims"
    rows = dict(line.split(",", 1) for line in lines[1:])
    assert rows["s004"] == "dim0|dim1"
    assert rows["s002"] == "dim0"
    assert rows["s007"] == "dim1"


# --------------------------------------------------------------- baselines

def test_loss_prune_ranks_by_loss_not_influence():
    # a well-fit high-leverage sample has large self-influence but small
    # loss; the loss baseline must order these two the other way round
    scores = np.array([[101.0], [8.0]])  # r=1 at |h|=10 vs r=2 at |h|=1
    losses = np.array([[0.5], [2.0]])
    ddp = ddp_select(make_table(scores, ids=["big_h", "big_r"]), 0.5)
    lp = loss_prune_select(losses, ["big_h", "big_r"], 0.5)
    assert ddp.removed_ids == ["big_h"]
    assert lp.removed_ids == ["big_r"]


def test_global_prune_budget_and_order():
    scores = np.array([3.0, 9.0, 1.0, 7.0, 5.0])
    ids = [f"s{i}" for i in range(5)]
    result = global_prune_select(scores, ids, 0.4)
    assert result.removed_ids == ["s1", "s3"]
    assert result.kept_ids == ["s0", "s2", "s4"]
    assert global_prune_select(scores, ids, 0.0).removed_ids == []
    assert global_prune_select(scores, ids, 1.0).kept_ids == []


# ------------------------------------------------------------- reweighting

def test_ddr_weights_hand_case():
    # column (0, 2): z = -/+1, raw = sigmoid(-z), mean raw = 1/2 exactly
    table = make_table(np.array([[0.0], [2.0]]), ids=["lo", "hi"])
    wm = ddr_weights(table)
    expect_hi = 2.0 / (1.0 + np.e)
    assert wm.weights[1, 0] == pytest.approx(expect_hi, abs=1e-6)
    assert wm.weights[0, 0] == pytest.approx(2.0 - expect_hi, abs=1e-6)


@settings(max_examples=200, deadline=None)
@given(scores=score_tables(), temperature=temperatures)
def test_ddr_global_mean_is_one(scores, temperature):
    wm = ddr_weights(make_table(scores), temperature=temperature)
    assert abs(wm.weights.mean() - 1.0) < 1e-12
    assert np.all(wm.weights > 0.0)


@settings(max_examples=200, deadline=None)
@given(scores=score_tables(), temperature=temperatures)
def test_ddr_is_monotone_nonincreasing_in_score(scores, temperature):
    wm = ddr_weights(make_table(scores), temperature=temperature)
    for k in range(scores.shape[1]):
        order = np.argsort(scores[:, k], kind="stable")
        assert np.all(np.diff(wm.weights[order, k]) <= 1e-12)


def test_ddr_extreme_scores_stay_positive():
    # z / temperature = 1000 without the exponent clamp: the sigmoid would
    # underflow to an exact zero weight and break strict positivity
    table = make_table(np.array([[0.0], [1e150]]))
    wm = ddr_weights(table, temperature=1e-3)
    assert np.all(wm.weights > 0.0)
    assert np.all(np.isfinite(wm.weights))


def test_ddr_constant_column_gets_unit_weights():
    table = make_table(np.full((7, 1), 3.3))
    wm = ddr_weights(table)
    assert np.array_equal(wm.weights, np.ones((7, 1)))


def test_ddr_high_temperature_flattens_weights():
    rng = np.random.default_rng(5)
    table = make_table(rng.uniform(size=(40, 2)))
    wm = ddr_weights(table, temperature=1e9)
    assert np.abs(wm.weights - 1.0).max() < 1e-6


def test_ddr_columns_are_independent():
    rng = np.random.default_rng(6)
    scores = rng.uniform(size=(30, 2))
    other = scores.copy()
    other[:, 1] = rng.uniform(size=30) * 100
    a = ddr_weights(make_table(scores))
    b = ddr_weights(make_table(other))
    # column 0 raw weights are untouched; only the global rescale differs,
    # so within-column ratios are preserved
    ra = a.weights[:, 0] / a.weights[0, 0]
    rb = b.weights[:, 0] / b.weights[0, 0]
    assert np.abs(ra - rb).max() < 1e-12


def _ddr_one_expression(s, temperature):
    """DDR weights written as plain expressions, one temporary per operation."""
    z = np.zeros_like(s)
    for j in range(s.shape[1]):
        col = s[:, j]
        if col.max() > col.min():
            z[:, j] = (col - col.mean()) / (col.std() + EPSILON)
    raw = 1.0 / (1.0 + np.exp(np.clip(z / temperature, -700.0, 700.0)))
    return raw / raw.mean()


@settings(max_examples=150, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 30), st.integers(1, 4)),
        elements=st.just(0.0) | st.just(2.5) | st.floats(0.0, 1e6) | st.floats(0.0, 1e150),
    ),
    st.floats(1e-3, 1e3),
)
def test_in_place_ddr_weights_are_the_one_expression_weights_bit_for_bit(scores, temperature):
    got = ddr_weights(make_table(scores), temperature).weights
    assert got.tobytes() == _ddr_one_expression(scores, temperature).tobytes()


def test_ddr_weights_are_built_in_one_buffer():
    scores = np.random.default_rng(8).lognormal(size=(12_000, 5))
    table = make_table(scores)
    # the weights and one column's temporary: 1.2x the score matrix
    # measured; one temporary per step of the expression measured 4.0x
    assert peak_traced_bytes(ddr_weights, table) < 1.5 * scores.nbytes


def test_ddr_rejects_bad_parameters():
    table = make_table(np.ones((5, 1)))
    with pytest.raises(ValueError):
        ddr_weights(table, temperature=0.0)


def test_weight_matrix_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    wm = ddr_weights(make_table(rng.uniform(size=(20, 3))), temperature=0.7)
    path = tmp_path / "weights.json"
    wm.save(path)
    back = WeightMatrix.load(path)
    assert np.array_equal(back.weights, wm.weights)
    assert back.sample_ids == wm.sample_ids
    assert back.temperature == wm.temperature
    assert np.array_equal(np.asarray(back.per_dim_stats), np.asarray(wm.per_dim_stats))


# ------------------------------------------------------------------- files

_IDS = [f"s{i:04d}" for i in range(2 * JSON_PIECE_ITEMS + 5)]
_ODD_IDS = ['a "quoted" id', "back\\slash", "line\nbreak", "caf\u00e9", "\u2603"]


def _weights(n, k):
    rng = np.random.default_rng(n * 10 + k)
    return ddr_weights(make_table(rng.lognormal(size=(n, k)), ids=_IDS[:n]), temperature=0.7)


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: _weights(len(_IDS), 1), id="weights-one-dim"),
        pytest.param(lambda: _weights(1, 4), id="weights-one-row"),
        pytest.param(lambda: _weights(len(_IDS), 5), id="weights-several-pieces"),
        pytest.param(
            lambda: ddr_weights(make_table(np.arange(5.0)[:, None], ids=_ODD_IDS)), id="weights-odd-ids"
        ),
        pytest.param(
            lambda: PruneResult(_IDS, np.arange(len(_IDS)) < 2, [_IDS[:2], []], [1.5, math.inf], 0.005),
            id="prune-inf-threshold",
        ),
        pytest.param(
            lambda: global_prune_select(np.arange(len(_IDS), dtype=float), _IDS, 0.01), id="prune-global"
        ),
        pytest.param(lambda: ddp_select(make_table(np.ones((len(_IDS), 3))), 0.0), id="prune-none-removed"),
        pytest.param(lambda: ddp_select(make_table(np.eye(5), ids=_ODD_IDS), 0.2), id="prune-odd-ids"),
    ],
)
def test_saved_files_are_the_json_dumps_bytes(tmp_path, make):
    result = make()
    path = tmp_path / "out.json"
    result.save(path)
    assert path.read_bytes() == (json.dumps(result.to_dict(), sort_keys=True) + "\n").encode()


def test_the_global_and_unpruned_cases_are_the_empty_ones():
    # the byte-identity cases above cover empty risk sets, thresholds and removals
    g = global_prune_select(np.arange(len(_IDS), dtype=float), _IDS, 0.01)
    assert g.per_dim_risk_sets == [] and g.thresholds == []
    assert ddp_select(make_table(np.ones((len(_IDS), 3))), 0.0).removed_ids == []


@pytest.mark.parametrize("kind", ["weights", "prune"])
def test_weight_and_prune_files_are_written_a_piece_at_a_time(tmp_path, kind):
    # 20k rows: the writers hold a few pieces of the file, never the whole
    # text or the whole weight matrix as Python floats. Measured peak over the
    # file size: weights 0.10x, prune 0.19x; writing json.dumps(to_dict())
    # in one string measured 4.2x and 6.0x
    n = 20_000
    ids = [f"train-{i:06d}" for i in range(n)]
    rng = np.random.default_rng(0)
    if kind == "weights":
        result = WeightMatrix(rng.uniform(0.2, 2.0, (n, 5)), ids, 1.0, [(0.1, 0.2)] * 5)
    else:
        result = PruneResult(ids, np.arange(n) >= n - 100, [ids[:100]] * 5, [1.0] * 5, 0.005)
    path = tmp_path / "out.json"
    peak = peak_traced_bytes(result.save, path)
    assert peak < 0.5 * path.stat().st_size


def test_the_removal_csv_is_written_a_line_at_a_time(tmp_path):
    # 10k removed ids: one risk set's ids in a set and a flag per removed id
    # and risk set, with one line at a time, measured 2.9x the file; a map of
    # each id to a list of its dimensions measured 4.9x, and joining every
    # line into one string as well 10.2x
    ids = [f"train-{i:06d}" for i in range(20_000)]
    result = PruneResult(ids, np.arange(20_000) < 10_000, [ids[:10_000]] * 2, [1.0] * 2, 0.5)
    path = tmp_path / "removed.csv"
    peak = peak_traced_bytes(result.removal_csv, path, ["dim0", "dim1"])
    assert peak < 3.5 * path.stat().st_size


def test_the_removal_csv_of_row_ids_matches_rows_without_formatting_them(tmp_path):
    # a run's RowIds are matched by row number: 2.2x the file measured (the
    # flags and one np.isin at a time), where formatting every removed and
    # risk-set id into a map of lists measured 13.7x
    rows = RowIds(np.arange(20_000)[::-1], 6)
    risk = [rows[:10_000:2], rows[5_000:12_000], rows[:0]]
    removed = np.arange(20_000) < 12_000
    result = PruneResult(rows, removed, risk, [1.0] * 3, 0.5)
    path = tmp_path / "removed.csv"
    names = ["dim0", "dim1", "dim2"]
    peak = peak_traced_bytes(result.removal_csv, path, names)
    assert peak < 3 * path.stat().st_size
    as_str = PruneResult(list(rows), removed, [list(r) for r in risk], [1.0] * 3, 0.5)
    as_str.removal_csv(tmp_path / "str.csv", names)
    assert path.read_bytes() == (tmp_path / "str.csv").read_bytes()
    lines = path.read_text().splitlines()
    assert lines[1:3] == ["s019999,dim0", "s019998,"]
    assert lines[5_001] == "s014999,dim0|dim1" and lines[-1] == "s008000,dim1"

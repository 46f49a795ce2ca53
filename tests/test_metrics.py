"""Rank correlation, AUROC, overlap curves, heterogeneity, masking."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import peak_traced_bytes, random_head

import dimsift
import dimsift.data
import dimsift.metrics

from dimsift import (
    DataError,
    Dataset,
    Scope,
    SynthConfig,
    TrainConfig,
    auroc,
    evaluate_head,
    fit_closed_form,
    generate_synthetic,
    inject_dimension_noise,
    masking_report,
    overlap_curve,
    per_dim_auroc,
    self_influence_closed_form,
    spearman,
)
from dimsift import InfluenceConfig
from dimsift.influence import SelfInfluenceTable
from dimsift.data import sample_features
from dimsift.metrics import _centered_ranks, evaluate_heads


def make_table(scores):
    scores = np.asarray(scores, dtype=float)
    n, k = scores.shape
    ids = [f"s{i:03d}" for i in range(n)]
    return SelfInfluenceTable(scores, ids, [f"dim{j}" for j in range(k)], Scope.HEAD_ONLY, np.ones(k))


# ---------------------------------------------------------------- spearman

def test_spearman_hand_case_with_ties():
    # ranks of (1, 2, 2, 3) are (1, 2.5, 2.5, 4): correlation 3/sqrt(10)
    a = np.array([1.0, 2.0, 2.0, 3.0])
    b = np.array([1.0, 2.0, 3.0, 4.0])
    assert spearman(a, b) == pytest.approx(3.0 / np.sqrt(10.0), abs=1e-9)


def test_spearman_perfect_and_reversed():
    x = np.array([0.1, 0.7, 0.3, 0.9, 0.5])
    assert spearman(x, x * 3.0 + 1.0) == pytest.approx(1.0, abs=1e-12)
    assert spearman(x, -x) == pytest.approx(-1.0, abs=1e-12)


def test_spearman_is_invariant_under_monotone_maps():
    rng = np.random.default_rng(0)
    x = rng.normal(size=50)
    y = rng.normal(size=50)
    assert spearman(np.exp(x), y) == pytest.approx(spearman(x, y), abs=1e-12)


def test_spearman_matches_scipy_on_random_pairs():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n = int(rng.integers(3, 60))
        x = rng.integers(0, 8, size=n).astype(float)  # lots of ties
        y = rng.normal(size=n)
        if np.all(x == x[0]):
            continue
        expect = scipy.stats.spearmanr(x, y).statistic
        assert spearman(x, y) == pytest.approx(expect, abs=1e-12)


def test_average_ranks_equal_scipy_rankdata():
    rng = np.random.default_rng(2)
    for n in (1, 2, 7, 100, 5000):
        for x in (
            rng.integers(0, 4, size=n).astype(float),  # tie-heavy
            rng.integers(-1000, 1000, size=n).astype(float),
            rng.normal(size=n),
        ):
            ranks = scipy.stats.rankdata(x, method="average")
            if np.all(x == x[0]):
                with pytest.raises(DataError, match="constant"):
                    _centered_ranks(x)
                continue
            assert _centered_ranks(x) is x and np.array_equal(x, ranks - ranks.mean())


# a few repeated values, so that ties are common, among any floats and NaN
rank_values = st.sampled_from([-1.5, 0.0, 2.0, 7.25, np.nan]) | st.floats(allow_nan=True, width=64)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(rank_values, min_size=1, max_size=60))
def test_centered_ranks_are_scipys_average_ranks_less_their_mean(values):
    x = np.array(values)
    before = x.tobytes()
    if np.all(x == x[0]):
        with pytest.raises(DataError, match="constant"):
            _centered_ranks(x)
        assert x.tobytes() == before
        return
    ranks = scipy.stats.rankdata(x, method="average")  # all NaN when x holds a NaN
    assert _centered_ranks(x) is x
    assert np.array_equal(x, ranks - ranks.mean(), equal_nan=True)


def test_import_loads_no_scipy():
    src = str(Path(dimsift.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import dimsift; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_spearman_rejects_degenerate_inputs():
    with pytest.raises(DataError, match="constant"):
        spearman(np.ones(5), np.arange(5.0))
    with pytest.raises(DataError):
        spearman(np.array([1.0]), np.array([2.0]))


# ------------------------------------------------------------------- auroc

def test_auroc_hand_case():
    scores = np.array([0.1, 0.4, 0.35, 0.8])
    positive = np.array([False, False, True, True])
    assert auroc(scores, positive) == pytest.approx(0.75, abs=1e-12)


def test_auroc_perfect_reversed_and_tied():
    pos = np.array([False, False, True, True])
    assert auroc(np.array([0.0, 0.1, 0.9, 1.0]), pos) == 1.0
    assert auroc(np.array([1.0, 0.9, 0.1, 0.0]), pos) == 0.0
    assert auroc(np.ones(4), pos) == pytest.approx(0.5, abs=1e-12)


def test_auroc_matches_pair_enumeration():
    # independent route: count strictly-better pairs plus half the ties
    rng = np.random.default_rng(2)
    for _ in range(25):
        n = int(rng.integers(4, 50))
        scores = np.round(rng.normal(size=n), 1)  # rounding forces ties
        positive = rng.random(n) < 0.4
        if positive.all() or not positive.any():
            continue
        pos, neg = scores[positive], scores[~positive]
        wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
        expect = wins / (pos.size * neg.size)
        assert auroc(scores, positive) == pytest.approx(expect, abs=1e-12)


def test_auroc_is_the_average_rank_statistic_bit_for_bit():
    # the tie-group rank sum and the sum of average ranks are both exact sums
    # of half-integers, so the two routes agree to the last bit
    rng = np.random.default_rng(4)
    for case in range(300):
        n = int(rng.integers(2, 400))
        scores = rng.normal(size=n)
        if case % 2:
            scores = np.round(scores, int(rng.integers(0, 2)))  # ties
        positive = rng.random(n) < rng.uniform(0.05, 0.95)
        n_pos = int(positive.sum())
        if n_pos in (0, n):
            continue
        ranks = scipy.stats.rankdata(scores, method="average")
        want = (ranks[positive].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * (n - n_pos))
        assert auroc(scores, positive) == want
    assert np.isnan(auroc(np.array([0.2, np.nan, 0.1]), np.array([True, False, False])))


def test_auroc_builds_no_rank_array():
    n = 100_000
    rng = np.random.default_rng(5)
    scores, positive = rng.random(n), rng.random(n) < 0.1
    peak = peak_traced_bytes(auroc, scores, positive)
    # the negatives' sorted copy, the class mask's complement and the
    # positives' search positions: 9.6 bytes per row measured; the tie
    # groups of a stable sort of every row measured 33, and ranking every
    # row with the average-rank code spearman used then, 58
    assert peak < 12 * n


def test_auroc_complement_symmetry():
    rng = np.random.default_rng(3)
    scores = rng.normal(size=30)
    positive = rng.random(30) < 0.5
    assert auroc(scores, positive) == pytest.approx(1.0 - auroc(scores, ~positive), abs=1e-12)


def test_auroc_rejects_single_class():
    with pytest.raises(DataError, match="single class"):
        auroc(np.arange(4.0), np.zeros(4, dtype=bool))
    with pytest.raises(DataError, match="single class"):
        auroc(np.arange(4.0), np.ones(4, dtype=bool))


# ---------------------------------------------------------- head evaluation

def test_per_dim_auroc_gives_none_for_single_class_columns():
    scores = np.array([[0.1, 0.5, 0.2], [0.9, 0.4, 0.8], [0.3, 0.6, 0.1]])
    mask = np.array([[False, False, True], [True, False, True], [False, False, True]])
    assert per_dim_auroc(scores, mask) == [auroc(scores[:, 0], mask[:, 0]), None, None]


def test_evaluate_head_reports_per_dimension_rank_quality():
    cfg = SynthConfig(300, 5, 3, label_noise_sd=0.05, teacher_seed=6, sample_seed=7)
    corpus = generate_synthetic(cfg)
    head = fit_closed_form(corpus, config=TrainConfig(ridge_alpha=1e-6))
    report = evaluate_head(head, corpus)
    assert len(report.per_dim_spearman) == 3
    assert all(s > 0.99 for s in report.per_dim_spearman)
    assert report.mean_spearman == pytest.approx(np.mean(report.per_dim_spearman), abs=1e-12)
    assert report.metadata == {"n_samples": 300, "dim_names": corpus.dim_names}


# a small chunk size puts every chunk boundary in a small test; the stream is
# then read 8 rows at a time
_CHUNK = 8


@pytest.mark.parametrize(
    "m",
    [1, _CHUNK - 1, _CHUNK, 2 * _CHUNK - 1, 2 * _CHUNK, 3 * _CHUNK + 5],
    ids=["1", "C-1", "C", "2C-1", "2C", "3C+5"],
)
def test_a_streamed_evaluation_equals_evaluate_head_at_every_block_boundary(monkeypatch, m):
    monkeypatch.setattr(dimsift.data, "CHUNK_ROWS", _CHUNK)
    cfg = SynthConfig(1000, 6, 3, label_noise_sd=0.1, teacher_seed=2, sample_seed=3)
    clean = generate_synthetic(cfg)
    # m ascending rows with gaps wider than a piece of the stream, the corpus's last row among them
    rng = np.random.default_rng(m)
    rows = np.sort(np.r_[rng.choice(cfg.n_samples - 1, m - 1, replace=False), cfg.n_samples - 1])
    test = clean.select(rows)
    blocks = list(sample_features(cfg, rows))
    # the stream gives the rows' features, cut as the row chunks cut m rows
    assert [len(b) for b in blocks] == [stop - start for start, stop in dimsift.data._row_chunks(m)]
    assert np.vstack(blocks).tobytes() == test.features.tobytes()
    heads = [random_head(rng, 3, 6), random_head(rng, 3, 6, hidden_dim=4)]
    if m == 1:
        with pytest.raises(DataError, match="two points"):
            evaluate_heads(heads, test)
        with pytest.raises(DataError, match="two points"):
            evaluate_head(heads[0], test)
        return
    reports = evaluate_heads(heads, test)
    for head, got in zip(heads, reports):
        # bit for bit: evaluate_head on the test Dataset, and the ranks of
        # the one-shot predictions
        assert got.to_dict() == evaluate_head(head, test).to_dict()
        one_shot = head.predict_batch(test.features)
        assert got.per_dim_spearman == [spearman(p, y) for p, y in zip(one_shot.T, test.labels.T)]
        assert got.metadata == {"n_samples": m, "dim_names": test.dim_names}


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 200), n_heads=st.integers(1, 3),
       ties=st.booleans())
def test_evaluate_heads_ranks_each_label_column_once(seed, n, n_heads, ties):
    # per head and dimension, spearman of the head's predictions bit for bit,
    # with one ranking of each label column for all the heads
    rng = np.random.default_rng(seed)
    x, y = rng.normal(size=(n, 4)), rng.normal(size=(n, 3))
    if ties:
        x, y = np.round(x), np.round(y)
    heads = [random_head(rng, 3, 4) for _ in range(n_heads)]
    ds = Dataset([f"r{i}" for i in range(n)], x, y, ["a", "b", "c"])
    try:
        want = [[spearman(p, t) for p, t in zip(h.predict_batch(x).T, y.T)] for h in heads]
    except DataError:
        with pytest.raises(DataError, match="constant"):
            evaluate_heads(heads, ds)
        return
    ranked = []

    def counting(a):
        ranked.append(len(a))
        return _centered_ranks(a)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dimsift.metrics, "_centered_ranks", counting)
        reports = evaluate_heads(heads, ds)
    assert [r.per_dim_spearman for r in reports] == want
    assert ranked == [n] * 3 * (n_heads + 1)


def test_rank_metrics_leave_their_inputs_unchanged():
    # the ranker writes into its argument: spearman ranks copies, and
    # evaluate_heads ranks a held label matrix's columns in copies
    rng = np.random.default_rng(7)
    x = rng.normal(size=(300, 4))
    y = np.round(rng.normal(size=(300, 3)), 1)  # ties
    heads = [random_head(rng, 3, 4) for _ in range(2)]
    pred = heads[0].predict_batch(x)
    # writable inputs, which a rank in place would change without an error
    inputs = [x, y, pred]
    before = [a.tobytes() for a in inputs]
    spearman(pred[:, 0], y[:, 0])
    spearman(pred, np.round(x[:, :3], 1))
    spearman(y[:, 1].tolist(), pred[:, 1])
    assert [a.tobytes() for a in inputs] == before
    ds = Dataset([f"r{i}" for i in range(300)], x.copy(), y.copy(), ["a", "b", "c"])
    inputs = [ds.features, ds.label_matrix] + [h.weights for h in heads] + [h.biases for h in heads]
    before = [a.tobytes() for a in inputs]
    evaluate_head(heads[0], ds)
    evaluate_heads(heads, ds)
    assert [a.tobytes() for a in inputs] == before


def test_evaluate_heads_refuses_a_head_of_other_dimensions():
    cfg = SynthConfig(50, 4, 3, label_noise_sd=0.1)
    test = generate_synthetic(cfg)
    head = random_head(np.random.default_rng(0), 2, 4)
    with pytest.raises(DataError, match="2 dimensions"):
        evaluate_heads([head], test)


# ----------------------------------------------------------------- overlap

def test_overlap_is_flat_for_identical_rankings():
    col = np.arange(50, dtype=float)[:, None]
    table = make_table(np.repeat(col, 4, axis=1))
    curve = overlap_curve(table, 0.1)
    assert curve.cumulative_ratios == [0.1, 0.1, 0.1, 0.1]
    assert curve.final() == 0.1


def test_overlap_grows_linearly_for_disjoint_rankings():
    scores = np.zeros((40, 4))
    for k in range(4):
        scores[10 * k : 10 * k + 4, k] = np.arange(4, 0, -1)
    table = make_table(scores)
    curve = overlap_curve(table, 0.1)
    assert curve.cumulative_ratios == [0.1, 0.2, 0.3, 0.4]


def test_overlap_is_nondecreasing_and_ends_at_the_union():
    rng = np.random.default_rng(4)
    table = make_table(rng.uniform(size=(80, 5)))
    a = overlap_curve(table, 0.05)
    assert a.dim_order == [0, 1, 2, 3, 4]
    assert np.all(np.diff(a.cumulative_ratios) >= 0.0)
    assert a.final() == len(np.unique(table.top_sets(0.05))) / 80


def test_overlap_validates_inputs():
    table = make_table(np.ones((10, 2)))
    with pytest.raises(ValueError):
        overlap_curve(table, 1.5)


# ------------------------------------------------------------ heterogeneity

def test_heterogeneity_decorrelates_under_independent_corruption():
    cfg = SynthConfig(2000, 16, 5, label_noise_sd=0.1, teacher_seed=0, sample_seed=50)
    noisy = inject_dimension_noise(generate_synthetic(cfg), 0.1, range(5), 99)
    head = fit_closed_form(noisy, config=TrainConfig(ridge_alpha=1e-6))
    table = self_influence_closed_form(head, noisy, InfluenceConfig())
    # independently corrupted dimensions flag different samples
    assert abs(np.corrcoef(table.scores[:, 0], table.scores[:, 1])[0, 1]) < 0.2


# ----------------------------------------------------------------- masking

def test_masking_single_dimension_has_nothing_to_hide():
    table = make_table(np.arange(20, dtype=float)[:, None])
    report = masking_report(table, np.arange(20, dtype=float), 0.1)
    assert report.masked == [0]


def test_masking_full_budget_has_nothing_to_hide():
    rng = np.random.default_rng(7)
    table = make_table(rng.uniform(size=(15, 3)))
    report = masking_report(table, rng.uniform(size=15), 1.0)
    assert report.masked == [0, 0, 0]


def test_masking_counts_minority_risks_hidden_by_a_dominant_dimension():
    # dim0 scores dwarf dim1; a global (summed) ranking only sees dim0
    n = 30
    scores = np.zeros((n, 2))
    scores[:3, 0] = [900.0, 800.0, 700.0]
    scores[3:6, 1] = [9.0, 8.0, 7.0]
    table = make_table(scores)
    global_scores = scores.sum(axis=1)
    corrupted = np.zeros((n, 2), dtype=bool)
    corrupted[3:6, 1] = True
    report = masking_report(table, global_scores, 0.1, corrupted=corrupted)
    assert report.masked[0] == 0  # dim0 top set is exactly the global top set
    assert report.masked[1] == 3  # dim1 risks never make the global cut
    assert report.masked_corrupted[1] == 3
    assert report.budget == 3

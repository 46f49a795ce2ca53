"""Rank correlation, AUROC, overlap curves, heterogeneity, masking."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

import dimsift

from dimsift import (
    DataError,
    Scope,
    SynthConfig,
    TrainConfig,
    auroc,
    evaluate_head,
    fit_closed_form,
    generate_synthetic,
    global_tracin_self,
    heterogeneity_export,
    inject_dimension_noise,
    masking_report,
    overlap_curve,
    per_dim_auroc,
    self_influence_closed_form,
    spearman,
)
from dimsift import InfluenceConfig
from dimsift.influence import SelfInfluenceTable
from dimsift.metrics import _average_ranks


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
            assert np.array_equal(_average_ranks(x), scipy.stats.rankdata(x, method="average"))


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
    report = evaluate_head(head, corpus, metadata={"split": "train"})
    assert len(report.per_dim_spearman) == 3
    assert all(s > 0.99 for s in report.per_dim_spearman)
    assert report.mean_spearman == pytest.approx(np.mean(report.per_dim_spearman), abs=1e-12)
    assert report.metadata["split"] == "train"


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


def test_overlap_is_nondecreasing_and_order_insensitive_at_the_end():
    rng = np.random.default_rng(4)
    table = make_table(rng.uniform(size=(80, 5)))
    a = overlap_curve(table, 0.05)
    assert np.all(np.diff(a.cumulative_ratios) >= 0.0)
    b = overlap_curve(table, 0.05, dim_order=[4, 2, 0, 1, 3])
    assert a.final() == b.final()


def test_overlap_validates_inputs():
    table = make_table(np.ones((10, 2)))
    with pytest.raises(ValueError):
        overlap_curve(table, 1.5)
    with pytest.raises(ValueError):
        overlap_curve(table, 0.1, dim_order=[0, 0])


# ----------------------------------------------------- heterogeneity export

def test_heterogeneity_same_dimension_is_perfectly_correlated():
    rng = np.random.default_rng(5)
    table = make_table(rng.uniform(size=(60, 3)))
    view = heterogeneity_export(table, 1, 1, np.asarray(table.scores @ np.ones(3)))
    assert view.spearman == pytest.approx(1.0, abs=1e-12)
    assert view.pearson == pytest.approx(1.0, abs=1e-12)


def test_heterogeneity_records_are_min_max_scaled():
    rng = np.random.default_rng(6)
    table = make_table(rng.uniform(size=(40, 2)))
    view = heterogeneity_export(table, 0, 1, np.asarray(table.scores.sum(axis=1)))
    xs = np.array([r["x"] for r in view.records])
    ys = np.array([r["y"] for r in view.records])
    gs = np.array([r["global"] for r in view.records])
    for v in (xs, ys, gs):
        assert v.min() == 0.0 and v.max() == 1.0
    assert len(view.records) == 40
    assert view.degenerate_dims == []


def test_heterogeneity_handles_degenerate_columns():
    scores = np.column_stack([np.full(10, 2.0), np.arange(10.0)])
    table = make_table(scores)
    view = heterogeneity_export(table, 0, 1, np.arange(10.0))
    assert 0 in view.degenerate_dims
    assert all(r["x"] == 0.0 for r in view.records)
    assert view.pearson is None and view.spearman is None


def test_heterogeneity_decorrelates_under_independent_corruption():
    cfg = SynthConfig(2000, 16, 5, label_noise_sd=0.1, teacher_seed=0, sample_seed=50)
    noisy = inject_dimension_noise(generate_synthetic(cfg), 0.1, range(5), 99)
    head = fit_closed_form(noisy, config=TrainConfig(ridge_alpha=1e-6))
    icfg = InfluenceConfig()
    table = self_influence_closed_form(head, noisy, icfg)
    view = heterogeneity_export(table, 0, 1, global_tracin_self(head, noisy, icfg))
    assert abs(view.pearson) < 0.2


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

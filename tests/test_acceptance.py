"""Acceptance suite: eleven checks covering the exact decomposition identity,
closed-form scoring, per-dimension noise detection, union pruning, smooth
reweighting, masking, overlap growth, metric oracles, and reproducibility.

Run with `pytest tests/test_acceptance.py -v -s` to see one verdict line per
criterion alongside the measured values.
"""

import time

import numpy as np
import pytest

from conftest import random_head, random_sample
from dimsift import (
    InfluenceConfig,
    NoiseSpec,
    Sample,
    Scope,
    SynthConfig,
    TrainConfig,
    auroc,
    ddp_select,
    ddr_weights,
    default_config,
    disentangled_matrix,
    evaluate_head,
    fit_closed_form,
    generate_synthetic,
    global_prune_select,
    global_tracin_self,
    grad_per_dimension,
    overlap_curve,
    run_pipeline,
    scalar_influence,
    self_influence_explicit,
    spearman,
    split,
)
from dimsift.influence import SelfInfluenceTable
from test_influence import _oracle_sums, flat_from_head, head_from_flat


def _verdict(num, ok, detail):
    print(f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d}: {detail}"


def _table(scores):
    scores = np.asarray(scores, dtype=float)
    n, k = scores.shape
    return SelfInfluenceTable(
        scores, [f"s{i:04d}" for i in range(n)], [f"dim{j}" for j in range(k)],
        Scope.HEAD_ONLY, np.ones(k),
    )


# ----------------------------------------------------------- criterion 1

def test_01_decomposition_identity():
    """Sum of the K x K matrix equals the aggregated scalar influence."""
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        k = int(rng.choice([2, 5]))
        d = int(rng.choice([4, 16]))
        hidden = 6 if trial % 2 else None
        scope = Scope.LAST_TWO_LAYERS if hidden else Scope.HEAD_ONLY
        head = random_head(rng, k, d, hidden)
        cfg = InfluenceConfig(scope=scope, lambdas=tuple(rng.uniform(0.5, 2.0, size=k)))
        zt = random_sample(rng, d, k, "train")
        zv = random_sample(rng, d, k, "test")
        total = disentangled_matrix(head, zt, zv, cfg).total()
        scalar = scalar_influence(head, zt, zv, cfg)
        worst = max(worst, abs(total - scalar) / max(abs(total), abs(scalar), 1e-300))
    elapsed = time.perf_counter() - start
    _verdict(1, worst <= 1e-10 and elapsed < 1.0,
             f"100 instances, worst rel err {worst:.2e} <= 1e-10, {elapsed:.2f}s < 1s")


# ----------------------------------------------------------- criterion 2

def test_02_closed_form_and_gradients():
    """Closed form == explicit gradient norms; gradients == finite differences."""
    rng = np.random.default_rng(7)
    from dimsift import Dataset

    n, d, k = 1000, 16, 5
    corpus = Dataset(
        [f"r{i:04d}" for i in range(n)],
        rng.uniform(-2.0, 2.0, size=(n, d)),
        rng.uniform(-2.0, 2.0, size=(n, k)),
        [f"dim{j}" for j in range(k)],
    )
    head = random_head(rng, k, d)
    cfg = InfluenceConfig()
    fast = self_influence_explicit(head, corpus, cfg).scores
    # explicit gradient norms: squared row norms of each sample's assembled gradient
    slow = _oracle_sums(head, corpus, cfg)["explicit"][0]
    rel = np.abs(fast - slow) / np.maximum.reduce([np.abs(fast), np.abs(slow), np.ones_like(fast)])
    closed_ok = rel.max() <= 1e-10

    worst_fd = 0.0
    h = 1e-6
    for i in range(25):
        z = corpus.sample(i)
        analytic = grad_per_dimension(head, z, cfg)
        theta = flat_from_head(head, Scope.HEAD_ONLY)
        fd = np.zeros_like(analytic)
        for p in range(theta.size):
            up, down = theta.copy(), theta.copy()
            up[p] += h
            down[p] -= h
            ru = head_from_flat(up, head, Scope.HEAD_ONLY).predict(z.features) - z.labels
            rd = head_from_flat(down, head, Scope.HEAD_ONLY).predict(z.features) - z.labels
            fd[:, p] = (0.5 * ru**2 - 0.5 * rd**2) / (2 * h)
        err = np.abs(fd - analytic) / np.maximum(np.abs(analytic), 1.0)
        worst_fd = max(worst_fd, err.max())
    fd_ok = worst_fd <= 1e-5
    _verdict(2, closed_ok and fd_ok,
             f"1000 samples, closed vs explicit worst rel {rel.max():.2e} <= 1e-10; "
             f"finite-difference worst rel {worst_fd:.2e} <= 1e-5")


# ----------------------------------------------------------- criterion 3

def test_03_off_diagonal_structure():
    """Head-only scope is exactly diagonal; a shared layer couples dimensions."""
    rng = np.random.default_rng(5)
    worst_head_only = 0.0
    for _ in range(50):
        k, d = int(rng.integers(2, 6)), int(rng.integers(3, 10))
        head = random_head(rng, k, d)
        cfg = InfluenceConfig(lambdas=tuple(rng.uniform(0.5, 2.0, size=k)))
        phi = disentangled_matrix(head, random_sample(rng, d, k, "a"),
                                  random_sample(rng, d, k, "b"), cfg).phi
        worst_head_only = max(worst_head_only, np.abs(phi[~np.eye(k, dtype=bool)]).max())

    head = random_head(rng, 4, 8, hidden_dim=6)
    cfg = InfluenceConfig(scope=Scope.LAST_TWO_LAYERS)
    phi = disentangled_matrix(head, random_sample(rng, 8, 4, "a"),
                              random_sample(rng, 8, 4, "b"), cfg).phi
    cross = np.abs(phi[~np.eye(4, dtype=bool)]).max()
    _verdict(3, worst_head_only == 0.0 and worst_head_only <= 1e-15 and cross > 1e-6,
             f"head-only max |off-diag| {worst_head_only:.1e} (exact zero); "
             f"two-layer max |off-diag| {cross:.2e} > 1e-6")


# ------------------------------------------------------- criteria 4 and 5

@pytest.fixture(scope="module")
def detection_runs():
    """Five seeded corpora: N=2000, d=16, K=5, 10% corruption per dimension."""
    runs = []
    start = time.perf_counter()
    for s in range(5):
        cfg = SynthConfig(2000, 16, 5, label_noise_sd=0.1, teacher_seed=s, sample_seed=100 + s)
        noisy = NoiseSpec(rate=0.1, dims=tuple(range(5)), seed=200 + s).apply(generate_synthetic(cfg))
        head = fit_closed_form(noisy, config=TrainConfig(ridge_alpha=1e-6))
        table = self_influence_explicit(head, noisy, InfluenceConfig())
        runs.append((noisy, table))
    return runs, time.perf_counter() - start


def test_04_noise_detection_auroc(detection_runs):
    runs, elapsed = detection_runs
    per_seed = np.array([
        [auroc(table.scores[:, k], noisy.corruption_mask[:, k]) for k in range(5)]
        for noisy, table in runs
    ])
    means = per_seed.mean(axis=0)
    _verdict(4, means.min() >= 0.95 and elapsed < 30.0,
             f"5-seed mean AUROC per dim {np.round(means, 4).tolist()}, "
             f"min {means.min():.4f} >= 0.95, scoring took {elapsed:.1f}s < 30s")


def test_05_ddp_precision(detection_runs):
    runs, _ = detection_runs
    per_seed = []
    for noisy, table in runs:
        result = ddp_select(table, 0.1)  # rho matched to the corruption rate
        idx = {sid: i for i, sid in enumerate(noisy.ids)}
        precisions = []
        for k, risk in enumerate(result.per_dim_risk_sets):
            rows = [idx[sid] for sid in risk]
            precisions.append(noisy.corruption_mask[rows, k].mean())
        per_seed.append(precisions)
    means = np.array(per_seed).mean(axis=0)
    _verdict(5, means.min() >= 0.8,
             f"5-seed mean risk-set precision per dim {np.round(means, 3).tolist()}, "
             f"min {means.min():.3f} >= 0.8")


# ----------------------------------------------------------- criterion 6

def test_06_masking_effect():
    """A dominant-variance dimension hides minority-dimension corruption from
    a matched-budget global ranking but not from per-dimension pruning."""
    minority = [1, 2, 3, 4]
    wins = np.zeros(len(minority), dtype=int)
    for s in range(10):
        cfg = SynthConfig(2000, 16, 5, label_noise_sd=(10.0, 1.0, 1.0, 1.0, 1.0),
                          teacher_seed=s, sample_seed=1000 + s)
        noisy = NoiseSpec(rate=0.1, dims=tuple(minority), seed=2000 + s).apply(generate_synthetic(cfg))
        head = fit_closed_form(noisy, config=TrainConfig(ridge_alpha=1e-6))
        icfg = InfluenceConfig()
        table = self_influence_explicit(head, noisy, icfg)
        ddp = ddp_select(table, 0.1)
        budget = len(ddp.removed_ids) / 2000.0
        glob = global_prune_select(global_tracin_self(head, noisy, icfg), noisy.ids, budget)
        idx = {sid: i for i, sid in enumerate(noisy.ids)}
        ddp_rows = [idx[sid] for sid in ddp.removed_ids]
        glob_rows = [idx[sid] for sid in glob.removed_ids]
        for j, k in enumerate(minority):
            ddp_hits = int(noisy.corruption_mask[ddp_rows, k].sum())
            glob_hits = int(noisy.corruption_mask[glob_rows, k].sum())
            wins[j] += ddp_hits > glob_hits
    _verdict(6, np.all(wins >= 8),
             f"DDP recovered strictly more corrupted minority-dim samples than "
             f"matched-budget global pruning in {wins.tolist()}/10 seeds per dim (need >= 8)")


# ----------------------------------------------------------- criterion 7

def test_07_end_to_end_improvement():
    """Refit after DDP, or weighted refit with DDR, beats the unrefined
    equal-weight baseline on every corrupted dimension."""
    ddp_wins = ddr_wins = 0
    ddp_gains, ddr_gains = [], []
    for s in range(10):
        base = 10 * s
        cfg = SynthConfig(2000, 16, 5, label_noise_sd=0.1, teacher_seed=base, sample_seed=base + 1)
        clean = generate_synthetic(cfg)
        noisy = NoiseSpec(rate=0.25, dims=tuple(range(5)), seed=base + 2).apply(clean)
        train, _, test = split(noisy, (0.6, 0.2, 0.2), seed=base + 4)
        test_clean = clean.select_ids(test.ids)
        tcfg = TrainConfig(ridge_alpha=1e-6)

        probe = fit_closed_form(train, config=tcfg)
        baseline = np.array(evaluate_head(probe, test_clean).per_dim_spearman)
        table = self_influence_explicit(probe, train, InfluenceConfig())

        kept = train.select_ids(ddp_select(table, 0.25).kept_ids)
        ddp_scores = np.array(
            evaluate_head(fit_closed_form(kept, config=tcfg), test_clean).per_dim_spearman
        )
        wm = ddr_weights(table)
        ddr_scores = np.array(
            evaluate_head(fit_closed_form(train, wm, config=tcfg), test_clean).per_dim_spearman
        )

        ddp_wins += bool(np.all(ddp_scores > baseline))
        ddr_wins += bool(np.all(ddr_scores > baseline))
        ddp_gains.append((ddp_scores - baseline).mean())
        ddr_gains.append((ddr_scores - baseline).mean())
    _verdict(7, ddp_wins >= 8 and ddr_wins >= 8,
             f"all-dimension clean-test Spearman wins: DDP {ddp_wins}/10, DDR {ddr_wins}/10 "
             f"(need >= 8); mean improvement DDP {np.mean(ddp_gains):+.4f}, "
             f"DDR {np.mean(ddr_gains):+.4f}")


# ----------------------------------------------------------- criterion 8

def test_08_ddr_contracts():
    rng = np.random.default_rng(123)
    scores = rng.lognormal(size=(400, 4))
    scores[:, 2] = 7.7  # constant column: z-score guard, not epsilon noise
    wm = ddr_weights(_table(scores))
    mean_ok = abs(wm.weights.mean() - 1.0) <= 1e-12
    pos_ok = bool(np.all(wm.weights > 0.0))
    mono_ok = True
    for k in range(4):
        order = np.argsort(scores[:, k], kind="stable")
        mono_ok &= bool(np.all(np.diff(wm.weights[order, k]) <= 1e-12))
    const_ok = np.unique(wm.weights[:, 2]).size == 1
    _verdict(8, mean_ok and pos_ok and mono_ok and const_ok,
             f"global mean {wm.weights.mean():.15f} (=1 +/- 1e-12), min weight "
             f"{wm.weights.min():.2e} > 0, monotone nonincreasing per dim: {mono_ok}, "
             f"constant column uniform: {const_ok}")


# ----------------------------------------------------------- criterion 9

def test_09_overlap_bounds():
    """Cumulative removal grows with each dimension but stays far from the
    K * rho worst case on heterogeneous data."""
    finals = []
    mono = True
    for s in range(10):
        report = run_pipeline(default_config(seed=100 * s)).report
        ratios = report.overlap["cumulative_ratios"]
        mono &= bool(np.all(np.diff(ratios) >= 0.0))
        finals.append(ratios[-1])
    lo, hi = 0.005, 0.025
    inside = all(lo < f < hi for f in finals)

    dup = np.repeat(np.random.default_rng(1).uniform(size=(2000, 1)), 5, axis=1)
    flat = overlap_curve(_table(dup), 0.005)
    flat_ok = flat.cumulative_ratios == [0.005] * 5

    disjoint = np.zeros((2000, 5))
    for k in range(5):
        disjoint[100 * k : 100 * k + 10, k] = np.arange(10, 0, -1)
    dis = overlap_curve(_table(disjoint), 0.005)
    dis_ok = dis.final() == 0.025
    _verdict(9, mono and inside and flat_ok and dis_ok,
             f"10-seed finals {[f'{f:.4f}' for f in finals]} all strictly inside "
             f"({lo}, {hi}), nondecreasing: {mono}; duplicated-scores curve flat at 0.005: "
             f"{flat_ok}; disjoint curve reaches 0.025: {dis_ok}")


# ---------------------------------------------------------- criterion 10

def test_10_metric_oracles():
    hand = spearman(np.array([1.0, 2.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0, 4.0]))
    spearman_ok = abs(hand - 3.0 / np.sqrt(10.0)) <= 1e-9

    rng = np.random.default_rng(11)
    worst = 0.0
    trials = 0
    while trials < 200:
        n = int(rng.integers(2, 51))
        scores = np.round(rng.normal(size=n), 1)
        positive = rng.random(n) < rng.uniform(0.2, 0.8)
        if positive.all() or not positive.any():
            continue
        trials += 1
        pos, neg = scores[positive], scores[~positive]
        wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
        worst = max(worst, abs(auroc(scores, positive) - wins / (pos.size * neg.size)))
    _verdict(10, spearman_ok and worst <= 1e-12,
             f"tied-rank hand case {hand:.9f} == 3/sqrt(10) +/- 1e-9; AUROC matches "
             f"pair enumeration on 200 random inputs (N <= 50), worst abs diff {worst:.2e}")


# ---------------------------------------------------------- criterion 11

def test_11_reproducibility(tmp_path):
    cfg = default_config(seed=7)
    a = run_pipeline(cfg, output_dir=tmp_path / "a")
    b = run_pipeline(cfg, output_dir=tmp_path / "b")
    same_report = a.report.dumps() == b.report.dumps()
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    same_files = all(
        (tmp_path / "a" / n).read_bytes() == (tmp_path / "b" / n).read_bytes() for n in names
    )
    _verdict(11, same_report and same_files,
             f"identical reports: {same_report}; {len(names)} artifact files byte-identical: "
             f"{same_files}")

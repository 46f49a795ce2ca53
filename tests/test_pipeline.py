"""End-to-end pipeline wiring: config handling, artifacts, reproducibility."""

import dataclasses
import json
import math
import tracemalloc
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import peak_traced_bytes
import dimsift.data
import dimsift.influence
import dimsift.metrics
import dimsift.pipeline
import dimsift.refine
from dimsift import (
    DataError,
    Dataset,
    ExperimentReport,
    InfluenceConfig,
    NoiseSpec,
    PipelineConfig,
    RefineSpec,
    Scope,
    SynthConfig,
    TrainConfig,
    UsageError,
    default_config,
    fit_closed_form,
    generate_synthetic,
    run_pipeline,
    split,
)
from dimsift.data import corrupted_copy, dumps_dataset, floor_count, load_dataset, top_sets
from dimsift.model import STRATEGIES
from dimsift.pipeline import REFINE_STRATEGIES


def small_config(seed=0, refine="ddp", **synth_overrides):
    cfg = default_config(seed=seed, refine_strategy=refine)
    synth = dict(n_samples=400, feature_dim=6, n_dims=3, **synth_overrides)
    return PipelineConfig.from_dict(_merge(cfg.to_dict(), {"synth": synth, "refine": {"rho": 0.02}}))


def _merge(base, overrides):
    out = json.loads(json.dumps(base))
    for section, vals in overrides.items():
        out[section].update(vals)
    return out


def test_package_surface_is_its_export_list():
    # a name deleted from a module but left in __all__, or a public import
    # left out of it, fails here
    assert len(set(dimsift.__all__)) == len(dimsift.__all__)
    for name in dimsift.__all__:
        assert hasattr(dimsift, name), name
    imported = {
        name for name, value in vars(dimsift).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert imported == set(dimsift.__all__) - {"__version__"}


def test_config_round_trip_and_unknown_keys():
    cfg = default_config(seed=3)
    back = PipelineConfig.from_dict(cfg.to_dict())
    assert back.to_dict() == cfg.to_dict()
    doc = cfg.to_dict()
    doc["synth"]["bogus"] = 1
    with pytest.raises(UsageError, match="bogus"):
        PipelineConfig.from_dict(doc)
    doc = cfg.to_dict()
    doc["mystery"] = {}
    with pytest.raises(UsageError, match="mystery"):
        PipelineConfig.from_dict(doc)


def _tuples(elements):
    return st.lists(elements, min_size=1, max_size=5).map(tuple)


_seeds = st.integers(0, 2**32 - 1)
_unit = st.floats(0.0, 1.0)
_nonneg = st.floats(0.0, 1e6)
_positive = st.floats(1e-9, 1e6)
_configs = st.builds(
    PipelineConfig,
    synth=st.builds(
        SynthConfig,
        n_samples=st.integers(1, 10**6),
        feature_dim=st.integers(1, 64),
        n_dims=st.integers(1, 8),
        label_noise_sd=_nonneg | _tuples(_nonneg),
        teacher_seed=_seeds,
        sample_seed=_seeds,
        label_range=st.none() | st.tuples(st.floats(-1e6, 0.0), _nonneg),
    ),
    noise=st.builds(
        NoiseSpec,
        rate=_unit,
        dims=st.none() | _tuples(st.integers(0, 7)),
        seed=_seeds,
        correlated_rate=_unit,
        correlated_seed=_seeds,
    ),
    train=st.builds(
        TrainConfig,
        lambdas=st.none() | _tuples(_positive),
        ridge_alpha=_nonneg,
        lr=_positive,
        epochs=st.integers(1, 10**4),
        strategy=st.sampled_from(STRATEGIES),
        seed=_seeds,
        hidden_dim=st.none() | st.integers(1, 64),
        fit_bias=st.booleans(),
    ),
    influence=st.builds(
        InfluenceConfig, scope=st.sampled_from(Scope), lambdas=st.none() | _tuples(_nonneg)
    ),
    refine=st.builds(
        RefineSpec,
        strategy=st.sampled_from(REFINE_STRATEGIES),
        rho=_unit,
        temperature=_positive,
        epsilon=_positive,
    ),
    split_fractions=st.tuples(_unit, _unit, _unit),
    split_seed=_seeds,
)


@settings(max_examples=200, deadline=None)
@given(_configs)
def test_config_round_trips_through_json(cfg):
    doc = json.loads(json.dumps(cfg.to_dict()))
    assert PipelineConfig.from_dict(doc) == cfg


def test_config_defaults_come_from_the_dataclasses():
    synth = {"n_samples": 10, "feature_dim": 2, "n_dims": 1}
    assert PipelineConfig.from_dict({"synth": synth}) == PipelineConfig(SynthConfig(**synth))


def test_config_reads_integers_in_float_fields_as_floats():
    doc = default_config().to_dict()
    doc["influence"]["lambdas"] = [1, 2, 1, 1, 0.5]
    doc["refine"]["rho"] = 0
    cfg = PipelineConfig.from_dict(doc)
    assert cfg.influence.lambdas == (1.0, 2.0, 1.0, 1.0, 0.5)
    assert all(type(v) is float for v in cfg.influence.lambdas)
    assert type(cfg.refine.rho) is float
    assert json.dumps(cfg.to_dict()["influence"]["lambdas"]) == "[1.0, 2.0, 1.0, 1.0, 0.5]"


@pytest.mark.parametrize("doc", [[1, 2], "report", {"version": "0.1.0", "config": []}])
def test_report_document_of_the_wrong_shape_is_a_data_error(doc):
    if isinstance(doc, dict):
        doc = dict(ExperimentReport("0.1.0", {}, {}, {}, {}, {}, {}, {}).to_dict(), **doc)
    with pytest.raises(DataError, match="report"):
        ExperimentReport.from_dict(doc)


def test_config_rejects_unknown_refine_strategy():
    doc = default_config().to_dict()
    doc["refine"]["strategy"] = "psychic"
    with pytest.raises(UsageError, match="psychic"):
        PipelineConfig.from_dict(doc)


def test_pipeline_runs_and_reports_every_section():
    arts = run_pipeline(small_config())
    report = arts.report
    assert set(report.strategies) == {"baseline", "ddp"}
    assert report.dataset_summary["n_total"] == 400
    assert report.refine_summary["strategy"] == "ddp"
    assert len(report.noise_detection["per_dim_auroc"]) == 3
    assert all(a is None or 0.0 <= a <= 1.0 for a in report.noise_detection["per_dim_auroc"])
    assert report.overlap["cumulative_ratios"][-1] >= report.refine_summary["rho"] - 1e-12
    # pruning actually shrank the training set
    assert list(arts.train.ids) != arts.prune.kept_ids
    assert len(arts.prune.kept_ids) < len(arts.train.ids)


def test_a_run_shares_the_training_ids():
    # the ids of the training split, not a copy per table
    arts = run_pipeline(small_config(refine="ddr"))
    assert arts.scores.sample_ids is arts.train.ids
    assert arts.weight_matrix.sample_ids is arts.train.ids


@pytest.mark.parametrize("refine", REFINE_STRATEGIES)
def test_every_strategy_reports_overlap_and_masking_at_refine_rho(refine):
    # refine.rho is a run's one budget: every strategy's overlap curve and
    # masking report are taken at it, and a global prune removes the masking
    # report's budget of rows
    arts = run_pipeline(small_config(refine=refine))
    rho = arts.report.config["refine"]["rho"]
    assert rho == 0.02
    assert arts.report.overlap["rho"] == arts.report.masking["rho"] == rho
    budget = arts.report.masking["budget"]
    assert budget == math.ceil(rho * len(arts.train))
    if refine == "global_prune":
        assert arts.report.refine_summary["n_removed"] == budget


def test_pipeline_reweighting_branch():
    arts = run_pipeline(small_config(refine="ddr"))
    assert arts.weight_matrix is not None
    assert abs(arts.weight_matrix.weights.mean() - 1.0) < 1e-12
    assert set(arts.report.strategies) == {"baseline", "ddr"}


def test_pipeline_none_branch_keeps_probe():
    arts = run_pipeline(small_config(refine="none"))
    assert set(arts.report.strategies) == {"baseline"}
    assert arts.prune is None and arts.weight_matrix is None


def _recording_evaluation(monkeypatch) -> dict:
    """Record what run_pipeline evaluates its heads on: the test rows, their features and labels."""
    seen = {}
    sample, evaluate = dimsift.pipeline.sample_features, dimsift.pipeline.evaluate_heads

    def recording_sample(synth, rows):
        seen["rows"] = rows
        return sample(synth, rows)

    def recording_evaluate(heads, blocks, labels, dim_names):
        blocks = list(blocks)
        seen.update(heads=heads, features=np.vstack(blocks), labels=labels, dim_names=dim_names)
        return evaluate(heads, iter(blocks), labels, dim_names)

    monkeypatch.setattr(dimsift.pipeline, "sample_features", recording_sample)
    monkeypatch.setattr(dimsift.pipeline, "evaluate_heads", recording_evaluate)
    return seen


def test_pipeline_clean_test_labels_are_uncorrupted(monkeypatch, tmp_path):
    cfg = small_config()
    seen = _recording_evaluation(monkeypatch)
    run_pipeline(cfg, tmp_path)
    clean = generate_synthetic(cfg.synth)
    noisy = corrupted_copy(clean, cfg.noise.apply)
    rows = seen["rows"]
    # the heads are evaluated on the clean labels of the test rows, some of
    # which the noise corrupted
    assert np.array_equal(seen["labels"], clean.labels[rows])
    assert not np.array_equal(noisy.labels[rows], clean.labels[rows])
    # and test_clean.jsonl holds them: every test id maps back to the clean
    # corpus with identical labels
    test_clean = load_dataset(tmp_path / "test_clean.jsonl")
    assert len(test_clean) == len(rows)
    for i, sid in enumerate(test_clean.ids):
        j = clean.index_of(sid)
        assert np.array_equal(test_clean.labels[i], clean.labels[j])
    assert test_clean.corruption_mask.sum() == 0


def test_pipeline_is_deterministic():
    a = run_pipeline(small_config(seed=5))
    b = run_pipeline(small_config(seed=5))
    assert a.report.dumps() == b.report.dumps()
    assert np.array_equal(a.scores.scores, b.scores.scores)
    assert np.array_equal(a.final.weights, b.final.weights)


def test_pipeline_seed_changes_the_run():
    a = run_pipeline(small_config(seed=5))
    b = run_pipeline(small_config(seed=6))
    assert a.report.dumps() != b.report.dumps()


def test_pipeline_writes_reloadable_artifacts(tmp_path):
    out = tmp_path / "run"
    cfg = small_config()
    arts = run_pipeline(cfg, output_dir=out)
    expected = [
        "config.json",
        "corpus.jsonl",
        "train.jsonl",
        "test_clean.jsonl",
        "probe_head.json",
        "final_head.json",
        "scores.jsonl",
        "scores.csv",
        "prune.json",
        "removed.csv",
        "overlap.csv",
        "report.json",
        "report.txt",
    ]
    for name in expected:
        assert (out / name).exists(), name
    report = ExperimentReport.load(out / "report.json")
    assert report.dumps() == arts.report.dumps()
    noisy = corrupted_copy(generate_synthetic(cfg.synth), cfg.noise.apply)
    assert (out / "corpus.jsonl").read_text() == dumps_dataset(noisy)
    # no wall-clock state may leak into artifacts
    blob = (out / "report.json").read_text() + (out / "config.json").read_text()
    assert "time" not in blob and "date" not in blob


def test_pipeline_rejects_empty_test_split():
    doc = small_config().to_dict()
    doc["split"]["fractions"] = [1.0, 0.0, 0.0]
    with pytest.raises(DataError, match="test"):
        run_pipeline(PipelineConfig.from_dict(doc))


def test_a_run_that_fails_after_the_split_leaves_config_and_corpus(tmp_path):
    cfg = dataclasses.replace(small_config(), refine=RefineSpec("ddp", rho=1.0))
    with pytest.raises(DataError, match="every training sample"):
        run_pipeline(cfg, output_dir=tmp_path / "run")
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == ["config.json", "corpus.jsonl"]
    assert PipelineConfig.from_file(tmp_path / "run" / "config.json") == cfg


def test_report_text_rendering_mentions_each_strategy():
    arts = run_pipeline(small_config())
    text = arts.report.render_text()
    assert "baseline" in text and "ddp" in text
    assert "spearman" in text.lower()


def _same_rows(a, b):
    assert a.ids == b.ids
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.corruption_mask, b.corruption_mask)
    assert (a.dim_names, a.manifest) == (b.dim_names, b.manifest)


@pytest.mark.parametrize(
    "refine, noise, synth, train",
    [
        pytest.param("ddp", {}, {}, {}, id="ddp"),
        pytest.param("loss_prune", {}, {}, {}, id="loss_prune"),
        pytest.param("global_prune", {}, {}, {}, id="global_prune"),
        pytest.param("ddp", {"dims": (0, 2)}, {}, {}, id="ddp-noise-dims"),
        pytest.param("ddp", {"rate": 0.0, "correlated_rate": 0.02}, {}, {}, id="ddp-correlated-only"),
        pytest.param("ddp", {"rate": 0.0, "correlated_rate": 0.0}, {}, {}, id="ddp-no-noise"),
        pytest.param("ddp", {}, {"label_range": (-2.0, 2.5)}, {}, id="ddp-label-range"),
        pytest.param("ddp", {}, {}, {"hidden_dim": 4, "epochs": 20}, id="ddp-gd"),
    ],
)
def test_index_selection_matches_the_id_route(monkeypatch, tmp_path, refine, noise, synth, train):
    fitted, gd_fitted = [], []
    fit, fit_gd = dimsift.pipeline._fit, dimsift.pipeline.fit_gd_arrays

    def recording_fit(x, y, weights, cfg, drop=None):
        fitted.append((x, y, drop))
        return fit(x, y, weights, cfg, drop)

    def recording_fit_gd(x, y, *args):
        gd_fitted.append((x, y))
        return fit_gd(x, y, *args)

    monkeypatch.setattr(dimsift.pipeline, "_fit", recording_fit)
    monkeypatch.setattr(dimsift.pipeline, "fit_gd_arrays", recording_fit_gd)
    cfg = small_config(refine=refine)
    cfg = dataclasses.replace(
        cfg,
        synth=dataclasses.replace(cfg.synth, **synth),
        noise=dataclasses.replace(cfg.noise, **noise),
        train=dataclasses.replace(cfg.train, **train),
    )
    seen = _recording_evaluation(monkeypatch)
    arts = run_pipeline(cfg, tmp_path)
    clean = generate_synthetic(cfg.synth)
    noisy = corrupted_copy(clean, cfg.noise.apply)
    train_ds, _, test = split(noisy, cfg.split_fractions, cfg.split_seed)
    refined = train_ds.select_ids(arts.prune.kept_ids)
    assert 0 < len(refined) < len(train_ds)
    _same_rows(arts.train, train_ds)
    # the heads are evaluated on the clean test rows, which test_clean.jsonl holds
    test_clean = clean.select_ids(test.ids)
    _same_rows(load_dataset(tmp_path / "test_clean.jsonl"), test_clean)
    assert [clean.ids[i] for i in seen["rows"]] == test_clean.ids
    assert np.array_equal(seen["features"], test_clean.features)
    assert np.array_equal(seen["labels"], test_clean.labels)
    probe, final = seen["heads"]
    assert probe is arts.probe and final is arts.final
    (probe_x, probe_y, probe_drop), (final_x, final_y, drop) = fitted
    # the probe and the refit both get the full training rows themselves; the
    # refit drops the rows of removed_ids, in corpus order, and no others
    for x, y in ((probe_x, probe_y), (final_x, final_y)):
        assert x is arts.train.features and y is arts.train.labels
    assert probe_drop is None
    assert drop.tolist() == [arts.train.index_of(sid) for sid in arts.prune.removed_ids]
    assert np.all(np.diff(drop) > 0)
    kept = np.delete(np.arange(len(arts.train)), drop)
    assert [arts.train.ids[i] for i in kept] == arts.prune.kept_ids
    assert arts.report.dataset_summary["n_train_refined"] == len(refined)
    if cfg.train.hidden_dim is None:
        # the closed form subtracts the dropped rows' normal equations
        assert gd_fitted == []
        want = fit_closed_form(refined, config=cfg.train)
        got_beta = np.vstack([arts.final.weights.T, arts.final.biases])
        want_beta = np.vstack([want.weights.T, want.biases])
        assert np.linalg.norm(got_beta - want_beta) <= 1e-12 * np.linalg.norm(want_beta)
        assert arts.final.fit_info == want.fit_info
    else:
        # gradient descent fits a copy of the kept rows' features and labels
        (_, _), (gd_x, gd_y) = gd_fitted
        for got, want in ((gd_x, refined.features), (gd_y, refined.labels)):
            assert got.dtype == np.float64 and got.flags.c_contiguous
            assert np.array_equal(got, want)


@pytest.mark.parametrize("out", [None, "run"], ids=["in-memory", "to-dir"])
def test_a_run_builds_no_full_corpus_dataset(monkeypatch, tmp_path, out):
    sizes = []
    init = Dataset.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        sizes.append(len(self))

    def refuse(*args):
        raise AssertionError("the run built the whole corpus")

    monkeypatch.setattr(Dataset, "__init__", recording_init)
    monkeypatch.setattr(dimsift.data, "generate_synthetic", refuse)
    seen = _recording_evaluation(monkeypatch)
    cfg = small_config()
    arts = run_pipeline(cfg, None if out is None else tmp_path / out)
    # the one Dataset is the training split's; the test rows reach the
    # evaluator as arrays of their own rows
    assert sizes == [len(arts.train)]
    n_test = arts.report.dataset_summary["n_test"]
    assert len(seen["features"]) == len(seen["labels"]) == n_test < cfg.synth.n_samples


def test_a_run_writes_its_corpus_holding_no_full_feature_matrix(monkeypatch, tmp_path):
    cfg = default_config(seed=0)
    cfg = dataclasses.replace(cfg, synth=dataclasses.replace(cfg.synth, n_samples=20_000))
    n, d = cfg.synth.n_samples, cfg.synth.feature_dim
    write, largest = dimsift.data.write_lines, []

    def sampling(lines):
        for i, line in enumerate(lines):
            if i % 2_000 == 0:
                largest.append(max(t.size for t in tracemalloc.take_snapshot().traces))
            yield line
        tracemalloc.stop()  # the rest of the run is not watched

    def watching_write(path, lines):
        write(path, sampling(lines) if Path(path).name == "corpus.jsonl" else lines)

    monkeypatch.setattr(dimsift.data, "write_lines", watching_write)
    tracemalloc.start()
    try:
        run_pipeline(cfg, tmp_path)
    finally:
        tracemalloc.stop()
    # the largest live allocation every 2000 lines of corpus.jsonl: the
    # training features, 0.6x an N x d matrix; writing from a Dataset of
    # the corpus held all N x d features at once
    assert len(largest) == 11
    assert max(largest) < n * d * 8


def test_an_in_memory_run_holds_no_test_feature_matrix(monkeypatch):
    # 1024-row draw blocks: the test features are read in blocks of at most
    # 2047 rows, fewer than the run's 4000 test rows
    monkeypatch.setattr(dimsift.data, "DRAW_BLOCK_ROWS", 1024)
    cfg = default_config(seed=0)
    cfg = dataclasses.replace(cfg, synth=dataclasses.replace(cfg.synth, n_samples=20_000))
    n, d = cfg.synth.n_samples, cfg.synth.feature_dim
    n_test = floor_count(cfg.split_fractions[2], n)
    sample, large = dimsift.pipeline.sample_features, []

    def allocations_of_a_test_matrix_or_more():
        return sorted(t.size for t in tracemalloc.take_snapshot().traces if t.size >= n_test * d * 8)

    def watched_sample(synth, rows):
        for block in sample(synth, rows):
            large.append(allocations_of_a_test_matrix_or_more())
            yield block

    monkeypatch.setattr(dimsift.pipeline, "sample_features", watched_sample)
    tracemalloc.start()
    try:
        arts = run_pipeline(cfg)
        large.append(allocations_of_a_test_matrix_or_more())
    finally:
        tracemalloc.stop()
    # at each test block and once the run returns, the one allocation that
    # large is the training features
    assert len(large) == 3 + 1
    assert large == [[arts.train.features.nbytes]] * len(large)


class _AtProbeFit(Exception):
    pass


def test_an_in_memory_run_holds_little_beyond_its_rows_before_the_probe_fit(monkeypatch):
    cfg = default_config(seed=0)
    cfg = dataclasses.replace(cfg, synth=dataclasses.replace(cfg.synth, n_samples=20_000))
    n, d, k = cfg.synth.n_samples, cfg.synth.feature_dim, cfg.synth.n_dims

    def stop(ds, *args):
        raise _AtProbeFit

    def run_to_the_probe_fit():
        with pytest.raises(_AtProbeFit):
            run_pipeline(cfg)

    monkeypatch.setattr(dimsift.pipeline, "_fit", stop)
    peak = peak_traced_bytes(run_to_the_probe_fit)
    n_test = floor_count(cfg.split_fractions[2], n)
    n_train = n - floor_count(cfg.split_fractions[1], n) - n_test
    # the training rows' features, labels and mask, and the test rows' labels
    rows = n_train * ((d + k) * 8 + k) + n_test * k * 8
    # those rows, two N x K label matrices, and ids beside them: 1.47x
    # measured (5.64 MB); drawing the test rows' features too took 6.16 MB,
    # and building the whole corpus first about 10.4 MB
    assert peak < 1.55 * (rows + 2 * n * k * 8)


def test_the_refit_holds_little_beyond_the_kept_rows(monkeypatch):
    cfg = default_config(seed=0)
    cfg = dataclasses.replace(cfg, synth=dataclasses.replace(cfg.synth, n_samples=20_000))
    d, k = cfg.synth.feature_dim, cfg.synth.n_dims
    select, fit = dimsift.pipeline.ddp_select, dimsift.pipeline._fit
    measured = []

    def tracing_select(scores, rho):
        tracemalloc.start()  # from here on: what the selection and the refit allocate
        return select(scores, rho)

    def measuring_fit(x, y, weights, cfg, drop=None):
        head = fit(x, y, weights, cfg, drop)
        if tracemalloc.is_tracing():
            measured.append((tracemalloc.get_traced_memory()[1], len(x) - len(drop)))
            tracemalloc.stop()
        return head

    monkeypatch.setattr(dimsift.pipeline, "ddp_select", tracing_select)
    monkeypatch.setattr(dimsift.pipeline, "_fit", measuring_fit)
    try:
        run_pipeline(cfg)
    finally:
        if tracemalloc.is_tracing():
            tracemalloc.stop()
    [(peak, n_kept)] = measured
    # the selection and the dropped rows' normal equations: 0.11x the kept
    # rows' features and labels measured; copying those rows measured 1.11x,
    # and a Dataset of the kept rows (ids, id set, mask and checks) 1.57x
    assert peak < 0.2 * n_kept * (d + k) * 8


def test_a_run_holds_its_ids_as_row_numbers(monkeypatch):
    cfg = default_config(seed=0)
    cfg = dataclasses.replace(cfg, synth=dataclasses.replace(cfg.synth, n_samples=20_000))
    seen = _recording_evaluation(monkeypatch)
    tracemalloc.start()
    try:
        arts = run_pipeline(cfg)
        rows = len(arts.train)
        held = tracemalloc.get_traced_memory()[0]
        # every holder of ids among the training split, the scores and the prune result
        for obj, attr in [(arts.train, "_ids"), (arts.scores, "sample_ids"),
                          (arts.prune, "kept_ids"), (arts.prune, "removed_ids"),
                          (arts.prune, "per_dim_risk_sets")]:
            setattr(obj, attr, None)
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # row numbers of the training rows and of the kept and removed rows, 8
    # bytes each: 16.4 bytes per training row measured (with the test rows'
    # ids, 14.3 per training and test row); a str id in a tuple takes 63
    assert 0 < freed < 17 * rows
    # the test rows reach the evaluator as row numbers too
    assert seen["rows"].dtype == np.intp and len(seen["rows"]) == arts.report.dataset_summary["n_test"]


@pytest.mark.parametrize("fractions", [(0.5, 0.3, 0.3), (1.2, -0.1, -0.1), (0.5, 0.5)])
def test_invalid_split_fractions_raise_the_split_error(fractions):
    cfg = small_config()
    with pytest.raises(ValueError) as direct:
        split(generate_synthetic(cfg.synth), fractions, cfg.split_seed)
    with pytest.raises(ValueError) as piped:
        run_pipeline(dataclasses.replace(cfg, split_fractions=fractions))
    assert str(piped.value) == str(direct.value)


@pytest.mark.parametrize(
    "bad",
    [
        pytest.param({"n_samples": 0}, id="no-samples"),
        pytest.param({"label_noise_sd": -0.1}, id="negative-noise-sd"),
        pytest.param({"label_range": (1.0, 1.0)}, id="empty-label-range"),
    ],
)
def test_invalid_synth_settings_raise_the_generator_error(bad):
    cfg = small_config()
    synth = dataclasses.replace(cfg.synth, **bad)
    with pytest.raises(ValueError) as direct:
        generate_synthetic(synth)
    # the synth settings are checked before the split, so bad split fractions
    # do not hide them
    for fractions in (cfg.split_fractions, (0.5, 0.5)):
        with pytest.raises(ValueError) as piped:
            run_pipeline(dataclasses.replace(cfg, synth=synth, split_fractions=fractions))
        assert type(piped.value) is type(direct.value)
        assert str(piped.value) == str(direct.value)


def test_a_ddp_run_ranks_each_score_table_once(monkeypatch):
    # DDP, the overlap curve and the masking report share one ranking of the
    # score matrix; masking ranks the global scores once more
    ranked = []

    def counting(values, rho):
        ranked.append(values.shape)
        return top_sets(values, rho)

    for module in (dimsift.influence, dimsift.refine, dimsift.metrics):
        monkeypatch.setattr(module, "top_sets", counting)
    arts = run_pipeline(small_config(refine="ddp"))
    assert ranked == [arts.scores.scores.shape, arts.global_scores.shape]


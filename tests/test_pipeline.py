"""End-to-end pipeline wiring: config handling, artifacts, reproducibility."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dimsift.pipeline
from dimsift import (
    DataError,
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
    run_pipeline,
    split,
)
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
        severity=st.tuples(_unit, _unit),
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
        rho_total=st.none() | _unit,
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
    assert arts.train.ids != arts.prune.kept_ids
    assert len(arts.prune.kept_ids) < len(arts.train.ids)


def test_pipeline_reweighting_branch():
    arts = run_pipeline(small_config(refine="ddr"))
    assert arts.weight_matrix is not None
    assert abs(arts.weight_matrix.weights.mean() - 1.0) < 1e-12
    assert set(arts.report.strategies) == {"baseline", "ddr"}


def test_pipeline_none_branch_keeps_probe():
    arts = run_pipeline(small_config(refine="none"))
    assert set(arts.report.strategies) == {"baseline"}
    assert arts.prune is None and arts.weight_matrix is None


def test_pipeline_clean_test_labels_are_uncorrupted():
    arts = run_pipeline(small_config())
    # every test id maps back to the clean corpus with identical labels
    for i, sid in enumerate(arts.test_clean.ids):
        j = arts.clean.index_of(sid)
        assert np.array_equal(arts.test_clean.labels[i], arts.clean.labels[j])
    assert arts.test_clean.corruption_mask.sum() == 0


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
    arts = run_pipeline(small_config(), output_dir=out)
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
    # no wall-clock state may leak into artifacts
    blob = (out / "report.json").read_text() + (out / "config.json").read_text()
    assert "time" not in blob and "date" not in blob


def test_pipeline_rejects_empty_test_split():
    doc = small_config().to_dict()
    doc["split"]["fractions"] = [1.0, 0.0, 0.0]
    with pytest.raises(DataError, match="test"):
        run_pipeline(PipelineConfig.from_dict(doc))


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


@pytest.mark.parametrize("refine", ["ddp", "loss_prune", "global_prune"])
def test_index_selection_matches_the_id_route(monkeypatch, refine):
    fitted = []
    fit = dimsift.pipeline._fit

    def recording_fit(ds, *args):
        fitted.append(ds)
        return fit(ds, *args)

    monkeypatch.setattr(dimsift.pipeline, "_fit", recording_fit)
    cfg = small_config(refine=refine)
    arts = run_pipeline(cfg)
    train, _, test = split(arts.noisy, cfg.split_fractions, cfg.split_seed)
    refined = train.select_ids(arts.prune.kept_ids)
    assert 0 < len(refined) < len(train)
    _same_rows(arts.train, train)
    _same_rows(arts.test_clean, arts.clean.select_ids(test.ids))
    probe_set, final_set = fitted
    _same_rows(probe_set, train)
    _same_rows(final_set, refined)


@pytest.mark.parametrize("fractions", [(0.5, 0.3, 0.3), (1.2, -0.1, -0.1), (0.5, 0.5)])
def test_invalid_split_fractions_raise_the_split_error(fractions):
    cfg = small_config()
    with pytest.raises(ValueError) as direct:
        split(run_pipeline(cfg).noisy, fractions, cfg.split_seed)
    with pytest.raises(ValueError) as piped:
        run_pipeline(dataclasses.replace(cfg, split_fractions=fractions))
    assert str(piped.value) == str(direct.value)

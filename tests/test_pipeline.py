"""End-to-end pipeline wiring: config handling, artifacts, reproducibility."""

import dataclasses
import json

import numpy as np
import pytest

import dimsift.pipeline
from dimsift import (
    DataError,
    ExperimentReport,
    PipelineConfig,
    UsageError,
    default_config,
    run_pipeline,
    split,
)


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

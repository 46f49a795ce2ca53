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

from conftest import matrix_copy, peak_traced_bytes, random_head
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
from dimsift.data import StreamLabels, ceil_count, dumps_dataset, floor_count, load_dataset, top_sets
from dimsift.metrics import evaluate_heads
from dimsift.pipeline import REFINE_STRATEGIES


def small_config(seed=0, refine="ddp", **synth_overrides):
    synth = dict(n_samples=400, feature_dim=6, n_dims=3, **synth_overrides)
    overrides = {"synth": synth, "refine": {"strategy": refine, "rho": 0.02}}
    return PipelineConfig.from_dict(_merge(default_config(seed).to_dict(), overrides))


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
        seed=_seeds,
        hidden_dim=st.none() | st.integers(1, 64),
    ),
    influence=st.builds(
        InfluenceConfig, scope=st.sampled_from(Scope), lambdas=st.none() | _tuples(_nonneg)
    ),
    refine=st.builds(
        RefineSpec,
        strategy=st.sampled_from(REFINE_STRATEGIES),
        rho=_unit,
        temperature=_positive,
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


def _as_dict(result):
    return None if result is None else result.to_dict()


def test_one_prefix_serves_every_strategy():
    # the split, the probe and the scores drawn once, then each strategy's
    # suffix in turn, give what a run of that strategy gives; no suffix
    # changes the prefix it shares
    cfg = small_config()
    train, _, _, _ = dimsift.pipeline._draw(cfg, None)
    probe = dimsift.pipeline._fit(train, None, cfg.train)
    scores, global_scores = dimsift.pipeline.self_and_global_scores(probe, train, cfg.influence)
    held = [a.copy() for a in (train.labels, train.corruption_mask, scores.scores, global_scores)]
    probe_doc = probe.to_dict()
    for strategy in REFINE_STRATEGIES:
        spec = dataclasses.replace(cfg.refine, strategy=strategy)
        head, prune, weights, section = dimsift.pipeline._refine(
            spec, cfg.train, train, probe, scores, global_scores
        )
        arts = run_pipeline(dataclasses.replace(cfg, refine=spec))
        assert head.to_dict() == arts.final.to_dict()
        assert _as_dict(prune) == _as_dict(arts.prune)
        assert _as_dict(weights) == _as_dict(arts.weight_matrix)
        assert section == arts.report.refine_summary
    after = (train.labels, train.corruption_mask, scores.scores, global_scores)
    assert all(np.array_equal(a, b) for a, b in zip(held, after))
    assert probe.to_dict() == probe_doc


def _recording_evaluation(monkeypatch) -> dict:
    """Record what run_pipeline evaluates its heads on: the test rows, their features and labels."""
    seen = {}
    evaluate = dimsift.pipeline.evaluate_heads

    def recording_evaluate(heads, ds):
        seen.update(heads=heads, rows=ds.ids.rows, features=ds.features, labels=ds.labels,
                    dim_names=ds.dim_names)
        return evaluate(heads, ds)

    monkeypatch.setattr(dimsift.pipeline, "evaluate_heads", recording_evaluate)
    return seen


def test_pipeline_clean_test_labels_are_uncorrupted(monkeypatch, tmp_path):
    cfg = small_config()
    seen = _recording_evaluation(monkeypatch)
    run_pipeline(cfg, tmp_path)
    clean = generate_synthetic(cfg.synth)
    noisy = cfg.noise.apply(clean)
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
    noisy = cfg.noise.apply(generate_synthetic(cfg.synth))
    assert (out / "corpus.jsonl").read_text() == dumps_dataset(noisy)
    # no wall-clock state may leak into artifacts
    blob = (out / "report.json").read_text() + (out / "config.json").read_text()
    assert "time" not in blob and "date" not in blob


def test_pipeline_rejects_empty_test_split():
    doc = small_config().to_dict()
    doc["split"]["fractions"] = [1.0, 0.0, 0.0]
    with pytest.raises(DataError, match="test"):
        run_pipeline(PipelineConfig.from_dict(doc))


def test_pipeline_rejects_empty_training_split_before_writing(tmp_path):
    # it failed in the probe fit as singular normal equations, after
    # config.json and corpus.jsonl were written
    doc = small_config().to_dict()
    doc["split"]["fractions"] = [0.0, 0.5, 0.5]
    with pytest.raises(DataError, match="training split is empty"):
        run_pipeline(PipelineConfig.from_dict(doc), output_dir=tmp_path / "run")
    assert not (tmp_path / "run").exists()


def test_pipeline_rejects_a_one_row_test_split_before_writing(tmp_path):
    # 6 samples leave one test row: the run failed in the evaluation's rank
    # correlation, after config.json and corpus.jsonl were written
    cfg = small_config()
    cfg = dataclasses.replace(cfg, synth=dataclasses.replace(cfg.synth, n_samples=6))
    with pytest.raises(DataError, match="test split has fewer than 2 rows"):
        run_pipeline(cfg, output_dir=tmp_path / "run")
    assert not (tmp_path / "run").exists()


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
        pytest.param("ddp", {}, {"label_noise_sd": (0.1, 0.5, 1.0)}, {}, id="ddp-per-dim-noise-sd"),
        pytest.param("ddp", {}, {}, {"hidden_dim": 4, "epochs": 20}, id="ddp-gd"),
    ],
)
def test_index_selection_matches_the_id_route(monkeypatch, tmp_path, refine, noise, synth, train):
    fitted, gd_fitted = [], []
    fit, fit_gd = dimsift.pipeline._fit, dimsift.pipeline.fit_gd

    def recording_fit(ds, weights, cfg, rows=None):
        fitted.append((ds, rows))
        return fit(ds, weights, cfg, rows)

    def recording_fit_gd(ds, weights, cfg, rows=None):
        gd_fitted.append((ds, rows))
        return fit_gd(ds, weights, cfg, rows)

    monkeypatch.setattr(dimsift.pipeline, "_fit", recording_fit)
    monkeypatch.setattr(dimsift.pipeline, "fit_gd", recording_fit_gd)
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
    noisy = cfg.noise.apply(clean)
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
    (probe_ds, probe_rows), (final_ds, rows) = fitted
    # the probe and the refit both get the training split itself; the refit
    # gets the positions of kept_ids, in corpus order, and no others
    assert probe_ds is arts.train and final_ds is arts.train
    assert probe_rows is None
    assert rows.tolist() == [arts.train.index_of(sid) for sid in arts.prune.kept_ids]
    assert np.all(np.diff(rows) > 0)
    assert arts.report.dataset_summary["n_train_refined"] == len(refined)
    # either fit of the kept rows is the fit of the refined rows, and gets
    # the same arguments as _fit
    if cfg.train.hidden_dim is None:
        assert gd_fitted == []
        assert arts.final.to_dict() == fit_closed_form(refined, config=cfg.train).to_dict()
    else:
        assert [(id(ds), id(rows)) for ds, rows in gd_fitted] == [(id(ds), id(rows)) for ds, rows in fitted]
        assert arts.final.to_dict() == fit_gd(refined, config=cfg.train).to_dict()


@pytest.mark.parametrize("n_samples", [2000, 50_000])
@pytest.mark.parametrize("refine", ["ddp", "loss_prune", "global_prune"])
def test_a_pruned_refit_is_the_fit_of_the_kept_rows_bit_for_bit(refine, n_samples):
    # run --seed 0 (1200 training rows, one block), and 50k samples, whose
    # 30000 training rows are read in three blocks
    cfg = default_config(seed=0)
    cfg = dataclasses.replace(
        cfg,
        synth=dataclasses.replace(cfg.synth, n_samples=n_samples),
        refine=dataclasses.replace(cfg.refine, strategy=refine),
    )
    arts = run_pipeline(cfg)
    kept = set(arts.prune.kept_ids)
    rows = [i for i, sid in enumerate(arts.train.ids) if sid in kept]
    assert 0 < len(rows) < len(arts.train)
    want = fit_closed_form(arts.train.select(rows), config=cfg.train)
    assert arts.final.to_dict() == want.to_dict()


@pytest.mark.parametrize("out", [None, "run"], ids=["in-memory", "to-dir"])
def test_a_run_builds_no_dataset_of_features(monkeypatch, tmp_path, out):
    built = []
    init = Dataset.__init__

    def recording_init(self, ids, features, labels, *args, **kwargs):
        init(self, ids, features, labels, *args, **kwargs)
        built.append((len(self), features, type(labels)))

    def refuse(*args):
        raise AssertionError("the run built the whole corpus")

    monkeypatch.setattr(Dataset, "__init__", recording_init)
    monkeypatch.setattr(dimsift.data, "generate_synthetic", refuse)
    seen = _recording_evaluation(monkeypatch)
    cfg = small_config()
    arts = run_pipeline(cfg, None if out is None else tmp_path / out)
    # the clean corpus the noise reads its ranges from, the training split
    # and the test rows it is evaluated on, and with an output directory the
    # corpus and the test rows written: each reads its features and labels
    # from the sample stream
    n, n_test = cfg.synth.n_samples, arts.report.dataset_summary["n_test"]
    sizes = [n, len(arts.train), n_test] if out is None else [n, n, len(arts.train), n_test, n_test]
    assert built == [(size, cfg.synth, StreamLabels) for size in sizes]
    assert len(seen["features"]) == len(seen["labels"]) == n_test < n


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
    # corpus's row numbers, 8 bytes a row. Its labels are read from the
    # stream without its features (Dataset.label_blocks), so not even one
    # chunk of features (1568 rows) is live between lines; an N x K label
    # matrix was, until the run read its labels from the stream. With
    # 8192-row blocks one block of features (11808 rows, 0.59x an N x d
    # matrix) was the largest. Holding the training features measured 0.6x,
    # and writing from a Dataset of the corpus's features held all N x d at
    # once
    k = cfg.synth.n_dims
    chunk = max(stop - start for start, stop in dimsift.data._row_chunks(n)) * d * 8
    assert len(largest) == 11
    assert max(largest) == n * 8 < chunk < n * k * 8 < n * d * 8


def test_an_in_memory_run_holds_no_feature_matrix(monkeypatch):
    # 1024-row chunks: every split is read in chunks of at most 2047 rows,
    # fewer than the run's 4000 test rows and 12000 training rows
    monkeypatch.setattr(dimsift.data, "CHUNK_ROWS", 1024)
    cfg = default_config(seed=0)
    cfg = dataclasses.replace(cfg, synth=dataclasses.replace(cfg.synth, n_samples=20_000))
    n, d = cfg.synth.n_samples, cfg.synth.feature_dim
    n_test = floor_count(cfg.split_fractions[2], n)
    n_train = n - floor_count(cfg.split_fractions[1], n) - n_test
    large = []

    def allocations_of_a_training_matrix_or_more():
        return sorted(t.size for t in tracemalloc.take_snapshot().traces if t.size >= n_train * d * 8)

    def watching(sample):
        def watched_sample(*args):
            for block in sample(*args):
                large.append(allocations_of_a_training_matrix_or_more())
                yield block

        return watched_sample

    # every Dataset of the run reads its rows' labels and features through them
    for name in ("sample_labels", "sample_features"):
        monkeypatch.setattr(dimsift.data, name, watching(getattr(dimsift.data, name)))
    tracemalloc.start()
    try:
        arts = run_pipeline(cfg)
        large.append(allocations_of_a_training_matrix_or_more())
    finally:
        tracemalloc.stop()
    # the stream is read for the ranges of every row's clean labels, and for
    # the labels and features of the probe fit, of the scores with the
    # global scores, of the refit's kept rows and of the test rows: at each
    # of their chunks and once the run returns, nothing that large is
    # allocated. A matrix of the training features was, throughout
    n_kept = len(arts.prune.kept_ids)
    blocks = [len(list(dimsift.data._row_chunks(m))) for m in (n, n_train, n_train, n_kept, n_test)]
    assert len(large) == sum(blocks) + sum(blocks[1:]) + 1
    assert large == [[]] * len(large)


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
    # measured warm: numpy imports numpy.random on first use, about 0.65 MB
    # that is not the run's. Cold, in a process of its own, the peak below
    # is 1.60 MB
    run_to_the_probe_fit()
    peak = peak_traced_bytes(run_to_the_probe_fit)
    n_test = floor_count(cfg.split_fractions[2], n)
    n_train = n - floor_count(cfg.split_fractions[1], n) - n_test
    # the split's row numbers and the training rows' mask
    rows = n_train * (8 + k) + n_test * 8
    # those rows; the corpus's row numbers and the noise's selection mask,
    # 8 and K bytes a corpus row; the noise's rows and values; and one piece
    # of the sample stream, its labels and one chunk of them, which the
    # ranges read without features: 1.01x measured (0.94 MB), at the
    # per-dimension noise. No label is held. One N x K label matrix,
    # compacted in place to the training rows, measured 1.38 MB here (2.04
    # MB cold), and at 200k samples 14.5 MB
    m = ceil_count(cfg.noise.rate, n)
    piece = max(stop - start for start, stop in dimsift.data._row_chunks(n))
    assert peak < 1.4 * (rows + n * (8 + k) + m * k * 16 + piece * (d + 2 * k) * 8)


_C = 8


@pytest.mark.parametrize("n_train", [_C - 1, _C, 2 * _C - 1, 2 * _C, 3 * _C + 5])
@pytest.mark.parametrize("noise", [{}, {"dims": [1, 3], "correlated_rate": 0.01}], ids=["default", "dims-1-3"])
@pytest.mark.parametrize("written", [False, True], ids=["in-memory", "out"])
def test_a_runs_stream_labels_are_the_drawn_and_corrupted_labels_at_every_chunk_boundary(
    monkeypatch, tmp_path, n_train, noise, written
):
    # the oracle: draw_synthetic's label matrix, corrupted by NoiseSpec.apply.
    # The run reads its labels from the sample stream, a chunk at a time:
    # splits one row short of a chunk, one chunk, a row short of two, two,
    # and three plus a remainder
    monkeypatch.setattr(dimsift.data, "CHUNK_ROWS", _C)
    overrides = {
        "synth": {"n_samples": 2 * n_train, "feature_dim": 4},
        "noise": noise,
        "refine": {"strategy": "none"},
        "split": {"fractions": [0.5, 0.0, 0.5]},
    }
    cfg = PipelineConfig.from_dict(_merge(default_config(seed=0).to_dict(), overrides))
    seen = _recording_evaluation(monkeypatch)
    arts = run_pipeline(cfg, tmp_path if written else None)
    train_idx, _, test_idx = dimsift.data.split_indices(
        cfg.synth.n_samples, cfg.split_fractions, cfg.split_seed
    )
    assert len(train_idx) == n_train
    corpus = generate_synthetic(cfg.synth)
    clean, noisy = corpus.labels, cfg.noise.apply(corpus)
    labels, mask = noisy.labels, noisy.corruption_mask
    assert arts.train.labels.tobytes() == labels[train_idx].tobytes()
    assert np.array_equal(arts.train.corruption_mask, mask[train_idx])
    # the test rows' clean labels, drawn when the evaluation starts
    assert seen["labels"].tobytes() == clean[test_idx].tobytes()
    if written:
        # and the row tables written from the stream
        for name, want, want_mask in (("corpus", labels, mask), ("train", labels[train_idx], mask[train_idx]),
                                      ("test_clean", clean[test_idx], np.zeros((len(test_idx), 5), bool))):
            table = load_dataset(tmp_path / f"{name}.jsonl")
            assert table.labels.tobytes() == want.tobytes()
            assert np.array_equal(table.corruption_mask, want_mask)


def test_a_runs_training_rows_are_its_train_jsonls_bit_for_bit(monkeypatch, tmp_path):
    # sample(i) and labels of a run's training split read the sample stream;
    # train.jsonl's reader reads the labels the file holds. 8-row chunks: 50
    # chunks of the 400-row stream, and 30 of the 240 training rows
    monkeypatch.setattr(dimsift.data, "CHUNK_ROWS", _C)
    cfg = small_config()
    arts = run_pipeline(cfg, tmp_path)
    train, staged = arts.train, load_dataset(tmp_path / "train.jsonl")
    assert train.labels.tobytes() == staged.labels.tobytes()
    assert np.array_equal(train.corruption_mask, staged.corruption_mask)
    chunks = dimsift.data._row_chunks
    # the training rows at the first and last row of a chunk of the stream
    # and of the split, the first and last with a corrupted cell, and the
    # split's last row
    edges = [r for start, stop in chunks(cfg.synth.n_samples) for r in (start, stop - 1)]
    at_edges = np.flatnonzero(np.isin(train.ids.rows, edges)).tolist()
    corrupted = np.flatnonzero(train.corruption_mask.any(axis=1))
    picks = {*at_edges, *(r for start, stop in chunks(len(train)) for r in (start, stop - 1)),
             int(corrupted[0]), int(corrupted[-1]), len(train) - 1}
    assert len(at_edges) > 10 and len(corrupted) > 10
    for i in sorted(picks):
        got, want = train.sample(i), staged.sample(i)
        assert got.id == want.id
        assert got.features.tobytes() == want.features.tobytes()
        assert got.labels.tobytes() == want.labels.tobytes()
        assert np.array_equal(got.corrupted, want.corrupted)


def test_the_refit_holds_little_beyond_the_kept_rows(monkeypatch):
    # 2048-row chunks: the 11821 kept rows are read in five chunks
    monkeypatch.setattr(dimsift.data, "CHUNK_ROWS", 2048)
    cfg = default_config(seed=0)
    cfg = dataclasses.replace(cfg, synth=dataclasses.replace(cfg.synth, n_samples=20_000))
    d, k = cfg.synth.feature_dim, cfg.synth.n_dims
    fit = dimsift.pipeline._fit
    measured = []

    def measuring_fit(ds, weights, cfg, rows=None):
        if rows is None:
            return fit(ds, weights, cfg)
        peak = peak_traced_bytes(fit, ds, weights, cfg, rows)
        measured.append((peak, len(rows)))
        return fit(ds, weights, cfg, rows)

    monkeypatch.setattr(dimsift.pipeline, "_fit", measuring_fit)
    run_pipeline(cfg)
    [(peak, n_kept)] = measured
    assert len(list(dimsift.data._row_chunks(n_kept))) >= 4
    # one chunk of the kept rows' features and labels (at most 2C - 1 rows),
    # the stream rows of the kept positions (8 bytes each) and one piece of
    # the sample stream (C rows): 0.95 of that measured, with the labels
    # read from the stream (0.81 from a label matrix). Each chunk's labels
    # come first, from the draw's own pieces (up to 2C - 1 rows), which are
    # freed before its features are drawn. Reading both from one piece at
    # once measured 1.49, gathering the kept rows' labels before the first
    # block 1.36, and every kept row's features at once 2.63
    c = dimsift.data.CHUNK_ROWS
    bound = (2 * c - 1) * (d + k) * 8 + n_kept * 8 + c * d * 8
    assert peak <= bound


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
                          (arts.prune, "sample_ids"), (arts.prune, "per_dim_risk_sets")]:
            setattr(obj, attr, None)
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # row numbers of the training rows and of the risk sets' rows, 8 bytes
    # each: 8.3 bytes per training row measured. Holding the kept rows'
    # numbers as well measured 16.4, and a str id in a tuple takes 63
    assert 0 < freed < 9 * rows
    # the test rows reach the evaluator as row numbers too
    assert seen["rows"].dtype == np.intp and len(seen["rows"]) == arts.report.dataset_summary["n_test"]


@pytest.mark.parametrize("refine", ["ddp", "loss_prune", "global_prune"])
def test_a_pruned_refit_fits_the_rows_its_kept_ids_locate(monkeypatch, refine):
    # the refit's positions, the complement of the removed mask, are the
    # positions of the kept ids' row numbers among the training rows
    fitted = []
    fit = dimsift.pipeline._fit

    def recording_fit(ds, weights, cfg, rows=None):
        fitted.append(rows)
        return fit(ds, weights, cfg, rows)

    monkeypatch.setattr(dimsift.pipeline, "_fit", recording_fit)
    arts = run_pipeline(small_config(refine=refine))
    probe_rows, rows = fitted
    want = np.searchsorted(arts.train.ids.rows, arts.prune.kept_ids.rows)
    assert probe_rows is None and rows.dtype == want.dtype and np.array_equal(rows, want)
    assert 0 < len(rows) == arts.report.dataset_summary["n_train_refined"] < len(arts.train)


def test_an_in_memory_ddp_run_holds_no_copy_of_its_kept_ids():
    cfg = default_config(seed=0)
    cfg = dataclasses.replace(cfg, synth=dataclasses.replace(cfg.synth, n_samples=50_000))
    run_pipeline(cfg)  # numpy's lazy imports are not the run's
    tracemalloc.start()
    try:
        arts = run_pipeline(cfg)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    train, n = arts.train, len(arts.train)
    mask = train.corruption_mask
    # the scores and global scores, the training rows' numbers, corruption
    # mask and corrupted values, and the removed mask: 28 KB more measured
    # (the report, heads and risk sets). Kept ids as a copy of the kept
    # rows' numbers measured 240 KB more, 8 bytes a training row
    rows = arts.scores.scores.nbytes + arts.global_scores.nbytes + train.ids.rows.nbytes
    rows += mask.nbytes + 8 * int(mask.sum()) + arts.prune.removed.nbytes
    assert arts.prune.removed.nbytes == n
    assert held < rows + 64 * 1024 < rows + 8 * n


@pytest.mark.parametrize("labels", ["stream", "held"])
def test_evaluate_heads_ranks_within_its_buffers(labels):
    # 60000 rows of the sample stream (every third of 180k), clean labels
    synth = dataclasses.replace(default_config(seed=0).synth, n_samples=180_000)
    rows = np.arange(0, synth.n_samples, 3)
    clean = StreamLabels(dimsift.data.noise_state(synth), np.empty(0))
    ds = dimsift.data.synthetic_rows(synth, rows, clean, None, dimsift.data.synth_manifest(synth))
    if labels == "held":
        ds = matrix_copy(ds)
    rng = np.random.default_rng(0)
    heads = [random_head(rng, synth.n_dims, synth.feature_dim) for _ in range(2)]
    evaluate_heads(heads, ds)  # numpy's lazy imports are not the evaluation's
    peak = peak_traced_bytes(evaluate_heads, heads, ds)
    n, k, d = len(ds), synth.n_dims, synth.feature_dim
    chunk = max(stop - start for start, stop in dimsift.data._row_chunks(n)) * (d + k) * 8
    # the (K, n) buffers of each head's predictions and of the labels drawn
    # from the stream (a held matrix's are not copied), and the ranker's
    # sort order and sorted copy of one row: 18.0 bytes a row beyond the
    # buffers measured from the stream, and 26 from a held label matrix,
    # whose column is ranked in a copy. Ranking into new arrays measured 33
    # and 41
    buffers = (len(heads) + (labels == "stream")) * k * n * 8
    assert peak < buffers + 3 * n * 8 + chunk


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
        pytest.param({"feature_dim": 0}, id="no-features"),
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


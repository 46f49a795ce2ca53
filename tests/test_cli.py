"""Command line stages: gen, corrupt, split, fit, score, prune, reweight,
detect-noise, evaluate, report, run. Each stage must agree byte-for-byte or
value-for-value with the library call it wraps, and failures must map to the
documented exit codes (1 usage, 2 data, 3 numerics)."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dimsift import (
    ExperimentReport,
    InfluenceConfig,
    PruneResult,
    RegressionHead,
    Scope,
    SynthConfig,
    TrainConfig,
    WeightMatrix,
    ddp_select,
    default_config,
    fit_closed_form,
    generate_synthetic,
    inject_dimension_noise,
    load_dataset,
    run_pipeline,
    self_influence_closed_form,
)
import dimsift
from dimsift.cli import main
from dimsift.data import dumps_dataset
from dimsift.influence import SelfInfluenceTable


@pytest.fixture()
def stage_dir(tmp_path):
    """Corpus + corrupted + head files shared by the stage tests."""
    corpus = tmp_path / "corpus.jsonl"
    noisy = tmp_path / "noisy.jsonl"
    head = tmp_path / "head.json"
    assert main(["gen", "--n", "200", "--features", "5", "--dims", "3",
                 "--noise-sd", "0.1", "--teacher-seed", "1", "--sample-seed", "2",
                 "--out", str(corpus)]) == 0
    assert main(["corrupt", "--data", str(corpus), "--rate", "0.1",
                 "--seed", "3", "--out", str(noisy)]) == 0
    assert main(["fit", "--data", str(noisy), "--alpha", "1e-6",
                 "--out", str(head)]) == 0
    return tmp_path


def test_gen_matches_library(tmp_path):
    out = tmp_path / "corpus.jsonl"
    assert main(["gen", "--n", "50", "--features", "4", "--dims", "2",
                 "--noise-sd", "0.2", "--teacher-seed", "7", "--sample-seed", "8",
                 "--out", str(out)]) == 0
    expect = generate_synthetic(
        SynthConfig(50, 4, 2, label_noise_sd=0.2, teacher_seed=7, sample_seed=8)
    )
    assert out.read_text() == dumps_dataset(expect)


def test_corrupt_matches_library(stage_dir):
    corpus = load_dataset(stage_dir / "corpus.jsonl")
    noisy = load_dataset(stage_dir / "noisy.jsonl")
    expect = inject_dimension_noise(corpus, 0.1, range(3), 3)
    assert dumps_dataset(noisy) == dumps_dataset(expect)


def test_split_partitions_like_library(stage_dir):
    assert main(["split", "--data", str(stage_dir / "noisy.jsonl"),
                 "--fractions", "0.5,0.25,0.25", "--seed", "4",
                 "--out-prefix", str(stage_dir / "part")]) == 0
    from dimsift import split

    noisy = load_dataset(stage_dir / "noisy.jsonl")
    train, val, test = split(noisy, (0.5, 0.25, 0.25), seed=4)
    assert load_dataset(stage_dir / "part.train.jsonl").ids == train.ids
    assert load_dataset(stage_dir / "part.val.jsonl").ids == val.ids
    assert load_dataset(stage_dir / "part.test.jsonl").ids == test.ids


def test_fit_matches_library(stage_dir):
    noisy = load_dataset(stage_dir / "noisy.jsonl")
    expect = fit_closed_form(noisy, config=TrainConfig(ridge_alpha=1e-6))
    head = RegressionHead.load(stage_dir / "head.json")
    assert np.array_equal(head.weights, expect.weights)
    assert np.array_equal(head.biases, expect.biases)


def test_score_closed_and_explicit_agree(stage_dir):
    a = stage_dir / "closed.jsonl"
    b = stage_dir / "explicit.jsonl"
    for method, path in [("closed", a), ("explicit", b)]:
        assert main(["score", "--data", str(stage_dir / "noisy.jsonl"),
                     "--head", str(stage_dir / "head.json"),
                     "--method", method, "--out", str(path)]) == 0
    ta = SelfInfluenceTable.load(a)
    tb = SelfInfluenceTable.load(b)
    assert np.abs(ta.scores - tb.scores).max() < 1e-9
    noisy = load_dataset(stage_dir / "noisy.jsonl")
    head = RegressionHead.load(stage_dir / "head.json")
    expect = self_influence_closed_form(head, noisy, InfluenceConfig())
    assert np.array_equal(ta.scores, expect.scores)


def test_score_global_and_row_sum_outputs(stage_dir):
    out = stage_dir / "global.json"
    assert main(["score", "--data", str(stage_dir / "noisy.jsonl"),
                 "--head", str(stage_dir / "head.json"),
                 "--method", "global", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["type"] == "global_tracin"
    assert len(doc["ids"]) == len(doc["scores"]) == 200
    out2 = stage_dir / "rows.json"
    assert main(["score", "--data", str(stage_dir / "noisy.jsonl"),
                 "--head", str(stage_dir / "head.json"),
                 "--method", "row_sum", "--out", str(out2)]) == 0
    doc2 = json.loads(out2.read_text())
    assert doc2["type"] == "row_sum"
    assert np.asarray(doc2["values"]).shape == (200, 3)


def test_prune_matches_library(stage_dir):
    scores = stage_dir / "scores.jsonl"
    assert main(["score", "--data", str(stage_dir / "noisy.jsonl"),
                 "--head", str(stage_dir / "head.json"), "--out", str(scores)]) == 0
    out = stage_dir / "prune.json"
    assert main(["prune", "--scores", str(scores), "--rho", "0.05",
                 "--out", str(out)]) == 0
    expect = ddp_select(SelfInfluenceTable.load(scores), 0.05)
    got = PruneResult.load(out)
    assert got.removed_ids == expect.removed_ids
    assert got.thresholds == expect.thresholds


def test_reweight_produces_unit_mean(stage_dir):
    scores = stage_dir / "scores.jsonl"
    main(["score", "--data", str(stage_dir / "noisy.jsonl"),
          "--head", str(stage_dir / "head.json"), "--out", str(scores)])
    out = stage_dir / "weights.json"
    assert main(["reweight", "--scores", str(scores), "--temperature", "0.5",
                 "--out", str(out)]) == 0
    wm = WeightMatrix.load(out)
    assert abs(wm.weights.mean() - 1.0) < 1e-12
    assert wm.temperature == 0.5


def test_detect_noise_reports_auroc(stage_dir, capsys):
    scores = stage_dir / "scores.jsonl"
    main(["score", "--data", str(stage_dir / "noisy.jsonl"),
          "--head", str(stage_dir / "head.json"), "--out", str(scores)])
    out = stage_dir / "detect.json"
    assert main(["detect-noise", "--data", str(stage_dir / "noisy.jsonl"),
                 "--scores", str(scores), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert sorted(doc["per_dim_auroc"]) == ["dim0", "dim1", "dim2"]
    assert all(v > 0.5 for v in doc["per_dim_auroc"].values())


def test_evaluate_reports_spearman(stage_dir):
    out = stage_dir / "eval.json"
    assert main(["evaluate", "--data", str(stage_dir / "noisy.jsonl"),
                 "--head", str(stage_dir / "head.json"), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["per_dim_spearman"]) == 3


def test_run_writes_report_and_is_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    args = ["run", "--seed", "3", "--out"]
    assert main(args + [str(out_a)]) == 0
    assert main(args + [str(out_b)]) == 0
    assert (out_a / "report.json").read_text() == (out_b / "report.json").read_text()
    assert (out_a / "scores.jsonl").read_bytes() == (out_b / "scores.jsonl").read_bytes()


def test_run_matches_library_pipeline(tmp_path):
    out = tmp_path / "cli"
    assert main(["run", "--seed", "2", "--out", str(out)]) == 0
    arts = run_pipeline(default_config(seed=2))
    assert json.loads((out / "report.json").read_text()) == arts.report.to_dict()


def test_run_set_overrides(tmp_path):
    out = tmp_path / "r"
    assert main(["run", "--seed", "1", "--set", "synth.n_samples=500",
                 "--set", "refine.rho=0.02", "--out", str(out)]) == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["config"]["synth"]["n_samples"] == 500
    assert doc["config"]["refine"]["rho"] == 0.02
    assert doc["dataset"]["n_total"] == 500


def test_run_refine_override(tmp_path):
    out = tmp_path / "r"
    assert main(["run", "--seed", "1", "--refine", "ddr", "--out", str(out)]) == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["refine"]["strategy"] == "ddr"
    assert (out / "weights.json").exists()


def test_report_renders_run_directory(tmp_path, capsys):
    out = tmp_path / "r"
    main(["run", "--seed", "1", "--out", str(out)])
    assert main(["report", "--dir", str(out)]) == 0
    text = capsys.readouterr().out
    assert "baseline" in text


def test_report_assembles_from_stage_outputs(stage_dir, capsys):
    scores = stage_dir / "scores.jsonl"
    main(["score", "--data", str(stage_dir / "noisy.jsonl"),
          "--head", str(stage_dir / "head.json"), "--out", str(scores)])
    main(["prune", "--scores", str(scores), "--rho", "0.05",
          "--out", str(stage_dir / "prune.json")])
    assert main(["report", "--dir", str(stage_dir)]) == 0
    text = capsys.readouterr().out
    assert "overlap" in text.lower()


# ------------------------------------------------------------- exit codes

def test_usage_errors_exit_one(tmp_path, capsys):
    assert main(["gen", "--n", "10", "--out", str(tmp_path / "x.jsonl")]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["run", "--seed", "0", "--set", "synth.bogus=1",
                 "--out", str(tmp_path / "r")]) == 1
    capsys.readouterr()


def test_data_errors_exit_two(stage_dir, tmp_path, capsys):
    # detect-noise on a corpus that carries no corruption at all
    scores = stage_dir / "clean_scores.jsonl"
    main(["fit", "--data", str(stage_dir / "corpus.jsonl"), "--alpha", "1e-6",
          "--out", str(stage_dir / "clean_head.json")])
    main(["score", "--data", str(stage_dir / "corpus.jsonl"),
          "--head", str(stage_dir / "clean_head.json"), "--out", str(scores)])
    assert main(["detect-noise", "--data", str(stage_dir / "corpus.jsonl"),
                 "--scores", str(scores)]) == 2
    err = capsys.readouterr().err
    assert "corrupt" in err.lower()
    # malformed dataset file
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{}\n")
    assert main(["fit", "--data", str(bad), "--out", str(tmp_path / "h.json")]) == 2


def test_numerical_errors_exit_three(tmp_path, capsys):
    # 3 samples cannot determine 5 features + intercept without ridge
    corpus = tmp_path / "tiny.jsonl"
    main(["gen", "--n", "3", "--features", "5", "--dims", "2",
          "--teacher-seed", "0", "--sample-seed", "0", "--out", str(corpus)])
    assert main(["fit", "--data", str(corpus), "--alpha", "0.0",
                 "--out", str(tmp_path / "h.json")]) == 3
    capsys.readouterr()


def test_non_numeric_dataset_value_is_a_data_error(stage_dir, capsys):
    lines = (stage_dir / "corpus.jsonl").read_text().splitlines()
    rec = json.loads(lines[3])
    rec["labels"][1] = "abc"
    lines[3] = json.dumps(rec)
    bad = stage_dir / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["evaluate", "--data", str(bad), "--head", str(stage_dir / "head.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:")
    assert repr(rec["id"]) in err and "line 4" in err and "'abc'" in err


def test_score_header_without_dim_names_is_a_data_error(stage_dir, capsys):
    scores = stage_dir / "scores.jsonl"
    main(["score", "--data", str(stage_dir / "noisy.jsonl"),
          "--head", str(stage_dir / "head.json"), "--out", str(scores)])
    lines = scores.read_text().splitlines()
    header = json.loads(lines[0])
    del header["dim_names"]
    lines[0] = json.dumps(header)
    scores.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["prune", "--scores", str(scores), "--out", str(stage_dir / "prune.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "dim_names" in err


def _cli_subprocess(argv):
    """dimsift main(argv) in a fresh interpreter, so a traceback would reach stderr."""
    src = str(Path(dimsift.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); from dimsift.cli import main; sys.exit(main({argv!r}))"
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)


def _replace_line(path, line_no, value):
    lines = path.read_text().splitlines()
    lines[line_no - 1] = json.dumps(value(json.loads(lines[line_no - 1])))
    path.write_text("\n".join(lines) + "\n")


def _as_list(doc):
    return list(doc.values())


def _without_id(doc):
    return {k: v for k, v in doc.items() if k != "id"}


def _list_meta(doc):
    return dict(doc, meta=[1, 2])


@pytest.mark.parametrize(
    "kind, line_no, value",
    [
        ("dataset", 1, _as_list),
        ("dataset", 1, _list_meta),
        ("dataset", 3, _as_list),
        ("scores", 1, _as_list),
        ("scores", 4, _as_list),
        ("scores", 4, _without_id),
    ],
)
def test_wrong_shape_json_is_a_data_error(stage_dir, kind, line_no, value):
    head = str(stage_dir / "head.json")
    if kind == "dataset":
        bad = stage_dir / "noisy.jsonl"
        argv = ["evaluate", "--data", str(bad), "--head", head]
    else:
        bad = stage_dir / "scores.jsonl"
        assert main(["score", "--data", str(stage_dir / "noisy.jsonl"),
                     "--head", head, "--out", str(bad)]) == 0
        argv = ["prune", "--scores", str(bad), "--out", str(stage_dir / "prune.json")]
    _replace_line(bad, line_no, value)
    out = _cli_subprocess(argv)
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("data error:") and f"line {line_no}" in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize(
    "edit, named",
    [
        pytest.param(lambda doc: doc.update(mystery={}), "mystery", id="unknown-section"),
        pytest.param(lambda doc: doc["synth"].update(bogus=1), "synth.bogus", id="unknown-key"),
        pytest.param(lambda doc: doc["synth"].pop("n_dims"), "synth.n_dims", id="missing-key"),
        pytest.param(lambda doc: doc["synth"].update(n_samples="many"), "synth.n_samples",
                     id="non-numeric-int"),
        pytest.param(lambda doc: doc["train"].update(fit_bias="false"), "train.fit_bias",
                     id="string-bool"),
        pytest.param(lambda doc: doc["influence"].update(scope="everything"), "influence.scope",
                     id="bad-scope"),
        pytest.param(lambda doc: doc["refine"].update(strategy="psychic"),
                     "config refine: unknown refine strategy 'psychic'", id="bad-refine-strategy"),
    ],
)
def test_bad_config_exits_one_naming_the_key(tmp_path, capsys, edit, named):
    doc = default_config().to_dict()
    edit(doc)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and named in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("doc", [[1, 2], {"dataset": [1]}])
def test_report_file_of_the_wrong_shape_is_a_data_error(tmp_path, doc):
    if isinstance(doc, dict):
        doc = dict(ExperimentReport("0.1.0", {}, {}, {}, {}, {}, {}, {}).to_dict(), **doc)
    (tmp_path / "report.json").write_text(json.dumps(doc))
    out = _cli_subprocess(["report", "--dir", str(tmp_path)])
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("data error:") and "Traceback" not in out.stderr


def test_string_corruption_mask_is_a_data_error(stage_dir):
    bad = stage_dir / "noisy.jsonl"
    _replace_line(bad, 3, lambda rec: dict(rec, corrupted=["false"] * len(rec["corrupted"])))
    out = _cli_subprocess(["evaluate", "--data", str(bad), "--head", str(stage_dir / "head.json")])
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("data error:") and "line 3" in out.stderr
    assert "Traceback" not in out.stderr


def test_stage_report_leaves_out_masking_for_a_shared_layer_table(stage_dir, capsys):
    noisy, head = str(stage_dir / "noisy.jsonl"), str(stage_dir / "shared_head.json")
    assert main(["fit", "--data", noisy, "--hidden-dim", "4", "--epochs", "50", "--out", head]) == 0
    assert main(["score", "--data", noisy, "--head", head, "--scope", "last_two_layers",
                 "--method", "explicit", "--out", str(stage_dir / "scores.jsonl")]) == 0
    capsys.readouterr()
    assert main(["report", "--dir", str(stage_dir)]) == 0
    text = capsys.readouterr().out
    assert "overlap curve" in text
    assert "masked by global ranking: not computed" in text and "budget" not in text

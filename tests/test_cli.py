"""Command line stages: gen, corrupt, split, fit, score, prune, reweight,
detect-noise, evaluate, report, run. Each stage must agree byte-for-byte or
value-for-value with the library call it wraps, and failures must map to the
documented exit codes (1 usage, 2 data, 3 numerics)."""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dimsift import (
    ExperimentReport,
    InfluenceConfig,
    NoiseSpec,
    PipelineConfig,
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
    load_dataset,
    run_pipeline,
    save_dataset,
)
import dimsift
import dimsift.data
from conftest import matrix_copy, peak_traced_bytes
from dimsift.cli import _build_parser, main
from dimsift.data import dumps_dataset
from dimsift.influence import SelfInfluenceTable
from dimsift.pipeline import REFINE_STRATEGIES
from dimsift.refine import DEFAULT_RHO


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


def test_gen_matches_library_across_draw_blocks(tmp_path):
    # two draw blocks, and one-dimension labels
    out = tmp_path / "corpus.jsonl"
    assert main(["gen", "--n", "17000", "--features", "3", "--dims", "1", "--noise-sd", "0.2",
                 "--sample-seed", "8", "--out", str(out)]) == 0
    expect = generate_synthetic(SynthConfig(17_000, 3, 1, label_noise_sd=0.2, sample_seed=8))
    assert out.read_text() == dumps_dataset(expect)


def test_gen_holds_no_full_feature_matrix(monkeypatch, tmp_path):
    # 512-row chunks keep the test small: 8000 rows in 15 chunks
    monkeypatch.setattr(dimsift.data, "CHUNK_ROWS", 512)
    n, d = 8_000, 16
    argv = ["gen", "--features", str(d), "--dims", "1", "--out", str(tmp_path / "c.jsonl")]
    main(argv + ["--n", "10"])  # the parser and numpy's lazy set-up, outside the measurement
    peak = peak_traced_bytes(main, argv + ["--n", str(n)])
    # the draw's labels, one chunk and one 512-row piece of the sample
    # stream, then the writer's mask and ids' row numbers, measured 0.27x an
    # N x d matrix: the rows carry no features. Writing each row's features
    # from the stream measured 0.42x, holding the previous chunk while the
    # next is drawn 0.05x more, and drawing the corpus as a Dataset 1.4x
    assert peak < 0.3 * n * d * 8 + 512 * d * 8


def test_corrupt_matches_library(stage_dir):
    corpus = load_dataset(stage_dir / "corpus.jsonl")
    noisy = load_dataset(stage_dir / "noisy.jsonl")
    expect = NoiseSpec(rate=0.1, dims=tuple(range(3)), seed=3).apply(corpus)
    assert dumps_dataset(noisy) == dumps_dataset(expect)


def test_corrupt_noise_flags_match_the_library_chain(tmp_path):
    corpus = generate_synthetic(SynthConfig(300, 5, 4, label_noise_sd=0.1, sample_seed=1))
    save_dataset(corpus, tmp_path / "corpus.jsonl")
    out = tmp_path / "noisy.jsonl"
    assert main(["corrupt", "--data", str(tmp_path / "corpus.jsonl"), "--rate", "0.15",
                 "--dims", "1,3", "--seed", "9", "--correlated-rate", "0.01",
                 "--correlated-seed", "4", "--out", str(out)]) == 0
    noisy = NoiseSpec(rate=0.15, dims=(1, 3), seed=9).apply(corpus)
    expect = NoiseSpec(correlated_rate=0.01, correlated_seed=4).apply(noisy)
    assert out.read_text() == dumps_dataset(expect)


def test_stage_flag_defaults_are_the_dataclass_fields():
    parse = _build_parser().parse_args
    c = parse(["corrupt", "--data", "d", "--out", "o"])
    assert NoiseSpec(rate=c.rate, dims=c.dims, seed=c.seed, correlated_rate=c.correlated_rate,
                     correlated_seed=c.correlated_seed) == NoiseSpec()
    s = parse(["split", "--data", "d", "--out-prefix", "o"])
    assert tuple(s.fractions) == PipelineConfig.split_fractions
    assert s.seed == PipelineConfig.split_seed
    sc = parse(["score", "--data", "d", "--head", "h", "--out", "o"])
    assert Scope(sc.scope) == InfluenceConfig().scope


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


def test_score_global_and_row_sum_outputs(stage_dir):
    out = stage_dir / "global.json"
    assert main(["score", "--data", str(stage_dir / "noisy.jsonl"),
                 "--head", str(stage_dir / "head.json"),
                 "--method", "global", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["type"] == "global_tracin"
    assert len(doc["ids"]) == len(doc["scores"]) == 200
    assert out.read_text() == json.dumps(doc, sort_keys=True) + "\n"
    out2 = stage_dir / "rows.json"
    assert main(["score", "--data", str(stage_dir / "noisy.jsonl"),
                 "--head", str(stage_dir / "head.json"),
                 "--method", "row_sum", "--out", str(out2)]) == 0
    doc2 = json.loads(out2.read_text())
    assert doc2["type"] == "row_sum"
    assert np.asarray(doc2["values"]).shape == (200, 3)
    assert out2.read_text() == json.dumps(doc2, sort_keys=True) + "\n"


@pytest.mark.parametrize("method", ["global", "row_sum"])
def test_score_csv_of_a_scalar_method_exits_one_naming_the_flag(stage_dir, capsys, method):
    out, csv = stage_dir / "s.json", stage_dir / "s.csv"
    assert main(["score", "--data", str(stage_dir / "noisy.jsonl"),
                 "--head", str(stage_dir / "head.json"), "--method", method,
                 "--out", str(out), "--csv", str(csv)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "--csv" in err
    assert not out.exists() and not csv.exists()


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


@pytest.mark.parametrize("kind", ["weights", "scores"])
def test_id_files_must_match_the_dataset(stage_dir, kind):
    noisy, other = str(stage_dir / "noisy.jsonl"), str(stage_dir / "other.jsonl")
    scores, weights = str(stage_dir / "scores.jsonl"), str(stage_dir / "weights.json")
    assert main(["score", "--data", noisy, "--head", str(stage_dir / "head.json"),
                 "--out", scores]) == 0
    assert main(["reweight", "--scores", scores, "--out", weights]) == 0
    save_dataset(load_dataset(noisy).select(range(199, -1, -1)), other)
    user = str(stage_dir / "user.jsonl")
    save_dataset(matrix_copy(load_dataset(noisy)), user)

    def argv(data):
        if kind == "weights":
            return ["fit", "--data", data, "--weights", weights, "--out", str(stage_dir / "h.json")]
        return ["detect-noise", "--data", data, "--scores", scores]

    # the dataset the file was made from is accepted, as a table of user data
    # too (its ids a tuple, the file's a list); the same rows reordered are not
    assert main(argv(noisy)) == 0
    assert main(argv(user)) == 0
    assert main(argv(other)) == 2


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


def test_a_flagless_fit_gives_a_runs_heads(tmp_path):
    # `run` and `fit` share TrainConfig's defaults, so neither head needs a flag
    run, probe, final = tmp_path / "r", tmp_path / "probe.json", tmp_path / "final.json"
    assert main(["run", "--seed", "0", "--refine", "ddr", "--set", "synth.n_samples=500",
                 "--out", str(run)]) == 0
    train = str(run / "train.jsonl")
    assert main(["fit", "--data", train, "--out", str(probe)]) == 0
    assert main(["fit", "--data", train, "--weights", str(run / "weights.json"),
                 "--out", str(final)]) == 0
    assert probe.read_bytes() == (run / "probe_head.json").read_bytes()
    assert final.read_bytes() == (run / "final_head.json").read_bytes()


def test_run_refine_override(tmp_path):
    out = tmp_path / "r"
    assert main(["run", "--seed", "1", "--refine", "ddr", "--out", str(out)]) == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["refine"]["strategy"] == "ddr"
    assert (out / "weights.json").exists()


@pytest.mark.parametrize("refine", REFINE_STRATEGIES)
def test_report_renders_run_directory(tmp_path, capsys, refine):
    # report --dir re-renders a run's report.json to the run's own report.txt
    out = tmp_path / "r"
    assert main(["run", "--seed", "1", "--refine", refine, "--out", str(out)]) == 0
    written = (out / "report.txt").read_bytes()
    capsys.readouterr()
    assert main(["report", "--dir", str(out)]) == 0
    assert (out / "report.txt").read_bytes() == written
    assert capsys.readouterr().out == written.decode()


@pytest.mark.parametrize("pruned", [True, False], ids=["prune-rho", "default-rho"])
def test_report_assembles_from_stage_outputs(stage_dir, capsys, pruned):
    # the overlap and masking rho is the prune's, else the default
    scores = stage_dir / "scores.jsonl"
    main(["score", "--data", str(stage_dir / "noisy.jsonl"),
          "--head", str(stage_dir / "head.json"), "--out", str(scores)])
    if pruned:
        main(["prune", "--scores", str(scores), "--rho", "0.05",
              "--out", str(stage_dir / "prune.json")])
    capsys.readouterr()
    assert main(["report", "--dir", str(stage_dir)]) == 0
    text = capsys.readouterr().out
    rho = 0.05 if pruned else DEFAULT_RHO
    assert f"overlap curve at rho={rho}:" in text
    assert (stage_dir / "report.txt").read_text() == text


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
    # a head fitted on 4 features, evaluated on the 5-feature corpus
    head4 = tmp_path / "head4.json"
    RegressionHead(np.zeros((3, 4)), np.zeros(3)).save(head4)
    capsys.readouterr()
    assert main(["evaluate", "--data", str(stage_dir / "noisy.jsonl"), "--head", str(head4)]) == 2
    assert capsys.readouterr().err == "data error: head expects 4 features, dataset has 5\n"


def test_numerical_errors_exit_three(tmp_path, capsys):
    # 3 samples cannot determine 5 features + intercept without ridge
    corpus = tmp_path / "tiny.jsonl"
    main(["gen", "--n", "3", "--features", "5", "--dims", "2",
          "--teacher-seed", "0", "--sample-seed", "0", "--out", str(corpus)])
    assert main(["fit", "--data", str(corpus), "--alpha", "0.0",
                 "--out", str(tmp_path / "h.json")]) == 3
    capsys.readouterr()


def test_labels_that_overflow_the_normal_equations_exit_three(stage_dir):
    # two labels near the float maximum overflow the sums of the normal
    # equations: the fit has no finite solution, which is a numerical failure
    # (not a usage error), reported once, with no numpy warning
    bad = stage_dir / "corpus.jsonl"
    for line_no in (3, 4):
        _replace_line(bad, line_no, _first_as("labels", lambda v: 1.7e308))
    head = stage_dir / "h.json"
    out = _cli_subprocess(["fit", "--data", str(bad), "--out", str(head)])
    assert out.returncode == 3, out.stderr
    assert out.stderr == "numerical failure: normal equations for all dimensions have no finite solution\n"
    assert not head.exists()


def test_labels_that_overflow_gradient_descent_exit_three(stage_dir):
    # the same labels overflow the first epoch's loss of a shared-layer fit:
    # a numerical failure naming the epoch, with no numpy warning before it
    bad = stage_dir / "corpus.jsonl"
    for line_no in (3, 4):
        _replace_line(bad, line_no, _first_as("labels", lambda v: 1.7e308))
    head = stage_dir / "h.json"
    out = _cli_subprocess(["fit", "--data", str(bad), "--hidden-dim", "2", "--epochs", "3",
                           "--out", str(head)])
    assert out.returncode == 3, out.stderr
    assert out.stderr == "numerical failure: training diverged: non-finite loss at epoch 0\n"
    assert not head.exists()


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


def _first_as(field, make):
    """Edit that replaces the first entry of a numeric list field with make(entry)."""
    return lambda doc: dict(doc, **{field: [make(doc[field][0])] + doc[field][1:]})


def _field_as(field, make):
    """Edit that replaces a field with make(field)."""
    return lambda doc: dict(doc, **{field: make(doc[field])})


def _staged_file(stage_dir, kind):
    """The file of kind a stage writes from stage_dir's files, and the argv of a stage reading it."""
    head = str(stage_dir / "head.json")
    noisy = str(stage_dir / "noisy.jsonl")
    if kind == "dataset":
        bad = stage_dir / "noisy.jsonl"
        argv = ["evaluate", "--data", str(bad), "--head", head]
    elif kind == "user_dataset":
        # a table of user data, whose rows carry their features
        bad = stage_dir / "user.jsonl"
        save_dataset(matrix_copy(load_dataset(noisy)), bad)
        argv = ["evaluate", "--data", str(bad), "--head", head]
    elif kind in ("head", "shared_head"):
        bad = stage_dir / "head.json"
        if kind == "shared_head":
            assert main(["fit", "--data", noisy, "--hidden-dim", "4", "--epochs", "5",
                         "--out", head]) == 0
        argv = ["evaluate", "--data", noisy, "--head", head]
    elif kind == "weights":
        bad, scores = stage_dir / "weights.json", str(stage_dir / "scores.jsonl")
        assert main(["score", "--data", noisy, "--head", head, "--out", scores]) == 0
        assert main(["reweight", "--scores", scores, "--out", str(bad)]) == 0
        argv = ["fit", "--data", noisy, "--weights", str(bad), "--out", str(stage_dir / "h.json")]
    elif kind == "global":
        bad = stage_dir / "global.json"
        assert main(["score", "--method", "global", "--data", noisy,
                     "--head", head, "--out", str(bad)]) == 0
        argv = ["prune", "--method", "global", "--global-scores", str(bad),
                "--out", str(stage_dir / "prune.json")]
    elif kind == "report":
        # a pruned run's report, which report --dir renders
        run_dir = stage_dir / "run"
        assert main(["run", "--refine", "ddp", "--set", "synth.n_samples=300",
                     "--out", str(run_dir)]) == 0
        bad, argv = run_dir / "report.json", ["report", "--dir", str(run_dir)]
    elif kind == "prune":
        bad, scores = stage_dir / "prune.json", str(stage_dir / "scores.jsonl")
        assert main(["score", "--data", noisy, "--head", head, "--out", scores]) == 0
        assert main(["prune", "--scores", scores, "--out", str(bad)]) == 0
        argv = ["report", "--dir", str(stage_dir)]
    else:
        bad = stage_dir / "scores.jsonl"
        assert main(["score", "--data", str(stage_dir / "noisy.jsonl"),
                     "--head", head, "--out", str(bad)]) == 0
        argv = ["prune", "--scores", str(bad), "--out", str(stage_dir / "prune.json")]
    return bad, argv


@pytest.mark.parametrize(
    "kind, line_no, value",
    [
        ("dataset", 1, _as_list),
        ("dataset", 1, _list_meta),
        ("dataset", 3, _as_list),
        ("scores", 1, _as_list),
        ("scores", 4, _as_list),
        ("scores", 4, _without_id),
        pytest.param("user_dataset", 3, _first_as("features", str), id="dataset-string-feature"),
        pytest.param("dataset", 3, _first_as("labels", str), id="dataset-string-label"),
        pytest.param("dataset", 3, _first_as("labels", lambda v: None), id="dataset-null-label"),
        pytest.param("scores", 4, _first_as("scores", str), id="scores-string-score"),
        pytest.param("scores", 4, _first_as("scores", lambda v: None), id="scores-null-score"),
        pytest.param("scores", 1, _first_as("lambdas", str), id="scores-string-lambda"),
        pytest.param("weights", 1, _first_as("weights", lambda row: [str(row[0])] + row[1:]),
                     id="weights-string-weight"),
        pytest.param("weights", 1, _field_as("temperature", str), id="weights-string-temperature"),
        pytest.param("weights", 1, _first_as("per_dim_stats", lambda pair: [str(pair[0]), pair[1]]),
                     id="weights-string-stat"),
        pytest.param("global", 1, _first_as("scores", str), id="global-string-score"),
        pytest.param("global", 1, _field_as("scores", lambda v: v[:-1]), id="global-short-scores"),
        pytest.param("prune", 1, _field_as("rho", str), id="prune-string-rho"),
        pytest.param("prune", 1, _first_as("thresholds", str), id="prune-string-threshold"),
        # array('d') takes a JSON true as 1.0 unless booleans are refused
        pytest.param("user_dataset", 3, _first_as("features", lambda v: True),
                     id="dataset-bool-feature"),
        pytest.param("scores", 4, _first_as("scores", lambda v: True), id="scores-bool-score"),
        pytest.param("prune", 1, _field_as("rho", lambda v: True), id="prune-bool-rho"),
        pytest.param("weights", 1, _field_as("temperature", lambda v: False),
                     id="weights-bool-temperature"),
        pytest.param("head", 1, _first_as("weights", lambda row: [str(row[0])] + row[1:]),
                     id="head-string-weight"),
        pytest.param("head", 1, _first_as("biases", lambda v: True), id="head-bool-bias"),
        pytest.param("head", 1, _first_as("weights", lambda row: row[:-1]),
                     id="head-ragged-weights"),
        pytest.param("shared_head", 1,
                     _first_as("shared_weight", lambda row: [str(row[0])] + row[1:]),
                     id="head-string-shared-weight"),
        # the dataset header: feature_dim is a JSON integer, dim_names a list
        pytest.param("dataset", 1, _field_as("feature_dim", lambda v: math.inf),
                     id="dataset-infinite-feature-dim"),
        pytest.param("dataset", 1, _field_as("feature_dim", str), id="dataset-string-feature-dim"),
        pytest.param("dataset", 1, _field_as("feature_dim", lambda v: v + 0.9),
                     id="dataset-fractional-feature-dim"),
        pytest.param("dataset", 1, _field_as("feature_dim", lambda v: True),
                     id="dataset-bool-feature-dim"),
        pytest.param("dataset", 1, _field_as("dim_names", lambda v: "ab"),
                     id="dataset-string-dim-names"),
        pytest.param("scores", 1, _field_as("scope", lambda v: "everything"),
                     id="scores-unknown-scope"),
        # rows s00000, s00001, s00002 sit on lines 2-4: line 4 repeats line 3's id
        pytest.param("scores", 4, _field_as("id", lambda v: "s00001"), id="scores-duplicate-id"),
        pytest.param("dataset", 4, _field_as("id", lambda v: "s00001"), id="dataset-duplicate-id"),
        pytest.param("head", 1, _field_as("weights", lambda v: 5), id="head-number-weights"),
    ],
)
def test_wrong_shape_json_is_a_data_error(stage_dir, kind, line_no, value):
    bad, argv = _staged_file(stage_dir, kind)
    _replace_line(bad, line_no, value)
    out = _cli_subprocess(argv)
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("data error:") and f"line {line_no}" in out.stderr
    # the bad file is named, once
    assert str(bad) in out.stderr and len(re.findall(r"invalid [a-z ]+ file ", out.stderr)) == 1
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("kind, value, named", [
    # `report --dir` renders report.json: a field it cannot show is named with the file
    pytest.param("report", _field_as("strategies", _field_as("baseline", _field_as("mean_spearman", str))),
                 "strategies.baseline.mean_spearman", id="report-string-mean-spearman"),
    pytest.param("report", _field_as("overlap", _field_as("cumulative_ratios", lambda v: 0.5)),
                 "overlap.cumulative_ratios", id="report-number-cumulative-ratios"),
    pytest.param("report", _field_as("refine", _field_as("removed_fraction", lambda v: None)),
                 "refine.removed_fraction", id="report-null-removed-fraction"),
    pytest.param("report", _field_as("masking", _first_as("per_dim", lambda row: 5)),
                 "masking.per_dim", id="report-number-masking-row"),
    pytest.param("report", _field_as("dataset", _field_as("dim_names", lambda v: 5)),
                 "dataset.dim_names", id="report-number-dim-names"),
    pytest.param("report", _field_as("noise_detection", _first_as("per_dim_auroc", str)),
                 "noise_detection.per_dim_auroc.0", id="report-string-auroc"),
    pytest.param("prune", _field_as("rho", lambda v: 5), None, id="prune-rho-5"),
    pytest.param("prune", _field_as("rho", lambda v: math.nan), None, id="prune-nan-rho"),
    pytest.param("prune", _field_as("kept_ids", lambda v: "abc"), None, id="prune-string-kept-ids"),
    pytest.param("global", _field_as("ids", lambda v: [v[1], *v[1:]]), None, id="global-repeated-id"),
    # only `score --method global` writes a scalar score file
    pytest.param("global", _field_as("type", lambda v: "bogus"), None, id="global-bogus-type"),
    pytest.param("global", _field_as("type", lambda v: "row_sum"), None, id="global-row-sum-type"),
    pytest.param("global", lambda doc: {k: v for k, v in doc.items() if k != "type"}, None,
                 id="global-no-type"),
    # an object keyed by the ids would iterate as the ids
    pytest.param("weights", _field_as("sample_ids", dict.fromkeys), None, id="weights-object-sample-ids"),
    pytest.param("weights", _first_as("weights", lambda row: [-1.0, *row[1:]]), None,
                 id="weights-negative-weight"),
    pytest.param("weights", _first_as("weights", lambda row: [math.nan, *row[1:]]), None,
                 id="weights-nan-weight"),
    # a well-formed weight file one dimension narrower than the dataset
    pytest.param("weights", lambda doc: dict(doc, weights=[row[:-1] for row in doc["weights"]],
                                             per_dim_stats=doc["per_dim_stats"][:-1]), None,
                 id="weights-one-dimension-short"),
])
def test_a_json_file_its_writer_cannot_give_exits_two_naming_it(stage_dir, kind, value, named):
    bad, argv = _staged_file(stage_dir, kind)
    bad.write_text(json.dumps(value(json.loads(bad.read_text()))))
    out = _cli_subprocess(argv)
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("data error:") and str(bad) in out.stderr
    assert named is None or f"report {named} " in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("edited, argv", [
    pytest.param("noisy.jsonl", ["score", "--data", "{d}/noisy.jsonl", "--head", "{d}/head.json",
                                 "--out", "{d}/s.jsonl"], id="dataset-score"),
    pytest.param("noisy.jsonl", ["evaluate", "--data", "{d}/noisy.jsonl", "--head", "{d}/head.json"],
                 id="dataset-evaluate"),
    pytest.param("scores.jsonl", ["detect-noise", "--data", "{d}/noisy.jsonl",
                                  "--scores", "{d}/scores.jsonl", "--out", "{d}/a.json"],
                 id="scores-detect-noise"),
    pytest.param("scores.jsonl", ["prune", "--scores", "{d}/scores.jsonl", "--out", "{d}/p.json"],
                 id="scores-prune"),
])
def test_repeated_dimension_names_exit_two_naming_the_name(stage_dir, edited, argv):
    # the header's dim0, dim1, dim2 become dim0, dim0, dim1: no row of a
    # scores.csv or AUROC of detect-noise could say which dim0 it means
    assert main(["score", "--data", str(stage_dir / "noisy.jsonl"), "--head",
                 str(stage_dir / "head.json"), "--out", str(stage_dir / "scores.jsonl")]) == 0
    _replace_line(stage_dir / edited, 1, _field_as("dim_names", lambda v: [v[0], *v[:-1]]))
    written = sorted(stage_dir.iterdir())
    out = _cli_subprocess([a.format(d=stage_dir) for a in argv])
    assert out.returncode == 2, out.stderr
    # the header is read by data.table_rows, which names its line, and
    # data.read_file names the file
    what = {"noisy.jsonl": "dataset", "scores.jsonl": "score"}[edited]
    assert out.stderr.startswith(
        f"data error: invalid {what} file {stage_dir / edited}: line 1: repeated dimension name 'dim0'"
    )
    assert "Traceback" not in out.stderr
    assert sorted(stage_dir.iterdir()) == written


def test_a_config_path_that_is_a_directory_exits_one_naming_it(tmp_path):
    out = _cli_subprocess(["run", "--config", str(tmp_path), "--out", str(tmp_path / "r")])
    assert out.returncode == 1, out.stderr
    assert out.stderr.startswith("usage error:") and str(tmp_path) in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize(
    "edit, named",
    [
        pytest.param(lambda doc: doc.update(mystery={}), "mystery", id="unknown-section"),
        pytest.param(lambda doc: doc["synth"].update(bogus=1), "synth.bogus", id="unknown-key"),
        pytest.param(lambda doc: doc["synth"].pop("n_dims"), "synth.n_dims", id="missing-key"),
        pytest.param(lambda doc: doc["synth"].update(n_samples="many"), "synth.n_samples",
                     id="non-numeric-int"),
        pytest.param(lambda doc: doc["refine"].update(strategy=1), "refine.strategy",
                     id="number-strategy"),
        pytest.param(lambda doc: doc["influence"].update(scope="everything"), "influence.scope",
                     id="bad-scope"),
        pytest.param(lambda doc: doc["refine"].update(strategy="psychic"), "refine.strategy",
                     id="bad-refine-strategy"),
        pytest.param(lambda doc: doc["refine"].update(rho=1.5), "refine.rho", id="rho-above-one"),
        pytest.param(lambda doc: doc["refine"].update(rho=-0.1), "refine.rho", id="negative-rho"),
        pytest.param(lambda doc: doc["refine"].update(strategy="ddr", temperature=-1),
                     "refine.temperature", id="negative-temperature"),
        # refine.rho is the one budget and the Hessian is always the identity
        pytest.param(lambda doc: doc["refine"].update(rho_total=0.1), "refine.rho_total",
                     id="rho-total"),
        pytest.param(lambda doc: doc["influence"].update(hessian="identity"), "influence.hessian",
                     id="hessian"),
        # every head fits its bias, and DDR's z-score guard is a constant
        pytest.param(lambda doc: doc["train"].update(fit_bias=True), "train.fit_bias",
                     id="fit-bias"),
        pytest.param(lambda doc: doc["refine"].update(epsilon=1e-8), "refine.epsilon",
                     id="epsilon"),
        # dimensions are combined with the fixed lambdas only
        pytest.param(lambda doc: doc["train"].update(strategy="equal"), "train.strategy",
                     id="train-strategy"),
        # gradient descent has no ridge term
        pytest.param(lambda doc: doc["train"].update(hidden_dim=4, ridge_alpha=0.5),
                     "train.ridge_alpha", id="gd-ridge-alpha"),
        # json reads NaN and Infinity; no setting takes them
        pytest.param(lambda doc: doc["train"].update(ridge_alpha=math.nan), "train.ridge_alpha",
                     id="nan-ridge-alpha"),
        pytest.param(lambda doc: doc["train"].update(ridge_alpha=math.inf), "train.ridge_alpha",
                     id="infinite-ridge-alpha"),
        pytest.param(lambda doc: doc["train"].update(lr=math.nan), "train.lr", id="nan-lr"),
        pytest.param(lambda doc: doc["train"].update(ridge_alpha=10**400), "train.ridge_alpha",
                     id="ridge-alpha-past-float-range"),
        pytest.param(lambda doc: doc["refine"].update(strategy="ddr", temperature=math.inf),
                     "refine.temperature", id="infinite-temperature"),
        pytest.param(lambda doc: doc["noise"].update(rate=math.nan), "noise.rate", id="nan-noise-rate"),
        pytest.param(lambda doc: doc["synth"].update(label_noise_sd=-math.inf),
                     "synth.label_noise_sd", id="minus-infinite-noise-sd"),
        pytest.param(lambda doc: doc["influence"].update(lambdas=[1, math.nan, 1, 1, 1]),
                     "influence.lambdas", id="nan-lambda"),
        # lambdas must have one entry per dimension of the corpus
        pytest.param(lambda doc: doc["influence"].update(lambdas=[1, 2]), "influence.lambdas",
                     id="short-influence-lambdas"),
        pytest.param(lambda doc: doc["train"].update(lambdas=[1, 2, 3, 4, 5, 6]), "train.lambdas",
                     id="long-train-lambdas"),
        # the correlated corruption's severity range is a constant
        pytest.param(lambda doc: doc["noise"].update(severity=[0.5, 1.0]), "noise.severity",
                     id="noise-severity"),
        # labels are never clipped
        pytest.param(lambda doc: doc["synth"].update(label_range=[-4, 4]), "synth.label_range",
                     id="label-range"),
        # a section's own checks, as the reading of the config
        pytest.param(lambda doc: doc["train"].update(hidden_dim=0), "train.hidden_dim",
                     id="zero-hidden-dim"),
        pytest.param(lambda doc: doc["train"].update(hidden_dim=1.5), "train.hidden_dim",
                     id="fractional-hidden-dim"),
        pytest.param(lambda doc: doc["train"].update(epochs=0), "train.epochs", id="zero-epochs"),
        pytest.param(lambda doc: doc["noise"].update(rate=2), "noise.rate", id="noise-rate-above-one"),
        pytest.param(lambda doc: doc["noise"].update(correlated_rate=-0.5), "noise.correlated_rate",
                     id="negative-correlated-rate"),
        pytest.param(lambda doc: doc.update(synth=[]), "synth", id="list-section"),
    ],
)
def test_bad_config_exits_one_naming_the_key(tmp_path, capsys, edit, named):
    doc = default_config().to_dict()
    edit(doc)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err
    # every config fault reads "config <section>.<key>: <reason>"
    assert err.startswith(f"usage error: config {named}: ")
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("setting", [
    "influence.lambdas=[1,2]",
    "train.lambdas=[1,2]",
    "train.ridge_alpha=NaN",
    "train.lr=NaN",
    "refine.rho=NaN",
    # every head fits its bias
    "train.fit_bias=false",
    "refine.temperature=-Infinity",
    # a shared layer is at least one unit wide, and the coupled scope needs one
    "train.hidden_dim=0",
    "train.hidden_dim=-1",
    "train.hidden_dim=1.5",
    'influence.scope="last_two_layers"',
    # the corruption rates are read with the config, not when the corpus is corrupted
    "noise.rate=2",
    "noise.correlated_rate=1.5",
    # labels are never clipped
    "synth.label_range=[-4,4]",
])
def test_a_bad_set_value_exits_one_naming_the_key_before_any_file(tmp_path, capsys, setting):
    out = tmp_path / "r"
    assert main(["run", "--refine", "ddr", "--set", setting, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    key = setting.split("=")[0]
    assert err.startswith(f"usage error: config {key}: ")
    assert not out.exists()


@pytest.mark.parametrize("setting, message", [
    # the stages' own checks: the generator's, the split's and the noise's
    ("synth.n_samples=0", "config synth.n_samples: must be positive, got 0"),
    ("split.fractions=[0.5,0.5,0.5]", "config split.fractions: must sum to 1, got 1.5"),
    ("noise.dims=[9]", "config noise.dims: out of range for 5 dimensions: [9]"),
    ("noise.dims=[]", "config noise.dims: must be a non-empty set of dimension indices"),
])
def test_a_setting_a_stage_refuses_exits_one_naming_its_section(tmp_path, capsys, setting, message):
    out = tmp_path / "r"
    assert main(["run", "--set", setting, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not out.exists()


def test_noise_dims_are_not_checked_without_per_dimension_noise(tmp_path):
    # as the run, which corrupts no dimension at rate 0
    argv = ["run", "--set", "noise.rate=0", "--set", "noise.dims=[9]", "--out", str(tmp_path / "r")]
    assert main(argv) == 0


@pytest.mark.parametrize("flags, named", [
    pytest.param(["--hidden-dim", "4", "--alpha", "0.5"], "--alpha", id="hidden-dim-alpha"),
    pytest.param(["--hidden-dim", "4", "--alpha", "0"], "--alpha", id="hidden-dim-zero-alpha"),
])
def test_fit_refuses_closed_form_flags_with_gradient_descent(stage_dir, capsys, flags, named):
    head = stage_dir / "gd.json"
    argv = ["fit", "--data", str(stage_dir / "noisy.jsonl"), "--epochs", "5", "--out", str(head)]
    assert main(argv + flags) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and named in err
    assert not head.exists()
    # without the closed-form flag the same gradient-descent fit runs
    assert main(argv + flags[:2]) == 0


@pytest.mark.parametrize("width", ["0", "-1"])
def test_fit_refuses_a_hidden_width_below_one(stage_dir, capsys, width):
    head = stage_dir / "gd.json"
    argv = ["fit", "--data", str(stage_dir / "noisy.jsonl"), "--hidden-dim", width, "--out", str(head)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "hidden_dim" in err
    assert not head.exists()


@pytest.mark.parametrize("argv, flag", [
    pytest.param(["fit", "--data", "{d}/noisy.jsonl", "--out", "{d}/h.json", "--no-bias"],
                 "--no-bias", id="fit-no-bias"),
    pytest.param(["reweight", "--scores", "{d}/scores.jsonl", "--out", "{d}/w.json",
                  "--epsilon", "1e-8"], "--epsilon", id="reweight-epsilon"),
    pytest.param(["report", "--dir", "{d}", "--rho", "0.3"], "--rho", id="report-rho"),
    pytest.param(["fit", "--data", "{d}/noisy.jsonl", "--out", "{d}/h.json", "--strategy", "equal"],
                 "--strategy", id="fit-strategy"),
    pytest.param(["gen", "--n", "10", "--features", "2", "--dims", "1", "--label-range=-1,1",
                  "--out", "{d}/g.jsonl"], "--label-range", id="gen-label-range"),
    pytest.param(["score", "--data", "{d}/noisy.jsonl", "--head", "{d}/head.json", "--method", "closed",
                  "--out", "{d}/s.jsonl"], "'closed'", id="score-method-closed"),
])
def test_a_deleted_flag_exits_one_naming_it(stage_dir, capsys, argv, flag):
    # every head fits its bias, DDR's z-score guard is a constant, a staged
    # report takes its rho from the directory's prune.json, dimensions are
    # combined with the fixed lambdas only, labels are never clipped, and
    # `score` has one per-dimension scorer, the default
    assert main(["score", "--data", str(stage_dir / "noisy.jsonl"), "--head",
                 str(stage_dir / "head.json"), "--out", str(stage_dir / "scores.jsonl")]) == 0
    written = sorted(stage_dir.iterdir())
    capsys.readouterr()
    assert main([a.format(d=stage_dir) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and flag in err
    assert sorted(stage_dir.iterdir()) == written


_DATASET_SECTION = {"n_total": 10, "feature_dim": 2, "dim_names": ["a"], "n_train": 6,
                    "n_val": 2, "n_test": 2}


@pytest.mark.parametrize("doc, named", [
    pytest.param([1, 2], None, id="doc0"),
    pytest.param({"dataset": [1]}, None, id="doc1"),
    pytest.param({}, None, id="doc2"),
    pytest.param({"dataset": _DATASET_SECTION,
                  "strategies": {"baseline": {"per_dim_spearman": [0.5], "mean_spearman": "x"}}},
                 "strategies.baseline.mean_spearman", id="string-mean-spearman"),
    pytest.param({"dataset": dict(_DATASET_SECTION, dim_names=5)}, "report dataset.dim_names",
                 id="int-dim-names"),
    pytest.param({"dataset": _DATASET_SECTION, "refine": {"strategy": "none"},
                  "overlap": {"rho": 0.1, "cumulative_ratios": []},
                  "masking": {"budget": 1, "per_dim": 5}}, "report masking.per_dim",
                 id="int-masking-per-dim"),
])
def test_report_file_of_the_wrong_shape_is_a_data_error(tmp_path, doc, named):
    if isinstance(doc, dict):
        doc = dict(ExperimentReport("0.1.0", {}, {}, {}, {}, {}, {}, {}).to_dict(), **doc)
    (tmp_path / "report.json").write_text(json.dumps(doc))
    out = _cli_subprocess(["report", "--dir", str(tmp_path)])
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("data error:") and "Traceback" not in out.stderr
    if named is not None:
        assert named in out.stderr


@pytest.mark.parametrize("kind, broken", [
    ("head", "missing"), ("head", "malformed"), ("head", "directory"), ("dataset", "directory"),
    ("weights", "missing"), ("weights", "malformed"),
    ("global", "missing"), ("global", "malformed"),
    # `report --dir` reads report.json and prune.json only when they exist
    ("report", "malformed"), ("prune", "malformed"),
])
def test_missing_or_malformed_json_file_exits_two_naming_it(stage_dir, kind, broken):
    noisy = str(stage_dir / "noisy.jsonl")
    path = stage_dir / ("bad_head.json" if kind == "head" else f"{kind}.json")
    argv = {
        "head": ["evaluate", "--data", noisy, "--head", str(path)],
        "dataset": ["evaluate", "--data", str(path), "--head", str(stage_dir / "head.json")],
        "weights": ["fit", "--data", noisy, "--weights", str(path),
                    "--out", str(stage_dir / "h.json")],
        "global": ["prune", "--method", "global", "--global-scores", str(path),
                   "--out", str(stage_dir / "p.json")],
        "report": ["report", "--dir", str(stage_dir)],
        "prune": ["report", "--dir", str(stage_dir)],
    }[kind]
    if kind == "prune":
        assert main(["score", "--data", noisy, "--head", str(stage_dir / "head.json"),
                     "--out", str(stage_dir / "scores.jsonl")]) == 0
    if broken == "malformed":
        path.write_text('{"rho": 0.1,\n')
    elif broken == "directory":
        path.mkdir()
    out = _cli_subprocess(argv)
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("data error:") and str(path) in out.stderr
    assert "Traceback" not in out.stderr


def _without(key):
    """Edit that drops a key of a header's meta."""
    return _field_as("meta", lambda meta: {k: v for k, v in meta.items() if k != key})


@pytest.mark.parametrize("line_no, value, message", [
    # another numpy's stream would give another digest: the file is refused, not read
    pytest.param(1, _field_as("stream_digest", lambda v: v[::-1]), "stream digest", id="edited-digest"),
    pytest.param(1, _without("sample_seed"), "meta needs sample_seed", id="meta-without-sample-seed"),
    pytest.param(1, _without("n_samples"), "meta needs n_samples", id="meta-without-n-samples"),
    pytest.param(1, _field_as("meta", _field_as("feature_dim", lambda v: v + 1)),
                 "meta does not describe the header", id="meta-of-another-feature-dim"),
    pytest.param(1, _field_as("features", lambda v: "matrix"), "header features", id="unknown-features"),
    pytest.param(3, _field_as("id", lambda v: "s1"), "is not a row id", id="short-id"),
    pytest.param(3, _field_as("id", lambda v: "x00001"), "is not a row id", id="other-prefix-id"),
    pytest.param(3, _field_as("id", lambda v: "s0000\u0661"), "is not a row id", id="non-ascii-digit-id"),
    pytest.param(4, _field_as("id", lambda v: "s00000"), "does not ascend", id="descending-id"),
    pytest.param(201, _field_as("id", lambda v: "s00200"), "past the stream's 200 rows", id="id-past-the-rows"),
    pytest.param(3, lambda rec: dict(rec, features=[0.0] * 5), "carry no features", id="row-with-features"),
])
def test_a_malformed_stream_table_exits_two_naming_the_file_and_line(stage_dir, capsys, line_no, value,
                                                                     message):
    # noisy.jsonl holds rows s00000 to s00199 on lines 2 to 201, with no features
    bad = stage_dir / "noisy.jsonl"
    _replace_line(bad, line_no, value)
    capsys.readouterr()
    for argv in (["evaluate", "--data", str(bad), "--head", str(stage_dir / "head.json")],
                 ["split", "--data", str(bad), "--out-prefix", str(stage_dir / "part")]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: invalid dataset file {bad}: ")
        assert f"line {line_no}: " in err and message in err
    assert not (stage_dir / "part.train.jsonl").exists()


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

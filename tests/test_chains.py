"""Staged commands rebuild a run's files byte for byte.

Each chain is a default-size `dimsift run`, then the staged commands that
rebuild its files, called in process through cli.main; every file they
write must equal the run's (filecmp.cmp, shallow=False). The default
config's seeds are teacher 0, sample 1, noise 2, correlated noise 3 and
split 4, which the staged flags below repeat. This module is the one home
of the default-size chains: CI adds only the installed console script's
smoke, the 20k/30k/50k chains and the BLAS thread-count diffs, which need
their own process or size.
"""

import contextlib
import filecmp
import io
import json
from pathlib import Path

import pytest

from dimsift.cli import main

# the staged flags of the default config's corpus and noise
GEN = ["gen", "--n", "2000", "--features", "16", "--dims", "5", "--noise-sd", "0.1",
       "--teacher-seed", "0", "--sample-seed", "1"]
CORRUPT = ["--rate", "0.1", "--seed", "2", "--correlated-rate", "0.0025", "--correlated-seed", "3"]

RUNS = {
    "ddr": ["--refine", "ddr"],
    "ddp": ["--refine", "ddp"],
    # no dimension selects a row, so prune.json has no thresholds
    "ddp_rho0": ["--refine", "ddp", "--set", "refine.rho=0"],
    "none": ["--refine", "none"],
    "loss_prune": ["--refine", "loss_prune"],
    "global_prune": ["--refine", "global_prune"],
    # refine.rho is a run's one budget: the prune, overlap and masking all take it
    "global_rho": ["--refine", "global_prune", "--set", "refine.rho=0.02"],
    "gd": ["--refine", "ddp", "--set", "train.hidden_dim=8",
           "--set", 'influence.scope="last_two_layers"'],
    "gd_ddr": ["--refine", "ddr", "--set", "train.hidden_dim=8"],
    "noise_dims": ["--refine", "ddp", "--set", "noise.dims=[1,3]",
                   "--set", "noise.correlated_rate=0.01"],
}


def _main(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([str(a) for a in argv]) == 0, argv


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """The output directory of `run --seed 0` with RUNS[name]'s flags, run once per module."""
    root = tmp_path_factory.mktemp("runs")
    done = {}

    def get(name):
        if name not in done:
            _main(["run", "--seed", "0", *RUNS[name], "--out", root / name])
            done[name] = root / name
        return done[name]

    return get


@pytest.mark.parametrize("run, staged, same", [
    pytest.param("ddr", [["score", "--data", "{r}/train.jsonl", "--head", "{r}/probe_head.json",
                          "--out", "{s}/scores.jsonl"]],
                 ["scores.jsonl"], id="ddr-score"),
    pytest.param("ddr", [["fit", "--data", "{r}/train.jsonl", "--out", "{s}/probe_head.json"],
                         ["fit", "--data", "{r}/train.jsonl", "--weights", "{r}/weights.json",
                          "--out", "{s}/final_head.json"]],
                 ["probe_head.json", "final_head.json"], id="ddr-fit-and-fit-weights"),
    pytest.param("ddr", [["reweight", "--scores", "{r}/scores.jsonl", "--out", "{s}/weights.json",
                          "--csv", "{s}/weights.csv"]],
                 ["weights.json", "weights.csv"], id="ddr-reweight"),
    pytest.param("gd", [["fit", "--data", "{r}/train.jsonl", "--hidden-dim", "8",
                         "--out", "{s}/probe_head.json"],
                        ["score", "--data", "{r}/train.jsonl", "--head", "{s}/probe_head.json",
                         "--scope", "last_two_layers", "--out", "{s}/scores.jsonl",
                         "--csv", "{s}/scores.csv"],
                        ["prune", "--scores", "{s}/scores.jsonl", "--out", "{s}/prune.json",
                         "--csv", "{s}/removed.csv"]],
                 ["probe_head.json", "scores.jsonl", "scores.csv", "prune.json", "removed.csv"],
                 id="gd-fit-score-prune"),
    pytest.param("gd_ddr", [["fit", "--data", "{r}/train.jsonl", "--hidden-dim", "8",
                             "--weights", "{r}/weights.json", "--out", "{s}/final_head.json"]],
                 ["final_head.json"], id="gd-ddr-fit-weights"),
    pytest.param("ddp", [["score", "--data", "{r}/train.jsonl", "--head", "{r}/probe_head.json",
                          "--out", "{s}/scores.jsonl"],
                         ["prune", "--scores", "{s}/scores.jsonl", "--out", "{s}/prune.json",
                          "--csv", "{s}/removed.csv"],
                         ["report", "--dir", "{s}"]],
                 ["scores.jsonl", "prune.json", "removed.csv", "overlap.csv"],
                 id="ddp-score-prune-report"),
    pytest.param("ddp_rho0", [["prune", "--scores", "{r}/scores.jsonl", "--rho", "0",
                               "--out", "{s}/prune.json", "--csv", "{s}/removed.csv"]],
                 ["prune.json", "removed.csv"], id="ddp-rho0-prune"),
    pytest.param("loss_prune", [["prune", "--method", "loss", "--data", "{r}/train.jsonl",
                                 "--head", "{r}/probe_head.json", "--out", "{s}/prune.json",
                                 "--csv", "{s}/removed.csv"]],
                 ["prune.json", "removed.csv"], id="loss-prune"),
    pytest.param("global_prune", [["score", "--method", "global", "--data", "{r}/train.jsonl",
                                   "--head", "{r}/probe_head.json", "--out", "{s}/g.json"],
                                  ["prune", "--method", "global", "--global-scores", "{s}/g.json",
                                   "--out", "{s}/prune.json", "--csv", "{s}/removed.csv"]],
                 ["prune.json", "removed.csv"], id="global-score-prune"),
    pytest.param("global_rho", [["score", "--method", "global", "--data", "{r}/train.jsonl",
                                 "--head", "{r}/probe_head.json", "--out", "{s}/g.json"],
                                ["prune", "--method", "global", "--global-scores", "{s}/g.json",
                                 "--rho", "0.02", "--out", "{s}/prune.json", "--csv", "{s}/removed.csv"]],
                 ["prune.json", "removed.csv"], id="global-rho-score-prune"),
])
def test_staged_commands_on_a_runs_tables_give_its_files(run_dir, tmp_path, run, staged, same):
    r = run_dir(run)
    for argv in staged:
        _main([a.format(r=r, s=tmp_path) for a in argv])
    for name in same:
        assert filecmp.cmp(tmp_path / name, r / name, shallow=False), name


def test_a_staged_evaluate_gives_a_runs_metrics(run_dir, tmp_path):
    r = run_dir("ddr")
    strategies = json.loads((r / "report.json").read_text())["strategies"]
    for head, strategy in (("probe_head.json", "baseline"), ("final_head.json", "ddr")):
        out = tmp_path / f"{strategy}.json"
        _main(["evaluate", "--data", r / "test_clean.jsonl", "--head", r / head, "--out", out])
        got, want = json.loads(out.read_text()), strategies[strategy]
        assert got["per_dim_spearman"] == want["per_dim_spearman"]
        assert got["mean_spearman"] == want["mean_spearman"]


def test_gen_corrupt_and_split_give_a_runs_row_tables(run_dir, tmp_path):
    # the test rows come from splitting the clean corpus, the training rows the corrupted one
    r, v = run_dir("ddp"), run_dir("noise_dims")
    clean, noisy, dims = tmp_path / "c.jsonl", tmp_path / "n.jsonl", tmp_path / "v.jsonl"
    _main([*GEN, "--out", clean])
    _main(["corrupt", "--data", clean, *CORRUPT, "--out", noisy])
    _main(["split", "--data", noisy, "--seed", "4", "--out-prefix", tmp_path / "n"])
    _main(["split", "--data", clean, "--seed", "4", "--out-prefix", tmp_path / "c"])
    _main(["corrupt", "--data", clean, "--rate", "0.1", "--dims", "1,3", "--seed", "2",
           "--correlated-rate", "0.01", "--correlated-seed", "3", "--out", dims])
    for staged, ran in ((noisy, r / "corpus.jsonl"), (tmp_path / "n.train.jsonl", r / "train.jsonl"),
                        (tmp_path / "c.test.jsonl", r / "test_clean.jsonl"), (dims, v / "corpus.jsonl")):
        assert filecmp.cmp(staged, ran, shallow=False), staged.name


@pytest.mark.parametrize("run", ["ddr", "gd", "global_rho"])
def test_report_dir_rewrites_a_runs_report_txt(run_dir, run):
    r = run_dir(run)
    before = (r / "report.txt").read_bytes()
    _main(["report", "--dir", r])
    assert (r / "report.txt").read_bytes() == before


def test_a_none_run_keeps_its_probe_as_final_head(run_dir):
    r = run_dir("none")
    assert filecmp.cmp(r / "final_head.json", r / "probe_head.json", shallow=False)


def _not_strict(name):
    raise ValueError(f"not strict JSON: {name}")


@pytest.mark.parametrize("run", RUNS)
def test_a_runs_json_is_strict(run_dir, run):
    # RFC 8259 has no NaN or Infinity, which json.loads would otherwise accept
    r = run_dir(run)
    for path in sorted(r.glob("*.json")):
        json.loads(path.read_text(), parse_constant=_not_strict)
    for path in sorted(r.glob("*.jsonl")):
        for line in path.read_text().splitlines():
            json.loads(line, parse_constant=_not_strict)


@pytest.mark.parametrize("run", RUNS)
def test_a_runs_row_tables_hold_no_features(run_dir, run):
    # each header marks the features as drawn from the sample stream and stores its digest
    r = run_dir(run)
    for name in ("corpus.jsonl", "train.jsonl", "test_clean.jsonl"):
        head, *rows = map(json.loads, (r / name).read_text().splitlines())
        assert head["features"] == "sample_stream" and len(head["stream_digest"]) == 16, name
        assert rows and not any("features" in row for row in rows), name


def test_ci_runs_no_default_size_chain_but_the_console_smoke():
    # read as text: PyYAML is no test dependency. Any other default-size
    # chain belongs in this module, not in CI.
    workflow = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"
    runs = [line.strip() for line in workflow.read_text().splitlines()
            if "dimsift run " in line and not line.lstrip().startswith("#")]
    default_size = [line for line in runs if "synth.n_samples=" not in line]
    assert default_size == ['- run: dimsift run --seed 0 --refine ddr --out "$RUNNER_TEMP/r"']

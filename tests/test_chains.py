"""Staged commands rebuild a run's files byte for byte.

Each chain is a default-size `dimsift run`, then the staged commands that
read or write its row tables, called in process through cli.main; every
file they write must equal the run's (filecmp.cmp, shallow=False). The
default config's seeds are teacher 0, sample 1, noise 2, correlated noise
3 and split 4, which the staged flags below repeat.
"""

import contextlib
import filecmp
import io
import json

import pytest

from dimsift.cli import main

# the staged flags of the default config's corpus and noise
GEN = ["gen", "--n", "2000", "--features", "16", "--dims", "5", "--noise-sd", "0.1",
       "--teacher-seed", "0", "--sample-seed", "1"]
CORRUPT = ["--rate", "0.1", "--seed", "2", "--correlated-rate", "0.0025", "--correlated-seed", "3"]

RUNS = {
    "ddr": ["--refine", "ddr"],
    "ddp": ["--refine", "ddp"],
    "loss_prune": ["--refine", "loss_prune"],
    "global_prune": ["--refine", "global_prune"],
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
                         ["prune", "--scores", "{s}/scores.jsonl", "--out", "{s}/prune.json"],
                         ["report", "--dir", "{s}"]],
                 ["scores.jsonl", "prune.json", "overlap.csv"], id="ddp-score-prune-report"),
    pytest.param("loss_prune", [["prune", "--method", "loss", "--data", "{r}/train.jsonl",
                                 "--head", "{r}/probe_head.json", "--out", "{s}/prune.json",
                                 "--csv", "{s}/removed.csv"]],
                 ["prune.json", "removed.csv"], id="loss-prune"),
    pytest.param("global_prune", [["score", "--method", "global", "--data", "{r}/train.jsonl",
                                   "--head", "{r}/probe_head.json", "--out", "{s}/g.json"],
                                  ["prune", "--method", "global", "--global-scores", "{s}/g.json",
                                   "--out", "{s}/prune.json", "--csv", "{s}/removed.csv"]],
                 ["prune.json", "removed.csv"], id="global-score-prune"),
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

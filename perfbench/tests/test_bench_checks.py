"""Output checks catch wrong results, and a failed check counts against error_rate."""
import dataclasses

import numpy as np

import run
import spans
import workloads


class _Fake(workloads.Workload):
    name = "fake"
    refine = "none"

    def __init__(self, fail_every):
        super().__init__(0, None)
        self.fail_every = fail_every
        self.calls = 0

    @property
    def n_train(self):
        return 10

    def op(self, tracer):
        self.calls += 1
        if self.calls == 3:
            raise ValueError("op raised")
        return self.calls

    def check(self, out):
        return ["forced failure"] if out % self.fail_every == 0 else []

    def quality(self, out):
        return (0.99, 0.9)


def test_forced_check_failures_and_raising_ops_count_as_failed():
    res = run.run_ops(_Fake(fail_every=2), 1.0, False)
    attempted = res["attempted"]
    assert attempted >= 3
    failed_ops = {op for op, _ in res["problems"]}
    expected = {i for i in range(attempted) if (i + 1) % 2 == 0 or i == 2}
    assert failed_ops == expected
    assert len(res["qualities"]) == attempted - len(expected)
    values, _ = run.end_to_end(_Fake(2), [1.0], res)
    assert values["op_p50_s"] > 0


def _small_pipeline_mem():
    wl = workloads.PipelineMem(0, None)
    wl.config = dataclasses.replace(wl.config, synth=dataclasses.replace(wl.config.synth, n_samples=4000))
    return wl


def test_pipeline_mem_check_flags_wrong_global_scores():
    wl = _small_pipeline_mem()
    art = wl.op(None)
    assert wl.check(art) == []
    art.global_scores = art.global_scores * (1 + 1e-9)
    assert any("global scores" in p for p in wl.check(art))


def test_shared_scope_check_flags_a_wrong_row_sum():
    wl = workloads.SharedScope(0, None)
    wl.config = dataclasses.replace(
        wl.config,
        synth=dataclasses.replace(wl.config.synth, n_samples=2000),
        train=dataclasses.replace(wl.config.train, epochs=20),
    )
    wl.oracle_rows = np.arange(0, 1200, 97)
    art, row_sums = wl.op(None)
    assert wl.check((art, row_sums)) == []
    row_sums = row_sums.copy()
    row_sums[wl.oracle_rows[1], 0] *= 1.0 + 1e-6
    assert wl.check((art, row_sums)) == [f"row_sum score of row {wl.oracle_rows[1]} differs from the gradient oracle"]


def test_artifacts_cli_check_flags_a_staged_output_that_differs(tmp_path):
    wl = workloads.ArtifactsCli(0, tmp_path / "w")
    wl.commands[0] = [a.replace("synth.n_samples=20000", "synth.n_samples=2000") for a in wl.commands[0]]
    wl.reset()
    codes = wl.op(spans.Tracer())
    assert codes == [0] * 7 and wl.check(codes) == []
    with open(wl.stage_dir / "weights.json", "a") as f:
        f.write(" ")
    assert wl.check(codes) == ["staged weights.json differs from the run's weights.json"]
    assert wl.check([0, 2, 0, 0, 0, 0, 0]) == ["`score` exited 2"]

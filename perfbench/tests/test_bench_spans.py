"""Self-time arithmetic and wrapper lifetime of the traced run."""
import dataclasses

import pytest

import dimsift
import layers
import spans
from spans import ROOT_SPAN, Span, Tracer


def _span(i, name, start, end, parent, op=0, **counts):
    return Span(i, name, start, end, parent, op, counts)


def test_self_times_subtract_direct_children():
    tree = [
        _span(0, ROOT_SPAN, 0.0, 10.0, None),
        _span(1, "data.split", 1.0, 4.0, 0, rows=7),
        _span(2, "model.fit_gd", 2.0, 3.0, 1, epochs=200),
        _span(3, "data.split", 5.0, 9.0, 0, rows=5),
    ]
    assert spans.self_times(tree) == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}
    m = spans.op_metrics(tree)[0]
    assert m["trace.op_s"] == 10.0
    assert m["data.split.self_s"] == 6.0
    assert m["data.split.calls"] == 2
    assert m["data.split.rows"] == 12
    assert m["data.rows"] == 12
    assert m["model.fit_gd.epochs"] == 200
    layer_total = sum(m[f"{layer}.self_s"] for layer in ("bench", "data", "model"))
    assert layer_total == m["trace.op_s"]


def test_self_time_counts_overlapping_children_once():
    tree = [
        _span(0, ROOT_SPAN, 0.0, 10.0, None),
        _span(1, "a.x", 1.0, 5.0, 0),
        _span(2, "a.y", 3.0, 7.0, 0),
        _span(3, "a.z", 9.0, 12.0, 0),  # clipped to the parent's end
    ]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_spans_are_grouped_by_op():
    tree = [
        _span(0, ROOT_SPAN, 0.0, 2.0, None, op=0),
        _span(1, ROOT_SPAN, 3.0, 7.0, None, op=1),
        _span(2, "data.split", 4.0, 5.0, 1, op=1),
    ]
    per_op = spans.op_metrics(tree)
    assert per_op[0]["trace.op_s"] == 2.0
    assert "data.split.self_s" not in per_op[0]
    assert per_op[1]["bench.self_s"] == 3.0


def test_tracer_records_parents_and_ignores_calls_outside_ops():
    ticks = iter(range(100))
    t = Tracer(clock=lambda: float(next(ticks)))
    f = t.wrap(lambda n: n + 1, "data.f", lambda a, k, r: {"rows": r})
    assert f(1) == 2 and t.spans == []
    with t.op(5):
        with t.span("cli.run"):
            f(2)
    root, cli, inner = t.spans
    assert (root.name, root.parent, root.op_id) == (ROOT_SPAN, None, 5)
    assert (cli.parent, inner.parent) == (root.span_id, cli.span_id)
    assert inner.counts == {"rows": 3}
    assert root.start < cli.start < inner.start < inner.end < cli.end < root.end


def _originals(targets):
    return [(t.owner, t.attr, vars(t.owner)[t.attr]) for t in targets]


def _small_config():
    cfg = dimsift.default_config(0)
    return dataclasses.replace(cfg, synth=dataclasses.replace(cfg.synth, n_samples=2000))


def test_wrappers_are_removed_after_a_traced_run():
    targets = layers.targets()
    before = _originals(targets)
    t = Tracer()
    with t.patched(targets), t.op(0):
        assert all(vars(owner)[attr] is not original for owner, attr, original in before)
        dimsift.run_pipeline(_small_config())
    assert all(vars(owner)[attr] is original for owner, attr, original in before)
    names = {s.name for s in t.spans}
    assert {"pipeline.run_pipeline", "data.split", "influence.global_tracin_self", "refine.ddp_select"} <= names
    assert spans.op_metrics(t.spans)[0]["influence.rows"] == 2 * 1200


def test_wrappers_are_removed_when_the_op_raises():
    targets = layers.targets()
    before = _originals(targets)
    t = Tracer()
    with pytest.raises(RuntimeError):
        with t.patched(targets), t.op(0):
            dimsift.run_pipeline(_small_config())
            raise RuntimeError("op failed")
    assert all(vars(owner)[attr] is original for owner, attr, original in before)
    assert t.spans[0].end > t.spans[0].start

"""What the traced run wraps in dimsift, and the per-layer metric names it can report.

The layers are the package modules: data, model, influence, refine, metrics,
pipeline and cli. Public functions are wrapped where `dimsift.pipeline` and
`dimsift.cli` look them up, and in the `dimsift` package namespace, which is
where the benchmark's own ops look them up. The save/load/to_jsonl/to_csv
methods are wrapped on their classes. `cli.<command>` spans come from the
benchmark itself, around each `dimsift.cli.main` call.
"""
from __future__ import annotations

import os

import dimsift
import dimsift.cli
import dimsift.pipeline
from dimsift.influence import SelfInfluenceTable
from dimsift.metrics import MetricReport, OverlapCurve
from dimsift.model import RegressionHead
from dimsift.pipeline import ExperimentReport
from dimsift.refine import PruneResult, WeightMatrix

from spans import ROOT_SPAN, Target

LAYERS = ("data", "model", "influence", "refine", "metrics", "pipeline", "cli")
CLI_COMMANDS = ("run", "score", "prune", "reweight", "detect-noise", "evaluate", "report")
# Files `dimsift run --refine ddr --out D` writes into D.
ARTIFACT_FILES = (
    "config.json",
    "corpus.jsonl",
    "train.jsonl",
    "test_clean.jsonl",
    "probe_head.json",
    "final_head.json",
    "scores.jsonl",
    "scores.csv",
    "weights.json",
    "weights.csv",
    "overlap.csv",
    "report.json",
    "report.txt",
)


def _rows(i):
    return lambda args, kwargs, result: {"rows": len(args[i])}


def _bytes(i):
    return lambda args, kwargs, result: {"bytes": os.path.getsize(args[i])}


def _epochs(args, kwargs, result):
    return {"epochs": result.fit_info["epochs"]}


# function name -> (span name, counter)
FUNCTIONS = {
    "generate_synthetic": ("data.generate_synthetic", None),
    "inject_dimension_noise": ("data.inject", None),
    "inject_correlated_noise": ("data.inject", None),
    "split": ("data.split", None),
    "save_dataset": ("data.save_dataset", _bytes(1)),
    "load_dataset": ("data.load_dataset", _bytes(0)),
    "fit_closed_form": ("model.fit_closed_form", None),
    "fit_gd": ("model.fit_gd", _epochs),
    "per_dim_loss": ("model.per_dim_loss", None),
    "self_influence_closed_form": ("influence.self_influence_closed_form", _rows(1)),
    "self_influence_explicit": ("influence.self_influence_explicit", _rows(1)),
    "global_tracin_self": ("influence.global_tracin_self", _rows(1)),
    "row_sum_scores": ("influence.row_sum_scores", _rows(1)),
    "ddp_select": ("refine.ddp_select", None),
    "ddr_weights": ("refine.ddr_weights", None),
    "loss_prune_select": ("refine.loss_prune_select", None),
    "global_prune_select": ("refine.global_prune_select", None),
    "auroc": ("metrics.auroc", None),
    "evaluate_head": ("metrics.evaluate_head", None),
    "overlap_curve": ("metrics.overlap_curve", None),
    "masking_report": ("metrics.masking_report", None),
    "run_pipeline": ("pipeline.run_pipeline", None),
}

# (class, method, span name, counter); the path is argument 1 in every case
METHODS = (
    (RegressionHead, "save", "model.save", _bytes(1)),
    (RegressionHead, "load", "model.load", _bytes(1)),
    (SelfInfluenceTable, "to_jsonl", "influence.save", _bytes(1)),
    (SelfInfluenceTable, "to_csv", "influence.save", _bytes(1)),
    (SelfInfluenceTable, "load", "influence.load", _bytes(1)),
    (PruneResult, "save", "refine.save", _bytes(1)),
    (PruneResult, "removal_csv", "refine.save", _bytes(1)),
    (PruneResult, "load", "refine.load", _bytes(1)),
    (WeightMatrix, "save", "refine.save", _bytes(1)),
    (WeightMatrix, "to_csv", "refine.save", _bytes(1)),
    (WeightMatrix, "load", "refine.load", _bytes(1)),
    (MetricReport, "save", "metrics.save", _bytes(1)),
    (OverlapCurve, "to_csv", "metrics.save", _bytes(1)),
    (ExperimentReport, "save", "pipeline.save", _bytes(1)),
    (ExperimentReport, "load", "pipeline.load", _bytes(1)),
)

LOOKUP_MODULES = (dimsift, dimsift.pipeline, dimsift.cli)


def targets() -> list[Target]:
    out = []
    for module in LOOKUP_MODULES:
        for attr, (span, counter) in FUNCTIONS.items():
            if attr in vars(module):
                out.append(Target(module, attr, span, counter))
    for cls, attr, span, counter in METHODS:
        out.append(Target(cls, attr, span, counter))
    return out


def known_metric_names() -> set[str]:
    """Every per-layer metric name a traced run can produce."""
    spans = {span for span, _ in FUNCTIONS.values()}
    spans |= {span for _, _, span, _ in METHODS}
    spans |= {f"cli.{c}" for c in CLI_COMMANDS} | {ROOT_SPAN}
    names = {"trace.op_s", "trace.overhead_s", "refine.ddp_select.precision"}
    names |= {f"{layer}.{suffix}" for layer in LAYERS + ("bench",) for suffix in ("self_s", "rows", "bytes", "epochs")}
    names |= {f"{s}.{suffix}" for s in spans for suffix in ("self_s", "calls", "rows", "bytes", "epochs")}
    names |= {"pipeline.artifacts.bytes", "pipeline.artifacts.files"}
    names |= {f"pipeline.artifact.{f}.bytes" for f in ARTIFACT_FILES}
    return names

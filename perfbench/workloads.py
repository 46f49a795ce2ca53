"""The three benchmark workloads, each with an independent check of its output.

Every op of a run repeats the same work on inputs made from the run's seed,
so the quality figures (min_auroc, refined_spearman) are fixed by the seed
and only the timings vary between ops. Ops call dimsift through module
attributes at call time (`dimsift.run_pipeline`, `dimsift.cli.main`) so the
traced run's wrappers see them.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import shutil
from fractions import Fraction
from pathlib import Path

import numpy as np

import dimsift
import dimsift.cli
from dimsift.data import floor_count, load_dataset
from dimsift.influence import InfluenceConfig, grad_per_dimension
from dimsift.model import Scope

from layers import ARTIFACT_FILES

ORACLE_ROWS = 64
ORACLE_RTOL = 1e-10
GLOBAL_RTOL = 1e-12
MIN_AUROC = 0.95


def _resized(seed: int, n_samples: int) -> dimsift.PipelineConfig:
    cfg = dimsift.default_config(seed)
    return dataclasses.replace(cfg, synth=dataclasses.replace(cfg.synth, n_samples=n_samples))


def _auroc_problems(aurocs) -> list[str]:
    if aurocs is None or any(a is None for a in aurocs):
        return [f"AUROC undefined: {aurocs}"]
    return [f"AUROC {a:.4f} below {MIN_AUROC}" for a in aurocs if a < MIN_AUROC]


def _precision(prune: dimsift.PruneResult, train: dimsift.Dataset) -> float:
    """Removed (sample, dimension) cells that were corrupted in that dimension, over removed cells."""
    row = {sid: i for i, sid in enumerate(train.ids)}
    mask = train.corruption_mask
    cells = [(row[sid], k) for k, risk in enumerate(prune.per_dim_risk_sets) for sid in risk]
    return sum(bool(mask[i, k]) for i, k in cells) / len(cells)


class Workload:
    name: str
    refine: str

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir

    def shape(self) -> dict:
        """N, d, K and refine strategy, and the bytes of the training feature matrix."""
        synth = self.config.synth
        n_train = self.n_train
        return {
            "n_samples": synth.n_samples,
            "n_train": n_train,
            "feature_dim": synth.feature_dim,
            "n_dims": synth.n_dims,
            "refine": self.refine,
            "train_feature_bytes": n_train * synth.feature_dim * 8,
        }

    @property
    def n_train(self) -> int:
        n = self.config.synth.n_samples
        f = self.config.split_fractions
        return n - floor_count(f[1], n) - floor_count(f[2], n)

    def reset(self) -> None:
        """Undo the previous op's side effects; runs outside the timed region."""

    def op(self, tracer):
        raise NotImplementedError

    def check(self, out) -> list[str]:
        """Problems found in one op's output; empty when it is correct."""
        raise NotImplementedError

    def quality(self, out) -> tuple[float, float]:
        """(lowest per-dimension corruption AUROC, mean clean-test Spearman of the final head)."""
        raise NotImplementedError

    def layer_counts(self, out) -> dict[str, float]:
        """Per-layer figures read from an op's output rather than from spans."""
        return {}

    def close(self) -> None:
        pass


class PipelineMem(Workload):
    """run_pipeline in memory at 200k samples (120k train rows), DDP."""

    name = "pipeline_mem"
    refine = "ddp"

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.config = _resized(seed, 200_000)

    def op(self, tracer):
        return dimsift.run_pipeline(self.config)

    def check(self, art) -> list[str]:
        problems = _auroc_problems(art.report.noise_detection["per_dim_auroc"])
        n, k = len(art.train), art.train.n_dims
        m = math.ceil(Fraction(str(self.config.refine.rho)) * n)
        removed = len(art.prune.removed_ids)
        if not m <= removed <= min(n, k * m):
            problems.append(f"DDP removed {removed}, outside [{m}, {min(n, k * m)}]")
        lam = self.config.influence.resolved_lambdas(k)
        expected = (art.scores.scores * lam**2).sum(axis=1)
        rel = np.max(np.abs(art.global_scores - expected) / np.abs(expected))
        if not rel <= GLOBAL_RTOL:
            problems.append(f"global scores differ from (scores * lambda^2).sum(1) by {rel:.3g} relative")
        return problems

    def quality(self, art):
        return _report_quality(art.report.to_dict())

    def layer_counts(self, art):
        return {"refine.ddp_select.precision": _precision(art.prune, art.train)}


class SharedScope(Workload):
    """run_pipeline at 20k with a shared hidden layer, last-two-layers scope, DDP; then row sums."""

    name = "shared_scope"
    refine = "ddp"

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        cfg = _resized(seed, 20_000)
        self.config = dataclasses.replace(
            cfg,
            train=dataclasses.replace(cfg.train, hidden_dim=16),
            influence=InfluenceConfig(scope=Scope.LAST_TWO_LAYERS),
        )
        rng = np.random.default_rng([seed, ORACLE_ROWS])
        self.oracle_rows = np.sort(rng.choice(self.n_train, ORACLE_ROWS, replace=False))

    def op(self, tracer):
        art = dimsift.run_pipeline(self.config)
        return art, dimsift.row_sum_scores(art.probe, art.train, self.config.influence)

    def check(self, out) -> list[str]:
        art, row_sums = out
        problems = []
        cfg = self.config.influence
        lam = cfg.resolved_lambdas(art.train.n_dims)
        for i in self.oracle_rows:
            g = grad_per_dimension(art.probe, art.train.sample(int(i)), cfg)
            pairs = np.outer(lam, lam) * (g @ g.T)
            for what, got, want in (
                ("explicit", art.scores.scores[i], (g * g).sum(axis=1)),
                ("global", art.global_scores[i], float((lam @ g) @ (lam @ g))),
                ("row_sum", row_sums[i], pairs.sum(axis=1)),
            ):
                if not np.allclose(got, want, rtol=ORACLE_RTOL, atol=0.0):
                    problems.append(f"{what} score of row {i} differs from the gradient oracle")
        return problems

    def quality(self, out):
        return _report_quality(out[0].report.to_dict())

    def layer_counts(self, out):
        art = out[0]
        return {"refine.ddp_select.precision": _precision(art.prune, art.train)}


class ArtifactsCli(Workload):
    """In-process CLI: `run --refine ddr --out D` at 20k, then the staged stages on D."""

    name = "artifacts_cli"
    refine = "ddr"

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.config = _resized(seed, 20_000)
        self.run_dir = work_dir / "run"
        self.stage_dir = work_dir / "staged"
        d, s = str(self.run_dir), str(self.stage_dir)
        self.commands = [
            ["run", "--seed", str(seed), "--refine", "ddr", "--set", "synth.n_samples=20000", "--out", d],
            ["score", "--data", f"{d}/train.jsonl", "--head", f"{d}/probe_head.json", "--out", f"{s}/scores.jsonl"],
            ["prune", "--scores", f"{s}/scores.jsonl", "--out", f"{s}/prune.json"],
            ["reweight", "--scores", f"{s}/scores.jsonl", "--out", f"{s}/weights.json"],
            ["detect-noise", "--data", f"{d}/train.jsonl", "--scores", f"{s}/scores.jsonl"],
            ["evaluate", "--data", f"{d}/test_clean.jsonl", "--head", f"{d}/final_head.json"],
            ["report", "--dir", d],
        ]

    def reset(self):
        shutil.rmtree(self.work_dir, ignore_errors=True)
        self.stage_dir.mkdir(parents=True)

    def op(self, tracer):
        codes = []
        for argv in self.commands:
            with tracer.span(f"cli.{argv[0]}"), contextlib.redirect_stdout(io.StringIO()):
                codes.append(dimsift.cli.main(argv))
        return codes

    def check(self, codes) -> list[str]:
        problems = [f"`{argv[0]}` exited {rc}" for argv, rc in zip(self.commands, codes) if rc != 0]
        if problems:
            return problems
        for name in ("scores.jsonl", "weights.json"):
            if (self.run_dir / name).read_bytes() != (self.stage_dir / name).read_bytes():
                problems.append(f"staged {name} differs from the run's {name}")
        weights = np.asarray(json.loads((self.run_dir / "weights.json").read_text())["weights"])
        if not abs(weights.mean() - 1.0) <= 1e-12:
            problems.append(f"DDR mean weight {weights.mean()!r} is not 1")
        return problems

    def _report(self) -> dict:
        return json.loads((self.run_dir / "report.json").read_text())

    def quality(self, codes):
        return _report_quality(self._report())

    def layer_counts(self, codes):
        prune = dimsift.PruneResult.load(self.stage_dir / "prune.json")
        sizes = {f: (self.run_dir / f).stat().st_size for f in ARTIFACT_FILES}
        files = [p for p in self.run_dir.iterdir() if p.is_file()]
        counts = {f"pipeline.artifact.{f}.bytes": b for f, b in sizes.items()}
        counts["pipeline.artifacts.bytes"] = sum(p.stat().st_size for p in files)
        counts["pipeline.artifacts.files"] = len(files)
        counts["refine.ddp_select.precision"] = _precision(prune, load_dataset(self.run_dir / "train.jsonl"))
        return counts

    def close(self):
        shutil.rmtree(self.work_dir, ignore_errors=True)


def _report_quality(report: dict) -> tuple[float, float]:
    strategy = report["refine"]["strategy"]
    return (
        min(report["noise_detection"]["per_dim_auroc"]),
        report["strategies"][strategy]["mean_spearman"],
    )


WORKLOADS = {w.name: w for w in (PipelineMem, SharedScope, ArtifactsCli)}


def build(name: str, seed: int, work_dir: Path) -> Workload:
    return WORKLOADS[name](seed, work_dir)

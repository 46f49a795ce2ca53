"""End-to-end experiment pipeline: corpus, probe, scores, refinement, report.

One seeded config fully determines every artifact byte (no timestamps are
written), so identical configs give identical runs. Stages:

    generate -> inject noise -> split -> fit probe -> score -> refine
             -> refit -> evaluate on clean test labels -> report

The probe is an equal-weighted fit on the full training split; influence
scores, the refined training set, and the refit head all derive from it.
"""
from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from types import UnionType
from typing import Optional, Union, get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from .data import (
    Dataset,
    SynthConfig,
    generate_synthetic,
    inject_correlated_noise,
    inject_dimension_noise,
    save_dataset,
    split_indices,
)
from .errors import DataError, UsageError
from .influence import (
    InfluenceConfig,
    SelfInfluenceTable,
    global_tracin_self,
    self_influence_explicit,
)
from .metrics import (
    MaskingReport,
    MetricReport,
    OverlapCurve,
    evaluate_head,
    masking_report,
    overlap_curve,
    per_dim_auroc,
)
from .model import (
    RegressionHead,
    TrainConfig,
    fit_closed_form,
    fit_gd,
    per_dim_loss,
)
from .refine import (
    DEFAULT_EPSILON,
    DEFAULT_RHO,
    DEFAULT_TEMPERATURE,
    PruneResult,
    WeightMatrix,
    ddp_select,
    ddr_weights,
    global_prune_select,
    loss_prune_select,
)

REFINE_STRATEGIES = ("none", "ddp", "ddr", "loss_prune", "global_prune")


@dataclass(frozen=True)
class NoiseSpec:
    """Label corruption applied to the generated corpus before splitting.

    rate / dims / seed drive the per-dimension independent corruption;
    correlated_rate additionally corrupts a common seeded subset in every
    dimension with out-of-range labels (see inject_correlated_noise).
    """

    rate: float = 0.0
    dims: Optional[tuple[int, ...]] = None
    seed: int = 0
    correlated_rate: float = 0.0
    correlated_seed: int = 0
    severity: tuple[float, float] = (0.5, 1.0)


@dataclass(frozen=True)
class RefineSpec:
    strategy: str = "none"
    rho: float = DEFAULT_RHO
    temperature: float = DEFAULT_TEMPERATURE
    epsilon: float = DEFAULT_EPSILON
    rho_total: Optional[float] = None

    def __post_init__(self):
        if self.strategy not in REFINE_STRATEGIES:
            raise UsageError(
                f"unknown refine strategy {self.strategy!r}, expected one of {REFINE_STRATEGIES}"
            )


# config.json keeps the two split fields of PipelineConfig in one "split" section
_SPLIT_KEYS = {"fractions": "split_fractions", "seed": "split_seed"}


def _jsonable(value):
    """A config value as JSON: tuples become lists and enums their value."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    if isinstance(value, Enum):
        return value.value
    return value


def _read_value(value, tp, key: str):
    """A JSON value as the annotated type tp; a UsageError naming key if it is not one.

    Handles the annotations config fields use: int, float, str, bool (a JSON
    boolean only), enums, fixed and variable length tuples, and unions such
    as X | None.
    """
    origin, args = get_origin(tp), get_args(tp)
    if origin in (Union, UnionType):
        if value is None and type(None) in args:
            return None
        for arm in args:
            try:
                return _read_value(value, arm, key)
            except UsageError:
                pass
    elif origin is tuple:
        if isinstance(value, (list, tuple)):
            items = args[:1] * len(value) if args[-1] is Ellipsis else args
            if len(items) == len(value):
                return tuple(_read_value(v, t, key) for v, t in zip(value, items))
    elif isinstance(tp, type) and issubclass(tp, Enum):
        try:
            return tp(value)
        except ValueError:
            pass
    elif tp is float:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
    elif tp is int:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
    elif isinstance(value, tp):
        return value
    name = str(tp).replace("typing.", "") if origin else tp.__name__
    raise UsageError(f"config {key}: expected {name}, got {value!r}")


def _read_section(section, name: str, types: dict) -> dict:
    """The values of one config section, each read as types[key]."""
    if not isinstance(section, dict):
        raise UsageError(f"config section {name!r} must be an object")
    unknown = sorted(set(section) - set(types))
    if unknown:
        raise UsageError(f"unknown config key(s): {[f'{name}.{key}' for key in unknown]}")
    return {key: _read_value(v, types[key], f"{name}.{key}") for key, v in section.items()}


@dataclass(frozen=True)
class PipelineConfig:
    synth: SynthConfig
    noise: NoiseSpec = NoiseSpec()
    train: TrainConfig = TrainConfig(ridge_alpha=1e-6)
    influence: InfluenceConfig = InfluenceConfig()
    refine: RefineSpec = RefineSpec()
    split_fractions: tuple[float, float, float] = (0.6, 0.2, 0.2)
    split_seed: int = 0

    # -- dict / file round trip ---------------------------------------------

    def to_dict(self) -> dict:
        doc = _jsonable(dataclasses.asdict(self))
        doc["split"] = {key: doc.pop(attr) for key, attr in _SPLIT_KEYS.items()}
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "PipelineConfig":
        """Read a config document written by to_dict.

        Each section's keys and types are the fields of its dataclass, and a
        missing key takes its value from this class's default for the
        section, so every default lives in the dataclasses.
        """
        hints = get_type_hints(cls)
        sections = [f for f in dataclasses.fields(cls) if dataclasses.is_dataclass(hints[f.name])]
        unknown = set(doc) - {f.name for f in sections} - {"split"}
        if unknown:
            raise UsageError(f"unknown config section(s): {sorted(unknown)}")
        values = {}
        for f in sections:
            section_cls = hints[f.name]
            given = _read_section(doc.get(f.name, {}), f.name, get_type_hints(section_cls))
            if f.default is dataclasses.MISSING:
                for g in dataclasses.fields(section_cls):
                    if g.name not in given and g.default is dataclasses.MISSING:
                        raise UsageError(f"config requires {f.name}.{g.name}")
            try:
                if f.default is dataclasses.MISSING:
                    values[f.name] = section_cls(**given)
                else:
                    values[f.name] = dataclasses.replace(f.default, **given)
            except (ValueError, UsageError) as e:
                raise UsageError(f"config {f.name}: {e}") from None
        split = _read_section(
            doc.get("split", {}), "split", {key: hints[attr] for key, attr in _SPLIT_KEYS.items()}
        )
        values.update((_SPLIT_KEYS[key], value) for key, value in split.items())
        return cls(**values)

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        p = Path(path)
        if not p.exists():
            raise UsageError(f"config file not found: {p}")
        try:
            doc = json.loads(p.read_text())
        except json.JSONDecodeError as e:
            raise UsageError(f"config file {p} is not valid JSON: {e}") from None
        if not isinstance(doc, dict):
            raise UsageError("config file must contain a JSON object")
        return cls.from_dict(doc)


def default_config(seed: int = 0, refine_strategy: str = "ddp") -> PipelineConfig:
    """The default heterogeneous corpus and refinement settings.

    2000 samples, 16 features, 5 dimensions, clean noise SD 0.1; 10 percent
    independent per-dimension corruption plus a 0.25 percent correlated slice
    of globally broken records. All stage seeds derive from one base seed.
    """
    return PipelineConfig(
        synth=SynthConfig(
            n_samples=2000,
            feature_dim=16,
            n_dims=5,
            label_noise_sd=0.1,
            teacher_seed=seed,
            sample_seed=seed + 1,
        ),
        noise=NoiseSpec(rate=0.1, seed=seed + 2, correlated_rate=0.0025, correlated_seed=seed + 3),
        refine=RefineSpec(strategy=refine_strategy),
        split_seed=seed + 4,
    )


# report.json key of each ExperimentReport field
_REPORT_KEYS = {
    "version": "version",
    "config": "config",
    "dataset_summary": "dataset",
    "strategies": "strategies",
    "refine_summary": "refine",
    "noise_detection": "noise_detection",
    "overlap": "overlap",
    "masking": "masking",
}


@dataclass
class ExperimentReport:
    """Everything a pipeline run measured, plus full provenance."""

    version: str
    config: dict
    dataset_summary: dict
    strategies: dict
    refine_summary: dict
    noise_detection: dict
    overlap: dict
    masking: dict

    def to_dict(self) -> dict:
        return {key: getattr(self, name) for name, key in _REPORT_KEYS.items()}

    @classmethod
    def from_dict(cls, d) -> "ExperimentReport":
        if not isinstance(d, dict):
            raise DataError("report document must be a JSON object")
        hints = get_type_hints(cls)
        values = {}
        for name, key in _REPORT_KEYS.items():
            if key not in d:
                raise DataError(f"report document missing key {key!r}")
            if not isinstance(d[key], hints[name]):
                raise DataError(
                    f"report {key!r} must be a {hints[name].__name__}, got {type(d[key]).__name__}"
                )
            values[name] = d[key]
        return cls(**values)

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.dumps())

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentReport":
        p = Path(path)
        if not p.exists():
            raise DataError(f"report file not found: {p}")
        try:
            return cls.from_dict(json.loads(p.read_text()))
        except json.JSONDecodeError as e:
            raise DataError(f"malformed report file {p}: {e}") from None

    def render_text(self) -> str:
        out = []
        ds = self.dataset_summary
        out.append(f"dimsift experiment report (version {self.version})")
        out.append("")
        out.append(
            f"corpus: {ds['n_total']} samples, {ds['feature_dim']} features, "
            f"{len(ds['dim_names'])} dimensions"
        )
        out.append(
            f"split: train {ds['n_train']} / val {ds['n_val']} / test {ds['n_test']}"
        )
        if ds.get("train_corrupted_per_dim") is not None:
            frac = ", ".join(
                f"{name}={c}" for name, c in zip(ds["dim_names"], ds["train_corrupted_per_dim"])
            )
            out.append(f"corrupted training labels per dimension: {frac}")
        out.append("")
        out.append("clean-test Spearman per dimension:")
        for name, rep in sorted(self.strategies.items()):
            per_dim = ", ".join(f"{v:.4f}" for v in rep["per_dim_spearman"])
            out.append(f"  {name:<14} mean {rep['mean_spearman']:.4f}  [{per_dim}]")
        out.append("")
        rs = self.refine_summary
        out.append(f"refinement: {rs['strategy']}")
        if rs["strategy"] in ("ddp", "loss_prune", "global_prune"):
            out.append(
                f"  removed {rs['n_removed']} of {ds['n_train']} "
                f"({100.0 * rs['removed_fraction']:.2f}%) at rho={rs['rho']}"
            )
        elif rs["strategy"] == "ddr":
            out.append(
                f"  weights in [{rs['min_weight']:.6f}, {rs['max_weight']:.6f}], "
                f"global mean {rs['mean_weight']:.12f}, temperature {rs['temperature']}"
            )
        nd = self.noise_detection
        out.append("")
        if nd.get("per_dim_auroc") is None:
            out.append(f"noise detection: {nd.get('note', 'not computed')}")
        else:
            vals = ", ".join(
                f"{name}={'n/a' if v is None else format(v, '.4f')}"
                for name, v in zip(ds["dim_names"], nd["per_dim_auroc"])
            )
            out.append(f"noise detection AUROC (train split): {vals}")
        ov = self.overlap
        curve = ", ".join(f"{100.0 * v:.2f}%" for v in ov["cumulative_ratios"])
        out.append(f"overlap curve at rho={ov['rho']}: [{curve}]")
        mk = self.masking
        masked = ", ".join(
            f"{row['dim']}={row['masked']}"
            + ("" if row["masked_corrupted"] is None else f" ({row['masked_corrupted']} corrupted)")
            for row in mk["per_dim"]
        )
        out.append(f"masked by global ranking (budget {mk['budget']}): {masked}")
        out.append("")
        return "\n".join(out) + "\n"


@dataclass
class PipelineArtifacts:
    """In-memory handles to everything a run produced."""

    report: ExperimentReport
    clean: Dataset
    noisy: Dataset
    train: Dataset
    test_clean: Dataset
    probe: RegressionHead
    final: RegressionHead
    scores: SelfInfluenceTable
    global_scores: np.ndarray
    prune: Optional[PruneResult]
    weight_matrix: Optional[WeightMatrix]


def _fit(ds: Dataset, weights, cfg: TrainConfig) -> RegressionHead:
    if cfg.hidden_dim is not None or cfg.strategy != "equal":
        return fit_gd(ds, weights, cfg)
    return fit_closed_form(ds, weights, cfg)


def run_pipeline(
    config: PipelineConfig, output_dir: str | Path | None = None
) -> PipelineArtifacts:
    """Run the full experiment described by config; optionally write artifacts.

    Evaluation is always against clean test labels: the split indices are
    drawn once and select the training rows of the corrupted corpus and the
    test rows of the clean one (both corpora share ids and row order). The
    validation and test rows of the corrupted corpus are never materialised.
    """
    clean = generate_synthetic(config.synth)
    noisy = clean
    if config.noise.rate > 0.0:
        dims = (
            list(range(config.synth.n_dims))
            if config.noise.dims is None
            else list(config.noise.dims)
        )
        noisy = inject_dimension_noise(noisy, config.noise.rate, dims, config.noise.seed)
    if config.noise.correlated_rate > 0.0:
        noisy = inject_correlated_noise(
            noisy,
            config.noise.correlated_rate,
            config.noise.correlated_seed,
            severity=config.noise.severity,
        )

    train_idx, val_idx, test_idx = split_indices(
        len(noisy), config.split_fractions, config.split_seed
    )
    if len(test_idx) == 0:
        raise DataError("test split is empty; increase the test fraction")
    train = noisy.select(train_idx)
    test_clean = clean.select(test_idx)

    probe_cfg = dataclasses.replace(config.train, strategy="equal")
    probe = _fit(train, None, probe_cfg)

    scores = self_influence_explicit(probe, train, config.influence)
    global_scores = global_tracin_self(probe, train, config.influence)

    prune: Optional[PruneResult] = None
    weight_matrix: Optional[WeightMatrix] = None
    refined_train = train
    refit_weights = None
    r = config.refine
    if r.strategy == "ddp":
        prune = ddp_select(scores, r.rho)
    elif r.strategy == "loss_prune":
        prune = loss_prune_select(per_dim_loss(probe, train), r.rho)
    elif r.strategy == "global_prune":
        rho_total = r.rho_total if r.rho_total is not None else r.rho
        prune = global_prune_select(global_scores, train.ids, rho_total)
    elif r.strategy == "ddr":
        weight_matrix = ddr_weights(scores, r.temperature, r.epsilon)
        refit_weights = weight_matrix
    if prune is not None:
        if not prune.kept_ids:
            raise DataError("refinement removed every training sample; lower rho")
        # the rows of kept_ids, in corpus order
        removed = set(prune.removed_ids)
        kept = np.fromiter((sid not in removed for sid in train.ids), dtype=bool, count=len(train))
        refined_train = train.select(np.flatnonzero(kept))

    final = probe if r.strategy == "none" else _fit(refined_train, refit_weights, config.train)

    strategies = {
        "baseline": evaluate_head(probe, test_clean, {"strategy": "baseline"}).to_dict()
    }
    if r.strategy != "none":
        strategies[r.strategy] = evaluate_head(
            final, test_clean, {"strategy": r.strategy}
        ).to_dict()

    mask = train.corruption_mask
    if mask is None or not mask.any():
        detection = {
            "per_dim_auroc": None,
            "note": "no corrupted labels in the training split; AUROC undefined",
        }
    else:
        detection = {"per_dim_auroc": per_dim_auroc(scores.scores, mask)}

    report_rho = r.rho if r.strategy in ("ddp", "loss_prune") else DEFAULT_RHO
    overlap = overlap_curve(scores, report_rho)
    masking = masking_report(scores, global_scores, report_rho, corrupted=mask)

    if r.strategy in ("ddp", "loss_prune", "global_prune"):
        refine_summary = {
            "strategy": r.strategy,
            "rho": prune.rho,
            "n_removed": len(prune.removed_ids),
            "removed_fraction": len(prune.removed_ids) / len(train),
            "thresholds": prune.thresholds,
        }
    elif r.strategy == "ddr":
        refine_summary = {
            "strategy": "ddr",
            "temperature": r.temperature,
            "epsilon": r.epsilon,
            "min_weight": float(weight_matrix.weights.min()),
            "max_weight": float(weight_matrix.weights.max()),
            "mean_weight": float(weight_matrix.weights.mean()),
        }
    else:
        refine_summary = {"strategy": "none"}

    report = ExperimentReport(
        version=__version__,
        config=config.to_dict(),
        dataset_summary={
            "n_total": len(noisy),
            "feature_dim": noisy.feature_dim,
            "dim_names": noisy.dim_names,
            "n_train": len(train),
            "n_val": len(val_idx),
            "n_test": len(test_idx),
            "train_corrupted_per_dim": None
            if mask is None
            else [int(c) for c in mask.sum(axis=0)],
            "n_train_refined": len(refined_train),
        },
        strategies=strategies,
        refine_summary=refine_summary,
        noise_detection=detection,
        overlap={
            "rho": overlap.rho,
            "dim_order": overlap.dim_order,
            "cumulative_ratios": overlap.cumulative_ratios,
        },
        masking=masking.to_dict(),
    )

    artifacts = PipelineArtifacts(
        report=report,
        clean=clean,
        noisy=noisy,
        train=train,
        test_clean=test_clean,
        probe=probe,
        final=final,
        scores=scores,
        global_scores=global_scores,
        prune=prune,
        weight_matrix=weight_matrix,
    )
    if output_dir is not None:
        _write_artifacts(artifacts, config, Path(output_dir))
    return artifacts


def _write_artifacts(art: PipelineArtifacts, config: PipelineConfig, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(json.dumps(config.to_dict(), sort_keys=True, indent=2) + "\n")
    save_dataset(art.noisy, out / "corpus.jsonl")
    save_dataset(art.train, out / "train.jsonl")
    save_dataset(art.test_clean, out / "test_clean.jsonl")
    art.probe.save(out / "probe_head.json")
    art.final.save(out / "final_head.json")
    art.scores.to_jsonl(out / "scores.jsonl")
    art.scores.to_csv(out / "scores.csv")
    if art.prune is not None:
        art.prune.save(out / "prune.json")
        art.prune.removal_csv(out / "removed.csv", art.train.dim_names)
    if art.weight_matrix is not None:
        art.weight_matrix.save(out / "weights.json")
        art.weight_matrix.to_csv(out / "weights.csv", art.train.dim_names)
    curve = OverlapCurve(
        cumulative_ratios=art.report.overlap["cumulative_ratios"],
        dim_order=art.report.overlap["dim_order"],
        rho=art.report.overlap["rho"],
    )
    curve.to_csv(out / "overlap.csv")
    art.report.save(out / "report.json")
    (out / "report.txt").write_text(art.report.render_text())

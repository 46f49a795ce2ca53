"""End-to-end experiment pipeline: corpus, probe, scores, refinement, report.

One seeded config fully determines every artifact byte (no timestamps are
written), so identical configs give identical runs. Stages:

    split -> draw the training and test rows -> inject noise
          -> (with an output directory) write config.json and corpus.jsonl
          -> fit probe -> score -> refine -> refit
          -> evaluate on clean test labels -> report

The probe is an equal-weighted fit on the full training split; influence
scores, the refined training set, and the refit head all derive from it.
"""
from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from types import UnionType
from typing import Optional, Union, get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from .data import (
    Dataset,
    NoiseSpec,
    SynthConfig,
    draw_synthetic,
    read_json,
    sample_features,
    save_dataset,
    save_synthetic_rows,
    split_indices,
    synthetic_rows,
    validate_synth,
    with_injections,
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
    evaluate_heads,
    masking_report,
    overlap_curve,
    per_dim_auroc,
)
from .model import (
    RegressionHead,
    TrainConfig,
    fit_closed_form_arrays,
    fit_gd_arrays,
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
class RefineSpec:
    """A run's refinement. rho is its one budget: ddp, loss_prune and global_prune
    remove by it, and every run's overlap curve and masking report read it."""

    strategy: str = "none"
    rho: float = DEFAULT_RHO
    temperature: float = DEFAULT_TEMPERATURE
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self):
        if self.strategy not in REFINE_STRATEGIES:
            raise UsageError(
                f"unknown refine strategy {self.strategy!r}, expected one of {REFINE_STRATEGIES}"
            )
        if not 0.0 <= self.rho <= 1.0:
            raise UsageError(f"rho must be in [0, 1], got {self.rho}")
        if not self.temperature > 0.0:
            raise UsageError(f"temperature must be positive, got {self.temperature}")
        if not self.epsilon > 0.0:
            raise UsageError(f"epsilon must be positive, got {self.epsilon}")


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
            # json reads NaN, Infinity and integers past the float range, which no setting takes
            if not abs(value) <= sys.float_info.max:
                raise UsageError(f"config {key}: expected a finite number, got {value!r:.40}")
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
    train: TrainConfig = TrainConfig()
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
        """from_dict of the config file at path; a fault in the file is a usage error."""
        try:
            return read_json(path, "config", cls.from_dict)
        except DataError as e:
            raise UsageError(str(e)) from None


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


class _Section(dict):
    """A report.json object whose missing keys are data errors naming section.key."""

    def __init__(self, name: str, doc):
        if not isinstance(doc, dict):
            raise DataError(f"report {name} must be an object, got {type(doc).__name__}")
        super().__init__(doc)
        self.name = name

    def __missing__(self, key):
        raise DataError(f"report {self.name}.{key} is missing")

    def number(self, key, optional: bool = False):
        """self[key] if it is a JSON number (or None, if optional), else a data error naming it."""
        v = self[key]
        if v is None and optional or isinstance(v, (int, float)) and not isinstance(v, bool):
            return v
        raise DataError(f"report {self.name}.{key} must be a number, got {v!r}")

    def sequence(self, key) -> list:
        """self[key] if it is a list, else a data error naming it."""
        v = self[key]
        if not isinstance(v, list):
            raise DataError(f"report {self.name}.{key} must be a list, got {v!r}")
        return v

    def numbers(self, key, optional: bool = False) -> list:
        """self[key] if it is a list whose every entry number() accepts."""
        v = self.sequence(key)
        entries = _Section(f"{self.name}.{key}", dict(enumerate(v)))
        return [entries.number(i, optional) for i in range(len(v))]


def overlap_line(rho, ratios) -> str:
    """The report line of an overlap curve: its rho and cumulative ratios as percentages."""
    curve = ", ".join(f"{100.0 * v:.2f}%" for v in ratios)
    return f"overlap curve at rho={rho}: [{curve}]"


def masking_line(budget, per_dim) -> str:
    """The report line of a masking report: per_dim holds the rows of MaskingReport.to_dict()."""
    masked = ", ".join(
        f"{row['dim']}={row['masked']}"
        + ("" if row["masked_corrupted"] is None else f" ({row['masked_corrupted']} corrupted)")
        for row in per_dim
    )
    return f"masked by global ranking (budget {budget}): {masked}"


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
        return read_json(path, "report", cls.from_dict)

    def render_text(self) -> str:
        out = []
        ds = _Section("dataset", self.dataset_summary)
        dim_names = ds.sequence("dim_names")
        out.append(f"dimsift experiment report (version {self.version})")
        out.append("")
        out.append(
            f"corpus: {ds['n_total']} samples, {ds['feature_dim']} features, "
            f"{len(dim_names)} dimensions"
        )
        out.append(
            f"split: train {ds['n_train']} / val {ds['n_val']} / test {ds['n_test']}"
        )
        if ds.get("train_corrupted_per_dim") is not None:
            frac = ", ".join(
                f"{name}={c}" for name, c in zip(dim_names, ds.sequence("train_corrupted_per_dim"))
            )
            out.append(f"corrupted training labels per dimension: {frac}")
        out.append("")
        out.append("clean-test Spearman per dimension:")
        for name, rep in sorted(self.strategies.items()):
            rep = _Section(f"strategies.{name}", rep)
            per_dim = ", ".join(f"{v:.4f}" for v in rep.numbers("per_dim_spearman"))
            out.append(f"  {name:<14} mean {rep.number('mean_spearman'):.4f}  [{per_dim}]")
        out.append("")
        rs = _Section("refine", self.refine_summary)
        out.append(f"refinement: {rs['strategy']}")
        if rs["strategy"] in ("ddp", "loss_prune", "global_prune"):
            out.append(
                f"  removed {rs['n_removed']} of {ds['n_train']} "
                f"({100.0 * rs.number('removed_fraction'):.2f}%) at rho={rs['rho']}"
            )
        elif rs["strategy"] == "ddr":
            out.append(
                f"  weights in [{rs.number('min_weight'):.6f}, {rs.number('max_weight'):.6f}], "
                f"global mean {rs.number('mean_weight'):.12f}, temperature {rs['temperature']}"
            )
        nd = _Section("noise_detection", self.noise_detection)
        out.append("")
        if nd.get("per_dim_auroc") is None:
            out.append(f"noise detection: {nd.get('note', 'not computed')}")
        else:
            vals = ", ".join(
                f"{name}={'n/a' if v is None else format(v, '.4f')}"
                for name, v in zip(dim_names, nd.numbers("per_dim_auroc", optional=True))
            )
            out.append(f"noise detection AUROC (train split): {vals}")
        ov = _Section("overlap", self.overlap)
        out.append(overlap_line(ov["rho"], ov.numbers("cumulative_ratios")))
        mk = _Section("masking", self.masking)
        per_dim = [_Section("masking.per_dim", r) for r in mk.sequence("per_dim")]
        out.append(masking_line(mk["budget"], per_dim))
        out.append("")
        return "\n".join(out) + "\n"


@dataclass
class PipelineArtifacts:
    """In-memory handles to what a run produced after the split.

    A run draws only its training rows' features and never builds the full
    corpus they were taken from. With an output directory the run writes
    that corpus to corpus.jsonl right after the noise, from its own labels
    and mask, and holds no feature matrix of it. The test split is not
    kept: the report holds its evaluation, and test_clean.jsonl its rows.
    A pruned run's refined rows are not kept either: prune.kept_ids names
    them. A closed-form refit copied no rows; a gradient-descent refit held
    a copy of their features and labels. train keeps its ids as row numbers
    (data.RowIds). The scores and weights share train's ids, and the prune
    result holds views of them, so no id string is kept.
    """

    report: ExperimentReport
    train: Dataset
    probe: RegressionHead
    final: RegressionHead
    scores: SelfInfluenceTable
    global_scores: np.ndarray
    prune: Optional[PruneResult]
    weight_matrix: Optional[WeightMatrix]


def _uses_gd(cfg: TrainConfig) -> bool:
    """Whether cfg is fitted by gradient descent: a shared layer or a loss-balancing strategy."""
    return cfg.hidden_dim is not None or cfg.strategy != "equal"


def check_gd_settings(cfg: TrainConfig, names: dict[str, str]) -> None:
    """A UsageError if cfg picks gradient descent but changes a closed-form-only setting.

    Gradient descent has no ridge term and always fits biases, so a
    ridge_alpha or fit_bias other than its default would be ignored. names
    maps each of the two fields to the name the caller knows it by.
    """
    default = TrainConfig()
    changed = [names[f] for f in ("ridge_alpha", "fit_bias") if getattr(cfg, f) != getattr(default, f)]
    if _uses_gd(cfg) and changed:
        raise UsageError(
            f"{', '.join(changed)}: not used by gradient descent (a hidden layer or a "
            "non-equal strategy), which has no ridge term and always fits biases"
        )


def _fit(x: np.ndarray, y: np.ndarray, weights, cfg: TrainConfig, drop=None) -> RegressionHead:
    """A head fitted to features x and labels y, leaving out the rows drop names.

    Gradient descent on a copy of the kept rows with a shared layer or a
    loss-balancing strategy, else the closed form, which copies no rows.
    """
    if _uses_gd(cfg):
        if drop is not None:
            x, y = np.delete(x, drop, axis=0), np.delete(y, drop, axis=0)
        return fit_gd_arrays(x, y, weights, cfg)
    return fit_closed_form_arrays(x, y, weights, cfg, drop)


def run_pipeline(
    config: PipelineConfig, output_dir: str | Path | None = None
) -> PipelineArtifacts:
    """Run the full experiment described by config; optionally write artifacts.

    Evaluation is always against clean test labels. The split indices are
    drawn first, and the run draws the labels of every row but the features
    of its training rows only: those rows carry corrupted labels, equal to
    the rows of generate_synthetic(config.synth) after config.noise
    corrupts the whole corpus. The test split is its row indices and their
    clean labels, taken before the noise; the heads are evaluated on its
    features read once from a fresh stream of the sample seed, a block at a
    time, so no test feature matrix is held. No Dataset of the full corpus
    or of the test split is built. With output_dir, config.json and
    corpus.jsonl are written once the noise is applied: the corpus from the
    run's own full label matrix and mask, its features read again from the
    stream, so a run that fails after that still leaves both files. The
    other files follow at the end, test_clean.jsonl streamed in the same
    way. A pruned closed-form refit subtracts the removed rows' normal
    equations and copies no rows; a gradient-descent refit fits a copy of
    the kept rows, released after.
    """
    validate_synth(config.synth)
    check_gd_settings(config.train, {"ridge_alpha": "train.ridge_alpha", "fit_bias": "train.fit_bias"})
    for key, section in (("train.lambdas", config.train), ("influence.lambdas", config.influence)):
        try:
            section.resolved_lambdas(config.synth.n_dims)
        except ValueError as e:
            raise UsageError(f"{key}: {e}") from None
    # the validation rows are never drawn, so their indices are not kept
    train_idx, test_idx = split_indices(
        config.synth.n_samples, config.split_fractions, config.split_seed
    )[::2]
    if len(test_idx) == 0:
        raise DataError("test split is empty; increase the test fraction")

    labels, (train_x,), clean_manifest = draw_synthetic(config.synth, [train_idx])
    # the test rows keep their clean labels; the one label matrix is then corrupted in place
    test_labels = labels[test_idx]
    mask = np.zeros(labels.shape, dtype=bool)
    manifest = with_injections(clean_manifest, config.noise.apply(labels, mask))
    if output_dir is not None:
        out = Path(output_dir)
        out.mkdir(parents=True, exist_ok=True)
        config_doc = json.dumps(config.to_dict(), sort_keys=True, indent=2)
        (out / "config.json").write_text(config_doc + "\n")
        every_row = np.arange(config.synth.n_samples)
        save_synthetic_rows(out / "corpus.jsonl", config.synth, every_row, labels, mask, manifest)
        del every_row
    train = synthetic_rows(
        config.synth, train_idx, train_x, labels[train_idx], mask[train_idx], manifest
    )
    del labels, mask, train_x

    probe_cfg = dataclasses.replace(config.train, strategy="equal")
    probe = _fit(train.features, train.labels, None, probe_cfg)

    scores = self_influence_explicit(probe, train, config.influence)
    global_scores = global_tracin_self(probe, train, config.influence)

    prune: Optional[PruneResult] = None
    weight_matrix: Optional[WeightMatrix] = None
    drop = None
    r = config.refine
    refine_summary = {"strategy": r.strategy}
    if r.strategy == "ddp":
        prune = ddp_select(scores, r.rho)
    elif r.strategy == "loss_prune":
        prune = loss_prune_select(per_dim_loss(probe, train), train.ids, r.rho)
    elif r.strategy == "global_prune":
        prune = global_prune_select(global_scores, train.ids, r.rho)
    elif r.strategy == "ddr":
        weight_matrix = ddr_weights(scores, r.temperature, r.epsilon)
        w = weight_matrix.weights
        refine_summary.update(
            temperature=r.temperature,
            epsilon=r.epsilon,
            min_weight=float(w.min()),
            max_weight=float(w.max()),
            mean_weight=float(w.mean()),
        )
    if prune is not None:
        if not prune.kept_ids:
            raise DataError("refinement removed every training sample; lower rho")
        # removed_ids views train's ascending row numbers, which locate its rows in train
        drop = np.searchsorted(train.ids.rows, prune.removed_ids.rows)
        refine_summary.update(
            rho=prune.rho,
            n_removed=len(drop),
            removed_fraction=len(drop) / len(train),
            thresholds=prune.thresholds,
        )
    n_train_refined = len(train) - (0 if drop is None else len(drop))
    final = probe
    heads = {"baseline": probe}
    if r.strategy != "none":
        final = heads[r.strategy] = _fit(train.features, train.labels, weight_matrix, config.train, drop)

    # the test features are read once more from the sample stream, for every head at once
    blocks = sample_features(config.synth, test_idx)
    metrics = evaluate_heads(list(heads.values()), blocks, test_labels, train.dim_names)
    strategies = {}
    for name, metric in zip(heads, metrics):
        metric.metadata["strategy"] = name
        strategies[name] = metric.to_dict()

    mask = train.corruption_mask
    if mask is None or not mask.any():
        detection = {
            "per_dim_auroc": None,
            "note": "no corrupted labels in the training split; AUROC undefined",
        }
    else:
        detection = {"per_dim_auroc": per_dim_auroc(scores.scores, mask)}

    overlap = overlap_curve(scores, r.rho)
    masking = masking_report(scores, global_scores, r.rho, corrupted=mask)

    report = ExperimentReport(
        version=__version__,
        config=config.to_dict(),
        dataset_summary={
            "n_total": config.synth.n_samples,
            "feature_dim": train.feature_dim,
            "dim_names": train.dim_names,
            "n_train": len(train),
            "n_val": config.synth.n_samples - len(train_idx) - len(test_idx),
            "n_test": len(test_idx),
            "train_corrupted_per_dim": None
            if mask is None
            else [int(c) for c in mask.sum(axis=0)],
            "n_train_refined": n_train_refined,
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
        train=train,
        probe=probe,
        final=final,
        scores=scores,
        global_scores=global_scores,
        prune=prune,
        weight_matrix=weight_matrix,
    )
    if output_dir is not None:
        clean_mask = np.zeros(test_labels.shape, dtype=bool)
        save_synthetic_rows(
            out / "test_clean.jsonl", config.synth, test_idx, test_labels, clean_mask, clean_manifest
        )
        _write_artifacts(artifacts, out)
    return artifacts


def _write_artifacts(art: PipelineArtifacts, out: Path) -> None:
    """The files drawn from art; run_pipeline writes config.json, corpus.jsonl and test_clean.jsonl."""
    save_dataset(art.train, out / "train.jsonl")
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

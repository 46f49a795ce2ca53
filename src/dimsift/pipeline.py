"""End-to-end experiment pipeline: corpus, probe, scores, refinement, report.

One seeded config fully determines every artifact byte (no timestamps are
written), so identical configs give identical runs. A run is a shared
prefix, then one per-strategy suffix:

    prefix  _draw: split -> read the clean label ranges -> draw the noise
                   -> (with an output directory) write config.json and corpus.jsonl
            -> fit probe -> score (self and global, one pass)
    suffix  _refine: select or weight -> refit
            -> evaluate every head on clean test labels -> report

The probe is an unweighted fit on the full training split; influence
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
    StreamLabels,
    SynthConfig,
    checked_fractions,
    read_json,
    save_dataset,
    split_indices,
    synth_manifest,
    synthetic_rows,
    validate_synth,
)
from .errors import DataError, UsageError
from .influence import InfluenceConfig, SelfInfluenceTable, self_and_global_scores
from .metrics import (
    OverlapCurve,
    evaluate_heads,
    masking_report,
    overlap_curve,
    per_dim_auroc,
)
from .model import (
    RegressionHead,
    Scope,
    TrainConfig,
    fit_closed_form,
    fit_gd,
    per_dim_loss,
)
from .noise import NoiseSpec, corrupted_cells, with_injections
from .refine import (
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

    def __post_init__(self):
        if self.strategy not in REFINE_STRATEGIES:
            raise UsageError(
                f"strategy: unknown refine strategy {self.strategy!r}, "
                f"expected one of {REFINE_STRATEGIES}"
            )
        if not 0.0 <= self.rho <= 1.0:
            raise UsageError(f"rho: must be in [0, 1], got {self.rho}")
        if not self.temperature > 0.0:
            raise UsageError(f"temperature: must be positive, got {self.temperature}")


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

    Handles the annotations config fields use: int, float, str, enums,
    fixed and variable length tuples, and unions such as X | None.
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
            # numpy's generators refuse a negative seed
            if key.endswith("seed") and value < 0:
                raise UsageError(f"config {key}: must be nonnegative, got {value}")
            return value
    elif isinstance(value, tp):
        return value
    name = str(tp).replace("typing.", "") if origin else tp.__name__
    raise UsageError(f"config {key}: expected {name}, got {value!r}")


def _read_section(section, name: str, types: dict) -> dict:
    """The values of one config section, each read as types[key]."""
    if not isinstance(section, dict):
        raise UsageError(f"config {name}: must be an object")
    unknown = sorted(set(section) - set(types))
    if unknown:
        raise UsageError(f"config {name}.{unknown[0]}: unknown key")
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
        section, so every default lives in the dataclasses. A fault is a
        UsageError that reads "config <section>.<key>: <reason>"; a section's
        own checks start their messages with the key.
        """
        hints = get_type_hints(cls)
        sections = [f for f in dataclasses.fields(cls) if dataclasses.is_dataclass(hints[f.name])]
        unknown = sorted(set(doc) - {f.name for f in sections} - {"split"})
        if unknown:
            raise UsageError(f"config {unknown[0]}: unknown section")
        values = {}
        for f in sections:
            section_cls = hints[f.name]
            given = _read_section(doc.get(f.name, {}), f.name, get_type_hints(section_cls))
            if f.default is dataclasses.MISSING:
                for g in dataclasses.fields(section_cls):
                    if g.name not in given and g.default is dataclasses.MISSING:
                        raise UsageError(f"config {f.name}.{g.name}: required")
            try:
                if f.default is dataclasses.MISSING:
                    values[f.name] = section_cls(**given)
                else:
                    values[f.name] = dataclasses.replace(f.default, **given)
            except (ValueError, UsageError) as e:
                raise UsageError(f"config {f.name}.{e}") from None
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


def default_config(seed: int = 0) -> PipelineConfig:
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
        refine=RefineSpec(strategy="ddp"),
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
        report = cls(**values)
        report.render_text()  # a field it cannot show is a DataError naming the key
        return report

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

    train, probe, scores and global_scores come from the run's shared
    prefix; final, prune and weight_matrix from its suffix, _refine. A run
    keeps no feature and no label. train holds the training rows' indices
    (its ids, a data.RowIds), those rows of the corruption mask and one
    float per corrupted cell (data.StreamLabels). It reads their features
    and labels from the corpus's sample stream a row chunk at a time
    (Dataset.blocks); train.features and train.labels gather a new matrix
    on each call. The test split is not kept: the report holds its
    evaluation, which drew its clean labels, and test_clean.jsonl its rows.
    A pruned run's refined rows are not kept either, nor their ids:
    prune.kept_ids takes them from train's ids and prune's removed mask on
    access. Every fit, closed form or gradient descent, read its (kept) rows
    once, a chunk at a time, into the moments of the normal equations. The
    scores, weights and prune result share train's ids: no id string is kept.
    """

    report: ExperimentReport
    train: Dataset
    probe: RegressionHead
    final: RegressionHead
    scores: SelfInfluenceTable
    global_scores: np.ndarray
    prune: Optional[PruneResult]
    weight_matrix: Optional[WeightMatrix]


def check_gd_settings(cfg: TrainConfig, name: str) -> None:
    """A UsageError if cfg has a shared layer but changes ridge_alpha from its default.

    A shared layer is fitted by gradient descent, which has no ridge term, so
    the setting would be ignored. name is the one the caller knows
    ridge_alpha by.
    """
    if cfg.hidden_dim is not None and cfg.ridge_alpha != TrainConfig.ridge_alpha:
        raise UsageError(
            f"{name}: not used by gradient descent (a hidden layer), which has no ridge term"
        )


def check_config(config: PipelineConfig) -> None:
    """A UsageError "config <section>.<key>: <reason>" for a setting a run's stages would refuse.

    PipelineConfig.from_dict reads every constructible config; these rules
    belong to the stages, which run_pipeline meets only once it has started:
    the corpus settings (data.validate_synth), the split fractions
    (data.checked_fractions) and the noise dimensions (NoiseSpec.check).
    """
    checks = (
        ("synth", lambda: validate_synth(config.synth)),
        ("split", lambda: checked_fractions(config.split_fractions)),
        ("noise", lambda: config.noise.check(config.synth.n_dims)),
    )
    for section, check in checks:
        try:
            check()
        except ValueError as e:
            raise UsageError(f"config {section}.{e}") from None


def _fit(ds: Dataset, weights, cfg: TrainConfig, rows=None) -> RegressionHead:
    """A head fitted to the rows of ds at the ascending positions rows (every row if None).

    Gradient descent with a shared layer, else the closed form: both read
    those rows' features once, a chunk at a time, into the moments of the
    normal equations, and copy no rows.
    """
    fit = fit_closed_form if cfg.hidden_dim is None else fit_gd
    return fit(ds, weights, cfg, rows)


def _draw(config: PipelineConfig, out: Path | None):
    """A run's split and noise: (train, test_idx, the clean manifest).

    The split indices come first, then one pass over the sample stream
    reads every row's clean labels, without their features, a chunk at a
    time for the column ranges the noise needs (Dataset.label_blocks,
    NoiseSpec.corruption). No label is kept: train holds the training
    rows' indices (its ids), their corruption mask and the values of their
    corrupted cells, and reads their features and labels from the stream
    (data.StreamLabels). With out, config.json and corpus.jsonl are
    written before train is built, so a run that fails later still leaves
    both.
    """
    # the validation rows are never drawn, so their indices are not kept
    train_idx, test_idx = split_indices(
        config.synth.n_samples, config.split_fractions, config.split_seed
    )[::2]
    if len(train_idx) == 0:
        raise DataError("training split is empty; increase the train fraction")
    if len(test_idx) < 2:  # a rank correlation needs two points
        raise DataError("test split has fewer than 2 rows; increase the test fraction")

    synth, k = config.synth, config.synth.n_dims
    clean_manifest = synth_manifest(synth)
    every_row = np.arange(synth.n_samples)
    corpus = synthetic_rows(synth, every_row, StreamLabels(), None, clean_manifest)
    writes, records = config.noise.corruption(corpus)
    manifest = with_injections(clean_manifest, records)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        config_doc = json.dumps(config.to_dict(), sort_keys=True, indent=2)
        (out / "config.json").write_text(config_doc + "\n")
        mask, values = corrupted_cells(writes, every_row, k)
        save_dataset(synthetic_rows(synth, every_row, StreamLabels(values), mask, manifest), out / "corpus.jsonl")
        del mask, values
    del corpus, every_row
    mask, values = corrupted_cells(writes, train_idx, k)
    train = synthetic_rows(synth, train_idx, StreamLabels(values), mask, manifest)
    return train, test_idx, clean_manifest


def _refine(spec: RefineSpec, train_cfg: TrainConfig, train, probe, scores, global_scores):
    """A run's per-strategy suffix: (head, prune | None, weights | None, refine section).

    The head is the probe itself for "none", the weighted refit for "ddr",
    else the refit of the kept rows, given their positions in train. It
    changes none of its arguments, so one prefix serves every strategy.
    """
    summary = {"strategy": spec.strategy}
    if spec.strategy == "none":
        return probe, None, None, summary
    prune = weights = rows = None
    if spec.strategy == "ddr":
        weights = ddr_weights(scores, spec.temperature)
        w = weights.weights
        summary.update(
            temperature=spec.temperature,
            min_weight=float(w.min()),
            max_weight=float(w.max()),
            mean_weight=float(w.mean()),
        )
    else:
        if spec.strategy == "ddp":
            prune = ddp_select(scores, spec.rho)
        elif spec.strategy == "loss_prune":
            prune = loss_prune_select(per_dim_loss(probe, train), train.ids, spec.rho)
        else:
            prune = global_prune_select(global_scores, train.ids, spec.rho)
        # the removed mask runs over train's rows, so the kept ones are its positions in train
        rows = np.flatnonzero(~prune.removed)
        if not rows.size:
            raise DataError("refinement removed every training sample; lower rho")
        summary.update(
            rho=prune.rho,
            n_removed=len(prune.removed_ids),
            removed_fraction=len(prune.removed_ids) / len(train),
            thresholds=prune.thresholds,
        )
    return _fit(train, weights, train_cfg, rows), prune, weights, summary


def run_pipeline(
    config: PipelineConfig, output_dir: str | Path | None = None
) -> PipelineArtifacts:
    """Run the full experiment described by config; optionally write artifacts.

    A shared prefix, then one per-strategy suffix. The prefix is _draw,
    the probe fit and one pass of the scores with the global scores; the
    suffix is _refine. The training rows carry the labels of
    generate_synthetic(config.synth) after config.noise corrupts the whole
    corpus. No feature or label matrix of any split is held: the probe fit,
    the scores and the refit (of the kept rows only, when pruned) each read
    the training features and labels from the sample stream a row chunk at
    a time, and every head is evaluated against the clean test labels in
    one pass over the test rows, read the same way. The row tables carry no
    features (see data.save_dataset). The other files are written at the
    end. Settings a stage refuses raise that stage's own error here;
    check_config reports them as config faults before a run starts.
    """
    validate_synth(config.synth)
    check_gd_settings(config.train, "config train.ridge_alpha")
    if config.influence.scope == Scope.LAST_TWO_LAYERS and config.train.hidden_dim is None:
        raise UsageError(
            "config influence.scope: last_two_layers needs a shared layer; set train.hidden_dim"
        )
    for key, section in (("train.lambdas", config.train), ("influence.lambdas", config.influence)):
        try:
            section.resolved_lambdas(config.synth.n_dims)
        except ValueError as e:
            raise UsageError(f"config {key}: {e}") from None
    out = None if output_dir is None else Path(output_dir)
    train, test_idx, clean_manifest = _draw(config, out)
    probe = _fit(train, None, config.train)
    scores, global_scores = self_and_global_scores(probe, train, config.influence)
    r = config.refine
    final, prune, weight_matrix, refine_summary = _refine(
        r, config.train, train, probe, scores, global_scores
    )

    heads = {"baseline": probe} if final is probe else {"baseline": probe, r.strategy: final}
    # the test rows' features and clean labels are read once from the sample stream, for every head at once
    test = synthetic_rows(config.synth, test_idx, StreamLabels(), None, clean_manifest)
    metrics = evaluate_heads(list(heads.values()), test)
    strategies = {}
    for name, metric in zip(heads, metrics):
        metric.metadata["strategy"] = name
        strategies[name] = metric.to_dict()

    mask = train.corruption_mask
    if not mask.any():
        detection = {
            "per_dim_auroc": None,
            "note": "no corrupted labels in the training split; AUROC undefined",
        }
    else:
        detection = {"per_dim_auroc": per_dim_auroc(scores.scores, mask)}

    report = ExperimentReport(
        version=__version__,
        config=config.to_dict(),
        dataset_summary={
            "n_total": config.synth.n_samples,
            "feature_dim": train.feature_dim,
            "dim_names": train.dim_names,
            "n_train": len(train),
            "n_val": config.synth.n_samples - len(train) - len(test_idx),
            "n_test": len(test_idx),
            "train_corrupted_per_dim": [int(c) for c in mask.sum(axis=0)],
            "n_train_refined": len(train) - (0 if prune is None else len(prune.removed_ids)),
        },
        strategies=strategies,
        refine_summary=refine_summary,
        noise_detection=detection,
        overlap=dataclasses.asdict(overlap_curve(scores, r.rho)),
        masking=masking_report(scores, global_scores, r.rho, corrupted=mask).to_dict(),
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
    if out is not None:
        clean_mask = np.zeros((len(test_idx), train.n_dims), dtype=bool)
        test = synthetic_rows(config.synth, test_idx, StreamLabels(), clean_mask, clean_manifest)
        save_dataset(test, out / "test_clean.jsonl")
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
    OverlapCurve(**art.report.overlap).to_csv(out / "overlap.csv")
    art.report.save(out / "report.json")
    (out / "report.txt").write_text(art.report.render_text())

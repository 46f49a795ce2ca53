"""dimsift: dimension-wise supervision risk scoring and training-set refinement.

Multi-dimension regression training sets often hide label problems that only
hurt one output dimension. This package scores every (sample, dimension) cell
with gradient self-influence at a fitted probe head, then refines the
training set either by pruning the union of per-dimension top scorers or by
smoothly down-weighting risky cells, and verifies the effect on held-out
clean labels.
"""

__version__ = "0.1.0"

from .data import (
    Dataset,
    RowIds,
    Sample,
    SynthConfig,
    generate_synthetic,
    load_dataset,
    save_dataset,
    split,
    split_indices,
)
from .errors import DataError, DimsiftError, NumericalError, UsageError
from .influence import (
    DisentangledMatrix,
    InfluenceConfig,
    SelfInfluenceTable,
    disentangled_matrix,
    global_tracin_self,
    grad_per_dimension,
    row_sum_scores,
    scalar_influence,
    self_influence_closed_form,
    self_influence_explicit,
)
from .metrics import (
    MaskingReport,
    MetricReport,
    OverlapCurve,
    auroc,
    evaluate_head,
    masking_report,
    overlap_curve,
    per_dim_auroc,
    spearman,
)
from .model import (
    RegressionHead,
    Scope,
    TrainConfig,
    fit_closed_form,
    fit_gd,
    per_dim_loss,
    residuals,
)
from .noise import NoiseSpec, inject_dimension_noise
from .pipeline import (
    ExperimentReport,
    PipelineArtifacts,
    PipelineConfig,
    RefineSpec,
    default_config,
    run_pipeline,
)
from .refine import (
    PruneResult,
    WeightMatrix,
    ddp_select,
    ddr_weights,
    global_prune_select,
    loss_prune_select,
)

__all__ = [
    "__version__",
    "Dataset",
    "RowIds",
    "Sample",
    "SynthConfig",
    "generate_synthetic",
    "inject_dimension_noise",
    "load_dataset",
    "save_dataset",
    "split",
    "split_indices",
    "DimsiftError",
    "UsageError",
    "DataError",
    "NumericalError",
    "RegressionHead",
    "Scope",
    "TrainConfig",
    "fit_closed_form",
    "fit_gd",
    "residuals",
    "per_dim_loss",
    "InfluenceConfig",
    "SelfInfluenceTable",
    "DisentangledMatrix",
    "grad_per_dimension",
    "self_influence_closed_form",
    "self_influence_explicit",
    "disentangled_matrix",
    "scalar_influence",
    "global_tracin_self",
    "row_sum_scores",
    "PruneResult",
    "WeightMatrix",
    "ddp_select",
    "ddr_weights",
    "loss_prune_select",
    "global_prune_select",
    "MetricReport",
    "OverlapCurve",
    "MaskingReport",
    "spearman",
    "auroc",
    "evaluate_head",
    "overlap_curve",
    "masking_report",
    "per_dim_auroc",
    "NoiseSpec",
    "RefineSpec",
    "PipelineConfig",
    "PipelineArtifacts",
    "ExperimentReport",
    "default_config",
    "run_pipeline",
]

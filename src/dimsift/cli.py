"""Command line interface.

Each subcommand is a thin wrapper over one library operation; stages
communicate through files, so a full experiment can be driven either by the
single `run` subcommand or by chaining `gen`, `corrupt`, `split`, `fit`,
`score`, `prune` / `reweight`, `detect-noise`, `evaluate`, `report`.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from operator import eq
from pathlib import Path

from . import __version__
from .data import (
    SynthConfig,
    generate_synthetic,
    load_dataset,
    save_dataset,
    split,
    write_json,
)
from .errors import DataError, NumericalError, UsageError
from .influence import (
    InfluenceConfig,
    SelfInfluenceTable,
    global_tracin_self,
    row_sum_scores,
    self_influence_explicit,
)
from .metrics import evaluate_head, masking_report, overlap_curve, per_dim_auroc
from .model import RegressionHead, Scope, TrainConfig, per_dim_loss
from .noise import NoiseSpec
from .pipeline import (
    REFINE_STRATEGIES,
    ExperimentReport,
    PipelineConfig,
    _fit,
    check_config,
    check_gd_settings,
    default_config,
    masking_line,
    overlap_line,
    run_pipeline,
)
from .refine import (
    DEFAULT_RHO,
    DEFAULT_TEMPERATURE,
    SCALAR_SCORE_TYPE,
    PruneResult,
    WeightMatrix,
    ddp_select,
    ddr_weights,
    global_prune_select,
    load_scalar_scores,
    loss_prune_select,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; route through UsageError instead
    def error(self, message):
        raise UsageError(message)


def _csv_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"expected a comma-separated list of numbers, got {text!r}") from None


def _csv_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"expected a comma-separated list of integers, got {text!r}") from None


def _build_parser() -> _Parser:
    # a flag that sets a config field takes the field's dataclass default, so it lives once
    p = _Parser(prog="dimsift", description=__doc__.split("\n\n")[0])
    p.add_argument("--version", action="version", version=f"dimsift {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", parents=[], help="generate a synthetic corpus", add_help=True)
    g.add_argument("--n", type=int, required=True, help="number of samples")
    g.add_argument("--features", type=int, required=True, help="feature dimension")
    g.add_argument("--dims", type=int, required=True, help="number of output dimensions")
    g.add_argument("--noise-sd", type=_csv_floats, default=str(SynthConfig.label_noise_sd),
                   help="clean label noise SD, scalar or comma list")
    g.add_argument("--teacher-seed", type=int, default=SynthConfig.teacher_seed)
    g.add_argument("--sample-seed", type=int, default=SynthConfig.sample_seed)
    g.add_argument("--out", required=True, help="output dataset (JSONL)")

    c = sub.add_parser("corrupt", help="inject label corruption into a dataset")
    c.add_argument("--data", required=True)
    c.add_argument("--rate", type=float, default=NoiseSpec.rate,
                   help="per-dimension corruption rate")
    c.add_argument("--dims", type=_csv_ints, default=NoiseSpec.dims,
                   help="comma list of dimension indices, default all")
    c.add_argument("--seed", type=int, default=NoiseSpec.seed)
    c.add_argument("--correlated-rate", type=float, default=NoiseSpec.correlated_rate,
                   help="fraction of samples corrupted across all dimensions at once")
    c.add_argument("--correlated-seed", type=int, default=NoiseSpec.correlated_seed)
    c.add_argument("--out", required=True)

    s = sub.add_parser("split", help="seeded train/val/test split")
    s.add_argument("--data", required=True)
    s.add_argument("--fractions", type=_csv_floats, default=PipelineConfig.split_fractions)
    s.add_argument("--seed", type=int, default=PipelineConfig.split_seed)
    s.add_argument("--out-prefix", required=True, help="writes <prefix>.train/.val/.test.jsonl")

    f = sub.add_parser("fit", help="fit a regression head")
    f.add_argument("--data", required=True)
    f.add_argument("--alpha", type=float, default=TrainConfig.ridge_alpha,
                   help="ridge strength (closed form)")
    f.add_argument("--lambdas", type=_csv_floats, help="comma list of per-dimension loss weights")
    f.add_argument("--weights", default=None, help="per-sample weight file from `reweight`")
    f.add_argument("--lr", type=float, default=TrainConfig.lr)
    f.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    f.add_argument("--hidden-dim", type=int, help="shared layer width (gradient descent)")
    f.add_argument("--seed", type=int, default=TrainConfig.seed)
    f.add_argument("--out", required=True)

    sc = sub.add_parser("score", help="influence scores for every training sample")
    sc.add_argument("--data", required=True)
    sc.add_argument("--head", required=True)
    sc.add_argument("--scope", default=InfluenceConfig.scope.value,
                    choices=[s.value for s in Scope])
    sc.add_argument("--method", default="explicit", choices=("explicit", "global", "row_sum"),
                    help="explicit: per-dimension self-influence; "
                         "global: scalar self-influence; row_sum: matrix row sums")
    sc.add_argument("--lambdas", type=_csv_floats)
    sc.add_argument("--out", required=True)
    sc.add_argument("--csv", default=None, help="also export id,dim,score CSV")

    pr = sub.add_parser("prune", help="remove the union of per-dimension top scorers")
    pr.add_argument("--scores", default=None, help="self-influence JSONL from `score`")
    pr.add_argument("--method", default="ddp", choices=("ddp", "loss", "global"))
    pr.add_argument("--data", default=None, help="dataset (loss method)")
    pr.add_argument("--head", default=None, help="head file (loss method)")
    pr.add_argument("--global-scores", default=None, help="scalar score file (global method)")
    pr.add_argument("--rho", type=float, default=DEFAULT_RHO)
    pr.add_argument("--out", required=True)
    pr.add_argument("--csv", default=None, help="also export removed ids CSV")

    rw = sub.add_parser("reweight", help="smooth per-cell weights from self-influence")
    rw.add_argument("--scores", required=True)
    rw.add_argument("--temperature", type=float, default=DEFAULT_TEMPERATURE)
    rw.add_argument("--out", required=True)
    rw.add_argument("--csv", default=None)

    dn = sub.add_parser("detect-noise", help="per-dimension AUROC of scores vs corruption mask")
    dn.add_argument("--data", required=True, help="dataset carrying corruption masks")
    dn.add_argument("--scores", required=True)
    dn.add_argument("--out", default=None, help="optional JSON output")

    ev = sub.add_parser("evaluate", help="per-dimension Spearman of a head on a dataset")
    ev.add_argument("--data", required=True)
    ev.add_argument("--head", required=True)
    ev.add_argument("--out", default=None)

    rp = sub.add_parser("report", help="render a run directory into human-readable form")
    rp.add_argument("--dir", required=True, help="run directory (from `run`, or stage outputs)")

    rn = sub.add_parser("run", help="full pipeline from one config")
    rn.add_argument("--config", default=None, help="JSON config file; omit for built-in defaults")
    rn.add_argument("--seed", type=int, default=0, help="base seed for the default config")
    rn.add_argument("--refine", default=None, choices=REFINE_STRATEGIES)
    rn.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
                    help="override a config value, e.g. --set refine.rho=0.01")
    rn.add_argument("--out", required=True, help="output directory")

    return p


# -- helpers -----------------------------------------------------------------


def _apply_overrides(doc: dict, pairs: list[str]) -> dict:
    for pair in pairs:
        if "=" not in pair:
            raise UsageError(f"--set expects SECTION.KEY=VALUE, got {pair!r}")
        key, _, raw = pair.partition("=")
        parts = key.strip().split(".")
        if len(parts) != 2:
            raise UsageError(f"--set key must be SECTION.KEY, got {key!r}")
        section, name = parts
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        doc.setdefault(section, {})[name] = value
    return doc


def _same_ids(a, b) -> bool:
    """Whether two id sequences hold the same ids in the same order, compared without a copy.

    A plain != is no test: a list never equals a tuple.
    """
    return len(a) == len(b) and all(map(eq, a, b))


# -- subcommand handlers -------------------------------------------------------


def _cmd_gen(args) -> int:
    cfg = SynthConfig(
        n_samples=args.n,
        feature_dim=args.features,
        n_dims=args.dims,
        label_noise_sd=args.noise_sd[0] if len(args.noise_sd) == 1 else args.noise_sd,
        teacher_seed=args.teacher_seed,
        sample_seed=args.sample_seed,
    )
    save_dataset(generate_synthetic(cfg), args.out)
    print(f"wrote {cfg.n_samples} samples ({cfg.feature_dim} features, {cfg.n_dims} dims) to {args.out}")
    return 0


def _cmd_corrupt(args) -> int:
    noise = NoiseSpec(
        rate=args.rate,
        dims=args.dims,
        seed=args.seed,
        correlated_rate=args.correlated_rate,
        correlated_seed=args.correlated_seed,
    )
    ds = noise.apply(load_dataset(args.data))
    save_dataset(ds, args.out)
    mask = ds.corruption_mask
    total = 0 if mask is None else int(mask.any(axis=1).sum())
    print(f"wrote {args.out}: {total} of {len(ds)} samples carry corrupted labels")
    return 0


def _cmd_split(args) -> int:
    ds = load_dataset(args.data)
    train, val, test = split(ds, args.fractions, args.seed)
    for part, name in ((train, "train"), (val, "val"), (test, "test")):
        save_dataset(part, f"{args.out_prefix}.{name}.jsonl")
    print(f"split {len(ds)} -> train {len(train)} / val {len(val)} / test {len(test)}")
    return 0


def _cmd_fit(args) -> int:
    ds = load_dataset(args.data)
    weights = None if args.weights is None else WeightMatrix.load(args.weights)
    if weights is not None:
        if not _same_ids(weights.sample_ids, ds.ids):
            raise DataError("weight file ids do not match the dataset")
        if weights.weights.shape[1] != ds.n_dims:
            raise DataError(
                f"weight file {args.weights} holds {weights.weights.shape[1]} dimensions, "
                f"dataset has {ds.n_dims}"
            )
    cfg = TrainConfig(
        lambdas=args.lambdas,
        ridge_alpha=args.alpha,
        lr=args.lr,
        epochs=args.epochs,
        seed=args.seed,
        hidden_dim=args.hidden_dim,
    )
    check_gd_settings(cfg, "--alpha")
    head = _fit(ds, weights, cfg)
    head.save(args.out)
    method = head.fit_info["method"].replace("_", "-")
    print(f"fit {method} head on {len(ds)} samples -> {args.out}")
    return 0


def _cmd_score(args) -> int:
    if args.csv and args.method in ("global", "row_sum"):
        raise UsageError(f"--csv: score --method {args.method} writes no id,dim,score table")
    ds = load_dataset(args.data)
    head = RegressionHead.load(args.head)
    cfg = InfluenceConfig(scope=Scope(args.scope), lambdas=args.lambdas)
    if args.method == "explicit":
        table = self_influence_explicit(head, ds, cfg)
    elif args.method == "global":
        values = global_tracin_self(head, ds, cfg)
        write_json(args.out, {"type": SCALAR_SCORE_TYPE, "ids": ds.ids, "scores": values})
        print(f"wrote scalar self-influence for {len(ds)} samples to {args.out}")
        return 0
    else:  # row_sum
        values = row_sum_scores(head, ds, cfg)
        doc = {"type": "row_sum", "ids": ds.ids, "dim_names": ds.dim_names, "values": values}
        write_json(args.out, doc)
        print(f"wrote row-sum scores for {len(ds)} samples to {args.out}")
        return 0
    table.to_jsonl(args.out)
    if args.csv:
        table.to_csv(args.csv)
    print(f"wrote {table.n_samples} x {table.n_dims} self-influence table to {args.out}")
    return 0


def _cmd_prune(args) -> int:
    if args.method == "ddp":
        if args.scores is None:
            raise UsageError("prune --method ddp requires --scores")
        table = SelfInfluenceTable.load(args.scores)
        result = ddp_select(table, args.rho)
        dim_names = table.dim_names
    elif args.method == "loss":
        if args.data is None or args.head is None:
            raise UsageError("prune --method loss requires --data and --head")
        ds = load_dataset(args.data)
        losses = per_dim_loss(RegressionHead.load(args.head), ds)
        result = loss_prune_select(losses, ds.ids, args.rho)
        dim_names = ds.dim_names
    else:  # global
        if args.global_scores is None:
            raise UsageError("prune --method global requires --global-scores")
        ids, values = load_scalar_scores(args.global_scores)
        result = global_prune_select(values, ids, args.rho)
        dim_names = None
    result.save(args.out)
    if args.csv:
        result.removal_csv(args.csv, dim_names)
    print(f"removed {len(result.removed_ids)} samples, kept {len(result.kept_ids)} -> {args.out}")
    return 0


def _cmd_reweight(args) -> int:
    table = SelfInfluenceTable.load(args.scores)
    wm = ddr_weights(table, args.temperature)
    wm.save(args.out)
    if args.csv:
        wm.to_csv(args.csv, table.dim_names)
    print(
        f"wrote weights for {len(wm.sample_ids)} samples "
        f"(min {wm.weights.min():.6f}, max {wm.weights.max():.6f}) to {args.out}"
    )
    return 0


def _cmd_detect_noise(args) -> int:
    ds = load_dataset(args.data)
    table = SelfInfluenceTable.load(args.scores)
    if not _same_ids(table.sample_ids, ds.ids):
        raise DataError("score file ids do not match the dataset")
    mask = ds.corruption_mask
    if mask is None or not mask.any():
        raise DataError(
            "dataset has no corrupted labels: AUROC needs both classes "
            "(run `corrupt` first, or score a corpus that carries corruption masks)"
        )
    values = per_dim_auroc(table.scores, mask)
    for name, value, n_corrupted in zip(ds.dim_names, values, mask.sum(axis=0)):
        if value is None:
            print(f"{name}: AUROC n/a (single class)")
        else:
            print(f"{name}: AUROC {value:.4f} ({n_corrupted} corrupted)")
    if args.out:
        write_json(args.out, {"per_dim_auroc": dict(zip(ds.dim_names, values))})
    return 0


def _cmd_evaluate(args) -> int:
    ds = load_dataset(args.data)
    head = RegressionHead.load(args.head)
    report = evaluate_head(head, ds)
    for name, value in zip(ds.dim_names, report.per_dim_spearman):
        print(f"{name}: spearman {value:.4f}")
    print(f"mean: {report.mean_spearman:.4f}")
    if args.out:
        report.save(args.out)
    return 0


def _cmd_report(args) -> int:
    run_dir = Path(args.dir)
    report_path = run_dir / "report.json"
    if report_path.exists():
        text = ExperimentReport.load(report_path).render_text()
    else:  # assemble analytics from stage files
        scores_path = run_dir / "scores.jsonl"
        if not scores_path.exists():
            raise DataError(f"nothing to report: no report.json or scores.jsonl under {run_dir}")
        table = SelfInfluenceTable.load(scores_path)
        prune_path = run_dir / "prune.json"
        rho = PruneResult.load(prune_path).rho if prune_path.exists() else DEFAULT_RHO
        curve = overlap_curve(table, rho)
        curve.to_csv(run_dir / "overlap.csv")
        lines = [f"score table: {table.n_samples} samples x {table.n_dims} dimensions"]
        lines.append(overlap_line(rho, curve.cumulative_ratios))
        if table.scope == Scope.HEAD_ONLY:
            masking = masking_report(table, table.global_scores(), rho)
            lines.append(masking_line(masking.budget, masking.to_dict()["per_dim"]))
        else:
            lines.append(f"masked by global ranking: not computed ({table.scope.value} scores need the head)")
        text = "\n".join(lines) + "\n"
    (run_dir / "report.txt").write_text(text)
    print(text, end="")
    return 0


def _cmd_run(args) -> int:
    if args.config is not None:
        doc = PipelineConfig.from_file(args.config).to_dict()
    else:
        doc = default_config(seed=args.seed).to_dict()
    if args.refine is not None:
        doc["refine"]["strategy"] = args.refine
    doc = _apply_overrides(doc, args.set)
    config = PipelineConfig.from_dict(doc)
    check_config(config)
    artifacts = run_pipeline(config, output_dir=args.out)
    print(artifacts.report.render_text(), end="")
    print(f"artifacts written to {args.out}")
    return 0


_HANDLERS = {
    "gen": _cmd_gen,
    "corrupt": _cmd_corrupt,
    "split": _cmd_split,
    "fit": _cmd_fit,
    "score": _cmd_score,
    "prune": _cmd_prune,
    "reweight": _cmd_reweight,
    "detect-noise": _cmd_detect_noise,
    "evaluate": _cmd_evaluate,
    "report": _cmd_report,
    "run": _cmd_run,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except (UsageError, ValueError) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

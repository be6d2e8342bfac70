"""Command-line entry point.

Verbs:
  ingest    raw export or canonical file -> validated canonical file
  extract   canonical file -> per-swipe feature matrix
  select    several canonical files -> cross-dataset feature selection
  evaluate  one experiment config (single feature set x classifier)
  matrix    experiment config with grids -> full comparison matrix
  synth     generate a synthetic dataset

Exit codes: 0 success, 2 configuration error, 3 data error (any other
toolkit error too, e.g. a single user where selection needs two),
4 completed with failed matrix cells (a dead worker's cells included).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import ConfigError, SwipebenchError
from .experiments import (emit_plots, load_config, resolve_feature_set,
                          run_matrix, write_report)
from .features.extract import (build_feature_table, export_table_csv,
                               export_table_json)
from .ingest import AdapterConfig, convert_raw, load_canonical, write_canonical
from .selection import DEFAULT_MIN_VOTES, DEFAULT_TOP_N, select_features
from .synthetic import SyntheticSpec, generate_synthetic
from .touchdata import assemble_dataset

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_PARTIAL = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swipebench",
        description="Swipe-based continuous authentication benchmark")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("ingest", help="convert or validate touch data")
    p.add_argument("--input", required=True, help="raw or canonical file")
    p.add_argument("--adapter", help="adapter .conf for raw exports; "
                   "omit for already-canonical input")
    p.add_argument("--name", help="dataset name override")
    p.add_argument("--out", required=True, help="canonical output file")
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")

    p = sub.add_parser("extract", help="canonical file -> feature matrix")
    p.add_argument("--input", required=True)
    p.add_argument("--features", default="all",
                   help="all | anova | study key | comma-separated ids")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("select", help="cross-dataset feature selection")
    p.add_argument("--inputs", required=True, nargs="+",
                   help="canonical files, one per dataset")
    p.add_argument("--top-n", type=int, default=DEFAULT_TOP_N)
    p.add_argument("--min-votes", type=int, default=DEFAULT_MIN_VOTES)
    p.add_argument("--out", required=True, help="selection report JSON")

    for verb in ("evaluate", "matrix"):
        p = sub.add_parser(verb, help=f"run an experiment {verb}")
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, help="protocol seed override")
        p.add_argument("--out", help="report directory override")
        p.add_argument("--format", choices=("csv", "json", "both"))
        p.add_argument("--workers", type=int, default=None)
        p.add_argument("--plots", action="store_true",
                       help="also render matrix/aggregation charts")

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--users", type=int, default=10)
    p.add_argument("--sessions", type=int, default=4)
    p.add_argument("--swipes", type=int, default=40)
    p.add_argument("--separability", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--name", default="synthetic")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    return parser


def _cmd_ingest(args) -> int:
    if args.adapter:
        adapter = AdapterConfig.load(args.adapter)
        records, report = convert_raw(args.input, adapter)
        name = args.name or adapter.dataset
        dataset, seg = assemble_dataset(name, records)
        report.segmentation = seg
    else:
        dataset, report = load_canonical(args.input, name=args.name)
    write_canonical(dataset, args.out, fmt=args.format)
    summary = report.as_dict()
    summary["users"] = dataset.n_users
    summary["swipes"] = dataset.n_swipes
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_extract(args) -> int:
    dataset, _report = load_canonical(args.input)
    spec = args.features.strip()
    if "," in spec:
        spec = [tok for tok in spec.split(",") if tok.strip()]
    _label, ids = resolve_feature_set(spec)
    table = build_feature_table(dataset, ids)
    out = Path(args.out)
    if args.format == "csv":
        out.write_text(export_table_csv(table))
    else:
        out.write_text(json.dumps(export_table_json(table), indent=2,
                                  sort_keys=True) + "\n")
    print(f"{table.n_rows} swipes x {len(table.feature_ids)} features "
          f"-> {out}")
    return EXIT_OK


def _cmd_select(args) -> int:
    tables = []
    for path in args.inputs:
        dataset, _report = load_canonical(path)
        tables.append(build_feature_table(dataset))
    result = select_features(tables, top_n=args.top_n,
                             min_votes=args.min_votes)
    Path(args.out).write_text(json.dumps(result.as_dict(), indent=2,
                                         sort_keys=True) + "\n")
    print(f"selected {len(result.selected)} features -> {args.out}")
    return EXIT_OK


def _cmd_experiment(args, single_cell: bool) -> int:
    cfg = load_config(args.config)
    if single_cell and (len(cfg.feature_sets) > 1 or len(cfg.classifiers) > 1):
        raise ConfigError(
            "'evaluate' runs a single feature_set x classifier cell; "
            "use 'matrix' for grids")
    if args.seed is not None:
        proto = cfg.protocol.as_dict()
        proto["seed"] = args.seed
        cfg.protocol = type(cfg.protocol).from_dict(proto)
    if args.out:
        cfg.output_dir = args.out
    if args.format:
        cfg.formats = ("csv", "json") if args.format == "both" \
            else (args.format,)
    if not cfg.output_dir:
        raise ConfigError("no output directory (config output.dir or --out)")

    result = run_matrix(cfg, workers=args.workers)
    written = write_report(result, cfg.output_dir, cfg.formats)
    if args.plots:
        written += emit_plots(result, cfg.output_dir)
    for path in written:
        print(path)
    if result.n_failed_cells:
        print(f"{result.n_failed_cells} cell(s) failed", file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


def _cmd_synth(args) -> int:
    spec = SyntheticSpec(users=args.users, sessions_per_user=args.sessions,
                         swipes_per_session=args.swipes,
                         separability=args.separability, seed=args.seed,
                         name=args.name)
    dataset = generate_synthetic(spec)
    write_canonical(dataset, args.out, fmt=args.format)
    print(f"{dataset.n_users} users, {dataset.n_swipes} swipes -> {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.verb == "ingest":
            return _cmd_ingest(args)
        if args.verb == "extract":
            return _cmd_extract(args)
        if args.verb == "select":
            return _cmd_select(args)
        if args.verb == "evaluate":
            return _cmd_experiment(args, single_cell=True)
        if args.verb == "matrix":
            return _cmd_experiment(args, single_cell=False)
        if args.verb == "synth":
            return _cmd_synth(args)
        raise ConfigError(f"unknown verb {args.verb!r}")
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except SwipebenchError as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())

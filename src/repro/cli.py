"""``python -m repro`` — the resumable root-cause pipeline CLI.

One entry point over the whole stack::

    python -m repro list                         # the six experiments
    python -m repro run wsubbug --store store    # build -> ensemble -> ECT
                                                 #   -> slice -> selection
                                                 #   -> refine -> report
    python -m repro run wsubbug --store store    # again: resumes from cache
    python -m repro sweep --store store          # all experiments, shared store
    python -m repro tables                       # Table 1/2 metagraph tables

``run`` and ``sweep`` print the markdown localization report plus a
per-stage execution table (status, wall seconds, store hits/misses and
the model runs each stage executed); ``--json`` switches to a machine-readable document carrying
the report, the stage records, the store statistics and the metrics
counters that moved — what the CI smoke job and the bench parse to
assert cache behavior.

Observability (see ``docs/observability.md``)::

    python -m repro run wsubbug --trace t.jsonl --profile
    python -m repro trace summarize t.jsonl
    python -m repro trace chrome t.jsonl --out t.chrome.json
    python -m repro --version

``--trace`` records a hierarchical span trace (pipeline -> stages ->
ensemble members -> refinement iterations) to a JSONL file; ``--profile``
prints the hottest-modules and hottest-spans tables.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

__all__ = ["build_parser", "main"]


def _row_count(text: str) -> int:
    """The ``--top`` type: a number of rows, 0 for all of them."""
    try:
        rows = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if rows < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0 (0 = all), got {rows}")
    return rows


def build_parser() -> argparse.ArgumentParser:
    from . import __version__

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Root cause analysis for a synthetic climate model "
        "(Milroy et al., HPDC 2019).",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_options(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--store",
            default=".repro-store",
            help="pipeline store directory (one entry per stage); "
            "re-running against the same store resumes "
            "(default: %(default)s)",
        )
        p.add_argument(
            "--backend",
            default="vectorized",
            help="where the model passes (the accepted ensemble and the "
            "experimental runs) execute: vectorized (one member-batched "
            "pass each) or serial (the scalar reference); bit-identical "
            "either way (default: %(default)s)",
        )
        p.add_argument(
            "--members", type=int, default=None, help="override ensemble size"
        )
        p.add_argument(
            "--nsteps", type=int, default=None, help="override run length"
        )
        p.add_argument(
            "--runs", type=int, default=None, help="override experimental runs"
        )
        p.add_argument(
            "--refine-members",
            type=int,
            default=None,
            help="override refinement-ensemble size",
        )
        p.add_argument(
            "--json",
            action="store_true",
            help="emit a JSON document (report + stage records) instead "
            "of markdown",
        )
        p.add_argument(
            "--trace",
            default=None,
            metavar="PATH",
            help="record a hierarchical span trace to this JSONL file "
            "(render it with `python -m repro trace summarize PATH`)",
        )
        p.add_argument(
            "--profile",
            action="store_true",
            help="print the hottest-modules and hottest-spans tables",
        )

    run = sub.add_parser(
        "run", help="run (or resume) one experiment end to end"
    )
    run.add_argument("experiment", help="experiment name (see `list`)")
    add_run_options(run)

    sweep = sub.add_parser(
        "sweep", help="run several experiments against one shared store"
    )
    sweep.add_argument(
        "experiments",
        nargs="*",
        help="experiment names (default: all six)",
    )
    add_run_options(sweep)

    sub.add_parser("list", help="list the registered experiments")

    trace = sub.add_parser(
        "trace", help="inspect or convert a saved JSONL span trace"
    )
    trace.add_argument(
        "action",
        choices=("summarize", "chrome"),
        help="summarize: aggregate spans by name; chrome: convert to a "
        "Chrome trace_event file for chrome://tracing / Perfetto",
    )
    trace.add_argument("path", help="JSONL trace written by run --trace")
    trace.add_argument(
        "--out",
        default=None,
        help="output path for `chrome` (default: PATH.chrome.json)",
    )
    trace.add_argument(
        "--top",
        type=_row_count,
        default=0,
        help="top-N summary rows (0 = all)",
    )
    trace.add_argument("--json", action="store_true", help="emit JSON")

    tables = sub.add_parser(
        "tables", help="print the paper-style metagraph tables (Tables 1/2)"
    )
    tables.add_argument(
        "--top",
        type=_row_count,
        default=0,
        help="top-N rows of the centrality table (0 = all)",
    )
    tables.add_argument("--json", action="store_true", help="emit JSON")

    return parser


def _resolve_experiment(args, name: str):
    """The experiment ``name``, with the run/sweep args' overrides."""
    from .experiments import get_experiment

    spec = get_experiment(name)
    overrides = {}
    if args.members is not None:
        overrides["members"] = args.members
    if args.nsteps is not None:
        overrides["nsteps"] = args.nsteps
    if args.runs is not None:
        overrides["n_runs"] = args.runs
    if args.refine_members is not None:
        from .refine import RefinementConfig

        base = spec.refine or RefinementConfig()
        import dataclasses

        overrides["refine"] = dataclasses.replace(
            base, members=args.refine_members
        )
    return spec.with_(**overrides) if overrides else spec


def _run_document(result, metrics_before=None) -> dict:
    """The JSON document of one pipeline run."""
    from .obs import get_metrics

    doc = result.to_dict()
    doc["report"] = result["report"].to_dict()
    doc["metrics"] = get_metrics().counter_delta(metrics_before)
    return doc


def _profile_rows(result, top: int = 10) -> list:
    """Hottest-modules rows for one pipeline result.

    Derived post hoc from the coverage the accepted ensemble already
    collected (per-module statement counts apportion the measured wall),
    so profiling adds no hot-path instrumentation at all.
    """
    from .obs import hot_modules
    from .runtime import CoverageTrace

    # prefer the accepted ensemble's merged member coverage; fall back to
    # the experimental runs' merged coverage (the ensemble members run
    # with coverage off in most experiment specs).  Indexing the result
    # decodes a stage a warm run left in the store.
    coverage = result["control_ensemble"].coverage
    if not coverage.counts:
        coverage = CoverageTrace().merged(
            *(run.coverage for run in result["experimental_runs"])
        )
    if not coverage.counts:
        return []
    per_file: dict[str, int] = {}
    for (fname, _line), count in coverage.counts.items():
        per_file[fname] = per_file.get(fname, 0) + int(count)
    from .slicing.seeds import module_file_map

    names = {
        fname: mod
        for mod, fname in module_file_map(result["control_source"]).items()
    }
    wall = sum(rec.wall_s for rec in result.records)
    return hot_modules(per_file, wall, top=top, module_names=names)


def _print_profile(result, spans, out, top: int = 10) -> None:
    from .obs import render_profile, render_summary

    print("## Profile: hottest modules\n", file=out)
    rows = _profile_rows(result, top=top)
    if rows:
        print(render_profile(rows), file=out)
    else:
        print("(no coverage available — nothing to profile)", file=out)
    if spans:
        print("\n## Profile: hottest spans\n", file=out)
        print(render_summary(spans, top=top), file=out)


def _print_stage_table(result, out) -> None:
    print("| stage | status | wall s | store h/m | members run |", file=out)
    print("| --- | --- | --- | --- | --- |", file=out)
    for rec in result.records:
        print(
            f"| {rec.name} | {rec.status} | {rec.wall_s:.2f} "
            f"| {rec.store_hits}/{rec.store_misses} "
            f"| {rec.member_misses} |",
            file=out,
        )


#: exit code for bad experiment/backend names, sizes, run counts or
#: stores — distinct from exit 1, which means "ran fine but did not
#: localize"
EX_USAGE = 2


def _compile(args, names: Sequence[str]) -> tuple[list, Optional[str]]:
    """Resolve every experiment, compile its pipeline and then open the
    store and the trace file up front: ``(pipelines, None)``, or no
    pipeline and the error message (naming every known candidate) on a
    bad or repeated name, size or run count, on a store path that cannot
    hold a store or on a trace path that cannot be appended to."""
    from .experiments import UnknownExperimentError
    from .pipeline import root_cause_pipeline

    for i, name in enumerate(names):
        if name in names[:i]:
            return [], f"experiment {name!r} named more than once"
    try:
        # compiling checks the backend name and the sizes, e.g. a
        # refinement ensemble larger than the accepted one
        pipelines = [
            root_cause_pipeline(
                _resolve_experiment(args, name),
                store_dir=args.store,
                backend=args.backend,
            )
            for name in names
        ]
    # unknown backends and bad sizes raise ValueError subclasses
    except (UnknownExperimentError, ValueError) as exc:
        return [], str(exc)
    try:
        pipelines[0].open_store()  # the experiments share one store
    except OSError as exc:
        return [], f"cannot use store {args.store!r}: {exc}"
    if args.trace:
        try:
            open(args.trace, "a", encoding="utf-8").close()
        except OSError as exc:
            return [], f"cannot write trace {args.trace!r}: {exc}"
    return pipelines, None


def _cmd_run(args, out) -> int:
    from .obs import disable_tracing, enable_tracing, get_metrics, write_trace

    pipelines, error = _compile(args, [args.experiment])
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return EX_USAGE
    tracing = bool(args.trace or args.profile)
    metrics_before = get_metrics().counters()
    spans = []
    if tracing:
        enable_tracing(experiment=args.experiment)
    try:
        result = pipelines[0].run()
    finally:
        if tracing:
            spans = disable_tracing()
        if args.trace and spans:
            write_trace(spans, args.trace)
    report = result["report"]
    if args.json:
        doc = _run_document(result, metrics_before)
        if args.profile:
            doc["profile"] = _profile_rows(result)
        print(json.dumps(doc, indent=2, sort_keys=True), file=out)
    else:
        print(report.to_markdown(), file=out)
        print("## Pipeline\n", file=out)
        _print_stage_table(result, out)
        if args.profile:
            print("", file=out)
            _print_profile(result, spans, out)
    if args.trace:
        print(f"trace: {len(spans)} spans -> {args.trace}", file=sys.stderr)
    return 0 if report.localized else 1


def _cmd_sweep(args, out) -> int:
    from .experiments import list_experiments
    from .obs import disable_tracing, enable_tracing, get_metrics, write_trace

    names = args.experiments or list_experiments()
    pipelines, error = _compile(args, names)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return EX_USAGE
    tracing = bool(args.trace or args.profile)
    documents, failures = {}, []
    try:
        for name in names:
            metrics_before = get_metrics().counters()
            if tracing:  # one trace buffer per experiment, appended to one file
                enable_tracing(experiment=name)
            try:
                # let go of each pipeline once it has run: its parse cache
                # holds the syntax trees of the experiment's model build
                result = pipelines.pop(0).run()
            finally:
                if tracing:
                    spans = disable_tracing()
                    if args.trace and spans:
                        write_trace(spans, args.trace)
            report = result["report"]
            if not report.localized:
                failures.append(name)
            if args.json:
                documents[name] = _run_document(result, metrics_before)
            else:
                print(f"## {name}: localized={report.localized}", file=out)
                _print_stage_table(result, out)
                if args.profile:
                    _print_profile(result, spans if tracing else [], out)
                print("", file=out)
    finally:
        if tracing:
            disable_tracing()
    if args.json:
        doc = {"experiments": documents, "failures": failures}
        print(json.dumps(doc, indent=2, sort_keys=True), file=out)
    return 1 if failures else 0


def _cmd_trace(args, out) -> int:
    from .obs import (
        read_trace,
        render_summary,
        summarize_spans,
        write_chrome_trace,
    )

    try:
        spans = read_trace(args.path)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read trace {args.path!r}: {exc}", file=sys.stderr)
        return EX_USAGE
    if args.action == "chrome":
        out_path = args.out or f"{args.path}.chrome.json"
        try:
            write_chrome_trace(spans, out_path)
        except OSError as exc:
            print(
                f"error: cannot write chrome trace {out_path!r}: {exc}",
                file=sys.stderr,
            )
            return EX_USAGE
        print(f"wrote {len(spans)} events -> {out_path}", file=out)
        return 0
    if args.json:
        print(
            json.dumps(summarize_spans(spans), indent=2, sort_keys=True),
            file=out,
        )
    else:
        print(render_summary(spans, top=args.top), file=out)
    return 0


def _cmd_list(out) -> int:
    from .experiments import get_experiment, list_experiments

    for name in list_experiments():
        print(f"{name:16s} {get_experiment(name).description}", file=out)
    return 0


def _cmd_tables(args, out) -> int:
    from .graphs import build_metagraph
    from .model import ModelConfig, build_model_source
    from .reporting import centrality_table, degree_table

    graph = build_metagraph(build_model_source(ModelConfig()))
    top = args.top or None  # 0 = every row
    tables = [degree_table(graph), centrality_table(graph, top=top)]
    if args.json:
        print(
            json.dumps(
                [t.to_dict() for t in tables], indent=2, sort_keys=True
            ),
            file=out,
        )
    else:
        for table in tables:
            print(table.to_markdown(), file=out)
    return 0


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args, out)
    if args.command == "sweep":
        return _cmd_sweep(args, out)
    if args.command == "list":
        return _cmd_list(out)
    if args.command == "trace":
        return _cmd_trace(args, out)
    return _cmd_tables(args, out)

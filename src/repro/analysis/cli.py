"""``python -m repro.analysis`` -- run the static-analysis suite.

By default five passes run:

* the AST lint over the ``repro`` package sources (or explicit paths),
* the whole-program dataflow passes (unit inference + determinism
  audit) over the same roots,
* the effect passes (pool-seam race detector + effect-contract
  verification, backed by interprocedural purity inference),
* the perf-smell pass (scalar ``predict`` in loops, per-iteration
  instrument lookups and allocations in hot paths),
* the graph checker over every registered workload's flow graph on
  the Blackford platform (``--graph MODULE:CALLABLE`` checks one
  explicit graph instead).

Findings on a line carrying a matching ``# repro: ignore[rule]``
comment are suppressed (stale markers are themselves flagged).  With
``--baseline FILE`` previously-accepted findings are subtracted, so
the exit status reflects *new* violations only; ``--write-baseline``
refreshes the file.  The exit status is nonzero when any remaining
finding reaches ``--fail-on`` severity (default: ``error``), making
the command directly usable as a CI gate and as a pre-commit hook.
``--stats`` reports per-pass wall time on stderr.  Findings are
always computed fresh: the suite keeps no cache.

Examples::

    python -m repro.analysis
    python -m repro.analysis src/repro --no-graph --format json
    python -m repro.analysis --format sarif > analysis.sarif
    python -m repro.analysis --baseline analysis-baseline.json
    python -m repro.analysis --no-graph --stats
    python -m repro.analysis --graph mygraphs.py:build_graph --fail-on warning
    python -m repro.analysis schedcheck --apps stentboost,ultrasound --cores 8

The ``schedcheck`` subcommand runs the scenario-space schedulability
model checker (:mod:`repro.analysis.schedcheck`) over one application
mix or, with ``--apps all`` / no ``--apps``, over the whole composite
matrix: every registered workload alone, every homogeneous pair and
every heterogeneous pair.  ``--envelope FILE`` also writes the
per-workload feasibility envelope.  Both entry points report through
the same code (text / JSON / SARIF output, committed baselines,
``--fail-on`` severity gate)::

    python -m repro.analysis schedcheck --apps stentboost,stentboost --cores 8
    python -m repro.analysis schedcheck --apps all --format sarif
    python -m repro.analysis schedcheck --envelope sched-envelope.json
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, Sequence, cast

from repro.analysis.astlint import lint_paths
from repro.analysis.baseline import filter_baselined, load_baseline, write_baseline
from repro.analysis.catalog import rule_catalog
from repro.analysis.dataflow import run_dataflow
from repro.analysis.dataflow.symbols import build_symbol_table, iter_source_files
from repro.analysis.effects import check_perf, infer_effects, run_effects
from repro.analysis.findings import (
    Finding,
    Severity,
    count_at_least,
    findings_to_json,
    format_findings,
)
from repro.analysis.graphcheck import (
    ALL_SCENARIO_IDS,
    PlatformLike,
    check_flowgraph,
    scenario_ids_for,
)
from repro.analysis.rules import default_rules
from repro.analysis.sarif import findings_to_sarif_json
from repro.analysis.schedcheck import (
    DEFAULT_REPORT_CAP,
    check_schedulability,
    compute_envelope,
)
from repro.analysis.suppress import apply_suppressions, scan_suppressions
from repro.graph.flowgraph import FlowGraph
from repro.obs.clock import monotonic_s
from repro.util.units import HZ_VIDEO
from repro.workloads import all_workloads, workload_names

__all__ = [
    "add_reporting_options",
    "build_parser",
    "build_schedcheck_parser",
    "main",
    "matrix_mixes",
    "report",
]

#: Sentinel: check every graph in the workload registry.
WORKLOADS_GRAPH = "workloads"

DEFAULT_GRAPH = WORKLOADS_GRAPH
DEFAULT_PLATFORM = "repro.hw.spec:blackford"

#: Sentinel for the full composite matrix.
ALL_APPS = "all"


def _load_factory(spec: str) -> Callable[[], object]:
    """Load ``module:callable`` or ``path/to/file.py:callable``."""
    target, sep, attr = spec.partition(":")
    if not sep or not attr:
        raise argparse.ArgumentTypeError(
            f"expected MODULE:CALLABLE or FILE.py:CALLABLE, got {spec!r}"
        )
    if target.endswith(".py") or "/" in target:
        module_spec = importlib.util.spec_from_file_location(
            "_repro_analysis_target", target
        )
        if module_spec is None or module_spec.loader is None:
            raise argparse.ArgumentTypeError(f"cannot load module from {target!r}")
        module = importlib.util.module_from_spec(module_spec)
        module_spec.loader.exec_module(module)
    else:
        module = importlib.import_module(target)
    factory = getattr(module, attr, None)
    if not callable(factory):
        raise argparse.ArgumentTypeError(
            f"{target!r} has no callable {attr!r}"
        )
    return factory


def _default_lint_root() -> Path:
    """The installed ``repro`` package directory."""
    import repro

    return Path(repro.__file__).resolve().parent


# -- shared reporting ----------------------------------------------------------


def add_reporting_options(parser: argparse.ArgumentParser) -> None:
    """The output and gating options both entry points share."""
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        metavar="FILE",
        help="subtract a committed baseline; only new findings remain",
    )
    parser.add_argument(
        "--write-baseline",
        type=Path,
        default=None,
        metavar="FILE",
        help="write the current findings as a baseline and exit 0",
    )
    parser.add_argument(
        "--fail-on",
        type=Severity.parse,
        default=Severity.ERROR,
        metavar="{error,warning,info}",
        help="minimum severity that makes the exit status nonzero "
        "(default: error)",
    )


def report(findings: list[Finding], args: argparse.Namespace, prog: str) -> int:
    """Write or apply the baseline, print ``findings``, return the exit status."""
    if args.write_baseline is not None:
        write_baseline(args.write_baseline, findings)
        print(f"wrote {len(findings)} finding(s) to {args.write_baseline}")
        return 0

    if args.baseline is not None:
        try:
            baseline = load_baseline(args.baseline)
        except (OSError, ValueError, KeyError) as exc:
            raise SystemExit(f"{prog}: error: {exc}") from exc
        findings = filter_baselined(findings, baseline)

    if args.format == "json":
        print(findings_to_json(findings))
    elif args.format == "sarif":
        descriptions = {
            rule_id: description
            for rule_id, (_, description) in rule_catalog().items()
        }
        print(findings_to_sarif_json(findings, descriptions))
    else:
        print(format_findings(findings))

    return 1 if count_at_least(findings, args.fail_on) else 0


@contextmanager
def _timed(seconds: dict[str, float], name: str) -> Iterator[None]:
    """Add the wall time of the block to ``seconds[name]`` (obs clock,
    so the ``lint/direct-time-call`` rule stays clean)."""
    t0 = monotonic_s()
    try:
        yield
    finally:
        seconds[name] = seconds.get(name, 0.0) + monotonic_s() - t0


def _render_stats(seconds: dict[str, float]) -> str:
    lines = ["analysis stats:"]
    for name, elapsed in seconds.items():
        lines.append(f"  pass {name:12s} {elapsed * 1e3:9.1f} ms")
    lines.append(f"  total         {sum(seconds.values()) * 1e3:9.1f} ms")
    return "\n".join(lines)


# -- the default suite ---------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.analysis",
        description=(
            "static-analysis suite: flow-graph invariants + AST lint + "
            "whole-program dataflow (units, determinism)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files/directories to analyze (default: the repro package)",
    )
    parser.add_argument(
        "--graph",
        default=DEFAULT_GRAPH,
        help=f"flow-graph factory MODULE:CALLABLE or FILE.py:CALLABLE "
        f"(default: {DEFAULT_GRAPH})",
    )
    parser.add_argument(
        "--platform",
        default=DEFAULT_PLATFORM,
        help=f"platform-spec factory (default: {DEFAULT_PLATFORM}); "
        "pass an empty string to skip resource-budget checks",
    )
    parser.add_argument(
        "--no-graph", action="store_true", help="skip the flow-graph checks"
    )
    parser.add_argument(
        "--no-lint", action="store_true", help="skip the AST lint"
    )
    parser.add_argument(
        "--no-dataflow",
        action="store_true",
        help="skip the whole-program dataflow passes",
    )
    parser.add_argument(
        "--no-effects",
        action="store_true",
        help="skip the effect passes (race detector + contracts)",
    )
    parser.add_argument(
        "--no-perf",
        action="store_true",
        help="skip the perf-smell pass",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="report per-pass wall time on stderr",
    )
    add_reporting_options(parser)
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the full rule catalog and exit",
    )
    return parser


def _graph_findings(args: argparse.Namespace) -> list[Finding]:
    try:
        if args.graph == WORKLOADS_GRAPH:
            # The scenario id range follows each workload's own
            # switch set rather than assuming the StentBoost eight.
            graphs = [
                (wl.build_graph(), scenario_ids_for(wl.switch_names))
                for wl in all_workloads()
            ]
        else:
            graphs = [(_load_factory(args.graph)(), ALL_SCENARIO_IDS)]
        platform_factory = (
            _load_factory(args.platform) if args.platform else None
        )
    except (argparse.ArgumentTypeError, ImportError) as exc:
        raise SystemExit(f"repro.analysis: error: {exc}") from exc
    platform = platform_factory() if platform_factory is not None else None
    findings: list[Finding] = []
    for graph, scenario_ids in graphs:
        if not isinstance(graph, FlowGraph):
            raise SystemExit(
                f"graph factory {args.graph!r} returned "
                f"{type(graph).__name__}, expected FlowGraph"
            )
        findings += check_flowgraph(graph, platform, scenario_ids)
    return findings


def _run_suite(argv: Sequence[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id, (severity, description) in rule_catalog().items():
            print(f"{rule_id:32s} {severity.name.lower():8s} {description}")
        return 0

    roots = list(args.paths) or [_default_lint_root()]
    missing = [p for p in roots if not p.exists()]
    if missing:
        raise SystemExit(f"no such path: {', '.join(map(str, missing))}")

    findings: list[Finding] = []
    seconds: dict[str, float] = {}
    if not args.no_lint:
        with _timed(seconds, "lint"):
            findings += lint_paths(roots, default_rules())
    # One symbol table feeds every whole-program pass.
    if not (args.no_dataflow and args.no_effects and args.no_perf):
        with _timed(seconds, "parse"):
            table = build_symbol_table(roots)
        if not args.no_dataflow:
            with _timed(seconds, "dataflow"):
                findings += run_dataflow(roots, table=table)
        if not args.no_effects:
            with _timed(seconds, "effects"):
                findings += run_effects(table, infer_effects(table))
        if not args.no_perf:
            with _timed(seconds, "perf"):
                findings += check_perf(table)

    if not args.no_graph:
        findings += _graph_findings(args)

    # Inline suppressions apply to everything located at a path:line.
    markers = scan_suppressions(iter_source_files(roots))
    findings = apply_suppressions(findings, markers)

    if args.stats:
        print(_render_stats(seconds), file=sys.stderr)

    return report(findings, args, parser.prog)


# -- schedcheck ----------------------------------------------------------------


def build_schedcheck_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.analysis schedcheck",
        description=(
            "scenario-space schedulability model checker for composite "
            "multi-workload graphs"
        ),
    )
    parser.add_argument(
        "--apps",
        default=ALL_APPS,
        help="comma-separated workload names, one per concurrent "
        "instance (e.g. stentboost,ultrasound); 'all' checks every "
        "workload alone plus every pair (default: all)",
    )
    parser.add_argument(
        "--cores",
        type=int,
        default=None,
        help="core count to check against (default: the platform's)",
    )
    parser.add_argument(
        "--platform",
        default=DEFAULT_PLATFORM,
        help="platform-spec factory MODULE:CALLABLE "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--rate-hz",
        type=float,
        default=HZ_VIDEO,
        help="frame rate defining the period (default: %(default)s)",
    )
    parser.add_argument(
        "--report-cap",
        type=int,
        default=DEFAULT_REPORT_CAP,
        help="most-probable violations reported per rule "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--envelope",
        type=Path,
        default=None,
        metavar="FILE",
        help="also write the per-workload feasibility envelope JSON "
        "(consumed by the fleet admission controller)",
    )
    add_reporting_options(parser)
    return parser


def matrix_mixes(names: Sequence[str]) -> list[tuple[str, ...]]:
    """The composite matrix: singles, homogeneous and hetero pairs."""
    mixes: list[tuple[str, ...]] = [(n,) for n in names]
    for i, a in enumerate(names):
        for b in names[i:]:
            mixes.append((a, b))
    return mixes


def _run_schedcheck(argv: Sequence[str]) -> int:
    parser = build_schedcheck_parser()
    args = parser.parse_args(argv)
    prog = parser.prog

    try:
        platform = cast(PlatformLike, _load_factory(args.platform)())
    except (argparse.ArgumentTypeError, ImportError) as exc:
        raise SystemExit(f"{prog}: error: {exc}") from exc

    if args.apps == ALL_APPS:
        mixes = matrix_mixes(workload_names())
    else:
        names = tuple(a.strip() for a in args.apps.split(",") if a.strip())
        if not names:
            raise SystemExit(
                f"{prog}: error: --apps needs at least one workload name"
            )
        mixes = [names]

    findings: list[Finding] = []
    for mix in mixes:
        try:
            findings += check_schedulability(
                list(mix),
                platform,
                cores=args.cores,
                rate_hz=args.rate_hz,
                report_cap=args.report_cap,
            ).findings
        except KeyError as exc:
            raise SystemExit(f"{prog}: error: {exc}") from exc

    if args.envelope is not None:
        envelope = compute_envelope(
            platform, cores=args.cores, rate_hz=args.rate_hz
        )
        args.envelope.write_text(
            json.dumps(envelope.to_doc(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote feasibility envelope to {args.envelope}", file=sys.stderr)

    return report(findings, args, prog)


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "schedcheck":
        # A plain positional would collide with the PATH arguments of
        # the default suite, so the subcommand is dispatched before
        # parsing.
        return _run_schedcheck(argv[1:])
    return _run_suite(argv)

"""``python -m repro.bench.compare`` -- gate a bench run against a baseline.

Turns the BENCH JSON document from ``python -m repro.bench`` into a
pass/fail regression check that is meaningful on shared CI runners:

* **Correctness flags gate hard.**  ``byte_identical`` going from
  true to false means the parallel profiling path no longer matches
  the serial one -- always a failure, never noise.
* **Ratio metrics gate with tolerance.**  ``parallel_speedup`` and
  ``predict_batch_speedup`` are *within-run* ratios (serial vs
  parallel on the same machine, scalar vs batch on the same series),
  so they are comparable across machines.  A run fails when a ratio
  drops below ``tolerance * baseline`` -- the default 0.5 flags a
  >2x relative slowdown.
* **Absolute timings never gate.**  ``*_s``/``*_fps`` numbers depend
  on the runner's hardware and load; they are printed for context
  only.
* **Corpora must match.**  Ratio metrics are only comparable between
  runs over the same corpus (batch-vs-scalar speedup grows with
  series length, pool speedup with sequence count), so a baseline
  produced from a different corpus fails the comparison outright --
  gate smoke runs against the committed smoke baseline
  (``BENCH_smoke.json``), full runs against ``BENCH_parallel.json``.
* **The jobs matrix gates on shape, not speed.**  A multicore run's
  ``jobs_matrix`` must be monotone non-degrading within tolerance:
  adding workers may not make the profiling stage slower than the
  best smaller worker count by more than the tolerance factor.  On a
  single-core runner the matrix clamps to ``[1]`` and the gate passes
  trivially -- the committed numbers stay honest instead of recording
  fork overhead as a "regression".
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

from repro.bench.harness import SCHEMA

__all__ = ["RATIO_METRICS", "BOOL_METRICS", "compare_docs", "main"]

#: Within-run ratios: machine-independent, gated with tolerance.
#: ``fleet_p99_wait_gain`` is FCFS p99 wait over prediction-aware p99
#: wait in the fleet simulator, ``replay_p99_wait_gain`` the same
#: ratio on the replayed workload-trace corpus.  A ratio missing from
#: the baseline is skipped, not failed.
RATIO_METRICS: tuple[str, ...] = (
    "parallel_speedup",
    "predict_batch_speedup",
    "fleet_p99_wait_gain",
    "replay_p99_wait_gain",
)

#: Correctness booleans: a true -> false transition always fails.
#: ``fleet_deterministic`` asserts two same-seed fleet simulations
#: produced identical SLO summaries; ``replay_deterministic`` asserts
#: the workload-trace conversion and its fleet replay are seed-stable
#: end to end.
BOOL_METRICS: tuple[str, ...] = (
    "byte_identical",
    "fleet_deterministic",
    "replay_deterministic",
)


def _load(path: Path) -> dict[str, Any]:
    doc = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: not a JSON object")
    schema = doc.get("schema")
    if schema != SCHEMA:
        raise ValueError(f"{path}: schema {schema!r}, expected {SCHEMA!r}")
    results = doc.get("results")
    if not isinstance(results, dict):
        raise ValueError(f"{path}: missing 'results' object")
    return doc


def _check_matrix(
    rows: Any, tolerance: float, failures: list[str], notes: list[str]
) -> None:
    """Gate the jobs matrix: more workers must not degrade throughput.

    Each row's elapsed time may not exceed ``best_so_far / tolerance``
    where ``best_so_far`` is the fastest of all smaller-or-equal
    worker counts.  This is a within-run shape check -- it needs no
    baseline row to compare against, so matrices gate even when the
    baseline predates schema v2.
    """
    if not isinstance(rows, list) or not rows:
        failures.append("jobs_matrix: present but empty or malformed")
        return
    best_s: float | None = None
    best_jobs = 0
    for row in rows:
        j, elapsed = int(row["jobs"]), float(row["elapsed_s"])
        if best_s is not None and elapsed > best_s / tolerance:
            failures.append(
                f"jobs_matrix: jobs={j} took {elapsed:.3f}s, more than "
                f"1/{tolerance} x the {best_s:.3f}s of jobs={best_jobs} "
                "-- adding workers degraded the profiling stage"
            )
        if best_s is None or elapsed < best_s:
            best_s, best_jobs = elapsed, j
    counts = [int(row["jobs"]) for row in rows]
    if counts != sorted(set(counts)):
        failures.append(f"jobs_matrix: worker counts not ascending: {counts}")
    else:
        notes.append(
            f"jobs_matrix: ok (monotone within tolerance over jobs={counts})"
        )


def compare_docs(
    baseline: dict[str, Any],
    current: dict[str, Any],
    tolerance: float,
) -> tuple[list[str], list[str]]:
    """Compare two BENCH documents; returns ``(failures, notes)``.

    ``failures`` non-empty means the current run regressed.  ``notes``
    carry the per-metric verdicts for the log either way.
    """
    if not 0.0 < tolerance <= 1.0:
        raise ValueError("tolerance must be in (0, 1]")
    base = baseline["results"]
    cur = current["results"]
    failures: list[str] = []
    notes: list[str] = []

    base_corpus = baseline.get("corpus")
    cur_corpus = current.get("corpus")
    corpora_match = True
    if base_corpus is None or cur_corpus is None:
        notes.append("corpus: not recorded in both documents, assumed comparable")
    elif base_corpus != cur_corpus:
        corpora_match = False
        failures.append(
            f"corpus: baseline {base_corpus} vs current {cur_corpus}; "
            "ratio metrics are not comparable across corpora -- gate "
            "against a baseline produced from the same corpus"
        )

    for name in BOOL_METRICS:
        b, c = base.get(name), cur.get(name)
        if b is None:
            notes.append(f"{name}: not in baseline, skipped")
            continue
        if bool(b) and not bool(c):
            failures.append(f"{name}: baseline true, current {c!r}")
        else:
            notes.append(f"{name}: ok (baseline {b}, current {c})")

    for name in RATIO_METRICS:
        if not corpora_match:
            notes.append(f"{name}: skipped (corpus mismatch)")
            continue
        b, c = base.get(name), cur.get(name)
        if b is None:
            notes.append(f"{name}: not in baseline, skipped")
            continue
        if c is None:
            failures.append(f"{name}: missing from current run")
            continue
        b_f, c_f = float(b), float(c)
        floor = tolerance * b_f
        if c_f < floor:
            failures.append(
                f"{name}: {c_f:.3f} < {floor:.3f} "
                f"(tolerance {tolerance} x baseline {b_f:.3f})"
            )
        else:
            notes.append(
                f"{name}: ok ({c_f:.3f} vs baseline {b_f:.3f}, "
                f"floor {floor:.3f})"
            )

    if "jobs_matrix" in cur:
        _check_matrix(cur["jobs_matrix"], tolerance, failures, notes)
    else:
        notes.append("jobs_matrix: not in current run, skipped")

    # Absolute timings: context only, never a verdict.
    for name in sorted(set(base) | set(cur)):
        if name.endswith(("_s", "_fps", "_ms")):
            notes.append(
                f"{name}: informational "
                f"(baseline {base.get(name)}, current {cur.get(name)})"
            )
    return failures, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.compare",
        description="Gate a BENCH JSON document against a baseline.",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        required=True,
        help="committed baseline BENCH JSON",
    )
    parser.add_argument(
        "--current",
        type=Path,
        default=Path("BENCH_parallel.json"),
        help="freshly produced BENCH JSON (default: %(default)s)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.5,
        help="minimum allowed fraction of a baseline ratio "
        "(default: %(default)s, i.e. fail on a >2x relative slowdown)",
    )
    args = parser.parse_args(argv)

    try:
        baseline = _load(args.baseline)
        current = _load(args.current)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"bench compare: {exc}", file=sys.stderr)
        return 2

    failures, notes = compare_docs(baseline, current, args.tolerance)
    for line in notes:
        print(f"  {line}")
    if failures:
        print("bench compare: FAIL", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print("bench compare: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

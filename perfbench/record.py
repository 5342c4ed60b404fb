"""Record the benchmark baseline (``perfbench/baseline.json``).

Usage, from the root of a checkout::

    python3 perfbench/record.py --out perfbench/baseline.json

Runs ``run.py --trace 0`` once per workload on each of ``SEEDS`` (and
once on the held-out seed), one run at a time, and writes per workload
the median, quartiles and spread (``(q3 - q1) / median``) of every
end-to-end metric, next to each seed's metrics, simulated metrics,
digest and ``run`` line (rounds, raw host times, host-speed samples).
Exits 1 when a run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = list(range(1, 11))
#: Seed kept for confirming a claimed gain on inputs it was not tuned on.
HELD_OUT_SEED = 97


def run_once(workload: str, seed: int, seconds: int) -> dict[str, object]:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"record: {workload} seed {seed} exited {proc.returncode}")
    result = json.loads(lines[-1])
    sim, digest, run, machine = {}, None, None, None
    for line in lines:
        if line.startswith("machine "):
            machine = json.loads(line[8:])
        elif line.startswith("sim "):
            key, value = line[4:].split(" = ")
            sim[key] = float(value.split()[0])
        elif line.startswith("digest "):
            digest = line.split()[1]
        elif line.startswith("run "):
            run = json.loads(line[4:])
    return {
        "digest": digest,
        "machine": machine,
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "run": run,
        "sim": sim,
    }


def summary(values: list[float], bound: float, unit: str) -> dict[str, float | str]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "bound": bound,
        "iqr_over_median": (q3 - q1) / median,
        "median": median,
        "q1": q1,
        "q3": q3,
        "unit": unit,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads, machine = {}, None
    for name in (w["name"] for w in spec["workloads"]):
        per_seed = {}
        for seed in SEEDS:
            per_seed[str(seed)] = run_once(name, seed, spec["run_seconds"])
            print(name, seed, json.dumps(per_seed[str(seed)]["metrics"]), flush=True)
        held_out = run_once(name, HELD_OUT_SEED, spec["run_seconds"])
        held_out["seed"] = HELD_OUT_SEED
        for r in (*per_seed.values(), held_out):
            machine = r.pop("machine")
        workloads[name] = {
            "end_to_end": {
                m["name"]: summary(
                    [r["metrics"][m["name"]] for r in per_seed.values()], m["bound"], m["unit"]
                )
                for m in spec["end_to_end"]
            },
            "held_out": held_out,
            "per_seed": per_seed,
        }
        for metric, s in workloads[name]["end_to_end"].items():
            print(f"{name} {metric} median={s['median']:.6g} spread={s['iqr_over_median']:.4f}")
    baseline = {
        "held_out_seed": HELD_OUT_SEED,
        "machine": machine,
        "run_seconds": spec["run_seconds"],
        "schema": "perfbench-baseline/1",
        "seeds": SEEDS,
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

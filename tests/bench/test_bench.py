"""Smoke tests for the benchmark harness."""

from __future__ import annotations

import json

import pytest

from repro.bench import SCHEMA, machine_info, run_bench
from repro.parallel import available_cpus


class TestMachineInfo:
    def test_keys(self):
        info = machine_info()
        assert {
            "platform",
            "python",
            "numpy",
            "cpu_count",
            "cpu_affinity",
            "available_cpus",
        } <= info.keys()
        assert info["cpu_count"] >= 1

    def test_records_pool_sizing_value(self):
        # What the pool actually sizes itself by, next to the raw
        # machine count -- a speedup of 1.0 on a 1-affinity container
        # must be legible from the JSON alone.
        info = machine_info()
        assert info["available_cpus"] == available_cpus()
        if info["cpu_affinity"] is not None:
            assert info["available_cpus"] == info["cpu_affinity"]


class TestSchemas:
    def test_current_schema_is_accepted(self, tmp_path):
        from repro.bench.compare import main

        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"schema": SCHEMA, "results": {}}))
        assert main(["--baseline", str(path), "--current", str(path)]) == 0


@pytest.fixture(scope="module")
def bench_doc(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "BENCH_smoke.json"
    doc = run_bench(smoke=True, jobs=2, out=out, jobs_matrix=[1, 2, 4])
    return doc, out


class TestRunBench:
    def test_writes_valid_json(self, bench_doc):
        doc, out = bench_doc
        assert out.exists()
        assert json.loads(out.read_text()) == doc

    def test_schema_and_structure(self, bench_doc):
        doc, _ = bench_doc
        assert doc["schema"] == SCHEMA
        assert doc["corpus"]["smoke"] is True
        assert doc["jobs"] == 2
        results = doc["results"]
        expected = {
            "profile_serial_s",
            "profile_parallel_s",
            "parallel_speedup",
            "byte_identical",
            "cache_cold_s",
            "cache_warm_s",
            "fit_s",
            "predict_task",
            "predict_frames",
            "predict_scalar_fps",
            "predict_batch_fps",
            "predict_batch_speedup",
            "replay_profile_s",
            "replay_sim_s",
            "replay_jobs",
            "replay_workloads",
            "replay_deterministic",
            "replay_p99_wait_gain",
            "jobs_matrix",
        }
        assert expected <= results.keys()
        assert not any(key.startswith("engine_") for key in results)

    def test_parallel_profiling_byte_identical(self, bench_doc):
        doc, _ = bench_doc
        assert doc["results"]["byte_identical"] is True

    def test_timings_positive(self, bench_doc):
        doc, _ = bench_doc
        r = doc["results"]
        for key in ("profile_serial_s", "profile_parallel_s", "cache_cold_s"):
            assert r[key] > 0
        # Warm cache reads shards instead of re-profiling.
        assert r["cache_warm_s"] < r["cache_cold_s"]
        assert r["predict_batch_fps"] > 0

    def test_replay_stage_covers_registry_deterministically(self, bench_doc):
        from repro.workloads import workload_names

        doc, _ = bench_doc
        r = doc["results"]
        assert r["replay_workloads"] == len(workload_names())
        assert r["replay_jobs"] > 0
        assert r["replay_deterministic"] is True
        assert r["replay_p99_wait_gain"] > 0

    def test_jobs_matrix_clamped_and_anchored(self, bench_doc):
        doc, _ = bench_doc
        rows = doc["results"]["jobs_matrix"]
        counts = [row["jobs"] for row in rows]
        # Requested [1, 2, 4]; whatever survives clamping is an
        # ascending dedup that always starts at the jobs=1 anchor.
        assert counts == sorted(set(counts))
        assert counts[0] == 1
        assert all(1 <= j <= available_cpus() for j in counts)
        assert rows[0]["speedup"] == 1.0
        assert all(row["elapsed_s"] > 0 for row in rows)

class TestJobsMatrixStage:
    def test_clamps_dedups_and_anchors(self):
        from repro.bench.harness import _bench_jobs_matrix
        from repro.profiling import ProfileConfig
        from repro.synthetic import CorpusSpec

        spec = CorpusSpec(n_sequences=1, total_frames=8)
        # Duplicates and over-asking collapse; the jobs=1 anchor is
        # always prepended even when not requested.
        rows = _bench_jobs_matrix(spec, ProfileConfig(), [8, 8, 2])
        counts = [row["jobs"] for row in rows]
        assert counts == sorted(set(counts))
        assert counts[0] == 1
        assert counts[-1] <= available_cpus()


class TestCli:
    def test_jobs_matrix_garbage_rejected(self):
        from repro.bench.harness import main

        with pytest.raises(SystemExit):
            main(["--smoke", "--jobs-matrix", "two,four"])

    def test_jobs_matrix_nonpositive_rejected(self):
        from repro.bench.harness import main

        with pytest.raises(SystemExit):
            main(["--smoke", "--jobs-matrix", "0,2"])

"""End-to-end tests of ``python -m repro.analysis`` (exit codes, output)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.analysis import cli

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"
FIXTURES = Path(__file__).resolve().parent / "fixtures"
BAD_GRAPH = FIXTURES / "bad_graph.py"


def run_cli(*args: str) -> subprocess.CompletedProcess[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
        timeout=120,
    )


class TestRepoSelfCheck:
    def test_default_run_is_clean(self):
        """Tier-2 gate: lint over src/repro + graph checks over the
        StentBoost graph exit 0 (INFO findings are expected, ERRORs not)."""
        proc = run_cli()
        assert proc.returncode == 0, proc.stdout + proc.stderr
        # The expected L2 overflows are reported but do not fail the run.
        assert "graph/buffer-budget" in proc.stdout

    def test_fail_on_info_raises_exit_code(self):
        proc = run_cli("--fail-on", "info")
        assert proc.returncode == 1


class TestLintFixtures:
    def test_banned_random_fixture_fails(self):
        proc = run_cli(str(FIXTURES / "bad_rng.py"), "--no-graph")
        assert proc.returncode == 1
        assert "lint/banned-random" in proc.stdout
        assert "bad_rng.py:7" in proc.stdout

    def test_json_format(self):
        proc = run_cli(str(FIXTURES / "bad_rng.py"), "--no-graph", "--format", "json")
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload[0]["rule"] == "lint/banned-random"
        assert payload[0]["severity"] == "error"


class TestGraphFixtures:
    def test_cyclic_graph_fails(self):
        proc = run_cli("--no-lint", "--graph", f"{BAD_GRAPH}:build_cyclic_graph")
        assert proc.returncode == 1
        assert "graph/cycle" in proc.stdout
        assert "cycle" in proc.stdout.lower()

    def test_uncovered_switch_state_fails(self):
        proc = run_cli("--no-lint", "--graph", f"{BAD_GRAPH}:build_uncovered_graph")
        assert proc.returncode == 1
        assert "graph/switch-coverage" in proc.stdout

    def test_stentboost_graph_alone_passes(self):
        from repro.graph.stentboost import build_stentboost_graph

        proc = run_cli(
            "--no-lint", "--graph", "repro.graph.stentboost:build_stentboost_graph"
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        named = {
            line.split(":", 1)[0].removeprefix("task ")
            for line in proc.stdout.splitlines()
            if line.startswith("task ")
        }
        assert named and named <= set(build_stentboost_graph().tasks)

    def test_registered_workload_graphs_pass(self):
        proc = run_cli("--no-lint")
        assert proc.returncode == 0, proc.stdout + proc.stderr


class TestCliSurface:
    def test_list_rules(self):
        proc = run_cli("--list-rules")
        assert proc.returncode == 0
        for rule_id in (
            "lint/banned-random",
            "lint/wall-clock",
            "lint/unit-mix",
            "lint/ewma-alpha",
            "lint/frozen-setattr",
        ):
            assert rule_id in proc.stdout

    def test_missing_path_errors(self):
        proc = run_cli("does/not/exist.py", "--no-graph")
        assert proc.returncode != 0
        assert "no such path" in proc.stderr


BASE_CLEAN = """
    import json


    def dump(payload):
        return json.dumps(payload, sort_keys=True)
"""

MID = """
    from pkg.base import dump


    def describe(payload):
        return dump(payload)
"""

TOP = """
    from pkg.mid import describe


    def report(payload):
        return describe(payload)
"""


def _write_project(root: Path, base_src: str = BASE_CLEAN) -> Path:
    pkg = root / "pkg"
    pkg.mkdir(exist_ok=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "base.py").write_text(textwrap.dedent(base_src))
    (pkg / "mid.py").write_text(textwrap.dedent(MID))
    (pkg / "top.py").write_text(textwrap.dedent(TOP))
    return pkg


class TestCliFlags:
    def _run(self, *args: str, cwd: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        return subprocess.run(
            [sys.executable, "-m", "repro.analysis", *args],
            capture_output=True,
            text=True,
            env=env,
            cwd=cwd,
            timeout=120,
        )

    def test_no_effects_no_perf_skip_those_passes(self, tmp_path):
        pkg = _write_project(tmp_path, base_src=BASE_CLEAN)
        proc = self._run(
            str(pkg), "--no-graph", "--no-effects", "--no-perf", cwd=tmp_path
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_stats_reports_per_pass_wall_time(self, capsys):
        assert cli.main([str(FIXTURES / "bad_rng.py"), "--no-graph", "--stats"]) == 1
        err = capsys.readouterr().err
        for name in ("lint", "parse", "dataflow", "effects", "perf"):
            assert f"pass {name} " in err
        assert "total" in err


class TestNoCache:
    def test_runs_leave_the_working_directory_empty(
        self, tmp_path, monkeypatch, capsys
    ):
        """Findings are always computed fresh: neither entry point
        writes a cache (or anything else) into the working directory."""
        monkeypatch.chdir(tmp_path)
        assert cli.main(["schedcheck", "--apps", "stentboost"]) == 0
        assert cli.main([str(FIXTURES / "bad_rng.py"), "--no-graph"]) == 1
        capsys.readouterr()
        assert list(tmp_path.iterdir()) == []

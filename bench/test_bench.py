"""Smoke tests of the benchmark harness: ``python3 -m pytest -q bench/test_bench.py``.

Every workload runs at ``--size smoke`` (a handful of tasks, same code path),
so harness breakage shows in seconds rather than after a full run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import run  # noqa: E402
import tasks  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", tasks.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", trace, "--size", "smoke")
    metrics = result_of(proc)["metrics"]
    spec = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in metrics.items()}
    if trace == "0":
        assert all(m["value"] > 0 for m in metrics.values())


def test_refuses_to_run_without_the_program():
    bare = run.WORK_DIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench("--workload", "scan-fp", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _tamper(task, result):
    """A wrong answer of the same shape."""
    if task.kind in ("check", "check-conj"):
        result["holds"] = not result["holds"]
    elif task.kind == "fingerprint":
        result["derived_dim"] += 1
    elif task.kind == "iso-yes":
        for row in result["witness"]:
            row[0] = "0"
    elif task.kind == "iso-no":
        result["verdict"] = "yes"
    elif task.kind == "alphabeta":
        result["runs"][0]["alpha"] += 1
    else:
        result["case"] = "unknown"
    return result


def test_checker_rejects_wrong_answers():
    cli = run.import_program()
    workdir = run.WORK_DIR / "checker-test"
    shutil.rmtree(workdir, ignore_errors=True)
    checker = checks.Checker(json.loads((BENCH_DIR / "answers.json").read_text()))
    try:
        task_list = []
        for workload in tasks.WORKLOADS:
            work = tasks.Workload(cli, workload, "smoke", run.fresh_dir(workdir, workload))
            task_list += work.tasks
        kinds = set()
        for task in task_list:
            rc, out, _ = tasks.run_cli(cli, task.argv)
            assert checker.check(task, rc, out)[0] == checks.OK, task.key
            doc = json.loads(out)
            doc["result"] = _tamper(task, doc["result"])
            status, msg = checker.check(task, rc, json.dumps(doc))
            assert status == checks.WRONG, task.key
            assert checker.check(task, rc + 1, out)[0] == checks.WRONG, task.key
            kinds.add(task.kind)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    assert kinds == {"check", "check-conj", "golden", "fingerprint", "alphabeta",
                     "classify44", "iso-yes", "iso-no"}


def test_budget_bound_pairs_are_probed_not_timed():
    cli = run.import_program()
    workdir = run.WORK_DIR / "probe-test"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        work = tasks.Workload(cli, "identify-fp", "full", run.fresh_dir(workdir, "docs"))
        timed = {task.key for task in work.tasks}
        probed = [task.key for task in work.probes()]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    assert sorted(probed) == sorted(tasks.ISO_PROBES)
    assert not timed & tasks.ISO_PROBES

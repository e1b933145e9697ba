#!/usr/bin/env python3
"""Regenerate ``answers.json``, the stored answers every benchmark run checks.

    python3 bench/make_answers.py

Runs every task of the full workloads once and stores, per task key, the exit
code and the SHA-256 of the canonical ``--json`` result (work counts and
search witnesses removed; see ``checks.canonical``).  ``fingerprint`` tasks
run on the catalog table itself: the fingerprint is basis-invariant, so each
conjugate must reproduce it.  Only regenerate when the program's
answers are meant to change, and review the diff.
"""

from __future__ import annotations

import json
import shutil
import sys

import run  # sets up sys.path for the sibling modules

import checks
import tasks

GOLDEN_KINDS = ("check", "golden", "alphabeta", "classify44", "fingerprint")


def main():
    cli = run.import_program()
    answers = {}
    workdir = run.WORK_DIR / "answers"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        for workload in tasks.WORKLOADS:
            task_list = tasks.Workload(cli, workload, "full",
                                       run.fresh_dir(workdir, workload)).tasks
            for task in task_list:
                if task.kind not in GOLDEN_KINDS:
                    continue
                argv = task.argv
                if task.kind == "fingerprint":
                    argv = ["fingerprint", task.docs[-1].path, "--json"]
                rc, out, err = tasks.run_cli(cli, argv)
                result = json.loads(out)["result"]
                answers[task.key] = {"exit": rc, "sha256": checks.answer_digest(result)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = run.BENCH_DIR / "answers.json"
    path.write_text(json.dumps(answers, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(answers)} answers to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

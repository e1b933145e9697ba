#!/usr/bin/env python3
"""In-process A/B timing of two source checkouts on one benchmark workload.

    python3 scripts/ab_inprocess.py OLD NEW --workload structure-q [--rounds 7]

OLD and NEW are the roots of two source checkouts.  Each tree's ``src/nlie``
is imported under its own package name (``nlie_a`` and ``nlie_b``), so both
live in one interpreter.  The workload's documents are written once, into a
temporary directory, through ``bench/tasks.py`` of the checkout that holds
this script (only read, never changed), with OLD's ``catalog build``.

It makes ``--rounds`` rounds; in each, every task is timed on both trees
back to back, the tree that goes first alternating from task to task and
from round to round.  It prints, per tree, the sum over the tasks of each task's fastest
time, and the ratio NEW / OLD of those sums (below 1 means NEW is faster);
then each tree's 95th percentile of those fastest times over the workload's
tasks (the estimator of ``bench/run.py``'s ``task_p95_ms``) and its ratio, so
a claim on the tail can be sized too; then the sums and ratio for each verb,
the first word of the task key (``alphabeta``, ``fingerprint``, ``iso``,
...), so a change confined to one verb shows where it moved; last, the five
tasks with the lowest and the five with the highest ratio NEW / OLD of their
fastest times (key, old ms, new ms), so a claim on the tail can name the
tasks that moved, and a regression of one task cannot hide inside a sum.

Why: the host's speed can drift by tens of percent over minutes, so two
separate benchmark runs of one tree can differ by more than a change does.
Timing the trees task by task, interleaved, and keeping each task's minimum
cancels most of that drift; A/A runs (the same tree twice, 3 and 7 rounds
on structure-q) read 0.998 and 1.010.  This is a quick sizing tool: it does
not replace the alternating pairs of ``bench/run.py`` runs that a
performance claim rests on, and it does not compare outputs: for that, use
``scripts/capture_outputs.py --compare``.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import pathlib
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import tasks  # noqa: E402
from run import percentile  # noqa: E402


def import_tree(root, name):
    """The ``cli`` module of ``root/src/nlie``, imported as package ``name``."""
    pkg_dir = pathlib.Path(root).resolve() / "src" / "nlie"
    if not (pkg_dir / "cli.py").is_file():
        sys.exit(f"error: no nlie package under {pkg_dir}")
    spec = importlib.util.spec_from_file_location(
        name, pkg_dir / "__init__.py", submodule_search_locations=[str(pkg_dir)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def timed(cli, argv):
    t0 = time.perf_counter()
    tasks.run_cli(cli, argv)
    return time.perf_counter() - t0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", help="root of the first source checkout")
    ap.add_argument("new", help="root of the second source checkout")
    ap.add_argument("--workload", required=True, choices=tasks.WORKLOADS)
    ap.add_argument("--rounds", type=int, default=7)
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")

    clis = (import_tree(args.old, "nlie_a"), import_tree(args.new, "nlie_b"))
    with tempfile.TemporaryDirectory() as tmp:
        work = tasks.Workload(clis[0], args.workload, "full", pathlib.Path(tmp))
        task_list = work.tasks
        best = [[float("inf")] * len(task_list) for _ in clis]
        for r in range(args.rounds):
            for i, task in enumerate(task_list):
                first = (i + r) % 2
                for side in (first, 1 - first):
                    best[side][i] = min(best[side][i], timed(clis[side], task.argv))
    old, new = (sum(b) for b in best)
    print(f"old {old:.4f} s, new {new:.4f} s (sums of per-task minimums over "
          f"{args.rounds} rounds); new/old {new / old:.4f}")
    old_p95, new_p95 = (percentile(b, 0.95) * 1e3 for b in best)
    print(f"p95 of the per-task minimums: old {old_p95:.3f} ms, new {new_p95:.3f} ms; "
          f"new/old {new_p95 / old_p95:.4f}")
    verbs = {}
    for i, task in enumerate(task_list):
        sums = verbs.setdefault(task.key.split()[0], [0.0, 0.0, 0])
        sums[0] += best[0][i]
        sums[1] += best[1][i]
        sums[2] += 1
    for verb, (verb_old, verb_new, count) in sorted(verbs.items()):
        print(f"  {verb}: {count} tasks, old {verb_old:.4f} s, new {verb_new:.4f} s; "
              f"new/old {verb_new / verb_old:.4f}")
    moved = sorted((b / a, task.key, a, b) for task, a, b in zip(task_list, *best))
    for which, part in (("lowest", moved[:5]), ("highest", moved[-5:])):
        print(f"the five tasks with the {which} new/old ratio of per-task minimums:")
        for ratio, key, a, b in part:
            print(f"  {key}: old {a * 1e3:.3f} ms, new {b * 1e3:.3f} ms; new/old {ratio:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

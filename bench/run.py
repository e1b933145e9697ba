#!/usr/bin/env python3
"""Benchmark of the ``nlie`` command line verbs on catalog documents.

    python3 bench/run.py --workload structure-q --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Each task is one ``nlie`` verb called in process through
``nlie.cli.main([..., "--json"])``, which is what a CLI call does minus
interpreter start.  Tasks run in a closed loop: one client, one process,
``--threads 1``, each task starting when the previous one returns.  The seed
shuffles the task order of every pass; the task lists themselves are fixed
(see ``tasks.py``).  Every output is checked (see ``checks.py``).

``--trace 0`` runs whole passes over the task list for about ``--seconds``
(at least MIN_PASSES) and reports the end-to-end metrics, with every time
scaled to a nominal CPU speed by a reference computation timed between tasks
(see ``Pace``).  ``--trace 1`` runs one untraced pass and then set-up plus one
pass under ``cProfile``, and reports the per-layer metrics (see
``layers.py``); its times never feed an end-to-end metric, and it ignores
``--seconds``.  It also searches the budget-bound ``iso`` pairs once, untimed
(see ``run_probes``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
give the provenance of the run and a summary that includes ``failed_frac``.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
STATE_DIR = ROOT / ".bench_state"
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402
import tasks  # noqa: E402

# set-up is timed this many times in fresh interpreters; the median is reported
SETUP_REPEATS = 5
# a run makes at least this many passes, more when --seconds allows
MIN_PASSES = 2
SETUP_TIMEOUT_S = 60

# The host's CPU speed drifts by up to +-25% over minutes, and the benchmark's
# own reference computation (Pace) slows down and speeds up with it.  Every
# end-to-end time is scaled to the speed at which one reference sample takes
# PACE_NOMINAL_S; the unscaled figures are printed in the provenance line.
PACE_NOMINAL_S = 0.012
# a reference sample is taken before a task once this much time has passed
PACE_EVERY_S = 0.15
# reference samples taken before and after each timed set-up, in its process
PACE_SETUP_SAMPLES = 5


def import_program():
    """Import ``nlie`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "nlie" / "cli.py").is_file():
        sys.exit(f"error: no nlie package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import nlie
    import nlie.cli
    if not Path(nlie.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"error: imported nlie from {nlie.__file__}, not from {SRC}")
    return nlie.cli


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "nlie").glob("*.py")) + sorted(BENCH_DIR.glob("*.py")) \
            + [BENCH_DIR / "answers.json"]:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def percentile(values, q):
    """Harrell-Davis estimate of the q-quantile: a mean of all order statistics
    weighted by a Beta(q(n+1), (1-q)(n+1)) density, so that it does not jump
    between neighbouring latencies where the tail is steep, as the nearest rank
    does (on ``structure-q`` it narrows the run-to-run spread of the 95th
    percentile by about a quarter)."""
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    logw = [(a - 1) * math.log((i + 0.5) / n) + (b - 1) * math.log(1 - (i + 0.5) / n)
            for i in range(n)]
    top = max(logw)
    w = [math.exp(x - top) for x in logw]
    return sum(wi * x for wi, x in zip(w, xs)) / sum(w)


class Pace:
    """A fixed exact-arithmetic computation from the benchmark's own oracle
    (ranks of one matrix over GF(7) and one over Q); it does not use ``nlie``,
    so a change to the program cannot change its time."""

    def __init__(self):
        rng = random.Random("pace")
        self.fp = [[rng.randrange(7) for _ in range(9)] for _ in range(9)]
        self.q = [[Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)) for _ in range(7)]
                  for _ in range(7)]
        self.samples = []
        self.last = time.perf_counter()

    def sample(self):
        t0 = time.perf_counter()
        for _ in range(8):
            oracle.rank(self.fp, 7)
            oracle.rank(self.q, None)
        self.last = time.perf_counter()
        self.samples.append(self.last - t0)

    def maybe_sample(self):
        if time.perf_counter() - self.last >= PACE_EVERY_S:
            self.sample()

    def scale(self, since=0):
        """Factor that takes times measured since sample ``since`` to nominal speed.

        The mean, not the median: the host switches between fast and slow
        states faster than a pass, and the mean weighs them as the tasks
        experienced them."""
        return PACE_NOMINAL_S / statistics.fmean(self.samples[since:])


# ---------------------------------------------------------------------------
# running tasks


def run_pass(cli, task_list, seed, index, pace=None):
    """One closed-loop pass in seeded order; returns (records, seconds in tasks).

    With ``pace``, a reference sample is taken between tasks every
    PACE_EVERY_S; its time is not in any task's latency."""
    order = list(task_list)
    random.Random(f"{seed}:order:{index}").shuffle(order)
    records = []
    for task in order:
        if pace is not None:
            pace.maybe_sample()
        t0 = time.perf_counter()
        try:
            rc, out, _ = tasks.run_cli(cli, task.argv)
            error = None
        except (Exception, SystemExit) as exc:  # a traceback is a failed task
            rc, out, error = None, "", repr(exc)
        records.append((task, rc, out, time.perf_counter() - t0, error))
    return records, sum(r[3] for r in records)


class Tally:
    """Outcomes and work counts over all passes of one run."""

    def __init__(self, checker):
        self.checker = checker
        self.attempted = 0
        self.failed = 0
        self.unknown = []
        self.wrong = []
        self.counts = None  # work counts of the first pass

    def add_pass(self, records):
        counts = {}
        for task, rc, out, _, error in records:
            self.attempted += 1
            if error is not None:
                status, msg = checks.WRONG, f"{task.key}: raised {error}"
            else:
                status, msg = self.checker.check(task, rc, out)
            if status != checks.OK:
                self.failed += 1
                (self.unknown if status == checks.UNKNOWN else self.wrong).append(msg)
            for name, value in checks.work_counts(task, out).items():
                counts[name] = counts.get(name, 0) + value
        if self.counts is None:
            self.counts = counts
        elif counts != self.counts:
            self.wrong.append(f"work counts drifted between passes: {self.counts} vs {counts}")
        return counts


def repeat_guard(args, counts):
    """Work counts must repeat exactly across runs of one commit and seed."""
    key = (f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}-"
           f"{source_digest()[:16]}")
    path = STATE_DIR / f"{key}.json"
    if path.is_file():
        previous = json.loads(path.read_text())
        if counts != previous:
            return f"work counts differ from an earlier run of this seed: {previous} vs {counts}"
        return None
    STATE_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps(counts, sort_keys=True))
    return None


def time_setups(args, workdir):
    """Wall time of set-up in a fresh interpreter, SETUP_REPEATS times.

    Returns (seconds, pace scales): the set-up process takes reference samples
    before importing ``nlie``, between the documents it writes and after
    set-up (see ``setup_only``); their time is taken out of its wall time and
    their mean gives its scale."""
    times, scales = [], []
    for i in range(SETUP_REPEATS):
        target = workdir / f"setup{i}"
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-only",
                               "--workload", args.workload, "--seed", str(args.seed),
                               "--size", args.size, "--workdir", str(target)],
                              check=True, stdout=subprocess.PIPE, text=True,
                              timeout=SETUP_TIMEOUT_S)
        wall = time.perf_counter() - t0
        samples = json.loads(proc.stdout)["pace_samples"]
        times.append(wall - sum(samples))
        scales.append(PACE_NOMINAL_S / statistics.fmean(samples))
        shutil.rmtree(target, ignore_errors=True)
    return times, scales


def setup_only(args):
    """Set-up alone, in the process ``time_setups`` starts and times."""
    pace = Pace()
    for _ in range(PACE_SETUP_SAMPLES):
        pace.sample()
    cli = import_program()
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True)
    tasks.Workload(cli, args.workload, args.size, workdir, pace)
    for _ in range(PACE_SETUP_SAMPLES):
        pace.sample()
    print(json.dumps({"pace_samples": pace.samples}))
    return 0


def fresh_dir(workdir, name):
    path = workdir / name
    path.mkdir(parents=True)
    return path


def time_metrics(latencies, setup_times):
    """The timed end-to-end metrics from task latencies and set-up times."""
    return {
        "tasks_per_s": (len(latencies) / sum(latencies), "tasks/s"),
        "task_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "task_p95_ms": (percentile(latencies, 0.95) * 1e3, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


def run_untraced(cli, args, workdir, checker):
    setup_times, setup_scales = time_setups(args, workdir)
    pace = Pace()
    work = tasks.Workload(cli, args.workload, args.size, fresh_dir(workdir, "docs"))
    tally = Tally(checker)
    latencies, scaled = [], []
    pass_task_s = []
    passes = MIN_PASSES
    index = 0
    while index < passes:
        first = len(pace.samples)
        pace.sample()
        records, task_s = run_pass(cli, work.tasks, args.seed, index, pace)
        pace.sample()
        if index == 0:
            passes = max(MIN_PASSES, round(args.seconds / task_s))
        pass_task_s.append(task_s)
        scale = pace.scale(first)
        latencies += [r[3] for r in records]
        scaled += [r[3] * scale for r in records]
        tally.add_pass(records)
        index += 1
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = time_metrics(scaled, [t * s for t, s in zip(setup_times, setup_scales)])
    metrics["peak_rss_mb"] = (rss_mb, "MiB")
    metrics["ok_frac"] = ((tally.attempted - tally.failed) / tally.attempted, "ratio")
    unscaled = {name: v for name, (v, _) in time_metrics(latencies, setup_times).items()}
    info = {"tasks_per_pass": len(work.tasks), "passes": passes,
            "setup_s_samples": setup_times, "pass_task_s": pass_task_s,
            "pace_samples": len(pace.samples),
            "pace_mean_s": statistics.fmean(pace.samples), "unscaled": unscaled}
    return tally, metrics, info


def run_probes(cli, args, work, checker, tally):
    """Untimed searches of the pairs that can run out of budget (``tasks.ISO_PROBES``).

    They are not operations of the workload: a budget ``unknown`` is counted,
    not failed, but a wrong verdict or witness makes the run incorrect.
    Returns (unknown verdicts, nodes searched)."""
    unknown = nodes = 0
    records, _ = run_pass(cli, work.probes(), args.seed, 0)
    for task, rc, out, _, error in records:
        status, msg = ((checks.WRONG, f"{task.key}: raised {error}") if error is not None
                       else checker.check(task, rc, out))
        if status == checks.WRONG:
            tally.wrong.append(f"probe {msg}")
        counts = checks.work_counts(task, out)
        unknown += counts["iso_unknown"]
        nodes += counts["iso_nodes"]
    return unknown, nodes


def run_traced(cli, args, workdir, checker):
    tally = Tally(checker)
    t0 = time.perf_counter()
    work = tasks.Workload(cli, args.workload, args.size, fresh_dir(workdir, "docs"))
    task_list = work.tasks
    setup_wall = time.perf_counter() - t0
    records, pass_wall = run_pass(cli, task_list, args.seed, 0)
    counts = tally.add_pass(records)
    untraced_s = setup_wall + pass_wall

    profile = cProfile.Profile()
    t0 = time.perf_counter()
    profile.enable()
    traced_list = tasks.Workload(cli, args.workload, args.size,
                                 fresh_dir(workdir, "traced")).tasks
    traced_records, _ = run_pass(cli, traced_list, args.seed, 0)
    profile.disable()
    traced_s = time.perf_counter() - t0
    tally.add_pass(traced_records)
    probe_unknown, probe_nodes = run_probes(cli, args, work, checker, tally)

    attr = layers.Attribution(profile, SRC / "nlie")
    self_s, calls = attr.layer_table()
    total = sum(self_s.values())
    metrics = {}
    for layer in layers.LAYERS:
        metrics[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
        metrics[f"{layer}.share"] = (self_s.get(layer, 0.0) / total, "ratio")
        metrics[f"{layer}.calls"] = (calls.get(layer, 0), "count")

    def busy(select):
        return sum(r[3] for r in records if select(r[0]))

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    check_s = busy(lambda t: t.verb == "check")
    scan_s = busy(lambda t: t.kind == "alphabeta" and "--q-bounds" not in t.argv)
    iso_s = busy(lambda t: t.verb == "iso")
    bracket_calls = attr.function("core", "bracket")[0]
    parse_s = attr.function("core", "load_algebra")[1] + attr.function("core", "load_subspace")[1]
    metrics.update({
        "linalg.span_calls": (attr.function("linalg", "span")[0], "count"),
        "core.bracket_calls": (bracket_calls, "count"),
        "core.fi_instances": (counts["fi_instances"], "count"),
        "core.fi_instances_per_s": (rate(counts["fi_instances"], check_s), "1/s"),
        "core.parse_s": (parse_s, "s"),
        "invariants.classify_calls": (attr.function("invariants", "classify_subspace")[0],
                                      "count"),
        "search.subspaces_scanned": (counts["subspaces_scanned"], "count"),
        "search.subspaces_per_s": (rate(counts["subspaces_scanned"], scan_s), "1/s"),
        "search.scan_fraction": (rate(counts["subspaces_scanned"], counts["levels_visited"]),
                                 "ratio"),
        "iso.nodes": (counts["iso_nodes"], "count"),
        "iso.nodes_per_s": (rate(counts["iso_nodes"], iso_s), "1/s"),
        "iso.fingerprint_s": (attr.function("iso", "fingerprint")[1], "s"),
        "iso.unknown": (probe_unknown, "count"),
        "trace.overhead_x": (traced_s / untraced_s, "x"),
        "trace.unattributed_share": (self_s.get(layers.UNATTRIBUTED, 0.0) / total, "ratio"),
    })
    guard_counts = dict(counts, bracket_calls=bracket_calls, probe_nodes=probe_nodes)
    info = {"tasks_per_pass": len(task_list), "passes": 2,
            "untraced_s": untraced_s, "traced_s": traced_s}
    return tally, metrics, info, guard_counts


# ---------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tasks.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tasks.SIZES, default="full",
                    help="smoke: a handful of tasks on the same code path")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--workdir", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.setup_only:
        return setup_only(args)
    cli = import_program()

    answers = json.loads((BENCH_DIR / "answers.json").read_text())
    checker = checks.Checker(answers)
    workdir = WORK_DIR / str(os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        if args.trace:
            tally, metrics, info, guard_counts = run_traced(cli, args, workdir, checker)
        else:
            tally, metrics, info = run_untraced(cli, args, workdir, checker)
            guard_counts = tally.counts
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    drift = repeat_guard(args, guard_counts)
    if drift:
        tally.wrong.append(drift)

    provenance = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "iso_budget": tasks.ISO_BUDGET,
        **info,
        "work_counts": guard_counts,
    }
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    summary = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    summary["failed_frac"] = {"value": tally.failed / tally.attempted, "unit": "ratio"}
    print(json.dumps({"summary": summary, "unknown": tally.unknown,
                      "wrong": tally.wrong[:20]}, sort_keys=True))
    for msg in tally.wrong[:20]:
        print(f"wrong: {msg}", file=sys.stderr)
    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

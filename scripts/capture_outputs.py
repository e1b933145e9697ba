#!/usr/bin/env python3
"""Digest of every output the benchmark produces, to show that a change kept them.

Builds the documents of the three benchmark workloads (structure-q, scan-fp,
identify-fp) in a temporary directory through ``bench/tasks.py``, then runs
through ``nlie.cli.main``, in process: every timed task, every
``tasks.ISO_PROBES`` search and ``verify-paper``.  Prints one line per output
(key, exit code, SHA-256 of stdout, SHA-256 of stderr), then one final digest
over those lines.  The temporary directory's path is replaced by a fixed
token before hashing, so two checkouts with the same outputs print the same
digest.  Work counts in the ``--json`` documents are part of stdout and so of
the digest.  A second final digest is taken over the same lines with the work
counts (the keys ``WORK_KEYS`` of ``bench/checks.py``) deleted from every
``--json`` document first, so a change that only moves work counts can still
show that everything else is byte-identical.

Usage (from the root of a source checkout): python3 scripts/capture_outputs.py
"""

import hashlib
import json
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

from nlie import cli  # noqa: E402
from checks import WORK_KEYS  # noqa: E402
import tasks  # noqa: E402


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def without_work_counts(obj):
    if isinstance(obj, dict):
        return {k: without_work_counts(v) for k, v in obj.items() if k not in WORK_KEYS}
    if isinstance(obj, list):
        return [without_work_counts(v) for v in obj]
    return obj


def work_free(out):
    """stdout with the work counts deleted, when it is a --json document."""
    try:
        doc = json.loads(out)
    except ValueError:
        return out
    return json.dumps(without_work_counts(doc), indent=2, sort_keys=True)


def main():
    lines = []
    work_free_lines = []
    with tempfile.TemporaryDirectory() as tmp:

        def capture(key, argv):
            rc, out, err = tasks.run_cli(cli, argv)
            out, err = (s.replace(tmp, "<work>") for s in (out, err))
            lines.append(f"{key}\t{rc}\t{sha(out)}\t{sha(err)}")
            work_free_lines.append(f"{key}\t{rc}\t{sha(work_free(out))}\t{sha(err)}")
            print(lines[-1], flush=True)

        for name in tasks.WORKLOADS:
            workdir = pathlib.Path(tmp) / name
            workdir.mkdir()
            work = tasks.Workload(cli, name, "full", workdir)
            for task in work.tasks:
                capture(f"{name} {task.key}", task.argv)
            for task in work.probes():
                capture(f"{name} probe {task.key}", task.argv)
        capture("verify-paper", ["verify-paper"])
    print(f"{len(lines)} outputs, digest {sha(chr(10).join(lines))}")
    print(f"without work counts, digest {sha(chr(10).join(work_free_lines))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Digest of every output the benchmark produces, to show that a change kept them.

Builds the documents of the three benchmark workloads (structure-q, scan-fp,
identify-fp) in a temporary directory through ``bench/tasks.py``, then runs
through ``nlie.cli.main``, in process: every timed task, every
``tasks.ISO_PROBES`` search and ``verify-paper``.  Prints one line per output
(key, exit code, SHA-256 of stdout, SHA-256 of stderr, SHA-256 of stdout
without work counts), then one final digest over the first four columns of
those lines.  The temporary directory's path is replaced by a fixed token
before hashing, so two checkouts with the same outputs print the same digest.
Work counts in the ``--json`` documents are part of stdout and so of the
digest.  A second final digest is taken over the same lines with the work
counts (the keys ``WORK_KEYS`` of ``bench/checks.py``) deleted from every
``--json`` document first, so a change that only moves work counts can still
show that everything else is byte-identical; the fifth column shows which
outputs moved.  A third digest covers ``alphabeta --q-bounds --json`` on the Q
documents at m = 6 and 7, which the benchmark does not time (its
``--q-bounds`` tasks stop at m = 5) and whose growth paths run deepest; it is
kept apart so that the first two digests stay comparable with earlier
checkouts.  A fourth digest covers the command line itself: exit code,
stdout and stderr of ``nlie.cli.main`` on each argv of ``PARSER_ARGVS`` in
``tests/test_cli.py`` (the help, version, abbreviation and usage-error cases
of ``test_parser_of_one_verb_answers_like_the_full_parser``, with DOC an EX33
document over Q), with ``COLUMNS=80`` set in process so that help text
wraps the same on every terminal.  A fifth digest covers
``classify44 --json``, with the work counts deleted, over GF(2), GF(3) and
GF(5) at m = 4..7 on the ternary tables of ``tasks.families(m)`` and one
dense basis change of each (``Builder.conjugate``), which no benchmark
workload runs.
A sixth digest covers the isomorphism certificates past the benchmark's
sizes, with the work counts deleted: over GF(2) at m = 8, for each table of
``tasks.families(8)`` and its dense basis change, ``fingerprint --json`` on
both and ``iso --budget 2000 --json`` on the pair.
A seventh digest covers the beta search where the arity is m - 1, with the
work counts deleted: over GF(2) and GF(3) at m = 5..8, for each table of
``tasks.families(m)`` of arity m - 1 (L21-*, A(n)) and its dense basis
change, ``alphabeta --json``.  The benchmark runs those tables as published
and at m <= 7 only.
An eighth digest covers the witness-mode beta search on dense tables, with
the work counts deleted: for each table of ``tasks.families(m)`` at (p, m) =
(2, 6), (3, 5) and (5, 4) and its dense basis change, ``alphabeta --json``.
No benchmark workload asks for witnesses on a basis change.
A ninth digest covers the value-only beta search of ``fingerprint`` and
``iso`` on the same tables, with the work counts deleted: ``fingerprint
--json`` on each.  The sixth digest covers it only over GF(2) at m = 8.
A tenth digest covers ``iso --json`` on pairs that the benchmark does not
compare, with the work counts kept: every pair of tables of
``tasks.families(m)`` with equal invariant reports, over GF(2) at m = 4..7
and over GF(3) at m = 4 and 5 (116 pairs, isomorphic or not).

With ``--compare OLD``, where OLD is the saved stdout of an earlier run, it
then prints, for each column, the keys whose hash moved, and the keys that
only one of the two runs has, so "only the work counts of these outputs
moved" is read off one command.

Usage (from the root of a source checkout):
    python3 scripts/capture_outputs.py [--compare OLD]
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys
import tempfile
from itertools import combinations
from unittest import mock

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(ROOT / "tests"))

from nlie import cli  # noqa: E402
from nlie.catalog import catalog_build  # noqa: E402
from nlie.core import load_algebra, serialize_algebra  # noqa: E402
from nlie.fields import QQ  # noqa: E402
from nlie.invariants import invariant_report  # noqa: E402
from checks import WORK_KEYS  # noqa: E402
import tasks  # noqa: E402
from test_cli import PARSER_ARGVS  # noqa: E402


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


COLUMNS = ("exit code", "stdout", "stderr", "stdout without work counts")


def read_rows(lines):
    """{key: its column values} of the per-output lines of a run."""
    rows = {}
    for line in lines:
        fields = line.rstrip("\n").split("\t")
        if len(fields) == 1 + len(COLUMNS):
            rows[fields[0]] = fields[1:]
    return rows


def compare(old, new):
    """Print, per column, the keys whose value moved from ``old`` to ``new``."""
    for name, keys in (("only in the old run", sorted(old.keys() - new.keys())),
                       ("only in the new run", sorted(new.keys() - old.keys()))):
        print(f"{name}: {len(keys)}")
        for key in keys:
            print(f"  {key}")
    for c, column in enumerate(COLUMNS):
        moved = [key for key in old if key in new and old[key][c] != new[key][c]]
        print(f"{column} moved: {len(moved)}")
        for key in moved:
            print(f"  {key}")


def parser_answers(tmp):
    """One line per argv of ``PARSER_ARGVS``: argv, exit code, SHA-256 of
    stdout and of stderr, with ``COLUMNS=80``."""
    doc = pathlib.Path(tmp) / "ex33.json"
    doc.write_text(serialize_algebra(catalog_build("EX33", QQ)), encoding="utf-8")
    lines = []
    with mock.patch.dict(os.environ, COLUMNS="80"):
        for argv in PARSER_ARGVS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = cli.main([str(doc) if a == "DOC" else a for a in argv])
                except SystemExit as exc:
                    rc = exc.code
            out, err = (t.getvalue().replace(tmp, "<work>") for t in (out, err))
            lines.append(f"parser {' '.join(argv)}\t{rc}\t{sha(out)}\t{sha(err)}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", metavar="OLD",
                        help="saved output of an earlier run to compare against")
    args = parser.parse_args(argv)
    printed = []
    lines = []
    work_free_lines = []
    q_bounds_lines = []
    with tempfile.TemporaryDirectory() as tmp:

        def run(key, argv):
            rc, out, err = tasks.run_cli(cli, argv)
            out, err = (s.replace(tmp, "<work>") for s in (out, err))
            line = f"{key}\t{rc}\t{sha(out)}\t{sha(err)}"
            free = sha(work_free(out))
            printed.append(f"{line}\t{free}")
            print(printed[-1], flush=True)
            return line, f"{key}\t{rc}\t{free}\t{sha(err)}"

        def capture(key, argv):
            line, work_free_line = run(key, argv)
            lines.append(line)
            work_free_lines.append(work_free_line)

        for name in tasks.WORKLOADS:
            workdir = pathlib.Path(tmp) / name
            workdir.mkdir()
            work = tasks.Workload(cli, name, "full", workdir)
            for task in work.tasks:
                capture(f"{name} {task.key}", task.argv)
            for task in work.probes():
                capture(f"{name} probe {task.key}", task.argv)
            if name == "structure-q":
                for doc in work.builder.docs.values():
                    if doc.m >= 6:
                        q_bounds_lines.append(run(
                            f"{name} extra alphabeta-q-bounds {doc.key}",
                            ["alphabeta", doc.path, "--q-bounds", "--json"])[0])
        capture("verify-paper", ["verify-paper"])
        workdir = pathlib.Path(tmp) / "classify44"
        workdir.mkdir()
        builder = tasks.Builder(cli, workdir)
        classify44_lines = []
        for p in (2, 3, 5):
            for m in (4, 5, 6, 7):
                for fid, params in tasks.families(m):
                    if params.get("n", 3) != 3:  # classify44 is for ternary algebras
                        continue
                    doc = builder.catalog(fid, params, m, p)
                    for d in (doc, builder.conjugate(doc)):
                        classify44_lines.append(run(
                            f"extra classify44 {d.key}",
                            ["classify44", d.path, "--json"])[1])
        iso8_lines = []
        for fid, params in tasks.families(8):
            doc = builder.catalog(fid, params, 8, 2)
            conj = builder.conjugate(doc)
            for key, argv in ((doc.key, ["fingerprint", doc.path, "--json"]),
                              (conj.key, ["fingerprint", conj.path, "--json"]),
                              (doc.key, ["iso", doc.path, conj.path, "--budget", "2000",
                                         "--json"])):
                iso8_lines.append(run(f"extra {argv[0]} {key}", argv)[1])
        arity_lines = []
        for p in (2, 3):
            for m in (5, 6, 7, 8):
                for fid, params in tasks.families(m):
                    if params.get("n") != m - 1:
                        continue
                    doc = builder.catalog(fid, params, m, p)
                    for d in (doc, builder.conjugate(doc)):
                        arity_lines.append(run(f"extra alphabeta {d.key}",
                                               ["alphabeta", d.path, "--json"])[1])
        witness_lines, fingerprint_lines = [], []
        for p, m in ((2, 6), (3, 5), (5, 4)):
            for fid, params in tasks.families(m):
                doc = builder.catalog(fid, params, m, p)
                for d in (doc, builder.conjugate(doc)):
                    witness_lines.append(run(f"extra alphabeta-dense {d.key}",
                                             ["alphabeta", d.path, "--json"])[1])
                    fingerprint_lines.append(run(f"extra fingerprint-dense {d.key}",
                                                 ["fingerprint", d.path, "--json"])[1])
        tied_lines = []
        for p, m in ((2, 4), (2, 5), (2, 6), (2, 7), (3, 4), (3, 5)):
            docs = [builder.catalog(fid, params, m, p) for fid, params in tasks.families(m)]
            reports = [invariant_report(load_algebra(d.path)) for d in docs]
            for (d1, r1), (d2, r2) in combinations(zip(docs, reports), 2):
                if r1.differs_from(r2) is None:
                    tied_lines.append(run(f"extra iso-tied {d1.key} vs {d2.key}",
                                          ["iso", d1.path, d2.path, "--json"])[0])
        parser_lines = parser_answers(tmp)
    print(f"{len(lines)} outputs, digest {sha(chr(10).join(lines))}")
    print(f"without work counts, digest {sha(chr(10).join(work_free_lines))}")
    print(f"q-bounds at m = 6, 7: {len(q_bounds_lines)} outputs, "
          f"digest {sha(chr(10).join(q_bounds_lines))}")
    print(f"parser answers at COLUMNS=80: {len(parser_lines)} outputs, "
          f"digest {sha(chr(10).join(parser_lines))}")
    print(f"classify44 over GF(2, 3, 5) without work counts: {len(classify44_lines)} "
          f"outputs, digest {sha(chr(10).join(classify44_lines))}")
    print(f"fingerprint and iso over GF(2) at m = 8 without work counts: "
          f"{len(iso8_lines)} outputs, digest {sha(chr(10).join(iso8_lines))}")
    print(f"alphabeta at arity m - 1 over GF(2, 3) without work counts: "
          f"{len(arity_lines)} outputs, digest {sha(chr(10).join(arity_lines))}")
    print(f"alphabeta with witnesses on dense tables without work counts: "
          f"{len(witness_lines)} outputs, digest {sha(chr(10).join(witness_lines))}")
    print(f"fingerprint on dense tables without work counts: {len(fingerprint_lines)} "
          f"outputs, digest {sha(chr(10).join(fingerprint_lines))}")
    print(f"iso on report-tied catalog pairs over GF(2, 3): {len(tied_lines)} "
          f"outputs, digest {sha(chr(10).join(tied_lines))}")
    if args.compare:
        with open(args.compare, encoding="utf-8") as old:
            compare(read_rows(old), read_rows(printed))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Output checks for every task, and the work counts read from the outputs.

Each task's exit code and the mathematical content of its ``--json`` result
must match answers fixed in ``answers.json`` (a SHA-256 of the canonical
result with work counts and search witnesses removed).  Witnesses are not
compared: each one is re-verified with the independent oracle, so a faster
search may return a different witness.  On top of the stored answers:

* the known-defective tables (T43-c1 with t >= 2, EX41) and their conjugates
  must fail ``check`` with exit 1; every other table must pass with exit 0;
* alpha/beta of the criterion-2 examples must match that table at p = 2, 3;
* ``iso`` must answer ``yes`` on a table and its conjugate, and ``no`` on the
  fingerprint-tied T35 pairs.  An ``unknown`` that ran out of budget is not a
  wrong answer, but the task counts as failed.
"""

from __future__ import annotations

import hashlib
import json

import oracle
from tasks import fi_defective

SCHEMA = "nlie-report-v1"

# work counts: a faster program may do less work for the same answer
WORK_KEYS = frozenset({"nodes", "subspaces_scanned", "instances_checked",
                       "proper_subspaces_checked", "stats"})
# search witnesses: re-verified instead of compared
WITNESS_KEYS = frozenset({"alpha_witness", "beta_witness", "tau", "block", "witness"})

# criterion 2 of the verification suite: (alpha, beta) over GF(2) and GF(3)
CRITERION_2 = {"EX31 m=4": (2, 0), "EX32-1 m=4": (3, 0), "EX32-2 m=4": (3, 2),
               "EX33 m=4": (3, 2), "EX41 m=5": (4, 1), "EX42 m=6": (5, 4)}

OK, UNKNOWN, WRONG = "ok", "unknown", "wrong"

# what reading an output of the wrong shape raises
MALFORMED = (ValueError, LookupError, TypeError, AttributeError, ArithmeticError)


def canonical(obj):
    if isinstance(obj, dict):
        return {k: canonical(v) for k, v in obj.items()
                if k not in WORK_KEYS and k not in WITNESS_KEYS}
    if isinstance(obj, list):
        return [canonical(v) for v in obj]
    return obj


def answer_digest(result):
    text = json.dumps(canonical(result), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def gaussian_binomial(m, k, p):
    num = den = 1
    for i in range(k):
        num *= p ** (m - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


class CheckError(Exception):
    pass


def _require(cond, msg):
    if not cond:
        raise CheckError(msg)


def _rows(sub, p):
    return [[oracle.parse_scalar(x, p) for x in row] for row in sub["rows"]]


class Checker:
    """Checks task outputs; caches verdicts since passes repeat outputs."""

    def __init__(self, answers):
        self.answers = answers
        self._tables = {}
        self._cache = {}

    def table(self, doc, p=None):
        key = (doc.path, p)
        if key not in self._tables:
            t = oracle.Table.load(doc.path)
            self._tables[key] = t.reduce_mod(p) if p is not None and t.p is None else t
        return self._tables[key]

    def check(self, task, rc, out):
        """Return (status, message); message is None when status is OK."""
        memo = (task.key, rc, out)
        if memo not in self._cache:
            try:
                self._cache[memo] = self._check(task, rc, out)
            except CheckError as exc:
                self._cache[memo] = (WRONG, f"{task.key}: {exc}")
            except MALFORMED as exc:
                self._cache[memo] = (WRONG, f"{task.key}: malformed output ({exc!r})")
        return self._cache[memo]

    def _golden(self, task, rc, result):
        want = self.answers.get(task.key)
        _require(want is not None, f"no stored answer for {task.key!r}")
        _require(rc == want["exit"], f"exit {rc}, expected {want['exit']}")
        got = answer_digest(result)
        _require(got == want["sha256"],
                 f"result differs from the stored answer: "
                 f"{json.dumps(canonical(result), sort_keys=True)[:300]}")

    def _check(self, task, rc, out):
        doc = json.loads(out)
        _require(doc.get("schema") == SCHEMA and doc.get("verb") == task.verb,
                 f"unexpected document header {doc.get('schema')!r}/{doc.get('verb')!r}")
        result = doc["result"]
        d = task.docs[0]
        kind = task.kind
        if kind in ("check", "check-conj"):
            holds = not fi_defective(d.fid, d.params)
            _require(result["holds"] is holds, f"holds={result['holds']}, expected {holds}")
            _require(rc == (0 if holds else 1), f"exit {rc} for holds={holds}")
            if kind == "check":
                self._golden(task, rc, result)
        elif kind in ("golden", "fingerprint"):
            # a fingerprint is basis-invariant: the stored answer is the table's own
            self._golden(task, rc, result)
        elif kind == "alphabeta":
            self._golden(task, rc, result)
            for run in result["runs"]:
                self._check_alpha_beta(d, run)
        elif kind == "classify44":
            self._golden(task, rc, result)
            self._check_classify44(d, result)
        elif kind == "iso-yes":
            verdict = result["verdict"]
            if verdict == "unknown" and rc == 3:
                return UNKNOWN, f"{task.key}: unknown ({result.get('reason')})"
            _require(verdict == "yes" and rc == 0, f"verdict {verdict} exit {rc}, expected yes")
            P = _rows({"rows": result["witness"]}, d.p)
            _require(oracle.is_isomorphism(self.table(d), self.table(task.docs[1]), P),
                     "witness is not an isomorphism")
        elif kind == "iso-no":
            verdict = result["verdict"]
            if verdict == "unknown" and rc == 3:
                return UNKNOWN, f"{task.key}: unknown ({result.get('reason')})"
            _require(verdict == "no" and rc == 1, f"verdict {verdict} exit {rc}, expected no")
        else:
            raise CheckError(f"unknown task kind {kind}")
        return OK, None

    def _check_alpha_beta(self, d, run):
        p = run["p"]
        exact = run["mode"].startswith("exact-fp")
        if exact and p in (2, 3):
            expected = CRITERION_2.get(d.label)
            _require(expected is None or (run["alpha"], run["beta"]) == expected,
                     f"(alpha, beta) = ({run['alpha']}, {run['beta']}) at p={p}, "
                     f"criterion 2 says {expected}")
        T = self.table(d, p)
        for name, value, test in (("alpha", run["alpha"], oracle.is_abelian_subalgebra),
                                  ("beta", run["beta"], oracle.is_abelian_ideal)):
            w = run[f"{name}_witness"]
            if value is None or value == 0:
                continue
            _require(w is not None and w["dim"] == value, f"{name} witness missing")
            rows = _rows(w, T.p)
            _require(oracle.rank(rows, T.p) == value and test(T, rows),
                     f"{name} witness fails its definition")

    def _check_classify44(self, d, result):
        tau, block = result["tau"], result["block"]
        if result["case"] != "A4-semidirect":
            _require(tau is None and block is None, "unexpected witness")
            return
        T = self.table(d, result["evidence"]["p"])
        tau_rows, block_rows = _rows(tau, T.p), _rows(block, T.p)
        _require(len(tau_rows) == d.m - 4 and len(block_rows) == 4, "witness dims")
        _require(not tau_rows or oracle.is_abelian_ideal(T, tau_rows),
                 "tau is not an abelian ideal")
        _require(oracle.is_subalgebra(T, block_rows), "block is not a subalgebra")
        _require(oracle.rank(tau_rows + block_rows, T.p) == d.m,
                 "tau and block do not span the algebra")


def work_counts(task, out):
    """Work counts a task's output reports (zero where the verb has none)."""
    counts = dict.fromkeys(("fi_instances", "subspaces_scanned", "levels_visited",
                            "iso_nodes", "iso_unknown"), 0)
    try:
        result = json.loads(out)["result"]
        if task.kind in ("check", "check-conj"):
            counts["fi_instances"] = result["instances_checked"]
        elif task.kind == "alphabeta":
            m = task.docs[0].m
            for run in result["runs"]:
                if not (run["mode"].startswith("exact-fp")
                        and run["alpha_exact"] and run["beta_exact"]):
                    continue
                p = run["p"]
                counts["subspaces_scanned"] += run["subspaces_scanned"]
                counts["levels_visited"] += (
                    sum(gaussian_binomial(m, k, p) for k in range(run["alpha"], m + 1))
                    + sum(gaussian_binomial(m, k, p) for k in range(run["beta"], m)))
        elif task.kind.startswith("iso"):
            counts["iso_nodes"] = result["nodes"]
            counts["iso_unknown"] = int(result["verdict"] == "unknown")
    except MALFORMED:
        pass  # a malformed output counts nothing; the output check judges it
    return counts

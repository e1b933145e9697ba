"""Command line front end.

One verb per library operation; every verb supports ``--json`` emitting a
stable machine-readable report (schema ``nlie-report-v1``).  Exit codes:
0 success / predicate true, 1 predicate false or verification failure,
2 usage or parse errors, 3 unsupported requests and undecided verdicts.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .catalog import (
    CATALOG,
    DEFAULT_CLASSIFY44_BUDGET,
    associated_lie,
    catalog_build,
    classify_theorem44,
    direct_sum,
    lie_catalog_build,
    trivial_extension,
)
from .core import (
    check_fundamental_identity,
    load_algebra,
    load_subspace,
    save_algebra,
    serialize_algebra,
)
from .errors import InvalidParameterError, NLieError, ParseError, UnsupportedRequestError
from .fields import GF, QQ
from .invariants import (
    center,
    classify_subspace,
    full_space,
    invariant_report,
    s_derived_series,
)
from .iso import DEFAULT_ISO_BUDGET, are_isomorphic, fingerprint
from .search import DEFAULT_BUDGET, abelian_bounds_q, alpha_beta_exact_fp, reduce_mod_p
from .verify import run_suite

SCHEMA = "nlie-report-v1"

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_UNSUPPORTED = 3


def _emit(args, verb, result, text_lines):
    if getattr(args, "json", False):
        doc = {"schema": SCHEMA, "verb": verb, "result": result}
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _format_subspace(S):
    if S is None or S.dim == 0:
        return ["(zero subspace)"]
    f = S.field
    return [" ".join(f.format(x) for x in row) for row in S.basis]


def _subspace_dict(S):
    return dict(S.to_dict(), ambient=S.ambient_dim)


def _require_own_prime(L, p):
    """A ``--p`` given with a prime-field document must name that prime."""
    if p is not None and L.field.p not in (None, p):
        raise InvalidParameterError(
            f"--p {p} does not match the document's field GF({L.field.p})")


def cmd_check(args):
    L = load_algebra(args.algebra)
    report = check_fundamental_identity(L)
    lines = ["fundamental identity: holds" if report.holds
             else f"fundamental identity: violated ({len(report.violations)} instances)"]
    for v in report.violations[:10]:
        lines.append(f"  x={list(v.x_indices)} y={list(v.y_indices)} "
                     f"residual={[L.field.format(c) for c in v.residual]}")
    _emit(args, "check", report.to_dict(L.field), lines)
    return EXIT_OK if report.holds else EXIT_FALSE


def cmd_report(args):
    L = load_algebra(args.algebra)
    rep = invariant_report(L)
    d = rep.to_dict()
    lines = [f"arity {rep.arity}, dim {rep.dim}",
             f"derived dim: {rep.derived_dim}",
             f"center dim: {rep.center_dim}"]
    lines += [f"{s}-derived series dims: {list(dims)}"
              for s, dims in rep.derived_series]
    lines += [f"lower central dims: {list(rep.lower_central)}",
              f"nilpotent: {rep.nilpotent}",
              "solvable: " + ", ".join(f"s={s}: {flag}" for s, flag in rep.solvable)]
    _emit(args, "report", d, lines)
    return EXIT_OK


def cmd_center(args):
    L = load_algebra(args.algebra)
    z = center(L)
    _emit(args, "center", _subspace_dict(z),
          [f"center dim {z.dim}"] + _format_subspace(z))
    return EXIT_OK


def cmd_derived(args):
    L = load_algebra(args.algebra)
    if args.s > L.arity:
        raise UnsupportedRequestError(f"s={args.s} exceeds the arity {L.arity}")
    rep = s_derived_series(L, full_space(L), args.s)
    terms = rep.terms[: args.steps + 1] if args.steps is not None else rep.terms
    lines = [f"{args.s}-derived series dims: {[t.dim for t in terms]}",
             f"terminates at zero: {rep.terminated_at_zero}"]
    d1 = rep.terms[1]  # [L, .., L]: the derived algebra
    lines.append(f"derived algebra dim {d1.dim}:")
    lines += _format_subspace(d1)
    _emit(args, "derived", {
        "s": args.s, "dims": [t.dim for t in terms],
        "terminated_at_zero": rep.terminated_at_zero,
        "derived_algebra": _subspace_dict(d1),
    }, lines)
    return EXIT_OK


def cmd_classify(args):
    L = load_algebra(args.algebra)
    S = load_subspace(args.subspace)
    cls = classify_subspace(L, S)
    d = cls.to_dict()
    lines = [f"{k}: {v}" for k, v in d.items()]
    _emit(args, "classify", d, lines)
    return EXIT_OK


def cmd_alphabeta(args):
    L = load_algebra(args.algebra)
    for p in args.p or ():
        _require_own_prime(L, p)
    if args.q_bounds and (L.field.p or args.p):
        conflict = f"a document over GF({L.field.p})" if L.field.p else "--p"
        raise InvalidParameterError(f"--q-bounds (bounds over Q) conflicts with {conflict}")
    runs = []
    lines = []
    if L.field.p is not None:
        res = alpha_beta_exact_fp(L, budget=args.budget)
        runs.append(res)
        lines.append(f"alpha = {res.alpha}, beta = {res.beta} "
                     f"(exact over GF({L.field.p}); {res.subspaces_scanned} subspaces)")
    elif args.p:
        for p in args.p:
            res = alpha_beta_exact_fp(reduce_mod_p(L, p), budget=args.budget)
            runs.append(res)
            lines.append(f"p={p}: alpha = {res.alpha}, beta = {res.beta} "
                         f"({res.subspaces_scanned} subspaces)")
        if all(r.complete for r in runs):
            agree = len({(r.alpha, r.beta) for r in runs}) == 1
            lines.append(f"primes agree: {agree} "
                         "(modular values corroborate, but do not prove, "
                         "the characteristic-0 values)")
    elif args.q_bounds:
        res = abelian_bounds_q(L)
        lines.append(f"alpha >= {res.alpha} (upper bound {res.alpha_upper}), "
                     f"beta >= {res.beta} (upper bound {res.beta_upper})")
        lines.append("certified lower bounds only; exact alpha/beta over Q "
                     "is not computed")
        _emit(args, "alphabeta", {"runs": [res.to_dict()]}, lines)
        return EXIT_OK
    else:
        raise UnsupportedRequestError(
            "exact alpha/beta over Q is unsupported: pass --p P (modular "
            "corroboration) or --q-bounds (certified bounds)")
    # the notes of an exhaustive run name the scans its budget stopped
    undecided = [f"undecided: {note}" for r in runs for note in r.notes]
    _emit(args, "alphabeta", {"runs": [r.to_dict() for r in runs]}, lines + undecided)
    return EXIT_UNSUPPORTED if undecided else EXIT_OK


def cmd_assoc_lie(args):
    L = load_algebra(args.algebra)
    parts = [t.strip() for t in args.w.split(",")]
    if len(parts) != L.dim:
        raise ParseError(f"--w needs {L.dim} comma-separated scalars")
    w = tuple(L.field.parse(t) for t in parts)
    return _output_algebra(args, "assoc-lie", associated_lie(L, w))


def _output_algebra(args, verb, L):
    if args.out:
        save_algebra(L, args.out)
        _emit(args, verb, {"written": args.out}, [f"written: {args.out}"])
    else:
        text = serialize_algebra(L)
        _emit(args, verb, json.loads(text), text.rstrip().splitlines())
    return EXIT_OK


def cmd_extend(args):
    J0 = load_algebra(args.algebra)
    return _output_algebra(args, "extend", trivial_extension(J0))


def cmd_sum(args):
    L1 = load_algebra(args.algebra1)
    L2 = load_algebra(args.algebra2)
    return _output_algebra(args, "sum", direct_sum(L1, L2))


def cmd_catalog(args):
    if args.action == "list":
        rows = [{"id": e.family_id, "params": list(e.params),
                 "min_dim": e.min_dim, "summary": e.summary}
                for e in sorted(CATALOG.values(), key=lambda e: e.family_id)]
        lines = [f"{r['id']:10s} params={','.join(r['params']) or '-':12s} "
                 f"min dim {r['min_dim']}: {r['summary']}" for r in rows]
        _emit(args, "catalog-list", {"families": rows}, lines)
        return EXIT_OK
    field = QQ if args.p is None else GF(args.p)
    params = {}
    if args.dim is not None:
        params["m"] = args.dim
    if args.n is not None:
        params["n"] = args.n
    if args.alpha is not None:
        params["alpha"] = field.parse(args.alpha)
    if args.t is not None:
        params["t"] = args.t
    if args.r is not None:
        params["r"] = args.r
    L = catalog_build(args.family, field, **params)
    return _output_algebra(args, "catalog-build", L)


def cmd_lie_catalog(args):
    params = {}
    if args.dim is not None:
        params["dim"] = args.dim
    if args.n is not None:
        params["n"] = args.n
    field = QQ if args.p is None else GF(args.p)
    L = lie_catalog_build(args.family, field, **params)
    return _output_algebra(args, "lie-catalog-build", L)


def cmd_fingerprint(args):
    L = load_algebra(args.algebra)
    fp = fingerprint(L)
    d = fp.to_dict()
    lines = [f"{k}: {v}" for k, v in d.items()]
    _emit(args, "fingerprint", d, lines)
    return EXIT_OK


def cmd_iso(args):
    L1 = load_algebra(args.algebra1)
    L2 = load_algebra(args.algebra2)
    _require_own_prime(L1, args.p)
    _require_own_prime(L2, args.p)
    if args.p is not None:
        L1 = reduce_mod_p(L1, args.p) if L1.field.p is None else L1
        L2 = reduce_mod_p(L2, args.p) if L2.field.p is None else L2
    res = are_isomorphic(L1, L2, budget=args.budget)
    lines = [f"verdict: {res.verdict}"]
    if res.reason:
        lines.append(f"reason: {res.reason}")
    if res.witness is not None:
        f = res.witness.field
        lines.append("witness columns (images of the basis):")
        lines += [" ".join(f.format(x) for x in row) for row in res.witness.rows]
    _emit(args, "iso", res.to_dict(), lines)
    return EXIT_OK if res.verdict == "yes" else (
        EXIT_FALSE if res.verdict == "no" else EXIT_UNSUPPORTED)


def cmd_classify44(args):
    L = load_algebra(args.algebra)
    _require_own_prime(L, args.p)
    v = classify_theorem44(L, p=args.p, budget=args.budget)
    lines = [f"case: {v.case}", f"evidence: {v.evidence}"]
    if v.tau is not None:
        lines.append(f"abelian ideal (dim {v.tau.dim}):")
        lines += _format_subspace(v.tau)
    _emit(args, "classify44", v.to_dict(), lines)
    return EXIT_OK if v.case != "unknown" else EXIT_UNSUPPORTED


def cmd_verify_paper(args):
    quiet = getattr(args, "json", False)
    suite = run_suite(only=args.only or None, seed=args.seed,
                      report=None if quiet else print)
    if quiet:
        _emit(args, "verify-paper", suite.to_dict(), [])
    else:
        print("suite:", "PASS" if suite.passed else "FAIL")
    return EXIT_OK if suite.passed else EXIT_FALSE


def _arg(*names, **options):
    return names, options


def _count(text):
    """The value of a count option (``--budget``, ``--steps``): an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return value


_ALGEBRA = _arg("algebra")
_OUT = _arg("--out")

# verb -> (handler, help, arguments after --json)
VERBS = {
    "check": (cmd_check, "verify the fundamental identity", [_ALGEBRA]),
    "report": (cmd_report, "basis-invariant structure report", [_ALGEBRA]),
    "center": (cmd_center, "center of the algebra", [_ALGEBRA]),
    "derived": (cmd_derived, "derived series", [
        _ALGEBRA,
        _arg("--s", type=int, default=2, help="series parameter, 2 to the arity"),
        _arg("--steps", type=_count, default=None, help="maximum steps shown")]),
    "classify": (cmd_classify, "classify a subspace against an algebra", [
        _ALGEBRA, _arg("subspace", help="subspace-v1 document")]),
    "alphabeta": (cmd_alphabeta, "maximal abelian subalgebra/ideal dims", [
        _ALGEBRA,
        _arg("--p", type=int, action="append",
             help="reduce mod p and enumerate exhaustively (repeatable)"),
        _arg("--q-bounds", action="store_true", help="certified lower bounds over Q"),
        _arg("--budget", type=_count, default=DEFAULT_BUDGET)]),
    "assoc-lie": (cmd_assoc_lie, "associated binary algebra at w", [
        _ALGEBRA, _arg("--w", required=True, help="comma-separated coordinates of w"),
        _OUT]),
    "extend": (cmd_extend, "trivial one-point extension of a Lie algebra",
               [_ALGEBRA, _OUT]),
    "sum": (cmd_sum, "direct sum of two algebras",
            [_arg("algebra1"), _arg("algebra2"), _OUT]),
    "catalog": (cmd_catalog, "list or build catalog families", [
        _arg("action", choices=("list", "build")), _arg("family", nargs="?"),
        _arg("--dim", type=int), _arg("--n", type=int), _arg("--alpha"),
        _arg("--t", type=int), _arg("--r", type=int),
        _arg("--p", type=int, help="build over GF(p) instead of Q"), _OUT]),
    "lie-catalog": (cmd_lie_catalog, "build binary (Lie) fixtures", [
        _arg("family"), _arg("--dim", type=int), _arg("--n", type=int),
        _arg("--p", type=int), _OUT]),
    "fingerprint": (cmd_fingerprint, "basis-invariant fingerprint", [_ALGEBRA]),
    "iso": (cmd_iso, "isomorphism semidecision", [
        _arg("algebra1"), _arg("algebra2"),
        _arg("--p", type=int, help="compare reductions mod p"),
        _arg("--budget", type=_count, default=DEFAULT_ISO_BUDGET)]),
    "classify44": (cmd_classify44, "trichotomy: 3-solvable / simple 4-dim / semidirect", [
        _ALGEBRA, _arg("--p", type=int),
        _arg("--budget", type=_count, default=DEFAULT_CLASSIFY44_BUDGET)]),
    "verify-paper": (cmd_verify_paper, "run the full verification suite", [
        _arg("--only", type=int, action="append",
             help="run a single criterion (repeatable)"),
        _arg("--seed", type=int, default=0)]),
}


def _add_verb(parser, verb):
    """Give ``parser`` the arguments of ``verb``, as defined in ``VERBS``."""
    func, _, arguments = VERBS[verb]
    parser.set_defaults(func=func, verb=verb)
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    for names, options in arguments:
        parser.add_argument(*names, **options)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The parser of every verb.  A call builds it only when argv names no
    verb and on a usage error (see ``_parse``), so that help, version and
    usage errors read as this parser prints them."""
    parser = argparse.ArgumentParser(
        prog="nlie",
        description="Exact computations for n-ary Lie algebras given by "
                    "structure constants (nlie-v1 documents)")
    parser.add_argument("--version", action="version", version=f"nlie {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, (_, help_text, _) in VERBS.items():
        _add_verb(sub.add_parser(name, help=help_text), name)
    return parser


class _VerbParser(argparse.ArgumentParser):
    """The parser of one verb, built as ``build_parser`` builds its subparser
    (so its help is that subparser's); a usage error raises instead of
    printing, for the parser of every verb to answer."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def _parse(argv):
    """When argv[0] is a verb, only that verb's parser is built and parses the
    rest of argv; when argv names no verb, and on any usage error, the parser
    of every verb parses argv and prints what it prints, with its exit code."""
    if argv and argv[0] in VERBS:
        try:
            return _add_verb(_VerbParser(prog=f"nlie {argv[0]}"), argv[0]).parse_args(argv[1:])
        except argparse.ArgumentError:
            pass
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    """Run the verb that ``argv`` names and return its exit code.  Each call
    builds its own parser (see ``_parse``); no parser outlives the call."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse(argv)
    if args.verb == "catalog" and args.action == "build" and not args.family:
        build_parser().error("catalog build requires a family id")
    try:
        return args.func(args)
    except UnsupportedRequestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (NLieError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

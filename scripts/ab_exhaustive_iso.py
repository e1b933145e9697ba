#!/usr/bin/env python3
"""In-process A/B timing of two source checkouts on the exhaustive iso searches.

    python3 scripts/ab_exhaustive_iso.py OLD NEW [--rounds 5]

OLD and NEW are the roots of two source checkouts, imported into one
interpreter as ``scripts/ab_inprocess.py`` does.  The searches are the ten
that prove the T35 b-cores (T35-b4, T35-b5, T35-b6 with alpha = 1) pairwise
distinct over GF(2) by the backtracking search alone
(``iso._search_isomorphism``, with no certificate in front of it): all three
pairs at m = 4, 5 and 6, and T35-b4 against T35-b6 at m = 7.  Every one is a
``no`` from an exhausted search, so it visits the whole search tree and
shows what a change to the search's pruning costs per node.

Each tree builds its own tables and invariant reports once, outside the
timing.  In each of ``--rounds`` rounds every search runs on both trees back
to back, the tree that goes first alternating from search to search and
from round to round.  It prints, per search, each tree's verdict and nodes
and its fastest time, with the ratio NEW / OLD; then the sums of the fastest
times and their ratio (below 1 means NEW is faster).
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time

from ab_inprocess import import_tree

SEARCHES = [(m, a, b) for m in (4, 5, 6)
            for a, b in (("T35-b4", "T35-b5"), ("T35-b4", "T35-b6"), ("T35-b5", "T35-b6"))]
SEARCHES.append((7, "T35-b4", "T35-b6"))


def prepare(name):
    """Per search: (the search function, its arguments) in package ``name``."""
    catalog = importlib.import_module(f"{name}.catalog")
    fields = importlib.import_module(f"{name}.fields")
    invariants = importlib.import_module(f"{name}.invariants")
    iso = importlib.import_module(f"{name}.iso")
    out = []
    for m, a, b in SEARCHES:
        A, B = (catalog.catalog_build(fid, fields.GF(2), m=m,
                                      **({"alpha": 1} if fid == "T35-b6" else {}))
                for fid in (a, b))
        args = (A, B, invariants.invariant_report(A).subspaces,
                invariants.invariant_report(B).subspaces, 2_000_000)
        out.append((iso._search_isomorphism, args))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", help="root of the first source checkout")
    ap.add_argument("new", help="root of the second source checkout")
    ap.add_argument("--rounds", type=int, default=5)
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")

    names = ("nlie_a", "nlie_b")
    for root, name in zip((args.old, args.new), names):
        import_tree(root, name)
    runs = [prepare(name) for name in names]
    best = [[float("inf")] * len(SEARCHES) for _ in names]
    results = [[None] * len(SEARCHES) for _ in names]
    for r in range(args.rounds):
        for i in range(len(SEARCHES)):
            first = (i + r) % 2
            for side in (first, 1 - first):
                search, search_args = runs[side][i]
                t0 = time.perf_counter()
                results[side][i] = search(*search_args)
                best[side][i] = min(best[side][i], time.perf_counter() - t0)
    for i, (m, a, b) in enumerate(SEARCHES):
        (old, new), (t_old, t_new) = (results[0][i], results[1][i]), (best[0][i], best[1][i])
        print(f"m={m} {a} vs {b}: old {old.verdict} {old.nodes} nodes {t_old * 1e3:.1f} ms, "
              f"new {new.verdict} {new.nodes} nodes {t_new * 1e3:.1f} ms; "
              f"new/old {t_new / t_old:.4f}")
    old, new = (sum(b) for b in best)
    print(f"total: old {old * 1e3:.1f} ms, new {new * 1e3:.1f} ms (sums of per-search "
          f"minimums over {args.rounds} rounds); new/old {new / old:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

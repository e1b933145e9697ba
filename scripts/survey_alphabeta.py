#!/usr/bin/env python3
"""Survey: exhaustive alpha/beta for every catalog family over small primes.

Prints one row per (family, dimension, prime) with the exact values, the
canonical witnesses' dimensions, and whether the table satisfies the
fundamental identity.  A value the default budget stopped prints as None.  Useful for eyeballing how the invariants move with
the dimension parameters.

Usage: python scripts/survey_alphabeta.py [--dims 4 5 6] [--primes 2 3]
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from nlie.catalog import entries_for_dims  # noqa: E402
from nlie.fields import GF  # noqa: E402
from nlie.invariants import invariant_report  # noqa: E402
from nlie.search import alpha_beta_exact_fp  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dims", type=int, nargs="+", default=[4, 5, 6])
    parser.add_argument("--primes", type=int, nargs="+", default=[2, 3])
    args = parser.parse_args()

    header = f"{'family':28s} {'p':>2s} {'dim':>3s} {'L1':>3s} {'Z':>3s} " \
             f"{'alpha':>5s} {'beta':>4s} {'nilp':>4s} {'FI':>3s}"
    print(header)
    print("-" * len(header))
    for p in args.primes:
        for label, L in entries_for_dims(args.dims, GF(p)):
            rep = invariant_report(L)
            res = alpha_beta_exact_fp(L)
            print(f"{label:28s} {p:2d} {L.dim:3d} {rep.derived_dim:3d} "
                  f"{rep.center_dim:3d} {res.alpha!s:>5s} {res.beta!s:>4s} "
                  f"{str(rep.nilpotent)[0]:>4s} {'y' if L.fi_checked else 'N':>3s}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

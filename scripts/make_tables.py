#!/usr/bin/env python3
"""Regenerate the headline tables on this machine.

Prints, as TSV blocks separated by blank lines:
  1. the growth-rate table (k, min_rate, max_rate),
  2. extremal counts for a small range of n and k,
  3. a benchmark sweep: largest n whose full listing fits each budget.

Equivalent CLI calls: ``convchar rate`` and ``convchar bench``.
"""

import argparse
import sys

from convchar import caterpillar_count, fully_loaded_count, rate_table_tsv, run_bench
from convchar.cli import (
    EXIT_DOMAIN, EXIT_OK, EXIT_USAGE, _csv_of, _int_at_least, _positive_float,
)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kmax", type=_int_at_least(1), default=6)
    ap.add_argument("--budgets", type=_csv_of(_positive_float), default="0.5,2")
    ap.add_argument("--seed", type=int, default=0)
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        _print_tables(args)
    except OSError as exc:  # e.g. stdout closed early by `| head`
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    return EXIT_OK


def _print_tables(args: argparse.Namespace) -> None:
    print("# growth rates")
    print("k\tmin_rate\tmax_rate")
    print(rate_table_tsv(args.kmax))

    print("\n# extremal counts (minimum / maximum per n, k)")
    print("n\tk\tfully_loaded\tcaterpillar")
    for n in (10, 20, 30, 40):
        for k in range(2, args.kmax + 1):
            print(f"{n}\t{k}\t{fully_loaded_count(n, k)}\t{caterpillar_count(n, k)}")

    print("\n# listing benchmark (wall clock)")
    print("family\tk\tbudget_s\tmax_n_completed\tcharacters_listed\tseed")
    for rec in run_bench(
        families=("caterpillar", "random"),
        ks=list(range(1, args.kmax + 1)),
        budgets=args.budgets,
        seed=args.seed,
    ):
        print(rec.tsv())


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands: count, list, gen, rate, bench, verify, solve.  Trees are read
one Newick per line ("-" for stdin).  Tables are TSV, structured results are
JSON, trees are Newick; no format ever mixes on one stream.

Exit codes: 0 success, 1 domain error (bad input data, guard trips),
2 usage error, 3 listing truncated by --limit.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bench import run_bench
from .characters import _rendered
from .counting import count_convex, rate_table_tsv
from .generators import caterpillar, fully_loaded, random_tree
from .solvers import SolveInstance, solve
from .trees import Tree, TreeError, parse_newick
from .verify import run_verification

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_TRUNCATED = 3


def _read_lines(path: str) -> list[str]:
    if path == "-":
        return sys.stdin.read().splitlines()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read().splitlines()


def _read_trees(path: str) -> list[tuple[int, Tree]]:
    out = []
    for lineno, line in enumerate(_read_lines(path), start=1):
        if not line.strip():
            continue
        try:
            out.append((lineno, parse_newick(line)))
        except TreeError as exc:
            raise TreeError(f"line {lineno}: {exc}") from None
    if not out:
        raise TreeError("no trees in input")
    return out


def _int_at_least(low: int):
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


def _csv_of(convert):
    def parse(text: str) -> list:
        try:
            return [convert(tok) for tok in text.split(",") if tok.strip()]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"not a comma-separated list of {convert.__name__}s: {text!r}") from None
    return parse


def _cmd_count(args) -> int:
    for lineno, tree in _read_trees(args.tree_file):
        print(f"{lineno}\t{tree.n}\t{args.k}\t{count_convex(tree, args.k)}")
    return EXIT_OK


def _json_line(blocks: list[str]) -> str:
    return "[" + ", ".join(blocks) + "]"


def _cmd_list(args) -> int:
    # Byte-identical to Character.text() and json.dumps(Character.to_lists()).
    if args.format == "json":
        render, line = json.dumps, _json_line
    else:
        render, line = ",".join, "|".join
    emitted = 0
    for _, tree in _read_trees(args.tree_file):
        for blocks in _rendered(tree, args.k, render):
            if args.limit is not None and emitted >= args.limit:
                return EXIT_TRUNCATED
            print(line(blocks))
            emitted += 1
    return EXIT_OK


def _cmd_gen(args) -> int:
    if args.family == "caterpillar":
        tree = caterpillar(args.n)
    elif args.family == "random":
        tree = random_tree(args.n, seed=args.seed)
    else:
        if args.k is None:
            print("error: --k is required for fully_loaded", file=sys.stderr)
            return EXIT_USAGE
        tree = fully_loaded(args.n, args.k)
    print(tree.canonical_newick())
    return EXIT_OK


def _cmd_rate(args) -> int:
    print(rate_table_tsv(args.kmax))
    return EXIT_OK


def _cmd_bench(args) -> int:
    records = run_bench(
        families=[f.strip() for f in args.families.split(",") if f.strip()],
        ks=args.k_list,
        budgets=args.budgets,
        seed=args.seed,
        n_cap=args.n_cap,
    )
    for rec in records:
        print(rec.tsv())
    return EXIT_OK


def _cmd_verify(args) -> int:
    ok = run_verification(
        nmax=args.nmax, kmax=args.kmax, samples=args.samples, seed=args.seed
    )
    print("verification " + ("passed" if ok else "FAILED"))
    return EXIT_OK if ok else EXIT_DOMAIN


def _cmd_solve(args) -> int:
    if args.instance == "-":
        raw = sys.stdin.read()
    else:
        with open(args.instance, "r", encoding="utf-8") as fh:
            raw = fh.read()
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"instance is not valid JSON: {exc}") from None
    result = solve(SolveInstance.from_json_dict(data))
    print(json.dumps(result.to_json_dict()))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convchar",
        description="Count, list and optimize over convex characters of "
        "unrooted binary trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count level-k convex characters per input tree")
    p.add_argument("tree_file", help="Newick file, one tree per line, or '-'")
    p.add_argument("-k", type=int, default=1, help="minimum block size")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("list", help="stream all level-k convex characters")
    p.add_argument("tree_file")
    p.add_argument("-k", type=int, default=1)
    p.add_argument("--limit", type=_int_at_least(0), default=None,
                   help="stop after this many lines (exit 3)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_list)

    p = sub.add_parser("gen", help="generate a tree family member as canonical Newick")
    p.add_argument("family", choices=("caterpillar", "fully_loaded", "random"))
    p.add_argument("n", type=int)
    p.add_argument("--k", type=int, default=None, help="block parameter for fully_loaded")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("rate", help="growth-rate table: k, min_rate, max_rate")
    p.add_argument("--kmax", type=_int_at_least(1), default=6)
    p.set_defaults(func=_cmd_rate)

    p = sub.add_parser("bench", help="largest n fully listable per wall-clock budget")
    p.add_argument("--families", default="caterpillar,random")
    p.add_argument("--k-list", type=_csv_of(int), default="1,2,3")
    p.add_argument("--budgets", type=_csv_of(float), default="1")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-cap", type=int, default=64)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("verify", help="run the property suite; nonzero exit on failure")
    # The suite needs trees of 4 taxa, k = 2 and one sample; nmax > 14 is
    # the oracle's own guard (exit 1).
    p.add_argument("--nmax", type=_int_at_least(4), default=9)
    p.add_argument("--kmax", type=_int_at_least(2), default=4)
    p.add_argument("--samples", type=_int_at_least(1), default=200)
    p.add_argument("--seed", type=int, default=20260810)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("solve", help="run a JSON solve instance")
    p.add_argument("instance", help="instance JSON path or '-'")
    p.set_defaults(func=_cmd_solve)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (TreeError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands: count, list, gen, rate, bench, verify, solve.  Trees are read
one Newick per line ("-" for stdin).  Tables are TSV, structured results are
JSON, trees are Newick; no format ever mixes on one stream.

Exit codes: 0 success, 1 domain error (bad input data, guard trips),
2 usage error, 3 listing truncated by --limit.

``main(argv)`` may be called any number of times in one process.  The
argument parser is built once, when this module is imported, from constants
only, and holds nothing between calls: each call parses into a fresh
namespace, and help and usage text read the terminal width and
``sys.stdout``/``sys.stderr`` when they are printed.  A one-shot process
(``convchar`` or ``python -m convchar``) pays the same single build as
before, at import instead of in ``main``.

Importing this module loads only the modules ``count``, ``list`` and
``rate`` run: ``trees``, ``counting`` and ``characters``.  Every other
subcommand imports its own engine when it first runs (``solvers``,
``generators``, ``bench``, ``verify``), and ``bench --families`` reads
``bench.FAMILIES`` when a ``bench`` command line is parsed.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterable
from json.encoder import encode_basestring_ascii

from .characters import _rendered
from .counting import _decimal_digits, count_convex, rate_table_tsv
from .trees import Tree, TreeError, parse_newick

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_TRUNCATED = 3


def _read_text(path: str) -> str:
    """The text of ``path``, or of stdin for "-", less a leading UTF-8
    byte order mark."""
    if path == "-":
        return sys.stdin.read().removeprefix("\ufeff")
    with open(path, "r", encoding="utf-8-sig") as fh:
        return fh.read()


def _read_trees(path: str) -> list[tuple[int, Tree]]:
    out = []
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            out.append((lineno, parse_newick(line)))
        except TreeError as exc:
            raise TreeError(f"line {lineno}: {exc}") from None
    if not out:
        raise TreeError("no trees in input")
    return out


def _checked(convert, ok, rule: str):
    """``convert``, then reject a value failing ``ok`` as a usage error."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text.strip()}")
        return value
    parse.__name__ = convert.__name__
    return parse


def _int_at_least(low: int):
    return _checked(int, lambda value: value >= low, f"at least {low}")


_positive_float = _checked(float, lambda value: value > 0, "positive")  # rejects nan


def _family(text: str) -> str:
    """A ``bench`` family name, checked against ``bench.FAMILIES`` when a
    ``bench`` command line is parsed, so no other command imports ``bench``."""
    from .bench import FAMILIES

    return _checked(str.strip, FAMILIES.__contains__, "one of " + ", ".join(FAMILIES))(text)


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
        print(f"{lineno}\t{tree.n}\t{args.k}\t{_decimal_digits(count_convex(tree, args.k))}")
    return EXIT_OK


def _json_line(items: Iterable[str]) -> str:
    """The JSON array of already encoded items, as default ``json.dumps``
    writes it."""
    return "[" + ", ".join(items) + "]"


def _discard(text: str) -> None:
    """Stand-in write for a closed stdout (``sys.stdout`` is None), which
    drops the text as ``print`` does."""


def _cmd_list(args) -> int:
    # Byte-identical to Character.text() and json.dumps(Character.to_lists()):
    # a label is encoded by the C function json.dumps calls for a str, a
    # JSON block is _json_line of its encoded labels, a JSON line the
    # _json_line of its blocks.  One write per line.
    write = _discard if sys.stdout is None else sys.stdout.write
    if args.format == "json":
        render, start, sep, end = _json_line, "[", ", ", "]\n"
    else:
        render, start, sep, end = ",".join, "", "|", "\n"
    emitted = 0
    for _, tree in _read_trees(args.tree_file):
        names = tree.labels
        if args.format == "json":
            names = tuple(map(encode_basestring_ascii, names))
        for blocks in _rendered(tree, args.k, render, names):
            if args.limit is not None and emitted >= args.limit:
                return EXIT_TRUNCATED
            write(start + sep.join(blocks) + end)
            emitted += 1
    return EXIT_OK


def _cmd_gen(args) -> int:
    from .generators import caterpillar, fully_loaded, random_tree

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
    from .bench import run_bench

    records = run_bench(
        families=args.families,
        ks=args.k_list,
        budgets=args.budgets,
        seed=args.seed,
        n_cap=args.n_cap,
    )
    for rec in records:
        print(rec.tsv())
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .verify import run_verification

    ok = run_verification(
        nmax=args.nmax, kmax=args.kmax, samples=args.samples, seed=args.seed
    )
    print("verification " + ("passed" if ok else "FAILED"))
    return EXIT_OK if ok else EXIT_DOMAIN


def _cmd_solve(args) -> int:
    from .solvers import SolveInstance, solve

    try:
        data = json.loads(_read_text(args.instance))
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
    p.add_argument("-k", type=_int_at_least(1), default=1, help="minimum block size")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("list", help="stream all level-k convex characters")
    p.add_argument("tree_file")
    p.add_argument("-k", type=_int_at_least(1), default=1, help="minimum block size")
    p.add_argument("--limit", type=_int_at_least(0), default=None,
                   help="stop after this many lines (exit 3)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_list)

    p = sub.add_parser("gen", help="generate a tree family member as canonical Newick")
    p.add_argument("family", choices=("caterpillar", "fully_loaded", "random"))
    p.add_argument("n", type=_int_at_least(1))
    p.add_argument("--k", type=_int_at_least(2), default=None,
                   help="block parameter for fully_loaded")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("rate", help="growth-rate table: k, min_rate, max_rate")
    p.add_argument("--kmax", type=_int_at_least(1), default=6)
    p.set_defaults(func=_cmd_rate)

    p = sub.add_parser("bench", help="largest n fully listable per wall-clock budget")
    p.add_argument("--families", type=_csv_of(_family), default="caterpillar,random")
    p.add_argument("--k-list", type=_csv_of(_int_at_least(1)), default="1,2,3")
    p.add_argument("--budgets", type=_csv_of(_positive_float), default="1")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-cap", type=_int_at_least(3), default=64)
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


_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run one command line (``sys.argv[1:]`` when ``argv`` is None) and
    return its exit code.  Safe to call repeatedly in one process: the
    parser built at import is shared and no call leaves state in it."""
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (TreeError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())

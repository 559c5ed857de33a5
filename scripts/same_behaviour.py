#!/usr/bin/env python3
"""Check that this checkout's program behaves as another revision's does.

    python scripts/same_behaviour.py [--against REV] [--seeds 1,2,3]

Run it from anywhere inside a git checkout.  ``REV``'s ``src/``
(``HEAD`` by default) is unpacked with ``git archive`` into a temporary
directory, so no network and no second checkout are needed.  Each seed's
benchmark inputs are written once, by ``perfbench/workloads.py`` with the
revision's program; then one child process per side digests every case
on the same files:

- exit code and stdout of every request of the big_trees, list_stream
  and solve_mix workloads, with ``wall_time_ms`` stripped from the solve
  JSON;
- the ``Character.text()`` lines of ``enumerate_convex`` on caterpillar,
  ``random_tree`` and ``fully_loaded`` trees with n = 1..12 at k = 1..5;
- the ``(live, dropped, added)`` triples of ``characters._block_stream``
  on those trees with n >= 4, at the block limits None, 2, 3 and n, each
  with no block check and with ``solvers._agreeing_blocks`` against the
  same tree with two neighbouring names of its canonical Newick swapped;
- the answer, value and ``characters_scanned`` of pruned scans: 160
  seeded agreement pairs with n = 14..20 at k = 1..5, the second tree
  the first with one or two pairs of neighbouring names swapped, and 40
  objective scans (``solvers._scan``) that score the one-block character
  None, so that the stream is walked under a limit.

The stream and scan cases call private functions of the program, so a
revision that lacks them fails its side.  It prints the first case whose
digests differ, by name, and exits 1 when any case differs, 0 when every
case is equal and 2 when a side cannot be run.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import random
import re
import subprocess
import sys
import tarfile
import tempfile
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("big_trees", "list_stream", "solve_mix")


def listings() -> list[tuple[str, int, int]]:
    """The ``(family, n, k)`` of every ``enumerate_convex`` case."""
    return [(family, n, k) for family in ("caterpillar", "random", "fully_loaded")
            for n in range(1, 13) for k in range(1, 6)
            if (family != "random" or n >= 3) and (family != "fully_loaded" or n >= max(k, 2))]


def streams() -> list[tuple[str, int, int, int | None, bool]]:
    """The ``(family, n, k, limit, checked)`` of every stream-triple case."""
    return [(family, n, k, limit, checked) for family, n, k in listings() if n >= 4
            for limit in (None, 2, 3, n) for checked in (False, True)]


def scans() -> list[tuple[str, str, int, int, list[int]]]:
    """The ``(kind, family, n, k, swaps)`` of every pruned-scan case, drawn
    from a fixed seed: 160 agreement scans, then 40 objective scans.  A
    case's second tree is its first with the names at canonical Newick
    positions i and i + 1 swapped, for each i in ``swaps``; the seed of a
    random tree is the case's index."""
    rng = random.Random(0)
    out = []
    for i in range(200):
        family = rng.choice(("caterpillar", "random", "fully_loaded"))
        n, k = rng.randint(14, 20), rng.randint(1, 5)
        swaps = sorted(rng.sample(range(n - 1), rng.randint(1, 2)))
        out.append(("agreement" if i < 160 else "objective", family, n, k, swaps))
    return out


def _tree(family: str, n: int, k: int, seed: int):
    import convchar as cc

    if family == "caterpillar":
        return cc.caterpillar(n)
    if family == "random":
        return cc.random_tree(n, seed=seed)
    return cc.fully_loaded(n, max(k, 2))


def _swapped(tree, swaps: list[int]):
    """``tree`` with the names at canonical Newick positions i and i + 1
    swapped, for each i in ``swaps`` in turn."""
    import convchar as cc

    text = tree.canonical_newick()
    names = re.findall(r"[^(),;]+", text)
    for i in swaps:
        names[i], names[i + 1] = names[i + 1], names[i]
    it = iter(names)
    return cc.parse_newick(re.sub(r"[^(),;]+", lambda _: next(it), text))


def _request(main, argv: list[str]) -> str:
    """Exit code and stdout of one in-process CLI call, as perfbench makes
    it: stdout and stderr captured."""
    out = io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, io.StringIO()
    try:
        rc = main(argv)
    except Exception as exc:  # a crash is an outcome to compare, not an error here
        return f"raised {type(exc).__name__}: {exc}"
    finally:
        sys.stdout, sys.stderr = saved
    text = out.getvalue()
    if argv[0] == "solve" and rc == 0:
        result = json.loads(text)
        result.pop("wall_time_ms", None)
        text = json.dumps(result)
    return f"{rc}\n{text}"


def _listing(family: str, n: int, k: int) -> str:
    from convchar import enumerate_convex

    return "\n".join(ch.text() for ch in enumerate_convex(_tree(family, n, k, n), k))


def _stream(family: str, n: int, k: int, limit: int | None, checked: bool) -> str:
    """One line per triple of the block stream, each list as Python shows
    it; with ``checked``, the agreement check against the tree with the
    names at canonical positions n // 2 - 1 and n // 2 swapped."""
    from convchar.characters import _block_stream
    from convchar.solvers import _agreeing_blocks

    tree = _tree(family, n, k, n)
    check = _agreeing_blocks((tree, _swapped(tree, [n // 2 - 1]))) if checked else None
    triples = _block_stream(tree, k, check, None if limit is None else [limit])
    return "\n".join(f"{live} {dropped} {added}" for live, dropped, added in triples)


def _pruned_scan(index: int, kind: str, family: str, n: int, k: int, swaps: list[int]) -> str:
    """Answer, value and characters scanned of one pruned scan: agreement
    of the tree with its swapped copy, or the sum of Fitch scores over the
    tree, its swapped copy and ``random_tree(n, seed=index + 1)``, with
    the one-block character scored None."""
    from convchar import agreement_forest_min_components, random_tree
    from convchar.characters import _parsimony
    from convchar.solvers import _scan

    tree = _tree(family, n, k, index)
    other = _swapped(tree, swaps)
    if kind == "agreement":
        res = agreement_forest_min_components(tree, other, k)
    else:
        trees = (tree, other, random_tree(n, seed=index + 1))

        def score(masks):
            return None if len(masks) == 1 else sum(_parsimony(t, masks) for t in trees)
        res = _scan(tree, k, score, lambda b: (b - 1) * 3)
    return f"{res.character}\t{res.objective_value}\t{res.characters_scanned}"


def digests(requests: list[tuple[str, list[str]]], trees: list[tuple[str, int, int]],
            stream_cases: list[tuple], scan_cases: list[tuple]) -> dict[str, str]:
    """sha256 per named case, in order, with the ``convchar`` on
    ``sys.path``: a request is ``(name, argv)``, a listing ``(family, n,
    k)``, a stream as :func:`streams` gives it and a scan as :func:`scans`
    does, its index in the list seeding its random trees."""
    from convchar import cli

    cases = [(name, partial(_request, cli.main, argv)) for name, argv in requests]
    cases += [(f"enumerate {family} n={n} k={k}", partial(_listing, family, n, k))
              for family, n, k in trees]
    cases += [(f"stream {family} n={n} k={k} limit={limit}{' checked' * checked}",
               partial(_stream, family, n, k, limit, checked))
              for family, n, k, limit, checked in stream_cases]
    cases += [(f"{kind} scan #{i:03d} {family} n={n} k={k} swaps={swaps}",
               partial(_pruned_scan, i, kind, family, n, k, swaps))
              for i, (kind, family, n, k, swaps) in enumerate(scan_cases)]
    return {name: hashlib.sha256(text().encode()).hexdigest() for name, text in cases}


def first_difference(ours: dict[str, str], theirs: dict[str, str]) -> str | None:
    """The first case, in ``ours``' order, that ``theirs`` lacks or
    digests differently, or None when both hold the same digests."""
    for name, digest in ours.items():
        if theirs.get(name) != digest:
            return name
    return next(iter(theirs.keys() - ours.keys()), None)


def child(manifest: str) -> None:
    """Print the digests of the cases in a manifest file as JSON."""
    spec = json.loads(Path(manifest).read_text(encoding="utf-8"))
    json.dump(digests(spec["requests"], spec["listings"], spec["streams"], spec["scans"]),
              sys.stdout)


def build_requests(seeds: list[int], workdir: Path) -> list[tuple[str, list[str]]]:
    """Write every workload's inputs for each seed and name its requests."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import convchar
    import workloads

    requests = []
    for seed in seeds:
        for workload in WORKLOADS:
            where = workdir / f"{workload}-{seed}"
            where.mkdir()
            wl = workloads.build(workload, seed, where, convchar)
            requests += [(f"{workload} seed={seed} #{i:02d} {req.label}", req.argv)
                         for i, req in enumerate(wl.requests, 1)]
    return requests


def seeds(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",")]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", default="HEAD", help="git revision to compare with")
    parser.add_argument("--seeds", type=seeds, default="1,2,3", help="benchmark seeds")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="same_behaviour-") as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "archive", "--format=tar", args.against, "src"],
                                 cwd=ROOT, capture_output=True)
        if archive.returncode:
            print(f"error: git archive {args.against}: {archive.stderr.decode().strip()}",
                  file=sys.stderr)
            return 2
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp / "against", filter="data")
        sides = {args.against: tmp / "against" / "src", "this checkout": ROOT / "src"}

        sys.path.insert(0, str(sides[args.against]))
        (tmp / "inputs").mkdir()
        manifest = tmp / "manifest.json"
        manifest.write_text(json.dumps({"requests": build_requests(args.seeds, tmp / "inputs"),
                                        "listings": listings(), "streams": streams(),
                                        "scans": scans()}), encoding="utf-8")

        code = ("import sys; sys.path[:0] = sys.argv[1:3]; import same_behaviour; "
                "same_behaviour.child(sys.argv[3])")
        procs = {}
        for side, src in sides.items():
            out = open(tmp / f"{len(procs)}.json", "w+", encoding="utf-8")
            procs[side] = out, subprocess.Popen(
                [sys.executable, "-c", code, str(src), str(ROOT / "scripts"), str(manifest)],
                cwd=tmp, stdout=out, stderr=subprocess.PIPE, text=True)
        results = {}
        for side, (out, proc) in procs.items():
            err = proc.communicate()[1]
            if proc.returncode:
                print(f"error: the {side} side failed:\n{err.strip()}", file=sys.stderr)
                return 2
            out.seek(0)
            results[side] = json.load(out)
            out.close()

    base, here = results.values()
    differing = first_difference(base, here)
    if differing is not None:
        count = sum(here.get(name) != digest for name, digest in base.items())
        print(f"{count} of {len(base)} cases differ from {args.against}; first: {differing}")
        return 1
    print(f"all {len(base)} cases equal to {args.against}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

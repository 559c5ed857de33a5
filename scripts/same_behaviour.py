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
  ``random_tree`` and ``fully_loaded`` trees with n = 1..12 at k = 1..5.

It prints the first case whose digests differ, by name, and exits 1
when any case differs, 0 when every case is equal and 2 when a side
cannot be run.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("big_trees", "list_stream", "solve_mix")


def listings() -> list[tuple[str, int, int]]:
    """The ``(family, n, k)`` of every ``enumerate_convex`` case."""
    return [(family, n, k) for family in ("caterpillar", "random", "fully_loaded")
            for n in range(1, 13) for k in range(1, 6)
            if (family != "random" or n >= 3) and (family != "fully_loaded" or n >= max(k, 2))]


def _request(main, clear_cache, argv: list[str]) -> str:
    """Exit code and stdout of one in-process CLI call, as perfbench makes
    it: stdout and stderr captured, the count cache emptied first when the
    program has one."""
    if clear_cache is not None:
        clear_cache()
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
    import convchar as cc

    if family == "caterpillar":
        tree = cc.caterpillar(n)
    elif family == "random":
        tree = cc.random_tree(n, seed=n)
    else:
        tree = cc.fully_loaded(n, max(k, 2))
    return "\n".join(ch.text() for ch in cc.enumerate_convex(tree, k))


def digests(requests: list[tuple[str, list[str]]],
            trees: list[tuple[str, int, int]]) -> dict[str, str]:
    """sha256 per named case, in order, with the ``convchar`` on
    ``sys.path``: a request is ``(name, argv)``, a listing ``(family, n,
    k)``."""
    from convchar import cli, counting

    clear_cache = getattr(counting, "clear_count_cache", None)
    out = {}
    for name, argv in requests:
        out[name] = _request(cli.main, clear_cache, argv)
    for family, n, k in trees:
        out[f"enumerate {family} n={n} k={k}"] = _listing(family, n, k)
    return {name: hashlib.sha256(text.encode()).hexdigest() for name, text in out.items()}


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
    json.dump(digests(spec["requests"], spec["listings"]), sys.stdout)


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
                                        "listings": listings()}), encoding="utf-8")

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

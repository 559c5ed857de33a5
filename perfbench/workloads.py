"""Seeded inputs and request lists for the three benchmark workloads.

The benchmark writes every tree itself, as Newick text, so the inputs stay
the same whatever the program's own generators do, and so deep trees can be
built without recursion (``caterpillar()`` and ``fully_loaded()`` raise
``RecursionError`` at about 1000 taxa).  The program only ever sees the
files written here.

A workload is a fixed list of requests, one *pass*; the benchmark repeats
the pass.  The seed picks topologies, label orders and small jitters of the
tree sizes, so work counters change with the seed while the cost of a pass
stays nearly the same.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import checks

WORKLOADS = ("big_trees", "list_stream", "solve_mix")

# Taxon count of the deep-caterpillar probe run in a child process.
PROBE_TAXA = 20_000

# Wall time of one pass, kernel sampling included, on the nominal machine of
# speed.py (a 2-vCPU Xeon VM, Python 3.11, kernel near 20 ms).  run.py makes
# int(--seconds / PASS_S) passes, so a seed always makes the same requests;
# at --seconds 36 that is 4, 4 and 7 passes of about 36, 30 and 35 s.
PASS_S = {"big_trees": 9.0, "list_stream": 7.5, "solve_mix": 5.0}


@dataclass
class Request:
    """One in-process CLI call and the check of its output."""

    kind: str            # "count", "list" or "solve"
    label: str
    argv: list[str]
    taxa: int            # sum of n over the input trees
    check: Callable[[int | None, str], tuple[bool, int, str]]
    quartet_count: int = 0   # level-4 count of a quartet instance's tree


@dataclass
class Workload:
    """A pass of requests.

    ``min_passes`` fixes the guaranteed sample count and so the tail
    percentile; each workload picks it so that percentile falls inside a
    group of like requests, not on the gap between two unlike ones.
    """

    name: str
    requests: list[Request]
    min_passes: int
    pass_s: float                      # nominal wall time of one pass
    probe: Path | None = None          # deep caterpillar file, big_trees only


def labels(n: int) -> list[str]:
    width = len(str(n))
    return [f"t{str(i).zfill(width)}" for i in range(1, n + 1)]


def shuffled_labels(n: int, rng: random.Random) -> list[str]:
    labs = labels(n)
    rng.shuffle(labs)
    return labs


def _chain(names: list[str]) -> str:
    """Rooted caterpillar text over ``names`` in spine order, built without
    recursion."""
    if len(names) == 1:
        return names[0]
    head = "".join(f"({x}," for x in names[:-2])
    return f"{head}({names[-2]},{names[-1]}){')' * (len(names) - 2)}"


def caterpillar_newick(names: list[str]) -> str:
    return _chain(names) + ";"


def fully_loaded_newick(names: list[str], k: int) -> str:
    """Caterpillar scaffold whose leaves are pendant caterpillars of k-1
    taxa, the last one holding the n mod (k-1) residue."""
    chunks = [_chain(names[i:i + k - 1]) for i in range(0, len(names), k - 1)]
    return _chain(chunks) + ";"


def random_topology(n: int, rng: random.Random) -> list[list[int]]:
    """Adjacency of a uniform random labelled topology on leaves 0..n-1
    (sequential uniform edge attachment from the 3-star)."""
    adj: list[list[int]] = [[] for _ in range(2 * n - 2)]
    edges = [(0, n), (1, n), (2, n)]
    nxt = n + 1
    for leaf in range(3, n):
        i = rng.randrange(len(edges))
        u, v = edges[i]
        edges[i] = (u, nxt)
        edges.append((nxt, v))
        edges.append((nxt, leaf))
        nxt += 1
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def render(adj: list[list[int]], names: list[str]) -> str:
    """Newick text of a topology from ``random_topology``, leaf i named
    ``names[i]``, written iteratively from internal vertex n."""
    n = len(names)
    root = n
    text: dict[int, str] = {}
    stack = [(root, -1, False)]
    while stack:
        v, parent, done = stack.pop()
        if v < n:
            text[v] = names[v]
        elif done:
            text[v] = "(" + ",".join(text.pop(u) for u in adj[v] if u != parent) + ")"
        else:
            stack.append((v, parent, True))
            stack.extend((u, v, False) for u in adj[v] if u != parent)
    return text[root] + ";"


def random_newick(n: int, rng: random.Random) -> tuple[str, list[list[int]], list[str]]:
    adj = random_topology(n, rng)
    names = shuffled_labels(n, rng)
    return render(adj, names), adj, names


class _Writer:
    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.index = 0

    def __call__(self, text: str, suffix: str = "nwk") -> str:
        self.index += 1
        path = self.workdir / f"in{self.index:03d}.{suffix}"
        path.write_text(text + "\n", encoding="utf-8")
        return str(path)


def _jitter(base: int, rng: random.Random) -> int:
    return base + rng.randrange(base // 100)


def big_trees(rng: random.Random, write: _Writer, cc) -> Workload:
    """``count`` on 2000-10 000-taxon trees, and three ``list --limit 200``.

    Parsing, the big-int DP and time to the first character dominate.
    Caterpillars and fully-loaded trees keep their labels in spine order,
    as ``caterpillar(n)`` and ``fully_loaded(n, k)`` build them: rooted at
    the smallest taxon they are then as deep as they can be, whatever the
    seed.
    """
    reqs = []
    for base in (2000, 5000, 10_000):
        for k in (2, 3, 10):
            families = ("random", "caterpillar") + (("fully_loaded",) if k > 2 else ())
            for family in families:
                n = _jitter(base, rng)
                if family == "random":
                    text = random_newick(n, rng)[0]
                elif family == "caterpillar":
                    text = caterpillar_newick(labels(n))
                else:
                    text = fully_loaded_newick(labels(n), k)
                low, high = checks.count_bounds(family, n, k)
                reqs.append(Request(
                    "count", f"count {family} n={n} k={k}",
                    ["count", write(text), "-k", str(k)], n,
                    partial(checks.check_count, n=n, k=k, low=low, high=high)))
    # The second caterpillar puts the median first line among the
    # caterpillars, whose cost the seed does not change.
    for family, base in (("random", 5000), ("caterpillar", 2000), ("caterpillar", 2500)):
        n = _jitter(base, rng)
        if family == "random":
            text, _, names = random_newick(n, rng)
        else:
            names = labels(n)
            text = caterpillar_newick(names)
        # Every count here exceeds 10^200, so the listing is always truncated.
        reqs.append(Request(
            "list", f"list --limit 200 {family} n={n} k=3",
            ["list", write(text), "-k", "3", "--limit", "200"], n,
            partial(checks.check_list, taxa=frozenset(names), k=3,
                    count=checks.fully_loaded_min(n, 3), limit=200, fmt="text")))
    probe = Path(write(caterpillar_newick(labels(PROBE_TAXA))))
    # Two passes put the tail percentile among the ~10 000-taxon counts.
    return Workload("big_trees", reqs, min_passes=2, pass_s=PASS_S["big_trees"], probe=probe)


def _banded_random(n: int, k: int, band: tuple[int, int], rng: random.Random, cc):
    """A random n-taxon tree whose level-k count lies in ``band``; keeps
    the listing cost of the slot steady across seeds."""
    while True:
        text, _, names = random_newick(n, rng)
        count = cc.count_convex(cc.parse_newick(text), k)
        if band[0] <= count <= band[1]:
            return text, names, count


def list_stream(rng: random.Random, write: _Writer, cc) -> Workload:
    """Full ``list`` runs, text and JSON.

    The backtracker, ``Character`` materialization and output formatting
    dominate; the DP is trivial.  Every request lists a few thousand to
    sixteen thousand characters, so a run holds dozens of them and its
    throughput is an average over many requests, not over a few long ones.
    The five random-tree listings are the cheapest requests; the median
    falls in the middle of the caterpillar(33) JSON listings and the tail
    percentile among the caterpillar(35) ones, whose cost the seed does not
    change.
    """
    slots = []
    for formats in (("text", "json"), ("text",)):
        text, _, names = random_newick(20, rng)
        for fmt in formats:
            slots.append((text, names, 2, checks.fib(19), fmt, "random n=20"))
    text, names, count = _banded_random(40, 5, (1000, 1250), rng, cc)
    for fmt in ("text", "json"):
        slots.append((text, names, 5, count, fmt, "random n=40"))
    # Labels in spine order, as ``caterpillar(n)`` builds them.
    for n in (33, 34, 35, 36):
        names = labels(n)
        for fmt in ("text", "json"):
            slots.append((caterpillar_newick(names), names, 4, checks.caterpillar_max(n, 4), fmt,
                          f"caterpillar n={n}"))
    reqs = []
    for text, names, k, count, fmt, what in slots:
        path = write(text)
        reqs.append(Request(
            "list", f"list {fmt} {what} k={k}",
            ["list", path, "-k", str(k), "--format", fmt], len(names),
            partial(checks.check_list, taxa=frozenset(names), k=k, count=count,
                    limit=None, fmt=fmt)))
    # Four passes put the tail percentile among the 35-taxon caterpillars.
    return Workload("list_stream", reqs, min_passes=4, pass_s=PASS_S["list_stream"])


def solve_mix(rng: random.Random, write: _Writer, cc) -> Workload:
    """``solve`` instances of every mode.

    Per-character solver work dominates: ``is_convex``, ``restrict``,
    ``canonical_newick`` and ``parsimony_score``.  Costs range over two
    orders of magnitude, so the pass repeats two mid-cost classes whose cost
    the seed moves little: agreement at k = 2 on 19 taxa holds the median
    request, objective on 19 taxa the tail percentile.  The quartet trees
    are drawn until their count lies in a band for the same reason.
    """
    instances = []   # (label, instance dict, max_components)
    for n, swaps in ((10, 1), (10, 2), (11, 1), (12, 1)):
        adj = random_topology(n, rng)
        names = shuffled_labels(n, rng)
        swapped = list(names)
        moved = set()
        for _ in range(swaps):
            i, j = rng.sample(range(n), 2)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            moved |= {names[i], names[j]}
        # Cutting off the moved taxa as singletons leaves agreeing trees.
        instances.append((f"agreement k=1 n={n} swaps={swaps}",
                          {"trees": [render(adj, names), render(adj, swapped)], "k": 1,
                           "mode": "agreement_forest_min_components"}, 1 + len(moved)))
    for i, n in enumerate((18, 19, 19, 19, 19, 19, 20)):
        instances.append((f"agreement k=2 n={n} #{i}",
                          {"trees": [random_newick(n, rng)[0], random_newick(n, rng)[0]], "k": 2,
                           "mode": "agreement_forest_min_components"}, None))
    for i, (n, m) in enumerate(((18, 2), (19, 3), (19, 3), (19, 3), (20, 3))):
        instances.append((f"objective k=2 n={n} trees={m} #{i}",
                          {"trees": [random_newick(n, rng)[0] for _ in range(m)], "k": 2,
                           "mode": "objective_optimize", "objective": "sum_parsimony"}, None))
    for n, band in ((28, (300, 450)), (32, (900, 1300))):
        for i in range(2):
            text = _banded_random(n, 4, band, rng, cc)[0]
            instances.append((f"quartet random n={n} #{i}",
                              {"trees": [text, random_newick(n, rng)[0]],
                               "mode": "quartet_exact_partition"}, None))
        text = fully_loaded_newick(shuffled_labels(n, rng), 5)
        instances.append((f"quartet fully_loaded n={n}",
                          {"trees": [text, text], "mode": "quartet_exact_partition"}, None))
    reqs = []
    for label, inst, max_components in instances:
        trees = [cc.parse_newick(t) for t in inst["trees"]]
        k = 4 if inst["mode"] == "quartet_exact_partition" else inst["k"]
        count = cc.count_convex(trees[0], k)
        n = trees[0].n
        reqs.append(Request(
            "solve", f"solve {label}",
            ["solve", write(json.dumps(inst), "json")], n * len(trees),
            partial(checks.check_solve, cc=cc, instance=inst, trees=trees, count=count,
                    max_components=max_components),
            quartet_count=count if inst["mode"] == "quartet_exact_partition" else 0))
    # Three passes put the tail percentile among the 19-taxon objectives.
    return Workload("solve_mix", reqs, min_passes=3, pass_s=PASS_S["solve_mix"])


FACTORIES = {"big_trees": big_trees, "list_stream": list_stream, "solve_mix": solve_mix}


def build(name: str, seed: int, workdir: Path, cc) -> Workload:
    rng = random.Random(f"convchar-bench/{name}/{seed}")
    return FACTORIES[name](rng, _Writer(workdir), cc)


def warmup_requests(workdir: Path) -> list[list[str]]:
    """Tiny requests of each command, run during set-up only."""
    write = _Writer(workdir / "warmup")
    write.workdir.mkdir(exist_ok=True)
    rng = random.Random(0)
    text = random_newick(12, rng)[0]
    tree = write(text)
    inst = write(json.dumps({"trees": [text, text], "k": 2,
                             "mode": "agreement_forest_min_components"}), "json")
    return [["count", tree, "-k", "3"], ["list", tree, "-k", "3", "--format", "json"],
            ["list", tree, "-k", "2"], ["solve", inst]]

"""Listing benchmark: how far can n grow before a full enumeration blows a
wall-clock budget.

The clock is injectable so CI never depends on machine speed: a FakeClock
advancing a fixed tick per reading makes elapsed time a deterministic
function of the number of characters listed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .characters import enumerate_convex
from .generators import caterpillar, fully_loaded, random_tree
from .trees import Tree

FAMILIES = ("caterpillar", "random", "fully_loaded")


@dataclass(frozen=True)
class BenchRecord:
    family: str
    k: int
    budget: float
    max_n_completed: int
    characters_listed: int
    seed: int

    def tsv(self) -> str:
        return (
            f"{self.family}\t{self.k}\t{self.budget:g}\t"
            f"{self.max_n_completed}\t{self.characters_listed}\t{self.seed}"
        )


class FakeClock:
    """Monotone fake time; every reading advances by ``tick``."""

    def __init__(self, tick: float = 1.0):
        self.now = 0.0
        self.tick = tick

    def __call__(self) -> float:
        self.now += self.tick
        return self.now


def _family_tree(family: str, n: int, k: int, seed: int) -> Tree:
    if family == "caterpillar":
        return caterpillar(n)
    if family == "random":
        # Same tree for a given (seed, n) whatever k is, so records stay
        # comparable across k.
        return random_tree(n, seed=seed * 1_000_003 + n)
    if family == "fully_loaded":
        return fully_loaded(n, k)
    raise ValueError(f"unknown family {family!r}")


def _timed_listing(tree: Tree, k: int, budget: float, clock: Callable[[], float]):
    start = clock()
    listed = 0
    for _ in enumerate_convex(tree, k):
        listed += 1
        if clock() - start > budget:
            return False, listed
    return clock() - start <= budget, listed


def run_bench(
    families: Iterable[str] = ("caterpillar", "random"),
    ks: Sequence[int] = (1, 2, 3),
    budgets: Sequence[float] = (1.0,),
    seed: int = 0,
    clock: Callable[[], float] | None = None,
    n_cap: int = 64,
) -> list[BenchRecord]:
    """Ramp n upward per (family, k, budget) until a full listing no longer
    finishes inside the budget.

    max_n_completed is the largest n finished before the first over-budget
    size (0 when even the smallest size fails); characters_listed is the
    stream length at that size.
    """
    clock = clock or time.monotonic
    records = []
    for family in families:
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        for k in ks:
            if k < 1 or (family == "fully_loaded" and k < 2):
                raise ValueError(f"family {family!r} cannot run at k={k}")
            if max(3, k) > n_cap:
                raise ValueError(f"k={k} needs {max(3, k)} taxa, above the n_cap of {n_cap}")
            for budget in budgets:
                if not budget > 0:  # also rejects nan
                    raise ValueError("budgets must be positive")
                n = max(3, k)
                best_n = 0
                best_listed = 0
                while n <= n_cap:
                    tree = _family_tree(family, n, k, seed)
                    done, listed = _timed_listing(tree, k, budget, clock)
                    if not done:
                        break
                    best_n, best_listed = n, listed
                    n += 1
                records.append(
                    BenchRecord(family, k, budget, best_n, best_listed, seed)
                )
    return records

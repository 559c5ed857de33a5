"""Self-check suite behind ``convchar verify``.

Runs the library's cross-cutting identities on seeded random trees: brute
force agreement, the closed forms, the extremal sandwich, the deletion and
tripartition recurrences, the cherry bound and enumeration consistency.
Every check prints one PASS/FAIL line; the suite fails as a whole if any
check does.
"""

from __future__ import annotations

import random
from typing import Callable

from .bruteforce import _guard as _oracle_guard
from .bruteforce import brute_count
from .characters import enumerate_convex, parsimony_score, stream_encoding
from .counting import (
    caterpillar_count,
    count_closed_k1,
    count_closed_k2,
    count_convex,
    fully_loaded_count,
    growth_rate,
    split_recurrence_holds,
)
from .generators import all_topologies, caterpillar, default_labels, fully_loaded, random_tree
from .trees import Tree


def tripartition_identity_holds(tree: Tree, tp, k: int) -> bool:
    """Product identity at a tripartition A|B|C with |B| = k-1,
    1 <= |C| <= k-1 and |A| > 2(k-1):

    count(T) = count(T|A+B) count(T|C) + count(T|A) count(T|B+C)
               + count(T|A+B) count(T|B+C)
    """
    a, b, c = tp.part_a, tp.part_b, tp.part_c
    if len(b) != k - 1 or not 1 <= len(c) <= k - 1 or len(a) <= 2 * (k - 1):
        raise ValueError("tripartition does not meet the identity's size rules")
    ab = count_convex(tree.restrict(a | b), k)
    bc = count_convex(tree.restrict(b | c), k)
    return count_convex(tree, k) == (
        ab * count_convex(tree.restrict(c), k)
        + count_convex(tree.restrict(a), k) * bc
        + ab * bc
    )


def applicable_tripartitions(tree: Tree, k: int):
    """Role assignments (as replaced Tripartitions) meeting the identity's
    size rules."""
    from dataclasses import replace

    out = []
    for tp in tree.tripartitions():
        parts = list(tp.parts)
        for bi in range(3):
            for ci in range(3):
                if bi == ci:
                    continue
                ai = 3 - bi - ci
                a, b, c = parts[ai], parts[bi], parts[ci]
                if len(b) == k - 1 and 1 <= len(c) <= k - 1 and len(a) > 2 * (k - 1):
                    out.append(replace(tp, part_a=a, part_b=b, part_c=c))
    return out


def run_verification(
    nmax: int = 9,
    kmax: int = 4,
    samples: int = 200,
    seed: int = 20260810,
    report: Callable[[str], None] = print,
) -> bool:
    rng = random.Random(seed)
    results: list[bool] = []

    def check(name: str, fn: Callable[[], str | None]) -> None:
        try:
            detail = fn()
            ok = True
        except Exception as exc:  # a failing identity or a guard trip
            detail = f"{type(exc).__name__}: {exc}"
            ok = False
        results.append(ok)
        suffix = f"  ({detail})" if detail else ""
        report(f"[{'PASS' if ok else 'FAIL'}] {name}{suffix}")

    def sample_tree(n: int) -> Tree:
        return random_tree(n, seed=rng.randrange(2 ** 60))

    def oracle_agreement() -> str:
        _oracle_guard(nmax, 1)  # refuse infeasible nmax before any work
        lo = min(5, nmax)
        count = 0
        for i in range(samples):
            n = lo + i % (nmax - lo + 1)
            t = sample_tree(n)
            for k in range(1, kmax + 1):
                dp, brute = count_convex(t, k), brute_count(t, k)
                if dp != brute:
                    raise AssertionError(f"n={n} k={k}: dp {dp} != brute {brute}")
            count += 1
        return f"{count} trees, k <= {kmax}"

    def closed_forms() -> str:
        trees = 0
        for n in range(4, 7):
            for t in all_topologies(default_labels(n)):
                trees += 1
                assert count_convex(t, 1) == count_closed_k1(n)
                assert count_convex(t, 2) == count_closed_k2(n)
        for _ in range(min(samples, 60)):
            n = rng.randrange(7, max(8, nmax) + 1)
            t = sample_tree(n)
            trees += 1
            assert count_convex(t, 1) == count_closed_k1(n)
            assert count_convex(t, 2) == count_closed_k2(n)
        return f"{trees} trees"

    def small_n_constants() -> str:
        cases = 0
        for k in range(2, kmax + 3):
            for n in range(3, 2 * k):
                t = sample_tree(n)
                want = 0 if n < k else 1
                got = count_convex(t, k)
                assert got == want, f"n={n} k={k}: {got} != {want}"
                cases += 1
        return f"{cases} cases"

    def sandwich() -> str:
        cases = 0
        for _ in range(min(samples, 100)):
            n = rng.randrange(8, 21)
            t = sample_tree(n)
            for k in range(3, max(4, kmax + 1)):
                lo, hi = fully_loaded_count(n, k), caterpillar_count(n, k)
                mid = count_convex(t, k)
                assert lo <= mid <= hi, f"n={n} k={k}: {lo} <= {mid} <= {hi}"
                cases += 1
        for k in range(3, max(4, kmax + 1)):
            n = rng.randrange(max(8, k), 21)
            assert count_convex(caterpillar(n), k) == caterpillar_count(n, k)
            assert count_convex(fully_loaded(n, k), k) == fully_loaded_count(n, k)
        return f"{cases} bounds"

    def deletion_recurrence() -> str:
        done = 0
        attempts = 0
        while done < min(samples, 60) and attempts < 10 * samples:
            attempts += 1
            n = rng.randrange(8, 15)
            k = rng.randrange(2, kmax + 1)
            t = sample_tree(n)
            try:
                ok = split_recurrence_holds(t, k)
            except ValueError:
                continue
            assert ok
            done += 1
        assert done, "no applicable split found"
        return f"{done} trees"

    def tripartition_identity() -> str:
        done = 0
        attempts = 0
        while done < min(samples, 40) and attempts < 20 * samples:
            attempts += 1
            k = rng.randrange(3, max(4, kmax + 1))
            n = rng.randrange(3 * k, 3 * k + 6)
            t = sample_tree(n)
            apps = applicable_tripartitions(t, k)
            if not apps:
                continue
            assert tripartition_identity_holds(t, apps[0], k)
            done += 1
        assert done, "no applicable tripartition found"
        return f"{done} identities"

    def cherry_bound() -> str:
        cases = 0
        for _ in range(min(samples, 80)):
            n = rng.randrange(6, 18)
            t = sample_tree(n)
            cherries = len(t.cherries())
            bound = fully_loaded_count(2 * n - 2 * cherries, 3)
            assert count_convex(t, 3) <= bound
            cases += 1
        return f"{cases} trees"

    def two_block_floor() -> str:
        cases = 0
        for k in range(2, kmax + 2):
            for _ in range(10):
                n = rng.randrange(3 * k - 2, 3 * k + 6)
                t = sample_tree(n)
                assert count_convex(t, k) >= 2
                cases += 1
        return f"{cases} trees"

    def enumeration_consistency() -> str:
        checked = 0
        for _ in range(min(samples, 30)):
            n = rng.randrange(4, min(10, nmax) + 1)
            t = sample_tree(n)
            for k in range(1, kmax + 1):
                chars = list(enumerate_convex(t, k))
                assert len(chars) == count_convex(t, k)
                encs = [stream_encoding(t, f) for f in chars]
                assert all(x < y for x, y in zip(encs, encs[1:]))
                small_sides = [
                    frozenset(sp.side_b)
                    for sp in t.splits()
                    if len(sp.side_b) <= k
                ]
                for f in chars:
                    assert f.min_block_size >= k
                    assert parsimony_score(t, f) == f.block_count - 1
                    for side in small_sides:
                        assert any(side <= frozenset(b) for b in f.blocks)
                checked += 1
        return f"{checked} trees"

    def growth_rates() -> str:
        rates = [growth_rate(k) for k in range(1, 13)]
        for r in rates[1:]:
            assert r.residual <= 1e-12
        for prev, nxt in zip(rates, rates[1:]):
            assert nxt.max_rate < prev.max_rate
        for r in rates[2:]:
            assert r.min_rate < r.max_rate
        return "k <= 12"

    check("oracle agreement (dp count == brute force)", oracle_agreement)
    check("closed forms for k=1,2 are topology-free", closed_forms)
    check("small-n counts are 0 below k and 1 below 2k", small_n_constants)
    check("extremal sandwich with both bounds attained", sandwich)
    check("deletion recurrence at size-k splits", deletion_recurrence)
    check("tripartition product identity", tripartition_identity)
    check("cherry bound on k=3 counts", cherry_bound)
    check("two characters guaranteed from n >= 3k-2", two_block_floor)
    check("enumeration: count, order, soundness, superset law", enumeration_consistency)
    check("growth rates: residuals and monotonicity", growth_rates)
    return all(results)

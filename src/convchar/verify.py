"""The paper's identities, each written once, behind ``convchar verify``.

Every check is one plain function: it takes explicit trees or parameters,
returns a short detail string and raises ``AssertionError`` naming the
failing case.  ``CATALOGUE`` lists them under the names that
``convchar verify`` prints.  :func:`run_verification` only draws samples
from its seed and reports one PASS/FAIL line per entry; the acceptance suite
and the unit tests call the same functions on their own fixed seeds, and
``tests/test_verify.py`` fails if an entry runs on only one of the two sides.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace
from itertools import chain, permutations, product
from typing import Callable, Iterable, Sequence

from .bruteforce import _guard as _oracle_guard
from .bruteforce import brute_count
from .characters import enumerate_convex, is_convex, parsimony_score, stream_encoding
from .counting import (
    caterpillar_count,
    count_closed_k1,
    count_closed_k2,
    count_convex,
    fully_loaded_count,
    growth_rate,
)
from .generators import (
    FullyLoadedSpec,
    all_topologies,
    caterpillar,
    default_labels,
    fully_loaded,
    linearize,
    random_tree,
    replace_pendant_fully_loaded,
)
from .trees import Tree

Cases = Iterable[tuple[Tree, int]]


def _case(tree: Tree, k: int) -> str:
    return f"{tree.canonical_newick()} at k={k}"


def split_recurrence_holds(tree: Tree, k: int) -> bool:
    """Check the deletion identity at a split with a side of exactly k taxa.

    For a split A|B with |A| = k and any x in A, the count equals the count
    after deleting A plus the count after deleting x.  Raises if the tree
    has no size-k side.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    sides = (side for sp in tree.splits() for side in (sp.side_a, sp.side_b))
    block = next((side for side in sides if len(side) == k), None)
    if block is None:
        raise ValueError(f"tree has no split with a side of size {k}")
    x = min(block)
    lhs = count_convex(tree, k)
    rhs = count_convex(tree.delete(block), k) + count_convex(tree.delete({x}), k)
    return lhs == rhs


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
    return [
        replace(tp, part_a=a, part_b=b, part_c=c)
        for tp in tree.tripartitions()
        for b, c, a in permutations(tp.parts)
        if len(b) == k - 1 and 1 <= len(c) <= k - 1 and len(a) > 2 * (k - 1)
    ]


def _first_applicable(cases: Cases, want: int, check: Callable[[Tree, int], bool]) -> str:
    """Run ``check`` on cases until it applied to ``want`` of them; it
    returns False on a case it does not apply to."""
    done = 0
    for tree, k in cases:
        done += check(tree, k)
        if done == want:
            break
    assert done, "no applicable case found"
    return f"{done} trees"


def oracle_agreement(trees: Iterable[Tree], ks: Sequence[int]) -> str:
    """The DP count equals the brute-force count at every k in ``ks``."""
    trees = list(trees)
    for t, k in product(trees, ks):
        dp, brute = count_convex(t, k), brute_count(t, k)
        assert dp == brute, f"{_case(t, k)}: dp {dp} != brute force {brute}"
    return f"{len(trees)} trees, k <= {max(ks)}"


def closed_forms(trees: Iterable[Tree]) -> str:
    """Kelk and Stamoulis: every n-taxon tree has F(2n-1) convex characters
    and F(n-1) with all blocks of at least 2 taxa, whatever its shape."""
    trees = list(trees)
    for t in trees:
        got = count_convex(t, 1), count_convex(t, 2)
        want = count_closed_k1(t.n), count_closed_k2(t.n)
        assert got == want, f"{t.canonical_newick()}: k=1,2 counts {got} != {want}"
    return f"{len(trees)} trees"


def exhaustive_extremes(ns: Iterable[int], ks: Sequence[int]) -> str:
    """The extremal theorem over every topology: on each of the (2n-5)!!
    trees of n taxa the k = 1, 2 closed forms hold, and for each k <= n in
    ``ks`` the least count is fully_loaded_count(n, k) and the greatest
    caterpillar_count(n, k).  One pass over the topologies serves both."""
    seen = 0
    for n in ns:
        counts = {k: set() for k in ks if k <= n}
        trees = 0
        for trees, t in enumerate(all_topologies(default_labels(n)), 1):
            closed_forms((t,))
            for k, found in counts.items():
                found.add(count_convex(t, k))
        want = math.prod(range(1, 2 * n - 4, 2))
        assert trees == want, f"{trees} topologies on {n} taxa, not (2n-5)!! = {want}"
        for k, found in counts.items():
            got = min(found), max(found)
            bounds = fully_loaded_count(n, k), caterpillar_count(n, k)
            assert got == bounds, f"n={n} k={k}: counts span {got}, not {bounds}"
        seen += trees
    return f"{seen} topologies"


def small_n_counts(cases: Cases) -> str:
    """A tree with n < 2k taxa has no character when n < k and only the
    one-block character otherwise."""
    cases = list(cases)
    for t, k in cases:
        got = count_convex(t, k)
        assert got == int(t.n >= k), f"{_case(t, k)}: {got} characters"
    return f"{len(cases)} cases"


def extremal_sandwich(trees: Iterable[Tree], ks: Sequence[int]) -> str:
    """fully_loaded_count(n, k) <= count <= caterpillar_count(n, k), and at
    every n seen a fully k-loaded tree and the caterpillar attain the two
    bounds.  Pairs with k > n, where every count is 0, are skipped."""
    bounds = {}
    done = 0
    for t, k in product(trees, ks):
        n = t.n
        if k > n:
            continue
        if (n, k) not in bounds:
            bounds[n, k] = fully_loaded_count(n, k), caterpillar_count(n, k)
            attained = count_convex(fully_loaded(n, k), k), count_convex(caterpillar(n), k)
            assert attained == bounds[n, k], f"n={n} k={k}: extremes count {attained}"
        lo, hi = bounds[n, k]
        got = count_convex(t, k)
        assert lo <= got <= hi, f"{_case(t, k)}: {got} outside [{lo}, {hi}]"
        done += 1
    return f"{done} bounds"


def deletion_recurrence(cases: Cases, want: int) -> str:
    """:func:`split_recurrence_holds` on the first ``want`` cases with a
    split side of exactly k taxa."""

    def check(t: Tree, k: int) -> bool:
        try:
            holds = split_recurrence_holds(t, k)
        except ValueError:  # no side of k taxa
            return False
        assert holds, f"{_case(t, k)}: deletion identity fails"
        return True

    return _first_applicable(cases, want, check)


def tripartition_identity(cases: Cases, want: int) -> str:
    """:func:`tripartition_identity_holds` at the first applicable role
    assignment of the first ``want`` cases that have one."""

    def check(t: Tree, k: int) -> bool:
        apps = applicable_tripartitions(t, k)
        if apps:
            holds = tripartition_identity_holds(t, apps[0], k)
            assert holds, f"{_case(t, k)}: product identity fails at {apps[0]}"
        return bool(apps)

    return _first_applicable(cases, want, check)


def cherry_bound(trees: Iterable[Tree]) -> str:
    """A tree with c cherries has at most fully_loaded_count(2n - 2c, 3)
    characters at k = 3."""
    trees = list(trees)
    for t in trees:
        bound, got = fully_loaded_count(2 * t.n - 2 * len(t.cherries()), 3), count_convex(t, 3)
        assert got <= bound, f"{_case(t, 3)}: {got} > {bound}"
    return f"{len(trees)} trees"


def two_block_floor(cases: Cases) -> str:
    """A tree with n >= 3k - 2 taxa has at least two characters at k."""
    cases = list(cases)
    for t, k in cases:
        got = count_convex(t, k)
        assert got >= 2, f"{_case(t, k)}: only {got} characters"
    return f"{len(cases)} trees"


def enumeration_consistency(trees: Iterable[Tree], ks: Sequence[int]) -> str:
    """The stream holds count_convex characters in strictly increasing
    encoding; each has blocks of >= k taxa, is convex with parsimony score
    blocks - 1, and keeps every split side of <= k taxa inside one block."""
    trees = list(trees)
    for t, k in product(trees, ks):
        chars = list(enumerate_convex(t, k))
        assert len(chars) == count_convex(t, k), f"{_case(t, k)}: stream length != count"
        encs = [stream_encoding(t, c) for c in chars]
        assert all(x < y for x, y in zip(encs, encs[1:])), f"{_case(t, k)}: order broken"
        small_sides = [sp.side_b for sp in t.splits() if len(sp.side_b) <= k]
        for c in chars:
            where = f"{_case(t, k)}: {c.text()}"
            assert c.min_block_size >= k, f"{where} has a small block"
            assert is_convex(t, c), f"{where} is not convex"
            assert parsimony_score(t, c) == c.block_count - 1, f"{where} is not parsimonious"
            for side in small_sides:
                assert any(side <= frozenset(b) for b in c.blocks), f"{where} cuts {set(side)}"
    return f"{len(trees)} trees"


def growth_rates(kmax: int) -> str:
    """The caterpillar rate solves x^k - x^(k-1) - 1 = 0 to 1e-12 and falls
    strictly with k; from k = 3 it exceeds the fully loaded rate."""
    rates = [growth_rate(k) for k in range(1, kmax + 1)]
    assert rates[0].residual == 0.0
    for r in rates[1:]:
        assert r.residual <= 1e-12, f"k={r.k}: residual {r.residual}"
    for prev, nxt in zip(rates, rates[1:]):
        assert nxt.max_rate < prev.max_rate, f"k={nxt.k}: max rate does not fall"
    for r in rates[2:]:
        assert r.min_rate < r.max_rate, f"k={r.k}: min rate >= max rate"
    return f"k <= {kmax}"


def linearize_monotone(cases: Cases, want: int) -> str:
    """Linearizing the first tripartition with 2 <= |C| < k and |A|, |B| >= 2
    never lowers the count at k, on the first ``want`` cases that have one."""

    def check(t: Tree, k: int) -> bool:
        for tp in t.tripartitions():
            for c in tp.parts:
                a, b = (p for p in tp.parts if p != c)
                if 2 <= len(c) < k and len(a) >= 2 and len(b) >= 2:
                    out = linearize(t, replace(tp, part_a=a, part_b=b, part_c=c))
                    before, after = count_convex(t, k), count_convex(out, k)
                    assert after >= before, f"{_case(t, k)}: linearize lowers {before} to {after}"
                    return True
        return False

    return _first_applicable(cases, want, check)


def pendant_replacement_monotone(cases: Cases) -> str:
    """Replacing the pendant subtree beyond ``bounded_split(k)`` by a fully
    k-loaded one keeps the taxa and never raises the count at k (n > k)."""
    cases = list(cases)
    for t, k in cases:
        out = replace_pendant_fully_loaded(t, t.bounded_split(k), k)
        before, after = count_convex(t, k), count_convex(out, k)
        assert out.taxa == t.taxa and after <= before, f"{_case(t, k)}: {before} -> {after}"
    return f"{len(cases)} trees"


def fully_loaded_shapes(ns: Iterable[int], ks: Sequence[int], seed: int) -> str:
    """Five distinct randomized fully k-loaded trees per (n, k), drawn with
    ``random.Random(seed)``, all have fully_loaded_count(n, k) characters.
    Pairs with k > n are skipped."""
    shapes = 5
    rng = random.Random(seed)
    done = 0
    for n, k in product(ns, ks):
        if k > n:
            continue
        trees = {}
        for _ in range(200):
            t = fully_loaded(n, k, spec=FullyLoadedSpec.randomized(default_labels(n), k, rng))
            trees[t.canonical_newick()] = t
            if len(trees) == shapes:
                break
        assert len(trees) == shapes, f"n={n} k={k}: {len(trees)} shapes in 200 draws"
        for t in trees.values():
            got, want = count_convex(t, k), fully_loaded_count(n, k)
            assert got == want, f"{_case(t, k)}: {got} != {want}"
        done += shapes
    return f"{done} shapes"


CATALOGUE: tuple[tuple[str, Callable[..., str]], ...] = (
    ("oracle agreement (dp count == brute force)", oracle_agreement),
    ("closed forms for k=1,2 are topology-free", closed_forms),
    ("small-n counts are 0 below k and 1 below 2k", small_n_counts),
    ("extremal sandwich with both bounds attained", extremal_sandwich),
    ("extremes over all topologies are fully loaded and caterpillar", exhaustive_extremes),
    ("deletion recurrence at size-k splits", deletion_recurrence),
    ("tripartition product identity", tripartition_identity),
    ("cherry bound on k=3 counts", cherry_bound),
    ("two characters guaranteed from n >= 3k-2", two_block_floor),
    ("enumeration: count, order, soundness, superset law", enumeration_consistency),
    ("growth rates: residuals and monotonicity", growth_rates),
    ("linearizing never lowers a count", linearize_monotone),
    ("fully loaded pendant replacement never raises a count", pendant_replacement_monotone),
    ("every fully k-loaded shape has the same count", fully_loaded_shapes),
)


def run_verification(
    nmax: int = 9,
    kmax: int = 4,
    samples: int = 200,
    seed: int = 20260810,
    report: Callable[[str], None] = print,
) -> bool:
    """Run every ``CATALOGUE`` check on samples drawn from ``seed``, report
    one PASS/FAIL line each and return whether all passed."""
    rng = random.Random(seed)
    big_ks = range(3, max(4, kmax + 1))  # the k >= 3 of the extremal checks

    def sample(n: int) -> Tree:
        return random_tree(n, seed=rng.randrange(2 ** 60))

    def trees(count: int, lo: int, hi: int) -> Iterable[Tree]:
        return (sample(rng.randrange(lo, hi + 1)) for _ in range(count))

    def cases(count: int, ks: Sequence[int], sizes: Callable[[int], range]) -> Cases:
        for _ in range(count):
            k = rng.choice(ks)
            yield sample(rng.choice(sizes(k))), k

    def oracle_trees() -> Iterable[Tree]:
        _oracle_guard(nmax, 1)  # refuse infeasible nmax before any work
        lo = min(5, nmax)
        for i in range(samples):
            yield sample(lo + i % (nmax - lo + 1))

    # Arguments per catalogue function.  Every sample is drawn lazily, while
    # its check runs, so a guard trip fails that check alone.
    draws = {
        "oracle_agreement": (oracle_trees(), range(1, kmax + 1)),
        "closed_forms": (chain(*(all_topologies(default_labels(n)) for n in (4, 5, 6)),
                               trees(min(samples, 60), 7, max(8, nmax))),),
        "small_n_counts": (((sample(n), k) for k in range(2, kmax + 3) for n in range(3, 2 * k)),),
        "extremal_sandwich": (trees(min(samples, 100), 8, 20), big_ks),
        "exhaustive_extremes": (range(4, min(nmax, 8) + 1), (3, 4, 5)),
        "deletion_recurrence": (
            cases(10 * samples, range(2, kmax + 1), lambda k: range(8, 15)), min(samples, 60)),
        "tripartition_identity": (
            cases(20 * samples, big_ks, lambda k: range(3 * k, 3 * k + 6)), min(samples, 40)),
        "cherry_bound": (trees(min(samples, 80), 6, 17),),
        "two_block_floor": (((sample(rng.randrange(3 * k - 2, 3 * k + 6)), k)
                             for k in range(2, kmax + 2) for _ in range(10)),),
        "enumeration_consistency": (trees(min(samples, 30), 4, min(10, nmax)), range(1, kmax + 1)),
        "growth_rates": (12,),
        "linearize_monotone": (
            cases(10 * samples, big_ks, lambda k: range(10, 15)), min(samples, 60)),
        "pendant_replacement_monotone": (
            cases(min(samples, 60), big_ks, lambda k: range(k + 8, k + 13)),),
        "fully_loaded_shapes": (range(10, 21), big_ks, rng.randrange(2 ** 60)),
    }
    passed = True
    for name, fn in CATALOGUE:
        try:
            detail = fn(*draws[fn.__name__])
            ok = True
        except Exception as exc:  # a failing identity or a guard trip
            detail = f"{type(exc).__name__}: {exc}"
            ok = False
        passed = passed and ok
        report(f"[{'PASS' if ok else 'FAIL'}] {name}  ({detail})")
    return passed

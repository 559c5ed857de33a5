"""Exact counts of convex characters with a minimum block size.

All counts are exact Python ints; the closed forms run on the integer
Fibonacci recurrence, never on floats.  Floating point shows up only in the
growth-rate root finding and in the explicitly guarded float cross-checks.

The core dynamic program roots the tree at its smallest taxon and gives the
edge above each vertex a state: 0 when it is cut (all taxa below already sit
in finished blocks of size >= k), or j = 1..k when one unfinished block
crosses it with j taxa below, j saturating at k, which is sound because only
"at least k" ever matters.  One rule, :func:`_join`, combines the states of
two child edges; the enumeration backtracker reads the same rule.
Total work is O(n * k^2) big-int operations.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from typing import Iterator, Sequence

from .trees import Tree

PHI = (1 + math.sqrt(5)) / 2


def fibonacci(m: int) -> int:
    """F(0)=0, F(1)=F(2)=1, exact."""
    if m < 0:
        raise ValueError("m must be non-negative")
    a, b = 0, 1
    for _ in range(m):
        a, b = b, a + b
    return a


def fibonacci_float_check(m: int) -> int:
    """Redundant float evaluation floor(phi^m / sqrt(5) + 1/2).

    Valid only while the value fits a double exactly (m <= 70); the integer
    recurrence is the authoritative path.
    """
    if not 0 <= m <= 70:
        raise ValueError("float cross-check only trusted for 0 <= m <= 70")
    return math.floor(PHI ** m / math.sqrt(5) + 0.5)


def count_closed_k1(n: int) -> int:
    """Convex characters on any n-taxon tree (topology-free): F(2n-1)."""
    if n < 1:
        raise ValueError("n must be positive")
    return fibonacci(2 * n - 1)


def count_closed_k2(n: int) -> int:
    """Convex characters with every block of size >= 2: F(n-1)."""
    if n < 1:
        raise ValueError("n must be positive")
    return fibonacci(n - 1)


def _join(j1: int, j2: int, k: int) -> tuple[int, ...]:
    """States of the edge above a vertex whose child edges are in states
    ``j1`` and ``j2``: a cut child passes the other's state up, and two open
    blocks merge into one, which may also close once it holds k taxa."""
    if not (j1 and j2):
        return (j1 + j2,)
    s = min(j1 + j2, k)
    return (s, 0) if s == k else (s,)


def _joined_children(tree: Tree) -> tuple[tuple[int, ...], ...]:
    """Children in the rooting at taxon 0, plus a top vertex (id
    ``num_vertices()``) over the root's child c0 and taxon 0: their shared
    edge counts as two child edges that must join into a cut one."""
    children = tree._rooting().children
    return children + ((children[0][0], 0),)


def _dp_tables(tree: Tree, k: int) -> Iterator[tuple[int, Sequence[int]]]:
    """Per-vertex DP vectors for the edge above each vertex.

    Yields ``(v, vec)`` for every vertex, children first and the top vertex
    (see _joined_children) last; ``vec[s]`` counts the partial solutions
    below v with the edge above v in state s, so the top's ``vec[0]`` is
    the count.  A vector is dropped once its parent's is built.  Shared
    with the enumeration backtracker so listing explores no dead branches.
    """
    n = tree.n
    children = _joined_children(tree)
    states = range(k + 1)
    join = [[_join(j1, j2, k) for j2 in states] for j1 in states]
    leaf = (int(k == 1), 1) + (0,) * (k - 1)  # a singleton block needs k == 1
    vecs: list[Sequence[int] | None] = [None] * len(children)
    for v in tree._rooting().postorder + (len(children) - 1,):
        if v < n:
            vec = leaf
        else:
            f, g = children[v]
            vf, vg = vecs[f], vecs[g]
            vecs[f] = vecs[g] = None
            vec = [0] * (k + 1)
            for j1 in states:
                x = vf[j1]
                if not x:
                    continue
                row = join[j1]
                for j2 in states:
                    y = vg[j2]
                    if y:
                        xy = x * y
                        for s in row[j2]:
                            vec[s] += xy
        vecs[v] = vec
        yield v, vec


def count_convex(tree: Tree, k: int = 1) -> int:
    """Number of convex characters of ``tree`` whose blocks all have >= k
    taxa."""
    if k < 1:
        raise ValueError("k must be at least 1")
    n = tree.n
    if n < k:
        return 0
    if n == 1:
        return 1
    for _, vec in _dp_tables(tree, k):
        pass  # the last vector is the top vertex's
    return vec[0]


def caterpillar_count(n: int, k: int) -> int:
    """Count for the n-taxon caterpillar via the linear recurrence
    c(n) = c(n-1) + c(n-k), with c(n)=0 for n<k and 1 for k<=n<2k.

    This is the maximum over all n-taxon trees.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if n < 0:
        raise ValueError("n must be non-negative")
    if n < k:
        return 0
    window = deque([1] * k, maxlen=k)  # c(m-k+1..m), starting at m = 2k-1
    for _ in range(n - 2 * k + 1):
        window.append(window[-1] + window[0])
    return window[-1]


def fully_loaded_count(n: int, k: int) -> int:
    """Count shared by every fully k-loaded tree on n taxa:
    F(ceil(n/(k-1)) - 1).

    This is the minimum over all n-taxon trees.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if n < k:
        raise ValueError("fully loaded count needs n >= k")
    return count_closed_k2(-(-n // (k - 1)))


@dataclass(frozen=True)
class GrowthRate:
    """Exponential growth rates of the extremal counts for one k.

    ``max_rate`` is the positive real root of x^k - x^(k-1) - 1 (caterpillar
    growth); ``min_rate`` is phi^(1/(k-1)) (fully loaded growth).  For k = 1
    both rates are phi^2 and the residual is 0 by definition, since the
    characteristic polynomial belongs to the caterpillar recurrence for
    k >= 2 only.
    """

    k: int
    min_rate: float
    max_rate: float
    residual: float


def _bisect_root(f, lo: float, hi: float) -> float:
    """Root of ``f`` in (lo, hi), where ``f`` is negative below the root and
    positive above it."""
    for _ in range(200):
        mid = (lo + hi) / 2
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if fmid < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def growth_rate(k: int) -> GrowthRate:
    if k < 1:
        raise ValueError("k must be at least 1")
    if k == 1:
        r = PHI * PHI
        return GrowthRate(1, r, r, 0.0)
    # x^k - x^(k-1) - 1 = x^(k-1) (x-1) - 1 has the sign of the logarithm
    # below on (1, 2]; x**k itself overflows a float at the first midpoint,
    # 1.5, once k > 1750.
    alpha = _bisect_root(lambda x: (k - 1) * math.log(x) + math.log(x - 1), 1.0, 2.0)
    residual = abs(alpha ** k - alpha ** (k - 1) - 1)
    return GrowthRate(k, PHI ** (1.0 / (k - 1)), alpha, residual)


def _round3(x: float) -> str:
    return str(Decimal(repr(x)).quantize(Decimal("0.001"), rounding=ROUND_HALF_UP))


def rate_table(kmax: int) -> list[GrowthRate]:
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    return [growth_rate(k) for k in range(1, kmax + 1)]


def rate_table_tsv(kmax: int) -> str:
    """TSV rows ``k<TAB>min_rate<TAB>max_rate``, three decimals, half-up."""
    return "\n".join(
        f"{r.k}\t{_round3(r.min_rate)}\t{_round3(r.max_rate)}"
        for r in rate_table(kmax)
    )


def _k3_closed_constants() -> tuple[float, float]:
    """(alpha, c) for the size-3 caterpillar closed form c * alpha^n.

    alpha is the real root of x^3 - x^2 - 1; c is the real root of
    31x^3 - 31x^2 + 9x - 1 divided by alpha^3, which rebases the standard
    recurrence constant to taxon counts.
    """
    alpha = growth_rate(3).max_rate
    num = _bisect_root(lambda x: 31 * x ** 3 - 31 * x ** 2 + 9 * x - 1, 0.0, 1.0)
    return alpha, num / alpha ** 3


def caterpillar_closed_k3(n: int) -> int:
    """floor(c * alpha^n + 1/2) cross-check of caterpillar_count(n, 3).

    Double precision keeps the floor exact well past n = 60; refuse beyond.
    """
    if not 0 <= n <= 60:
        raise ValueError("closed form trusted for 0 <= n <= 60 only")
    alpha, c = _k3_closed_constants()
    return math.floor(c * alpha ** n + 0.5)


def split_recurrence_holds(tree: Tree, k: int) -> bool:
    """Check the deletion identity at a split with a side of exactly k taxa.

    For a split A|B with |A| = k and any x in A, the count equals the count
    after deleting A plus the count after deleting x.  Raises if the tree
    has no size-k side.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    block = None
    for sp in tree.splits():
        if len(sp.side_a) == k:
            block = sp.side_a
            break
        if len(sp.side_b) == k:
            block = sp.side_b
            break
    if block is None:
        raise ValueError(f"tree has no split with a side of size {k}")
    x = min(block)
    lhs = count_convex(tree, k)
    rhs = count_convex(tree.delete(block), k) + count_convex(tree.delete({x}), k)
    return lhs == rhs

"""Exact counts of convex characters with a minimum block size.

All counts are exact Python ints; the closed forms run on the integer
Fibonacci recurrence, never on floats.  Floating point shows up only in the
growth-rate root finding and in the explicitly guarded float cross-checks.

The core dynamic program roots the tree at its smallest taxon and gives the
edge above each vertex a state: 0 when it is cut (all taxa below already sit
in finished blocks of size >= k), or j = 1..k when one unfinished block
crosses it with j taxa below, j saturating at k, which is sound because only
"at least k" ever matters.  The edge rule: child edges in states j1 and j2
put the edge above them in state min(j1 + j2, k), as a cut child passes the
other's state up and two open blocks merge; when both were open and the sum
reaches k, the block may also close, state 0.  :func:`_dp_tables` applies it
to whole vectors, :func:`_partners` in mask form for the enumeration, and
:func:`_join` pointwise, as the tests' reference.  The block stream of
``characters`` also applies it per pair of child states in min-plus form,
for the fewest blocks that close below each edge state: a floor on the block
count of every character below a choice point, where the pruned scans of
``solvers`` cut.  Vectors stop at min(k, taxa below), so the DP's big-int
work is O(n * k) by the subtree-size argument.
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
    ``j1`` and ``j2``, by the edge rule (module docstring): the pointwise
    reference the tests hold the DP and :func:`_partners` to."""
    if not (j1 and j2):
        return (j1 + j2,)
    s = min(j1 + j2, k)
    return (s, 0) if s == k else (s,)


def _partners(J: int, S: int, k: int) -> int:
    """The edge rule (module docstring) in mask form, bit s for state s:
    the states j2 of one child edge for which ``_join(j1, j2, k)`` meets
    the allowed set ``S`` for some state j1 of the other in the mask ``J``.
    O(1) int operations, plus one shift per state of ``J`` in 1..k-2."""
    m = S if J & 1 else 0  # j1 = 0 passes j2 up
    J &= -2
    if J:
        if J & S:  # j2 = 0 passes j1 up
            m |= 1
        if S & (1 | 1 << k):  # two open blocks that reach k may end in S
            m |= (1 << k + 1) - (1 << max(k - J.bit_length() + 1, 1))
        # below k, j1 + j2 must be a state of S: j2 is a bit of low >> j1
        low, J = S & (1 << k) - 1, J & (1 << k - 1) - 1
        while J:
            j1 = J & -J
            m |= low >> j1.bit_length() - 1
            J ^= j1
    return m


def _joined_children(tree: Tree) -> tuple[tuple[int, ...], ...]:
    """Children in the rooting at taxon 0, plus a top vertex (id
    ``num_vertices()``) over the root's child c0 and taxon 0: their shared
    edge counts as two child edges that must join into a cut one."""
    children = tree._children
    return children + ((children[0][0], 0),)


def _dp_tables(tree: Tree, k: int) -> Iterator[tuple[int, Sequence[int]]]:
    """Per-vertex DP vectors for the edge above each vertex.

    Yields ``(v, vec)`` for every vertex, children first in the order of
    the trees module docstring, and the top vertex (see _joined_children)
    last; ``vec[s]`` counts the partial solutions below v with the edge
    above v in state s <= min(k, taxa below v), so the top's ``vec[0]`` is
    the count.  Sums of states saturate at k, and ``vec[0]`` also gains the
    part of ``vec[k]`` where both child edges were open.  A vector is
    dropped once its parent's is built.  Shared with the enumeration
    backtracker so listing explores no dead branches.
    """
    n = tree.n
    children = _joined_children(tree)
    cap = [min(s, k) for s in range(2 * k + 1)]  # sums of two states, saturating
    leaf = (int(k == 1), 1)  # a singleton block needs k == 1
    vecs: list[Sequence[int] | None] = [None] * len(children)
    top = len(children) - 1
    for v in (*range(1, n), *range(top - 1, n - 1, -1), 0, top):
        if v < n:
            vec = leaf
        else:
            f, g = children[v]
            vf, vg = vecs[f], vecs[g]
            vecs[f] = vecs[g] = None
            vec = [0] * (cap[len(vf) + len(vg) - 2] + 1)
            for j1, x in enumerate(vf):
                if x:
                    for s, y in enumerate(vg, j1):
                        if y:
                            vec[cap[s]] += x * y
            if len(vec) > k:  # two open blocks that reach k may also close
                vec[0] += vec[k]
                if vf[0] and len(vg) > k:
                    vec[0] -= vf[0] * vg[k]
                if vg[0] and len(vf) > k:
                    vec[0] -= vf[k] * vg[0]
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


def _decimal_digits(value: int) -> str:
    """``str(value)`` at any size.  Past the interpreter's int-to-str digit
    limit the digits come from ``Decimal``, whose int constructor is exact
    and unlimited; the limit itself is never changed."""
    try:
        return str(value)
    except ValueError:
        return str(Decimal(value))


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


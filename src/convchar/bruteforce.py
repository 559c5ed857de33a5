"""Brute-force ground truth: enumerate all set partitions and filter.

Deliberately the slow, obviously-correct path.  Partitions are produced in
restricted-growth order (each new block index first appears after all
smaller ones) with one pruning rule: a partial partition dies as soon as the
remaining taxa cannot top up every undersized block.  A hard size guard
keeps the Bell-number blowup out of reach.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator, Sequence

from .characters import Character
from .trees import Tree

MAX_TAXA = 14


def _mask_partitions(n: int, min_block: int) -> Iterator[tuple[int, ...]]:
    """All partitions of {0..n-1} with blocks of >= min_block elements, as
    tuples of bitmasks in restricted-growth order."""
    blocks: list[int] = []
    sizes: list[int] = []

    def rec(i: int, deficit: int):
        if i == n:
            yield tuple(blocks)
            return
        rem = n - i - 1
        bit = 1 << i
        for idx in range(len(blocks)):
            d = deficit - (1 if sizes[idx] < min_block else 0)
            if d <= rem:
                blocks[idx] |= bit
                sizes[idx] += 1
                yield from rec(i + 1, d)
                sizes[idx] -= 1
                blocks[idx] ^= bit
        d = deficit + min_block - 1
        if d <= rem:
            blocks.append(bit)
            sizes.append(1)
            yield from rec(i + 1, d)
            blocks.pop()
            sizes.pop()

    yield from rec(0, 0)


def _convex(tree: Tree, masks: Sequence[int]) -> bool:
    """Convexity of a partition of the tree's taxa given as block masks, by
    counting the blocks each internal edge splits: the definition, edge by
    edge, where ``is_convex`` uses one Fitch pass instead.

    The internal edges are those above the internal vertices but c0, the
    first of them (vertex n, see the trees module): c0's edge is taxon 0's
    leaf edge, which only the block holding taxon 0 can split.  Leaving it
    out changes no answer and keeps the loop to the edges that can."""
    for em in islice(tree._below(), tree.n + 1, None):
        crossing = 0
        for bm in masks:
            x = em & bm
            if x and x != bm:
                crossing += 1
                if crossing == 2:
                    return False
    return True


def _guard(n: int, min_block: int) -> None:
    if n > MAX_TAXA:
        raise ValueError(f"brute force is limited to {MAX_TAXA} taxa, got {n}")
    if min_block < 1:
        raise ValueError("min_block must be at least 1")


def all_partitions(taxa: Sequence[str], min_block: int = 1) -> Iterator[Character]:
    """Every partition of ``taxa`` with all blocks >= min_block, exactly
    once.  With min_block=1 the stream has Bell(n) entries; with
    min_block > n it is empty."""
    taxa = list(taxa)
    if len(set(taxa)) != len(taxa):
        raise ValueError("taxa must be distinct")
    _guard(len(taxa), min_block)
    for blocks in _mask_partitions(len(taxa), min_block):
        yield Character(
            [taxa[i] for i in range(len(taxa)) if bm >> i & 1] for bm in blocks
        )


def brute_count(tree: Tree, k: int) -> int:
    """|{partitions with blocks >= k that are convex on tree}|, by
    exhaustive filtering with the edge-crossing test (no DP, no Fitch
    pass); 0 when k > n."""
    _guard(tree.n, k)
    return sum(1 for blocks in _mask_partitions(tree.n, k) if _convex(tree, blocks))

"""Characters (leaf partitions), convexity, parsimony and streaming
enumeration.

A character is convex when the minimal spanning subtrees of its blocks are
pairwise disjoint.  In a binary tree that reduces to an edge condition: no
edge may lie on the spanning subtrees of two different blocks, and only
edges with two internal endpoints can ever conflict.

``enumerate_convex`` streams every convex character with minimum block size
k exactly once by backtracking over the counting DP's per-edge vectors, so
no dead branch is ever entered and the stream is output-sensitive.  The
stream order is lexicographic in the character's canonical edge-usage
encoding (see :func:`stream_encoding`).  The backtracker yields block
bitmasks; only ``enumerate_convex`` turns them into ``Character`` objects.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .counting import _dp_tables
from .trees import Tree, _ensure_stack


class Character:
    """A partition of a taxon set into non-empty blocks, canonically ordered.

    Blocks are sorted by their smallest taxon and taxa are sorted within
    each block.  Text form joins taxa with "," and blocks with "|".
    """

    __slots__ = ("_blocks",)

    def __init__(self, blocks: Iterable[Iterable[str]]):
        plain = [tuple(sorted(b)) for b in blocks]
        if not plain or any(not b for b in plain):
            raise ValueError("blocks must be non-empty")
        canon = sorted(plain, key=lambda b: b[0])
        seen: set[str] = set()
        for b in canon:
            for t in b:
                if t in seen:
                    raise ValueError(f"taxon {t!r} appears in two blocks")
                seen.add(t)
        self._blocks = tuple(canon)

    @property
    def blocks(self) -> tuple[tuple[str, ...], ...]:
        return self._blocks

    @property
    def block_count(self) -> int:
        return len(self._blocks)

    @property
    def min_block_size(self) -> int:
        return min(len(b) for b in self._blocks)

    @property
    def taxa(self) -> frozenset[str]:
        return frozenset(t for b in self._blocks for t in b)

    def text(self) -> str:
        return "|".join(",".join(b) for b in self._blocks)

    def to_lists(self) -> list[list[str]]:
        return [list(b) for b in self._blocks]

    @classmethod
    def parse(cls, text: str, taxa: Iterable[str] | None = None) -> "Character":
        """Parse "a,b|c" text.  With ``taxa`` given and all labels single
        characters, the compact "ab|c" form is accepted as well."""
        universe = set(taxa) if taxa is not None else None
        blocks = []
        for token in text.split("|"):
            token = token.strip()
            if "," in token:
                blocks.append([t.strip() for t in token.split(",")])
            elif universe is not None and token not in universe and all(
                c in universe for c in token
            ):
                blocks.append(list(token))
            else:
                blocks.append([token])
        return cls(blocks)

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"Character({self.text()!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Character):
            return NotImplemented
        return self._blocks == other._blocks

    def __hash__(self) -> int:
        return hash(self._blocks)


def _block_masks(tree: Tree, f) -> list[int]:
    if not isinstance(f, Character):
        f = Character(f)
    if f.taxa != tree.taxa:
        raise ValueError("character is not a partition of the tree's taxa")
    return [tree._mask_of(b) for b in f.blocks]


def _to_character(labels: tuple[str, ...], masks: Iterable[int]) -> Character:
    out = []
    for bm in masks:
        block = []
        while bm:
            low = bm & -bm
            block.append(labels[low.bit_length() - 1])
            bm ^= low
        out.append(block)
    return Character(out)


def _convex(tree: Tree, masks: Sequence[int]) -> bool:
    """Convexity of a partition of the tree's taxa given as block masks."""
    for em in tree._internal_edge_masks():
        crossing = 0
        for bm in masks:
            x = em & bm
            if x and x != bm:
                crossing += 1
                if crossing == 2:
                    return False
    return True


def _parsimony(tree: Tree, masks: Sequence[int]) -> int:
    """Fitch score of a partition given as block masks (see parsimony_score)."""
    n = tree.n
    if n == 1:
        return 0
    block_of = [0] * n
    for bi, bm in enumerate(masks):
        while bm:
            low = bm & -bm
            block_of[low.bit_length() - 1] = bi
            bm ^= low
    rd = tree._rooting()
    states = [0] * tree.num_vertices()
    score = 0
    for v in rd.postorder:
        if v == 0:
            continue
        if v < n:
            states[v] = 1 << block_of[v]
        else:
            a, b = (states[c] for c in rd.children[v])
            inter = a & b
            if inter:
                states[v] = inter
            else:
                states[v] = a | b
                score += 1
    if not states[rd.children[0][0]] & (1 << block_of[0]):
        score += 1
    return score


def is_convex(tree: Tree, f) -> bool:
    """True iff the blocks' minimal spanning subtrees are pairwise disjoint."""
    return _convex(tree, _block_masks(tree, f))


def parsimony_score(tree: Tree, f) -> int:
    """Minimum number of edges whose endpoints get different block labels,
    over all extensions of the leaf labelling to internal vertices (Fitch
    bottom-up on an arbitrary leaf rooting).

    Always >= block_count - 1, with equality exactly for convex characters.
    """
    return _parsimony(tree, _block_masks(tree, f))


def _block_stream(tree: Tree, k: int) -> Iterator[tuple[int, ...]]:
    """Block-mask tuples of every convex character of ``tree`` with min
    block size >= k, in stream order (see enumerate_convex)."""
    if k < 1:
        raise ValueError("k must be at least 1")
    n = tree.n
    if n < k:
        return
    if n == 1:
        yield (1,)
        return
    _ensure_stack(2 * tree.num_vertices())
    cut, opn = _dp_tables(tree, k)
    rd = tree._rooting()
    children = rd.children

    def emit_cut(v: int):
        # All taxa below v sit in finished blocks; yields block-mask tuples.
        if v < n:
            yield (1 << v,)
            return
        f, g = children[v]
        if cut[f] and cut[g]:
            for bf in emit_cut(f):
                for bg in emit_cut(g):
                    yield bf + bg
        of, og = opn[f], opn[g]
        j1s = [
            j1
            for j1 in range(1, k + 1)
            if of[j1] and any(og[j2] for j2 in range(max(1, k - j1), k + 1))
        ]
        if j1s:
            for bf, mf, j1 in emit_open(f, j1s):
                j2s = [j2 for j2 in range(max(1, k - j1), k + 1) if og[j2]]
                for bg, mg, _ in emit_open(g, j2s):
                    yield bf + bg + (mf | mg,)

    def emit_open(v: int, js: list[int]):
        # One unfinished block crosses the edge above v with j taxa below,
        # j restricted to ``js``; yields (blocks, open_mask, j).
        if v < n:
            yield (), 1 << v, 1
            return
        f, g = children[v]
        of, og = opn[f], opn[g]
        cf, cg = cut[f], cut[g]
        if cf:
            jg = [j for j in js if og[j]]
            if jg:
                for bf in emit_cut(f):
                    for bg, mg, j in emit_open(g, jg):
                        yield bf + bg, mg, j
        if cg:
            jf = [j for j in js if of[j]]
            if jf:
                for bf, mf, j in emit_open(f, jf):
                    for bg in emit_cut(g):
                        yield bf + bg, mf, j
        wanted = set(js)
        j1s = [
            j1
            for j1 in range(1, k + 1)
            if of[j1]
            and any(og[j2] and min(j1 + j2, k) in wanted for j2 in range(1, k + 1))
        ]
        if j1s:
            for bf, mf, j1 in emit_open(f, j1s):
                j2s = [
                    j2
                    for j2 in range(1, k + 1)
                    if og[j2] and min(j1 + j2, k) in wanted
                ]
                for bg, mg, j2 in emit_open(g, j2s):
                    yield bf + bg, mf | mg, min(j1 + j2, k)

    c0 = children[0][0]
    if k == 1 and cut[c0]:
        for blocks in emit_cut(c0):
            yield blocks + (1,)
    js = [j for j in range(max(1, k - 1), k + 1) if opn[c0][j]]
    if js:
        for blocks, om, _ in emit_open(c0, js):
            yield blocks + (om | 1,)


def enumerate_convex(tree: Tree, k: int = 1) -> Iterator[Character]:
    """Stream every convex character of ``tree`` with min block size >= k,
    exactly once.

    Backtracks over the counting DP's per-edge vectors: a branch is entered
    only when its count is positive, so total work is proportional to the
    output.  Characters arrive in increasing canonical edge-usage encoding;
    the stream is single-consumer, but independent streams over the same
    tree are safe.
    """
    labels = tree.labels
    for masks in _block_stream(tree, k):
        yield _to_character(labels, masks)


def stream_encoding(tree: Tree, f) -> tuple[int, ...]:
    """Canonical edge-usage encoding of a character.

    One bit per edge, 1 when some block's spanning subtree uses the edge,
    in the canonical decision order of the enumeration (edge above the
    root's child first, then recursively at each vertex both child edges
    followed by the two subtrees).  Distinct characters of one tree have
    distinct encodings, and ``enumerate_convex`` yields in strictly
    increasing encoding order.
    """
    masks = _block_masks(tree, f)
    rd = tree._rooting()
    n = tree.n

    c0 = rd.children[0][0]
    decision: list[int] = [c0]

    def emit(v: int) -> None:
        if v < n:
            return
        f_, g_ = rd.children[v]
        decision.extend((f_, g_))
        emit(f_)
        emit(g_)

    _ensure_stack(2 * tree.num_vertices())
    emit(c0)

    bits = []
    for v in decision:
        em = rd.below[v]
        used = 0
        for bm in masks:
            x = em & bm
            if x and x != bm:
                used = 1
                break
        bits.append(used)
    return tuple(bits)

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
bitmasks, and ``_decode`` is the one way back to labels: ``_rendered`` decodes
and renders each distinct block once per stream for ``enumerate_convex`` and
the CLI's ``list``, and a solver decodes its answer.  ``Character`` objects
built from masks go through the trusted ``Character._canonical``.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .counting import _dp_tables, _join, _joined_children
from .trees import Tree

R = TypeVar("R")


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

    @classmethod
    def _canonical(cls, blocks: tuple[tuple[str, ...], ...]) -> "Character":
        """Trusted constructor: ``blocks`` are already sorted label tuples in
        canonical order, a partition of their taxa; nothing is checked."""
        ch = object.__new__(cls)
        ch._blocks = blocks
        return ch

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


def _partition(tree: Tree, f) -> Character:
    if not isinstance(f, Character):
        f = Character(f)
    if f.taxa != tree.taxa:
        raise ValueError("character is not a partition of the tree's taxa")
    return f


def _block_masks(tree: Tree, f) -> list[int]:
    return [tree._mask_of(b) for b in _partition(tree, f).blocks]


def _decode(labels: tuple[str, ...], bm: int) -> tuple[str, ...]:
    """Labels of a block mask in taxon-id order, which is sorted label order."""
    out = []
    while bm:
        low = bm & -bm
        out.append(labels[low.bit_length() - 1])
        bm ^= low
    return tuple(out)


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
    block size >= k, in stream order (see enumerate_convex).

    Explicit-stack backtracking over the DP's edge states (counting._join):
    an option fixes each child edge cut or open, f before g in encoding
    order, and g's allowed states follow from the state f reached.  Open
    blocks keep their taxa on a linked stack, so merging costs nothing.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    n = tree.n
    if n < k:
        return
    if n == 1:
        yield (1,)
        return
    children = _joined_children(tree)
    support = [0] * len(children)  # states with a nonzero count
    for v, vec in _dp_tables(tree, k):
        support[v] = sum(1 << s for s, x in enumerate(vec) if x)
    states = range(k + 1)
    join = [[sum(1 << s for s in _join(j1, j2, k)) for j2 in states] for j1 in states]
    halves = ((0,), range(1, k + 1))  # cut, open

    @cache  # lives as long as this stream
    def options(v: int, S: int) -> list[tuple[int, dict[int, int]]]:
        f, g = children[v]
        out = []
        for f_half, g_half in product(halves, repeat=2):
            g_allowed = {}
            for j1 in f_half:
                if support[f] >> j1 & 1:
                    m = sum(1 << j2 for j2 in g_half if support[g] >> j2 & 1 and join[j1][j2] & S)
                    if m:
                        g_allowed[j1] = m
            if g_allowed:
                out.append((sum(1 << j for j in g_allowed), g_allowed))
        return out

    # Start at the top vertex, whose edge must end cut.  Pending steps in
    # ``cont``: (u, S_u, start, g_allowed) waits for f, (S_u, start, j1) for g.
    v, S, i, cont, opened = len(children) - 1, 1, 0, None, None
    blocks: list[int] = []
    choices: list = []
    while True:
        while v >= n:  # descend along option i, then first options
            opts = options(v, S)
            if i + 1 < len(opts):
                choices.append((v, S, i + 1, cont, opened, len(blocks)))
            s_f, g_allowed = opts[i]
            cont = ((v, S, opened, g_allowed), cont)
            v, S, i = children[v][0], s_f, 0
        # A leaf's allowed set is one state: 0 (a singleton) or 1.
        state, start, opened = S.bit_length() - 1, opened, (v, opened)
        while True:  # finish vertices whose children are both done
            if not state and opened is not start:  # a block closes here
                m = 0
                while opened is not start:
                    x, opened = opened
                    m |= 1 << x
                blocks.append(m)
            if cont is None or len(cont[0]) == 4:
                break
            (S_u, start, j1), cont = cont
            state = (join[j1][state] & S_u).bit_length() - 1
        if cont is not None:  # f is done: descend into g
            (u, S_u, start, g_allowed), cont = cont
            cont = ((S_u, start, state), cont)
            v, S, i = children[u][1], g_allowed[state], 0
            continue
        yield tuple(blocks)
        if not choices:
            return
        v, S, i, cont, opened, kept = choices.pop()
        del blocks[kept:]


def _rendered(tree: Tree, k: int, render: Callable[[tuple[str, ...]], R]) -> Iterator[list[R]]:
    """Per character of ``_block_stream(tree, k)``, ``render`` of each
    block's label tuple, in canonical block order (by smallest taxon id).

    Consecutive characters share most of their blocks, so each distinct
    block is decoded and rendered once and kept with its smallest taxon id.
    The memo lives as long as the stream and is emptied whenever it holds
    more than a few times the current character's blocks, which keeps it
    bounded on streams with unboundedly many distinct blocks (k = 1).
    """
    labels = tree.labels
    memo: dict[int, tuple[int, R]] = {}
    for masks in _block_stream(tree, k):
        if len(memo) > 4 * len(masks) + 256:
            memo.clear()
        parts = []
        for bm in masks:
            hit = memo.get(bm)
            if hit is None:
                hit = memo[bm] = ((bm & -bm).bit_length(), render(_decode(labels, bm)))
            parts.append(hit)
        parts.sort(key=itemgetter(0))
        yield [r for _, r in parts]


def enumerate_convex(tree: Tree, k: int = 1) -> Iterator[Character]:
    """Stream every convex character of ``tree`` with min block size >= k,
    exactly once.

    Backtracks over the counting DP's per-edge vectors: a branch is entered
    only when its count is positive, so total work is proportional to the
    output.  Characters arrive in increasing canonical edge-usage encoding;
    the stream is single-consumer, but independent streams over the same
    tree are safe.
    """
    for blocks in _rendered(tree, k, tuple):
        yield Character._canonical(tuple(blocks))


def stream_encoding(tree: Tree, f) -> tuple[int, ...]:
    """Canonical edge-usage encoding of a character.

    One bit per edge, 1 when some block's spanning subtree uses the edge,
    in the canonical decision order of the enumeration (edge above the
    root's child first, then the two child edges of every internal vertex
    in preorder, f before g).  Distinct characters of one tree have
    distinct encodings, and ``enumerate_convex`` yields in strictly
    increasing encoding order.
    """
    blocks = _partition(tree, f).blocks
    n = tree.n
    children = tree._rooting().children
    c0 = children[0][0]
    preorder, decision, stack = [], [c0], [c0]
    while stack:
        v = stack.pop()
        preorder.append(v)
        if v >= n:
            decision += children[v]
            stack += reversed(children[v])
    # Number the taxa in preorder, the root taxon last: the taxa below any
    # vertex hold consecutive numbers, and the edge above it is unused just
    # when the blocks of those taxa span no more numbers than there are taxa.
    num = [n - 1] * n
    for i, v in enumerate(v for v in preorder if v < n):
        num[v] = i
    span = [(0, 0)] * tree.num_vertices()  # first and last number of the blocks
    size = [1] * len(span)
    for block in blocks:
        ids = [tree.taxon_id(lab) for lab in block]
        first_last = (min(num[i] for i in ids), max(num[i] for i in ids))
        for i in ids:
            span[i] = first_last
    for v in reversed(preorder):
        if v >= n:
            f_, g_ = children[v]
            size[v] = size[f_] + size[g_]
            span[v] = (min(span[f_][0], span[g_][0]), max(span[f_][1], span[g_][1]))
    return tuple(int(span[v][1] - span[v][0] + 1 != size[v]) for v in decision)

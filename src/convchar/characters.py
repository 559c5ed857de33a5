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
encoding (see :func:`stream_encoding`).  The backtracker ``_block_stream``
builds an option (which child edges are cut or open) only when it takes it,
from the DP's support masks and the mask form of its edge rule
(``counting._partners``), so the first character costs a small multiple of
the count.  It yields block bitmasks as deltas: a character after the first
is rebuilt only from its last choice point up to the first pending step
whose continuation is unchanged, and the previous character's blocks from
there on are spliced back, so its Python work follows the changed region,
not the depth of the tree.  A subtree that the allowed state of its edge
leaves with exactly one completion (the DP's count is 1) is recorded by
the first walk that finishes it, and from then on spliced in whole, like
a leaf.  A solver may prune the stream with an
upward-closed ``check``, which sees each block while it is open, wherever
two open blocks merge, and again as it joins a character, and with a
block limit: a rejected block ends every character below the last choice
point, none of them drawn, and a block bound to fail ends the walk where
it first fails, before the walk enters the subtrees above it.  The limit
also cuts a branch where the walk pushes its choice point, once the
blocks closed so far and a floor on the blocks below the branch and its
pending steps reach it: a cut edge closes at least one block at or below
it, an open edge none, so an option's floor follows from which child
edges it cuts and whether its two open blocks close, with no table.
Listing passes neither and pays one test per choice point and per merge
that leaves a block open for them.
``trees._decode`` is the one way back to labels:
``_rendered``, for ``enumerate_convex`` and the CLI's ``list``, looks up
each block a character adds in a memo by mask that lives as long as the
stream and is emptied when it holds 8n renderings, calls the caller's
render on the masks it misses, and keeps one slot per smallest taxon id
and one for the line's close, an empty slot holding "", so a line is one
join over the slots.  Names and the line format belong to the caller:
``enumerate_convex`` decodes label tuples, the CLI renders text or JSON
lines, and a solver decodes its answer.
``Character`` objects built from masks go through the trusted
``Character._canonical``.
"""

from __future__ import annotations

from functools import cache, partial
from itertools import compress
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .counting import _dp_tables, _joined_children, _partners
from .trees import Tree, _decode

R = TypeVar("R")


class Character:
    """A partition of a taxon set into non-empty blocks, canonically ordered.

    Blocks are sorted by their smallest taxon and taxa are sorted within
    each block.  Text form joins taxa with "," and blocks with "|".
    """

    __slots__ = ("_blocks",)

    def __init__(self, blocks: Iterable[Iterable[str]]):
        plain = [tuple(b) for b in blocks]
        if not plain or any(not b for b in plain):
            raise ValueError("blocks must be non-empty")
        if not all(isinstance(t, str) and t for b in plain for t in b):
            raise ValueError("taxon labels must be non-empty strings")
        canon = sorted((tuple(sorted(b)) for b in plain), key=lambda b: b[0])
        seen: set[str] = set()
        for b in canon:
            for t in b:
                if t in seen:
                    where = "twice in one block" if b.count(t) > 1 else "in two blocks"
                    raise ValueError(f"taxon {t!r} appears {where}")
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


def _parsimony(tree: Tree, masks: Sequence[int]) -> int:
    """Fitch score of a partition given as block masks (see parsimony_score).

    One flat pass on the tree rooted at taxon 0: each leaf's state set is
    the bit of its block, and each internal vertex, bottom-up by descending
    id (trees module docstring), takes the intersection of its two
    children's sets, or their union at the cost of one change; the edge to
    taxon 0 costs one more when its child's set misses taxon 0's block.
    """
    n = tree.n
    if n == 1:
        return 0
    children = tree._children
    states = [0] * len(children)
    bit = 1
    for bm in masks:
        while bm:
            low = bm & -bm
            states[low.bit_length() - 1] = bit
            bm ^= low
        bit <<= 1
    score = 0
    for v in range(len(children) - 1, n - 1, -1):
        f, g = children[v]
        a, b = states[f], states[g]
        inter = a & b
        if inter:
            states[v] = inter
        else:
            states[v] = a | b
            score += 1
    if not states[children[0][0]] & states[0]:
        score += 1
    return score


def is_convex(tree: Tree, f) -> bool:
    """True iff the blocks' minimal spanning subtrees are pairwise disjoint.

    Decided by the Fitch equality: a partition into b blocks scores at
    least b - 1, with equality exactly when it is convex, so one linear
    Fitch pass settles it.
    """
    masks = _block_masks(tree, f)
    return _parsimony(tree, masks) == len(masks) - 1


def parsimony_score(tree: Tree, f) -> int:
    """Minimum number of edges whose endpoints get different block labels,
    over all extensions of the leaf labelling to internal vertices (Fitch
    bottom-up on an arbitrary leaf rooting).

    Always >= block_count - 1, with equality exactly for convex characters.
    """
    return _parsimony(tree, _block_masks(tree, f))


class _Rejected(Exception):
    """A block failed the block stream's ``check`` or its block limit."""


def _block_stream(
    tree: Tree, k: int, check: Callable[[int, int], bool] | None = None,
    limit: list[int] | None = None,
) -> Iterator[tuple[list[int], list[int], list[int]]]:
    """Every convex character of ``tree`` with min block size >= k, in
    stream order (see enumerate_convex), as ``(live, dropped, added)``: the
    character's block masks, and the masks dropped from and added to the
    previous character's.  ``live`` is one list, updated in place.

    Explicit-stack backtracking over the DP's edge states, by the edge rule
    of ``counting``: an option fixes each child edge cut or open, f before
    g in encoding order, g's allowed states follow from the state f
    reached, and v's state from the saturating sum of the two.  Options
    are built lazily, each when the walk first takes it; whether a later
    one exists is one more mask test.  Their allowed states come from a few
    mask operations (counting._partners) on the states the vertex's and
    its child edges can have, so vertices with the same three masks share
    them.  All of it is kept for the life of the stream.  Each open block
    is one entry on a linked stack, its taxa as a mask: a merge folds two
    entries into one, and the stack is persistent, so the saved choice
    points stay valid.

    A step is forced when its allowed set is one state that the edge
    reaches in exactly one way (the DP's count is 1): the subtree below it
    has one completion and no choice point.  The first walk that finishes
    it records its closed blocks, the state of its edge and the taxa of
    its open block, and every entry from then on, in any character,
    appends those blocks and pushes the open block as one entry, like a
    leaf.  A walk rejected inside it records nothing, and forced subtrees
    inside one being recorded are walked with it.

    A character after the first restarts at the last choice point, keeps
    the blocks closed before it, and climbs back only as far as the first
    pending step whose continuation is known to be unchanged: from there on
    the previous character's blocks come back as they were.

    ``check(mask, depth)`` must be upward-closed: when it rejects a mask,
    it rejects every superset of the mask at that depth and every later
    one, after the same blocks.  The stream offers it every block about to
    join the live list, as it closes, as part of a record spliced in or
    spliced back, depth being its index in the list, so the check sees
    each live list grow in order and may keep state per depth.  It also
    offers an open block's taxa while they are still growing, at depth
    ``len(blocks)``: where an open f and an open g merge under an open
    edge, and where a spliced record leaves an open block of two taxa or
    more.  The block they end in holds them and joins at that depth or
    later, after the same blocks, so a rejection there, raised as at a
    close, ends the walk before it enters the sibling subtrees above.  A
    rejection ends every character below the last choice point, all of
    which hold the block: the stream pops to that point without yielding,
    and ``dropped`` and ``added`` stay relative to the last character it
    yielded.  Without a check nothing is called.

    ``limit``, a one-item list, holds the least block count that no
    character may reach, n + 1 when it is not given (no limit); the caller
    may lower it between characters.  Below n + 1 it prunes in two places.
    A block is rejected as it joins the live list when its index d already
    means the limit: taxon 0's block closes last, so there are at least
    d + 1 blocks, d + 2 when the block misses taxon 0.  And an option is
    rejected before the walk enters it, at a choice point as the walk
    pushes it, when the blocks closed so far and a floor on those that
    the option and the pending steps close reach the limit.  The floor
    needs only the option's case: a cut edge closes at least one block at
    or below it, as the taxa below it end in closed blocks, and an open
    edge closes none, as they may all be in its open block.  So an option
    closes at least one block per cut child edge at or below its vertex,
    one more where two open blocks meet under a cut edge, and a pending f
    step adds the same for its g and its vertex.  A vertex's last option
    pushes no choice point, so it is not tested, neither when the walk
    first takes it nor when it restarts there: the walk goes on into it,
    its pending steps wait on ``cont``, and the next choice point counts
    them and the blocks closed on the way.  Listing, with neither, joins
    blocks through the live list's own methods.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    n = tree.n
    if n < k:
        return
    pruned = check is not None or limit is not None
    if limit is None:
        limit = [n + 1]  # no character has more than n blocks
    if n == 1:
        if limit[0] > 1 and (check is None or check(1, 0)):
            yield [1], [], [1]
        return
    children = _joined_children(tree)
    # States with a nonzero count, and an internal vertex's states with a
    # count of 1.  A leaf's edge is open, or cut as a singleton at k = 1.
    support = [2 | (k == 1)] * n + [0] * (len(children) - n)
    unit = [0] * len(children)
    states = range(k + 1)
    powers = [1 << s for s in states]
    for v, vec in _dp_tables(tree, k):
        if v >= n:
            support[v] = sum(compress(powers, vec))
            if 1 in vec:
                unit[v] = sum(compress(powers, map((1).__eq__, vec)))
    g_cut = dict.fromkeys(states, 1)  # a cut g's allowed states, whatever f reached

    @cache  # lives as long as this stream
    def cases(F: int, G: int, S: int) -> tuple[tuple[int, ...], dict[int, int], int]:
        """For f's and g's edges with the states F and G and their vertex's
        edge in S: f's allowed states in each case of an option (see
        ``option``), an open g's allowed states per state of f, and the
        mask of the cases that have some."""
        by_cut, by_open = F & _partners(G & 1, S, k), F & _partners(G & -2, S, k)
        fs = by_cut & 1, by_open & 1, by_cut & -2, by_open & -2
        g_open = {}
        while by_open:
            j1 = (by_open & -by_open).bit_length() - 1
            g_open[j1] = _partners(1 << j1, S, k) & G & -2
            by_open &= by_open - 1
        return fs, g_open, sum(compress((1, 2, 4, 8), fs))

    @cache  # lives as long as this stream
    def option(v: int, S: int, c: int) -> tuple[int, tuple[int, dict[int, int], int, int, int], int]:
        """v's first option from case c on when v's edge is in S, and the
        case of the next one (-1 when there is none).  Cases 0..3 fix f's
        and g's edges cut or open, f first, in encoding order; an option is
        f's allowed states and (g, g's allowed states per state of f, S, v,
        the case)."""
        f, g = children[v]
        fs, g_open, present = cases(support[f], support[g], S)
        present = present >> c << c
        c = (present & -present).bit_length() - 1
        later = present & present - 1
        return fs[c], (g, g_open if c & 1 else g_cut, S, v, c), (later & -later).bit_length() - 1

    # Start at the top vertex, whose edge must end cut, at case 0: ``option``
    # takes the first case present, taxon 0 alone (0) at k = 1 and both
    # child edges open (3) at larger k.  Pending steps in ``cont``: an
    # option's (g, g_allowed, S_u, u, c) waits for f and (j1, S_u, g) for
    # g, where c is the case of u's option and j1 is the state f reached;
    # (count, (v, S)) waits for a forced subtree that is walked for the
    # first time, ``count`` being the block count when the walk entered it.
    #
    # A vertex has one live g step at a time, and the option that made it
    # fixes g's edge cut or open.  With g's edge cut, the open blocks at
    # the step are the ones f left, so all that follows is the same on
    # every visit.  A visit records the block count in ``seen[g]`` and a
    # cell in ``ends[g]`` that gets the character's final block count,
    # unless a choice point is pushed later in that character; a new g
    # step clears the record.  Every later character up to the next visit
    # restarts below the step and ends with the same blocks after it, so
    # the next visit to find a filled cell ends its character with the
    # previous character's last ``ends[g][0] - seen[g]`` blocks.  A forced
    # subtree pushes no choice point, so splicing it in keeps ``seen`` and
    # ``ends`` valid, and no such splice happens inside one, as the walk
    # clears ``ends[g]`` when it descends into g.
    #
    # A walk ends in a character or a rejection, and either way the next
    # walk restarts at the last choice point.  ``blocks[:kept] + tail`` is
    # always the last character yielded: a yield sets ``kept`` to its
    # length and empties ``tail``, a restart below ``kept`` moves the
    # blocks between into ``tail``, and a splice checks the blocks it
    # takes from ``tail`` before it cuts them, then yields.  A rejected
    # walk fills no cell, so after it ``seen``, ``ends`` and ``tail`` still
    # describe the last character yielded.  Inside a forced subtree, with
    # no choice point and no splice from ``tail``, a walk pops the
    # subtree's record step before it can yield, or a rejection drops the
    # step with ``cont`` and the restart clears ``recording``.
    v, S, i, cont, opened = len(children) - 1, 1, 0, None, None
    blocks: list[int] = []
    choices: list = []
    seen = [0] * len(children)
    ends: list[list[int | None] | None] = [None] * len(children)
    forced: dict[tuple[int, int], tuple[list[int], int, int]] = {}  # (v, S): blocks, state, taxa
    kept, tail, spliced, end, recording = 0, [], 0, [None], False
    append, extend = blocks.append, blocks.extend
    if pruned:
        summed = [None, 0]  # the chain of pending steps summed last, and its sum

        def hopeless(S: int, c: int, cont) -> bool:
            """True when every character that takes the option of case c at
            a vertex whose edge is in S, with the live blocks closed and the
            pending steps in ``cont``, has at least ``limit[0]`` blocks: a
            cut child edge closes at least one block at or below it, and
            two open ones close one at the vertex when its edge is cut.
            Chains of pending steps share their tails, so a sum stops at the
            chain summed last."""
            total, chain = 0, cont
            while chain is not None and chain is not summed[0]:
                step, chain = chain
                if len(step) == 5:  # waits for f: g's cut edge, or the close at u
                    _, _, S_u, _, case = step
                    total += (case % 2 == 0) + (case == 3 and S_u == 1)
                else:  # f's edge open and the edge above cut: the block closes there
                    total += step[0] > 0 and step[1] == 1  # a record step adds nothing
            if chain is not None:
                total += summed[1]
            summed[:] = cont, total
            return len(blocks) + (c < 2) + (c % 2 == 0) + (c == 3 and S == 1) + total >= limit[0]

        def append(block: int) -> None:  # at least len(blocks) + 1 + (not block & 1) blocks
            if len(blocks) + 2 - (block & 1) >= limit[0] or (
                    check is not None and not check(block, len(blocks))):
                raise _Rejected
            blocks.append(block)

        def extend(new: Iterable[int]) -> None:
            for block in new:
                append(block)
    while True:  # one walk per character or rejection, from the last choice point
        try:
            while True:
                while v >= n:  # descend along option i, then first options
                    # Forced: S, which never holds a state outside support[v], is
                    # one state with a count of 1, so no choice is left below v.
                    # Forced subtrees inside one being recorded are walked with it.
                    if S & unit[v] and not S & (S - 1) and not recording:
                        if (v, S) in forced:  # walked before: splice it in like a leaf
                            closed, state, m = forced[v, S]
                            extend(closed)
                            opened = (m, opened) if state else opened
                            if check is None or not m & m - 1: break  # under two open taxa
                            if not check(m, len(blocks)):
                                raise _Rejected
                            break
                        cont, recording = ((len(blocks), (v, S)), cont), True
                    S_f, after_f, later = option(v, S, i)
                    if later >= 0:
                        choices.append((v, S, later, cont, opened, len(blocks)))
                        end = [None]
                        if limit[0] <= n and hopeless(S, after_f[4], cont):
                            raise _Rejected
                    cont = (after_f, cont)
                    v, S, i = children[v][0], S_f, 0
                else:  # a leaf's allowed set is one state: 1 (S = 2), or 0 as a singleton at k = 1
                    if S == 2:
                        state, opened = 1, (1 << v, opened)
                    else:
                        state = 0
                        append(1 << v)
                while True:  # finish vertices whose children are both done
                    if cont is None or len(cont[0]) != 3:  # the end, f's step or a record step
                        if cont is None or len(cont[0]) == 5:
                            break
                        (count, key), cont = cont  # a forced subtree is done: record it
                        forced[key] = blocks[count:], state, opened[0] if state else 0
                        recording = False
                        continue
                    (j1, S_u, g), cont = cont
                    if state:  # an open g
                        if j1:  # f's and g's open blocks merge, and close when u's edge is cut
                            x, (y, opened) = opened
                            if S_u == 1:
                                append(x | y)
                                state = 0
                            else:
                                state = state + j1 if state + j1 < k else k
                                opened = (x | y, opened)
                                if check is not None and not check(x | y, len(blocks)):
                                    raise _Rejected
                    elif ends[g] is None or ends[g][0] is None:  # g's edge cut: u's takes f's state
                        seen[g], ends[g] = len(blocks), end
                        state = j1
                    else:  # as on g's last visit: splice the rest back
                        spliced = ends[g][0] - seen[g]
                        extend(tail[len(tail) - spliced:])
                        del tail[len(tail) - spliced:]
                        cont = None
                        break
                if cont is None:
                    break
                (v, g_allowed, S_u, _, _), cont = cont  # f is done: descend into g
                cont = ((state, S_u, v), cont)
                S = g_allowed[state]
                ends[v], i = None, 0
            end[0] = len(blocks)
            yield blocks, tail, blocks[kept:len(blocks) - spliced]
            kept, tail = len(blocks), []
        except _Rejected:
            pass  # every character below the last choice point holds the block
        if not choices:
            return
        v, S, i, cont, opened, top = choices.pop()
        if top < kept:
            tail = blocks[top:kept] + tail
            kept = top
        del blocks[top:]
        spliced, end, recording = 0, [None], False


def _rendered(tree: Tree, k: int, render: Callable[[int], R],
              close: R = "") -> Iterator[list[R]]:
    """Per character of ``_block_stream(tree, k)``, its line as n + 1
    slots: one per taxon id, in canonical block order (by smallest taxon
    id), then ``close``.  The slot of a block's smallest taxon holds
    ``render`` of the block's mask, and every other slot holds "", so a
    line whose renderings are strings is ``"".join`` of the slots.  The
    caller's ``render`` decides the names and the format, and it may make
    a rendering carry what comes before it on the line, as taxon 0's
    block, always first, is the one whose mask is odd.  The same list is
    yielded each time, valid until the next one is requested.

    A character empties the slots of the blocks it dropped and fills those
    of the blocks it added.  A memo by block mask keeps renderings for the
    stream's life and is emptied when it holds 8n of them: a block that
    comes back while it is held is not rendered again, a missed block
    costs two hashes of its mask, and the memo never holds more than 8n
    renderings, whatever the number of distinct blocks.
    """
    slots: list = [""] * tree.n + [close]
    size = 8 * tree.n
    memo: dict[int, R] = {}
    for _, dropped, added in _block_stream(tree, k):
        for bm in dropped:
            slots[(bm & -bm).bit_length() - 1] = ""
        for bm in added:
            r = memo.get(bm)
            if r is None:
                if len(memo) >= size:
                    memo.clear()
                r = memo[bm] = render(bm)
            slots[(bm & -bm).bit_length() - 1] = r
        yield slots


def enumerate_convex(tree: Tree, k: int = 1) -> Iterator[Character]:
    """Stream every convex character of ``tree`` with min block size >= k,
    exactly once.

    Backtracks over the counting DP's per-edge vectors: a branch is entered
    only when its count is positive, so total work is proportional to the
    output.  Characters arrive in increasing canonical edge-usage encoding;
    the stream is single-consumer, but independent streams over the same
    tree are safe.
    """
    for slots in _rendered(tree, k, partial(_decode, tree.labels)):
        yield Character._canonical(tuple(filter(None, slots)))


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
    if n == 1:
        return ()  # no edges
    children = tree._children
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

"""Enumeration-driven partition solvers.

Every solver is one scan (:func:`_scan`) over the block-mask stream of one
tree's convex characters, with a score function per mode; a ``Character``
is built only for the answer.  Trees on one taxon set share taxon ids, so a
block mask names the same taxa in every input tree.  Any problem which
projects down onto convex characters gets an exact solver for free, at
O(alpha_k^n * poly(n)) worst case.

Agreement and objective scans prune the stream (``characters._block_stream``)
by a block limit: a rejected branch ends every character below it unscored
and undrawn.  Each mode hands :func:`_scan` a ``floor(b)``, a lower bound
on the value of every character with at least b blocks, and whenever the
incumbent improves ``_scan`` turns it into the stream's limit, the least
block count whose characters cannot beat the incumbent.  The stream
applies the limit at each choice point before it walks in, against the
blocks closed so far plus the fewest blocks below the option and its
pending steps, floors it builds from its own options, and to each block
as it closes.  Agreement's value is its block count, so its floor is b
and its limit the incumbent.  Its block check (:func:`_agreeing_blocks`),
the stream's ``check``, also rejects a block that restricts differently
in the trees or whose spanning subtree in the second tree meets that of a
block before it.  Both tests are upward-closed, as the stream requires: a
superset of a failing block restricts differently too, its restriction
restricting to the block's, and its spanning subtree holds the block's,
while the blocks before it stay live until it closes.  So the stream
also offers the check each block while it is open, and a block bound to
fail is rejected where two open blocks merge into it, before the walk
enters the subtrees above.  A check on an open block at depth d rewrites
the check's edge record past d, which the next block accepted at depth d
rewrites before it is read (see :func:`_agreeing_blocks`).

The objective's floor is the Fitch floor, b - 1 per tree: b blocks score
at least b - 1 on every tree, with equality exactly when the partition is
convex there, so over m trees its limit is ceil(best / m) + 1.  The
objective scores the scanned tree as b - 1 without a Fitch pass, and
rejects a character between Fitch passes once its exact scores so far
plus b - 1 per tree left reach the incumbent.

No rejection drops an answer: a rejected character cannot beat the
incumbent, and ``_scan`` keeps only a strict improvement, so the result,
ties included, is that of scoring every character in full.  A pruned scan
decides every character, though it draws fewer, so it reports
``count_convex`` of the scanned tree as scanned.  The quartet scan stops
at its first hit and reports how many characters it drew, so it is not
pruned; it scores through the same block check.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import count
from typing import Callable, Sequence

from .characters import Character, _block_stream, _parsimony
from .counting import _decimal_digits, count_convex
from .trees import Tree, _decode, parse_newick

MODES = (
    "agreement_forest_min_components",
    "quartet_exact_partition",
    "objective_optimize",
)
OBJECTIVES = ("sum_parsimony",)


def _sum_parsimony(
    masks: Sequence[int], trees: Sequence[Tree], best: int | None, scanned: Tree
) -> int | None:
    """Sum of the Fitch scores of the partition on ``trees``, or None once
    it cannot beat the incumbent ``best``.

    A partition into b blocks scores at least b - 1 on any tree, exactly
    b - 1 on a tree it is convex on, so on ``scanned`` (the tree whose
    stream it came from) it scores b - 1 with no Fitch pass.  ``total``
    holds the exact scores so far plus that floor for every tree left, a
    lower bound on the sum, and the partition is rejected as soon as a
    Fitch pass brings the bound to ``best``.  The floor alone is below
    ``best``: the scan's block limit ends every partition it is not below.
    """
    floor = len(masks) - 1
    total = floor * len(trees)
    for t in trees:
        if t is not scanned:
            total += _parsimony(t, masks) - floor
            if best is not None and total >= best:
                return None
    return total


def _require_same_taxa(trees: Sequence[Tree]) -> None:
    taxa = trees[0].taxa
    if any(t.taxa != taxa for t in trees[1:]):
        raise ValueError("all trees must share the same taxon set")


@dataclass(frozen=True)
class SolveInstance:
    """A multi-tree partition problem; all trees share one taxon set."""

    trees: tuple[Tree, ...]
    k: int = 1
    mode: str = "agreement_forest_min_components"
    objective: str = "sum_parsimony"

    def __post_init__(self):
        if not self.trees:
            raise ValueError("instance needs at least one tree")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}")
        _require_same_taxa(self.trees)

    @classmethod
    def from_json_dict(cls, data: dict) -> "SolveInstance":
        if not isinstance(data, dict):
            raise ValueError("instance must be a JSON object")
        try:
            newicks = data["trees"]
            mode = data["mode"]
        except KeyError as missing:
            raise ValueError(f"instance is missing {missing}") from None
        if not isinstance(newicks, list) or not all(isinstance(s, str) for s in newicks):
            raise ValueError("'trees' must be a list of Newick strings")
        k = data.get("k", 1)
        if not isinstance(k, int) or isinstance(k, bool):
            raise ValueError("'k' must be an integer")
        objective = data.get("objective", "sum_parsimony")
        if not isinstance(objective, str):
            raise ValueError("'objective' must be a string")
        return cls(
            trees=tuple(parse_newick(s) for s in newicks),
            k=k,
            mode=mode,
            objective=objective,
        )


@dataclass(frozen=True)
class SolveResult:
    character: Character | None
    objective_value: int | None
    characters_scanned: int
    wall_time: float = field(compare=False)

    def to_json_dict(self) -> dict:
        return {
            "character": self.character.text() if self.character else None,
            "objective_value": self.objective_value,
            "characters_scanned": _decimal_digits(self.characters_scanned),
            "wall_time_ms": round(self.wall_time * 1000.0, 3),
        }


def _restricted_splits(tree: Tree, block: int) -> frozenset[int]:
    """Nontrivial splits of ``tree`` restricted to the taxa of ``block``,
    each given by its side without the block's smallest taxon.  Two trees
    on one taxon set restrict to the same tree on ``block`` exactly when
    these sets are equal."""
    low = block & -block
    size = block.bit_count()
    out = set()
    for em in tree._internal_edge_masks():
        side = em & block
        if side & low:
            side ^= block
        if 1 < side.bit_count() < size - 1:
            out.add(side)
    return frozenset(out)


def _agreeing_blocks(trees: Sequence[Tree]) -> Callable[[int, int], bool]:
    """Block check of one scan over ``trees[0]``'s stream, for the agreement
    modes: ``check(block, depth)`` is True when the block restricts to the
    same tree in every tree and its spanning subtree in each other tree is
    edge-disjoint from those of the live blocks before it, the blocks last
    accepted at depths 0..depth-1.  A scan's blocks are convex on the
    scanned tree, so a character whose blocks all pass is convex on every
    tree and each block restricts alike.

    What a block uses of the other trees is a memo by mask: its internal
    edges there, one bit per edge, or -1 when its restrictions differ.
    ``used[d]`` holds the edges of the blocks before depth d, so accepting
    a block cuts ``used`` back to its depth and no undo log is needed.

    The stream also calls ``check`` on the open taxa of a block at depth
    d, the number of live blocks.  It reads ``used[d]``, the edges of
    those blocks, and answers as for a closing block; when it accepts, it
    also rewrites ``used[d + 1]`` with the edges of a block that is not
    live.  Nothing reads that entry first: the stream asks at depth d + 1
    only once a block has joined the live list at depth d, and that
    block's call rewrites ``used[d + 1]``.  Nor does it touch ``used[d]``
    or below: every call of a walk is at a depth no less than the live
    blocks the walk restarted with.
    """
    first, rest = trees[0], trees[1:]
    memo: dict[int, int] = {}
    used = [0]

    def edges(block: int) -> int:
        splits = _restricted_splits(first, block)
        if any(_restricted_splits(t, block) != splits for t in rest):
            return -1
        out, bit = 0, 1
        for t in rest:
            for em in t._internal_edge_masks():
                x = em & block
                if x and x != block:
                    out |= bit
                bit <<= 1
        return out

    def check(block: int, depth: int) -> bool:
        e = memo.get(block)
        if e is None:
            e = memo[block] = edges(block)
        if e < 0 or e & used[depth]:
            return False
        used[depth + 1:] = (used[depth] | e,)
        return True

    return check


def _scan(
    tree: Tree, k: int, score: Callable, floor: Callable[[int], int] | None = None,
    check: Callable[[int, int], bool] | None = None, first_only: bool = False,
) -> SolveResult:
    """Score every level-k convex character of ``tree`` and keep the first
    one with the lowest value; with ``first_only``, stop at the first
    accepted one.

    ``score(masks, best)`` gets the block masks, a list that the stream
    reuses for the next character, and the incumbent value (None before
    the first hit) and returns the character's value, or None to reject
    it; only a new incumbent's masks are copied.

    With ``floor(b)``, a lower bound on the value of every character with
    at least b blocks, the scan prunes the stream (see
    characters._block_stream): each new incumbent sets the stream's limit
    to the least b whose floor reaches it, and every block the limit
    leaves goes on to ``check(block, depth)``, if given, which must be
    upward-closed and also sees each block while it is open.  A pruned scan
    still decides every character, so it reports ``count_convex(tree, k)``
    as scanned; otherwise that is the number of characters drawn.
    """
    start = time.perf_counter()
    best: tuple[int, ...] | None = None
    best_value: int | None = None
    scanned = 0
    limit = None if floor is None else [tree.n + 1]
    for masks, _, _ in _block_stream(tree, k, check, limit):
        scanned += 1
        value = score(masks, best_value)
        if value is not None and (best_value is None or value < best_value):
            best, best_value = tuple(masks), value
            if first_only:
                break
            if limit is not None:
                limit[0] = next(b for b in count(1) if floor(b) >= value)
    if floor is not None:
        scanned = count_convex(tree, k)
    # Disjoint blocks differ in their first label, so sorting the label
    # tuples puts them in canonical order.
    return SolveResult(
        character=None if best is None else Character._canonical(
            tuple(sorted(_decode(tree.labels, bm) for bm in best))),
        objective_value=best_value,
        characters_scanned=scanned,
        wall_time=time.perf_counter() - start,
    )


def agreement_forest_min_components(t1: Tree, t2: Tree, k: int = 1) -> SolveResult:
    """Agreement forest with fewest components where every component has at
    least k taxa, or none.

    Scans the level-k convex characters of t1; a character qualifies when
    it is also convex on t2 and each block restricts to identical subtrees
    in both (equal restricted split sets).  Blocks are checked as they
    close, and as they grow where two open blocks merge; a character's
    value is its block count, which is its own
    floor, so the stream stops short of as many blocks as the incumbent
    has.  Every character is decided, so characters_scanned equals the
    level-k count of t1.
    """
    _require_same_taxa([t1, t2])
    return _scan(t1, k, lambda masks, best: len(masks), lambda b: b, _agreeing_blocks((t1, t2)))


def quartet_exact_partition(trees: Sequence[Tree]) -> SolveResult:
    """Perfect partition into size-4 blocks whose restrictions are disjoint
    in every tree and identical across trees, or none.

    Returns the first qualifying character in stream order, so the scan may
    stop early.
    """
    trees = tuple(trees)
    if not trees:
        raise ValueError("need at least one tree")
    _require_same_taxa(trees)
    n = trees[0].n
    agree = _agreeing_blocks(trees)

    def score(masks, best):
        # Every block holds >= 4 taxa, so all hold exactly 4 iff there are n/4.
        if 4 * len(masks) == n and all(map(agree, masks, range(len(masks)))):
            return len(masks)
        return None

    # Size-4 blocks partition the taxa only when 4 divides n; otherwise an
    # oversized k scans nothing.
    return _scan(trees[0], 4 if n % 4 == 0 else n + 1, score, first_only=True)


def optimize_objective(
    tree: Tree,
    trees: Sequence[Tree],
    k: int,
    objective: str = "sum_parsimony",
) -> SolveResult:
    """Character of ``tree`` minimizing the named objective over ``trees``;
    ties go to the first character in stream order.  Every character is
    decided, pruned by the objective's floor, so characters_scanned equals
    the level-k count of ``tree``.

    With ``sum_parsimony`` and k <= n the answer is always the one-block
    character with value 0: it is the only character that scores 0 on every
    tree (one with b >= 2 blocks scores >= b - 1 on each), and it comes last
    in stream order.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    trees = tuple(trees)
    if not trees:
        raise ValueError("need at least one tree to score against")
    _require_same_taxa((tree, *trees))
    return _scan(
        tree, k, lambda masks, best: _sum_parsimony(masks, trees, best, tree),
        lambda b: (b - 1) * len(trees),
    )


def solve(instance: SolveInstance) -> SolveResult:
    if instance.mode == "agreement_forest_min_components":
        if len(instance.trees) != 2:
            raise ValueError("agreement mode needs exactly two trees")
        return agreement_forest_min_components(*instance.trees, instance.k)
    if instance.mode == "quartet_exact_partition":
        return quartet_exact_partition(instance.trees)
    return optimize_objective(
        instance.trees[0], instance.trees, instance.k, instance.objective
    )

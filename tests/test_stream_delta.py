"""The delta block stream against the stream it replaced.

``oracle_stream`` below is the block stream as it was before characters
started splicing back the unchanged part of the previous character: every
character rebuilt by climbing all pending steps up to the top vertex.  It
is kept verbatim, as the judge of the order and content of
``characters._block_stream``, with its ``check`` too: the checked stream
is the oracle's without every character that holds a rejected block, and
as the check is upward-closed, offering it the blocks while they are
still open changes nothing more.  The work gates count the line events of
the code in ``characters.py``, and of ``counting.py`` where the DP runs on
both sides, with ``line_events`` (``conftest.py``), helpers nested in the
stream included, so the library carries no counter for them.
"""

import random
import re
from collections import Counter, deque
from functools import cache
from itertools import islice, product, zip_longest
from typing import Iterator

from hypothesis import given, settings
from hypothesis import strategies as st

from convchar import (
    agreement_forest_min_components,
    caterpillar,
    characters,
    count_convex,
    counting,
    fully_loaded,
    parse_newick,
    random_tree,
    solvers,
)
from convchar.characters import _block_stream
from convchar.counting import _dp_tables, _joined_children
from convchar.trees import Tree

from conftest import join_states, line_events

CAP = 20_000  # characters compared per stream


def oracle_stream(tree: Tree, k: int) -> Iterator[tuple[int, ...]]:
    """Block-mask tuples of every convex character of ``tree`` with min
    block size >= k, in stream order (see enumerate_convex).

    Explicit-stack backtracking over the DP's edge states (``join_states``
    in ``conftest.py``): an option fixes each child edge cut or open, f
    before g in encoding order, and g's allowed states follow from the
    state f reached.  Open blocks keep their taxa on a linked stack, so
    merging costs nothing.
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
    join = [[sum(1 << s for s in join_states(j1, j2, k)) for j2 in states] for j1 in states]
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


def assert_same_stream(tree, k, cap=CAP, rejects=None, limit=None):
    """Same characters in the same order, and every delta consistent:
    the dropped blocks were in the previous character, and the previous
    character without them, plus the added blocks, is the current one.

    With ``rejects(block, depth)``, which must be upward-closed, the
    stream's check rejects those blocks and the oracle loses every
    character that holds one.  The check also keeps the blocks it accepted
    per depth, which must be the live list at every character: it sees
    each live list grow in order, and an open block at a depth no greater
    than the blocks accepted.  With a block ``limit``, the oracle loses
    every character with that many blocks or more.

    Exactly one live block holds taxon 0, and it is the last: the solvers'
    block-count bound rests on this."""
    want_stream = oracle_stream(tree, k)
    if limit is not None:
        want_stream = (c for c in want_stream if len(c) < limit)
    check = None
    if rejects is not None:
        want_stream = (c for c in want_stream if not any(map(rejects, c, range(len(c)))))
        accepted = []

        def check(block, depth):
            assert depth <= len(accepted)
            del accepted[depth:]
            if rejects(block, depth):
                return False
            accepted.append(block)
            return True

    previous: Counter = Counter()
    for index, (want, got) in enumerate(zip_longest(
        islice(want_stream, cap),
        islice(_block_stream(tree, k, check, None if limit is None else [limit]), cap),
    )):
        assert want is not None and got is not None, index
        live, dropped, added = got
        assert sorted(live) == sorted(want), index
        assert [block & 1 for block in live] == [0] * (len(live) - 1) + [1], index
        if rejects is not None:
            assert live == list(want) == accepted, index
        dropped, added = Counter(dropped), Counter(added)
        assert dropped <= previous, index
        previous = previous - dropped + added
        assert previous == Counter(live), index


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 11), k=st.integers(1, 5), seed=st.integers(0, 2**32))
def test_random_trees_match_oracle(n, k, seed):
    assert_same_stream(random_tree(n, seed=seed), k)


@settings(max_examples=12, deadline=None)
@given(n=st.integers(3, 23), k=st.integers(1, 4))
def test_caterpillars_match_oracle(n, k):
    assert_same_stream(caterpillar(n), k)


@settings(max_examples=15, deadline=None)
@given(n=st.integers(12, 25), load=st.integers(3, 5), data=st.data())
def test_fully_loaded_trees_match_oracle(n, load, data):
    k = data.draw(st.integers(2, load), label="k")
    assert_same_stream(fully_loaded(n, load), k)


def test_tiny_and_empty_streams_match_oracle():
    for text in ("x;", "(x,y);", "(x,y,z);"):
        for k in (1, 2, 3, 4):
            assert_same_stream(parse_newick(text), k)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(6, 14), seed=st.integers(0, 2**32), data=st.data())
def test_random_trees_with_large_blocks_match_oracle(n, seed, data):
    """At k >= n/2 the allowed sets hold both 0 and k, and f's states reach
    k: where the stream's mask rule has the most cases."""
    k = data.draw(st.integers((n + 1) // 2, n), label="k")
    assert_same_stream(random_tree(n, seed=seed), k)


# Where subtrees with exactly one completion are common and re-entered, so
# the stream splices them in whole instead of walking them.

@settings(max_examples=6, deadline=None)
@given(n=st.integers(25, 45), k=st.integers(4, 6), seed=st.integers(0, 2**32))
def test_forced_subtrees_of_random_trees_match_oracle(n, k, seed):
    assert_same_stream(random_tree(n, seed=seed), k)


@settings(max_examples=12, deadline=None)
@given(n=st.integers(8, 30), k=st.integers(2, 6))
def test_fully_loaded_trees_at_their_load_match_oracle(n, k):
    """Every pendant part of fully_loaded(n, k) is forced at k."""
    assert_same_stream(fully_loaded(n, k), k)


@settings(max_examples=12, deadline=None)
@given(n=st.integers(4, 60), data=st.data())
def test_caterpillars_with_large_blocks_match_oracle(n, data):
    """At k >= n/2 most of a caterpillar is one forced subtree."""
    k = data.draw(st.integers((n + 1) // 2, n), label="k")
    assert_same_stream(caterpillar(n), k)


# Two upward-closed checks: each rejects a block at or beyond a depth cap,
# and one that holds more than a size cap of taxa, or both taxa of a
# salted pair, and so every larger block at every later depth too.

def sized_rejects(size_cap, depth_cap):
    return lambda block, depth: depth >= depth_cap or block.bit_count() > size_cap


def test_forced_walk_rejected_partway_is_recorded_later():
    """On fully_loaded(18, 4) at k = 3, with every block at depth 4 or
    more rejected, the check rejects the first walk of a forced subtree
    inside it, and 32 later entries splice that subtree in.  The rejected
    walk drops its record step, a later walk records the subtree, and the
    stream stays the oracle's.  Its 73 characters read 12 132 line events
    in ``characters.py``; a stream that kept recording after the
    rejection gave the same characters but walked every forced subtree
    from then on, 23 178."""
    tree, k, rejects = fully_loaded(18, 4), 3, sized_rejects(18, 4)
    assert_same_stream(tree, k, rejects=rejects)
    events = line_events(
        lambda: deque(_block_stream(tree, k, lambda block, depth: not rejects(block, depth)),
                      maxlen=0),
        (characters,))
    assert events <= 1.1 * 12_132, events


def salted_pairs(n, salt):
    """One to three pairs of taxon ids, as masks, picked by ``salt``."""
    rng = random.Random(salt)
    return [sum(1 << i for i in rng.sample(range(n), 2)) for _ in range(rng.randint(1, 3))] if n > 1 else []


def paired_rejects(pairs, depth_cap):
    return lambda block, depth: depth >= depth_cap or any(block & p == p for p in pairs)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 12), k=st.integers(1, 4), seed=st.integers(0, 2**32),
    size_cap=st.integers(1, 12), depth_cap=st.integers(1, 12),
)
def test_filtering_hook_removes_rejected_prefixes(n, k, seed, size_cap, depth_cap):
    assert_same_stream(random_tree(n, seed=seed), k, rejects=sized_rejects(size_cap, depth_cap))


@settings(max_examples=12, deadline=None)
@given(
    n=st.integers(8, 24), load=st.integers(2, 5), size_cap=st.integers(1, 12),
    depth_cap=st.integers(1, 12), data=st.data(),
)
def test_filtering_hook_on_spliced_subtrees(n, load, size_cap, depth_cap, data):
    """Rejections among forced subtrees spliced in whole, and among blocks
    spliced back from the previous character."""
    k = data.draw(st.integers(2, load), label="k")
    assert_same_stream(fully_loaded(n, load), k, 3000, sized_rejects(size_cap, depth_cap))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 12), k=st.integers(1, 4), seed=st.integers(0, 2**32),
    salt=st.integers(0, 2**32), depth_cap=st.integers(1, 12),
)
def test_growing_block_predicate_removes_rejected_prefixes(n, k, seed, salt, depth_cap):
    rejects = paired_rejects(salted_pairs(n, salt), depth_cap)
    assert_same_stream(random_tree(n, seed=seed), k, rejects=rejects)


@settings(max_examples=12, deadline=None)
@given(
    n=st.integers(8, 24), load=st.integers(2, 5), salt=st.integers(0, 2**32),
    depth_cap=st.integers(1, 12), data=st.data(),
)
def test_growing_block_predicate_on_spliced_subtrees(n, load, salt, depth_cap, data):
    """Open taxa of forced subtrees spliced in whole go to the check."""
    k = data.draw(st.integers(2, load), label="k")
    rejects = paired_rejects(salted_pairs(n, salt), depth_cap)
    assert_same_stream(fully_loaded(n, load), k, 3000, rejects)


def any_tree(n, seed):
    return random_tree(n, seed=seed) if n >= 3 else caterpillar(n)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(4, 12), seed=st.integers(0, 2**32), salt=st.integers(0, 2**32))
def test_growing_blocks_are_cut_where_they_first_fail(n, seed, salt):
    """The check sees each open block whole where two open blocks merge,
    so no block goes on past a salted pair: a block that holds one reaches
    the check only when the pair's taxa meet at the block's own top
    vertex, the merge there offering it at once.  At k = 1 no subtree is
    spliced in whole, so every block the check sees was built by merges
    the walk made."""
    tree = random_tree(n, seed=seed)
    pairs = salted_pairs(n, salt)
    rejects = paired_rejects(pairs, n)
    children = _joined_children(tree)
    top = len(children) - 1
    below = [1 << v for v in range(n)] + [0] * (top + 1 - n)
    for v in [*range(top - 1, n - 1, -1), top]:  # children before parents
        below[v] = below[children[v][0]] | below[children[v][1]]

    def meet(mask):
        """The lowest vertex with every taxon of ``mask`` below it."""
        return min((v for v in range(n, top + 1) if mask & below[v] == mask),
                   key=lambda v: below[v].bit_count())

    seen = []

    def check(block, depth):
        seen.append(block)
        return not rejects(block, depth)

    deque(_block_stream(tree, 1, check), maxlen=0)
    for block in seen:
        for pair in pairs:
            assert block & pair != pair or meet(pair) == meet(block), (block, pair)


# A block limit L: the stream loses the characters with L blocks or more,
# cut at the choice points above them by the floor of one block per cut
# edge.

@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 12), k=st.integers(1, 4), seed=st.integers(0, 2**32),
       limit=st.integers(1, 13))
def test_block_limit_removes_large_characters(n, k, seed, limit):
    assert_same_stream(any_tree(n, seed), k, 5000, limit=limit)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 12), k=st.integers(1, 4), seed=st.integers(0, 2**32),
    limit=st.integers(1, 13), size_cap=st.integers(1, 12), depth_cap=st.integers(1, 12),
)
def test_block_limit_with_filtering_hook(n, k, seed, limit, size_cap, depth_cap):
    assert_same_stream(any_tree(n, seed), k, 5000, sized_rejects(size_cap, depth_cap), limit)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 12), k=st.integers(1, 4), seed=st.integers(0, 2**32),
    limit=st.integers(1, 13), salt=st.integers(0, 2**32), depth_cap=st.integers(1, 12),
)
def test_growing_block_predicate_with_block_limit(n, k, seed, limit, salt, depth_cap):
    rejects = paired_rejects(salted_pairs(n, salt), depth_cap)
    assert_same_stream(any_tree(n, seed), k, 5000, rejects, limit)


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(8, 24), load=st.integers(2, 5), limit=st.integers(1, 14),
    salt=st.integers(0, 2**32), hooked=st.booleans(), data=st.data(),
)
def test_block_limit_on_spliced_subtrees(n, load, limit, salt, hooked, data):
    """Forced subtrees spliced in whole and blocks spliced back from the
    previous character, under a limit, with or without a check."""
    k = data.draw(st.integers(2, load), label="k")
    rejects = paired_rejects(salted_pairs(n, salt), n) if hooked else None
    assert_same_stream(fully_loaded(n, load), k, 3000, rejects, limit)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 12), k=st.integers(1, 4), seed=st.integers(0, 2**32), data=st.data())
def test_lowering_the_limit_between_characters(n, k, seed, data):
    """The limit read at each step is the one in force: lowered after
    some characters, as a scan does at each new incumbent, the stream
    goes on as the oracle filtered by the new limit."""
    tree = random_tree(n, seed=seed)
    cuts = data.draw(st.dictionaries(st.integers(1, 40), st.integers(1, n), max_size=4),
                     label="limit after character")
    limit = [n + 1]
    want, got = [], []
    remaining = iter(oracle_stream(tree, k))
    for live, _, _ in _block_stream(tree, k, None, limit):
        want.append(next(c for c in remaining if len(c) < limit[0]))
        got.append(tuple(live))
        limit[0] = min(limit[0], cuts.get(len(got), limit[0]))
    assert got == want
    assert not [c for c in remaining if len(c) < limit[0]]


def test_unbounded_limit_changes_nothing():
    for tree, k in ((random_tree(10, seed=3), 1), (caterpillar(24), 3), (fully_loaded(25, 4), 4)):
        plain = [(list(live), list(dropped), list(added))
                 for live, dropped, added in _block_stream(tree, k)]
        for check in (None, lambda block, depth: True):
            limited = [(list(live), list(dropped), list(added))
                       for live, dropped, added in _block_stream(tree, k, check, [tree.n + 1])]
            assert limited == plain


def test_accept_everything_hook_changes_nothing():
    for tree, k in ((random_tree(10, seed=3), 1), (caterpillar(24), 3), (fully_loaded(25, 4), 4)):
        plain = [(list(live), list(dropped), list(added))
                 for live, dropped, added in _block_stream(tree, k)]
        hooked = [(list(live), list(dropped), list(added))
                  for live, dropped, added in _block_stream(tree, k, lambda block, depth: True)]
        assert hooked == plain


def test_rejecting_every_block_yields_nothing():
    for text in ("x;", "(x,y);", "(x,y,z);"):
        assert list(_block_stream(parse_newick(text), 1, lambda block, depth: False)) == []
    assert list(_block_stream(random_tree(9, seed=1), 2, lambda block, depth: False)) == []


def line_events_per_character(tree, k, first=2, last=201):
    """Line events of the code in ``characters.py`` per character, from
    character ``first`` to ``last``."""
    stream = _block_stream(tree, k)
    for _ in range(first - 1):
        next(stream)
    events = line_events(lambda: [next(stream) for _ in range(last - first + 1)],
                         (characters,))
    return events / (last - first + 1)


def test_work_per_character_is_flat_in_depth():
    """A character costs work in proportion to what changes: on a
    caterpillar at k=3 that stays flat from 200 to 2000 taxa, and stays
    close to a random tree's, whose depth is far smaller."""
    deep = line_events_per_character(caterpillar(2000), 3)
    shallow = line_events_per_character(caterpillar(200), 3)
    bushy = line_events_per_character(random_tree(2000), 3)
    assert deep <= 1.5 * shallow, (deep, shallow)
    assert deep <= 3 * bushy, (deep, bushy)


def test_forced_subtrees_are_not_walked_again():
    """A subtree with one completion for the allowed states of its edge is
    spliced in whole once it has been walked: far less work per character
    where such subtrees are common, and at k=1, where no internal vertex
    is forced, no more than one test per vertex entered.  The bounds are
    fractions of the line events of the stream that walked every subtree
    (293.6, 612.8 and 161.0)."""
    assert line_events_per_character(caterpillar(35), 4) <= 0.7 * 293.6
    assert line_events_per_character(random_tree(40, seed=0), 5) <= 0.55 * 612.8
    assert line_events_per_character(random_tree(12, seed=0), 1) <= 1.03 * 161.0


def test_first_character_builds_only_the_options_it_takes():
    """The stream runs the DP, then builds only the options its first
    character takes, so that character costs little beyond the count: the
    line events of ``characters.py`` and ``counting.py`` for the first
    character, less those of ``count_convex``, bounded at 5% above 79 752
    and 84 977 (the stream that built its edge rule's rows read those;
    building every option of each vertex entered read 2.36 and 2.35 times
    the count)."""
    modules = (characters, counting)
    for tree, bound in ((caterpillar(2000), 1.05 * 79_752), (random_tree(2000), 1.05 * 84_977)):
        first = line_events(lambda: next(_block_stream(tree, 3)), modules)
        count = line_events(lambda: count_convex(tree, 3), modules)
        assert first - count <= bound, (tree.n, first - count)


def test_agreement_limit_cuts_at_choice_points(monkeypatch):
    """The agreement scan's limit is the incumbent's block count, applied
    at the choice points: on a random 14-taxon pair at k = 1 the answer
    is 7 components, and at most 110 000 blocks reach the block check.
    The scan that applied the limit only as blocks closed offered 185 423
    blocks to its hook, 134 603 of which went on to the block check.

    The check also rejects a block while it is open, where two open blocks
    merge into it, so a block bound to fail no longer costs the walk of
    the subtrees above it: with those calls counted, the check runs at
    most 60 000 times (52 766; 85 921 when it saw blocks only as they
    closed)."""
    offered = 0
    block_check = solvers._agreeing_blocks

    def counted(trees):
        check = block_check(trees)

        def counting_check(block, depth):
            nonlocal offered
            offered += 1
            return check(block, depth)
        return counting_check

    monkeypatch.setattr(solvers, "_agreeing_blocks", counted)
    res = agreement_forest_min_components(random_tree(14, seed=0), random_tree(14, seed=1), 1)
    assert res.objective_value == 7
    assert res.characters_scanned == count_convex(random_tree(14, seed=0), 1)
    assert offered <= 110_000, offered
    assert offered <= 60_000, offered


def swapped(tree, i, j):
    """The same shape with the taxa of ids ``i`` and ``j`` exchanged."""
    swap = {tree.labels[i]: tree.labels[j], tree.labels[j]: tree.labels[i]}
    text = re.sub(r"[^(),;]+", lambda m: swap.get(m.group(), m.group()), tree.canonical_newick())
    return parse_newick(text)


def test_agreement_prunes_the_stream():
    """The agreement scan checks each block as it closes and while it is open,
    and draws no character below a rejected one: all of its line events
    in ``characters.py``, ``counting.py`` and ``solvers.py`` stay under
    half of those of drawing every character of the scanned tree in
    ``characters.py`` and ``counting.py``, scoring left out.  On a random
    19-taxon pair at k = 2 (no agreement forest) and a 12-taxon tree
    against itself with two taxa swapped at k = 1 (three components), they
    read 11.9 and 35.0 times fewer, the DP runs on both sides and the
    stream's floors included, and must stay at least 10 and 30 times
    fewer.  Checking blocks only as they closed read 5.68 and 21.1, with
    ``counting.py`` left out of both sides.

    A cheaper draw of every character lowers the ratio without the scan
    doing more, so the scan's own line events are bounded as well, at
    1.05 times the 34 517 and 103 662 they read."""
    pairs = (
        (random_tree(19, seed=0), random_tree(19, seed=100), 2, 10, 34_517),
        (random_tree(12, seed=0), swapped(random_tree(12, seed=0), 3, 9), 1, 30, 103_662),
    )
    for t1, t2, k, fewer, read in pairs:
        drawn = line_events(lambda: deque(_block_stream(t1, k), maxlen=0),
                            (characters, counting))
        pruned = line_events(lambda: agreement_forest_min_components(t1, t2, k),
                             (characters, counting, solvers))
        assert 2 * pruned <= drawn, (t1.n, k, drawn, pruned)
        assert fewer * pruned <= drawn, (t1.n, k, drawn, pruned)
        assert pruned <= 1.05 * read, (t1.n, k, pruned)


def test_pruned_scan_runs_the_dp_once_for_its_stream(monkeypatch):
    """A pruned scan's floors need no DP of their own: agreement at k = 3
    on ``random_tree(24, seed=1)`` against itself with the 13th and 14th
    names of its canonical Newick swapped runs the counting DP twice, once
    for the stream's support and once for ``count_convex``, the count it
    reports as scanned, though the scan sets a limit (a forest of 2)."""
    runs = []

    def counted(*args):
        runs.append(args[1])
        return _dp_tables(*args)

    monkeypatch.setattr(characters, "_dp_tables", counted)
    monkeypatch.setattr(counting, "_dp_tables", counted)
    tree = random_tree(24, seed=1)
    names = re.findall(r"[^(),;]+", tree.canonical_newick())[12:14]
    res = agreement_forest_min_components(tree, swapped(tree, *map(tree.taxon_id, names)), 3)
    assert (res.objective_value, res.characters_scanned) == (2, 1056)
    assert runs == [3, 3]

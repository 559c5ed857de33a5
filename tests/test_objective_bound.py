"""The flat Fitch kernel, the Fitch-equality convexity test and the bounded
objective scan, each against an independent or older reference."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convchar import (
    caterpillar,
    count_convex,
    enumerate_convex,
    is_convex,
    optimize_objective,
    parsimony_score,
    random_tree,
)
from convchar import solvers
from convchar.bruteforce import _convex
from convchar.characters import _parsimony


def old_parsimony(tree, masks):
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
    children = tree._children
    states = [0] * len(children)
    score = 0
    # Children first (the trees module's id invariant), taxon 0 left out.
    for v in (*range(1, n), *range(len(children) - 1, n - 1, -1)):
        if v < n:
            states[v] = 1 << block_of[v]
        else:
            a, b = (states[c] for c in children[v])
            inter = a & b
            if inter:
                states[v] = inter
            else:
                states[v] = a | b
                score += 1
    if not states[children[0][0]] & (1 << block_of[0]):
        score += 1
    return score


def any_tree(n, seed):
    return random_tree(n, seed=seed) if n >= 3 else caterpillar(n)


@st.composite
def tree_and_partition(draw, nmin, nmax):
    """A tree and the block masks of an arbitrary partition of its taxa,
    blocks in an arbitrary order."""
    n = draw(st.integers(nmin, nmax))
    tree = any_tree(n, draw(st.integers(0, 10 ** 6)))
    block_of = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    masks = [0] * n
    for taxon, b in enumerate(block_of):
        masks[b] |= 1 << taxon
    masks = [m for m in masks if m]
    return tree, draw(st.permutations(masks))


class TestFlatFitch:
    @settings(max_examples=600, deadline=None)
    @given(tree_and_partition(1, 14))
    def test_equals_old_kernel(self, case):
        tree, masks = case
        assert _parsimony(tree, masks) == old_parsimony(tree, masks)

    def test_equals_old_kernel_on_every_partition_of_small_trees(self):
        for n in (1, 2, 3, 4, 5):
            tree = any_tree(n, n)
            for bits in range(n ** n):
                masks = [0] * n
                for taxon in range(n):
                    bits, b = divmod(bits, n)
                    masks[b] |= 1 << taxon
                masks = [m for m in masks if m]
                assert _parsimony(tree, masks) == old_parsimony(tree, masks)


class TestIsConvex:
    @settings(max_examples=600, deadline=None)
    @given(tree_and_partition(1, 12))
    def test_equals_edge_count_check(self, case):
        tree, masks = case
        labels = [[tree.labels[i] for i in range(tree.n) if m >> i & 1] for m in masks]
        assert is_convex(tree, labels) == _convex(tree, masks)

    def test_deep_caterpillar_is_linear(self):
        # 10 000 two-taxon blocks on 20 000 taxa: one Fitch pass, where the
        # edge-by-block check takes minutes.
        t = caterpillar(20_000)
        first = next(enumerate_convex(t, 2))
        assert is_convex(t, first)
        blocks = [list(b) for b in first.blocks]
        blocks[0][1], blocks[-1][1] = blocks[-1][1], blocks[0][1]
        assert not is_convex(t, blocks)


def reference_optimum(tree, trees, k):
    """First strict minimum of the summed Fitch score over the stream, every
    character scored in full."""
    best = best_value = None
    for ch in enumerate_convex(tree, k):
        value = sum(parsimony_score(t, ch) for t in trees)
        if best_value is None or value < best_value:
            best, best_value = ch, value
    return best, best_value


class TestBoundedObjective:
    @pytest.mark.slow
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(3, 11),
        k=st.integers(1, 3),
        seeds=st.lists(st.integers(0, 10 ** 6), min_size=2, max_size=4),
        data=st.data(),
    )
    def test_equals_unbounded_reference(self, n, k, seeds, data):
        tree = random_tree(n, seed=seeds[0])
        scored = [random_tree(n, seed=s) for s in seeds[1:]]
        if data.draw(st.booleans(), label="scanned tree is scored"):
            scored[data.draw(st.integers(0, len(scored) - 1))] = tree
        character, value = reference_optimum(tree, scored, k)
        res = optimize_objective(tree, scored, k)
        assert res.character == character
        assert res.objective_value == value
        assert res.characters_scanned == count_convex(tree, k)

    def test_fitch_passes_are_bounded(self, monkeypatch):
        calls = 0

        def counted(tree, masks):
            nonlocal calls
            calls += 1
            return _parsimony(tree, masks)

        monkeypatch.setattr(solvers, "_parsimony", counted)
        trees = [random_tree(19, seed=s) for s in range(3)]
        res = optimize_objective(trees[0], trees, 2)
        count = count_convex(trees[0], 2)
        assert res.characters_scanned == count == 2584
        # Scoring every tree in full takes 3 * 2584 = 7752 passes; the
        # floor rule takes 1010 here.
        assert calls <= (len(trees) - 1) * count / 3

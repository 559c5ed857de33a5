import re
import sys
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convchar import (
    Character,
    SolveInstance,
    SolveResult,
    agreement_forest_min_components,
    all_partitions,
    caterpillar,
    count_convex,
    enumerate_convex,
    fibonacci,
    fully_loaded,
    is_convex,
    optimize_objective,
    parse_newick,
    parsimony_score,
    quartet_exact_partition,
    random_tree,
    solve,
)
from convchar.bruteforce import _convex
from convchar.characters import _block_stream, _parsimony
from convchar.solvers import _agreeing_blocks, _restricted_splits
from convchar.trees import Split, _decode


def swap_labels(tree, a, b):
    """The same shape with taxa ``a`` and ``b`` exchanged."""
    swap = {a: b, b: a}
    text = re.sub(r"[^(),;]+", lambda m: swap.get(m.group(), m.group()), tree.canonical_newick())
    return parse_newick(text)


def restrictions_agree(t1, t2, block):
    labels = t1._labels_of(block)
    return t1.restrict(labels).canonical_newick() == t2.restrict(labels).canonical_newick()


def split_sets_agree(t1, t2, block):
    return _restricted_splits(t1, block) == _restricted_splits(t2, block)


class TestRestrictedSplits:
    def test_examples(self):
        t1 = caterpillar(6)
        t2 = caterpillar(6, ["a", "c", "b", "d", "e", "f"])
        abcd, adef = 0b001111, 0b111001
        assert not split_sets_agree(t1, t2, abcd)
        assert split_sets_agree(t1, t2, adef)
        assert _restricted_splits(t1, abcd) == {0b1100}

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(3, 12),
        seed=st.integers(0, 10 ** 6),
        data=st.data(),
    )
    def test_matches_restriction_equality(self, n, seed, data):
        t1 = random_tree(n, seed=seed)
        if data.draw(st.booleans()):
            t2 = random_tree(n, seed=seed + 1)
        else:
            a, b = data.draw(st.lists(st.sampled_from(t1.labels), min_size=2, max_size=2, unique=True))
            t2 = swap_labels(t1, a, b)
        block = data.draw(st.integers(1, (1 << n) - 1))
        assert split_sets_agree(t1, t2, block) == restrictions_agree(t1, t2, block)


class TestAgreementForest:
    def test_tree_agrees_with_itself(self):
        for seed in range(5):
            t = random_tree(8, seed=seed)
            for k in (1, 2, 3):
                res = agreement_forest_min_components(t, t, k)
                assert res.character == Character([t.labels])
                assert res.objective_value == 1
                assert res.characters_scanned == count_convex(t, k)

    def test_cherry_swap_needs_two_components(self):
        t1 = caterpillar(6)
        t2 = caterpillar(6, ["a", "c", "b", "d", "e", "f"])
        res = agreement_forest_min_components(t1, t2, 2)
        assert res.character is not None
        assert res.objective_value >= 2
        # Independent exhaustive filter over every min-block-2 partition.
        best = None
        for ch in all_partitions(sorted(t1.labels), 2):
            if not (is_convex(t1, ch) and is_convex(t2, ch)):
                continue
            if all(
                t1.restrict(b).canonical_newick() == t2.restrict(b).canonical_newick()
                for b in ch.blocks
            ):
                if best is None or ch.block_count < best:
                    best = ch.block_count
        assert res.objective_value == best

    def test_full_block_requires_isomorphism(self):
        t1 = random_tree(7, seed=1)
        t2 = random_tree(7, seed=2)
        assert t1 != t2
        res = agreement_forest_min_components(t1, t2, 7)
        assert res.character is None
        assert res.characters_scanned == 1

    def test_taxon_mismatch(self):
        with pytest.raises(ValueError):
            agreement_forest_min_components(
                caterpillar(5), caterpillar(5, list("vwxyz")), 2
            )


class TestQuartetPartition:
    def test_two_pendant_quartets(self):
        t = fully_loaded(8, 5)
        res = quartet_exact_partition([t, t])
        assert res.character is not None
        assert {frozenset(b) for b in res.character.blocks} == {
            frozenset("abcd"),
            frozenset("efgh"),
        }
        assert res.objective_value == 2

    def test_infeasible_size(self):
        t = random_tree(7, seed=0)
        res = quartet_exact_partition([t])
        assert res.character is None
        assert res.characters_scanned == 0

    def test_no_balanced_split_means_none(self):
        t = parse_newick("(((a,b),c),(d,e),(f,(g,h)));")
        assert not any(len(sp.side_b) == 4 for sp in t.splits())
        res = quartet_exact_partition([t, t])
        assert res.character is None

    def test_duplicated_tree_matches_single(self):
        t = caterpillar(8)
        single = quartet_exact_partition([t])
        double = quartet_exact_partition([t, t])
        assert single.character == double.character


class TestObjective:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(3, 10),
        k=st.integers(1, 3),
        seeds=st.lists(st.integers(0, 2**32), min_size=1, max_size=3, unique=True),
    )
    def test_single_tree_optimum_is_zero(self, n, k, seeds):
        # sum_parsimony always picks the one-block character, the last in
        # stream order, on any set of distinct trees over one taxon set.
        drawn = (random_tree(n, seed=s) for s in seeds)
        trees = list({t.canonical_newick(): t for t in drawn}.values())
        res = optimize_objective(trees[0], trees, k)
        *_, last = enumerate_convex(trees[0], k)
        assert res.objective_value == 0
        assert res.character == last == Character([trees[0].labels])
        assert res.characters_scanned == count_convex(trees[0], k)

    def test_matches_exhaustive_minimum(self):
        t1 = caterpillar(6)
        t2 = caterpillar(6, ["a", "c", "b", "d", "e", "f"])
        res = optimize_objective(t1, [t1, t2], 2)
        scores = [
            parsimony_score(t1, ch) + parsimony_score(t2, ch)
            for ch in enumerate_convex(t1, 2)
        ]
        assert len(scores) == 5  # the min-block-2 count of a 6-taxon tree
        assert res.objective_value == min(scores)
        assert res.characters_scanned == 5

    def test_empty_stream(self):
        t = random_tree(5, seed=0)
        res = optimize_objective(t, [t], 9)
        assert res.character is None
        assert res.characters_scanned == 0

    def test_unknown_objective(self):
        t = random_tree(5, seed=0)
        with pytest.raises(ValueError):
            optimize_objective(t, [t], 2, objective="sum_likelihood")


class TestSolveInstance:
    def test_json_round_trip(self):
        t = caterpillar(6)
        inst = SolveInstance.from_json_dict(
            {
                "trees": [t.canonical_newick(), t.canonical_newick()],
                "k": 2,
                "mode": "agreement_forest_min_components",
            }
        )
        res = solve(inst)
        out = res.to_json_dict()
        assert out["character"] == "a,b,c,d,e,f"
        assert out["objective_value"] == 1
        assert out["characters_scanned"] == "5"
        assert isinstance(out["wall_time_ms"], float)

    def test_scanned_count_past_the_int_to_str_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        scanned = fibonacci(21_999)  # 4 598 digits, past the default limit of 4 300
        out = SolveResult(None, None, scanned, 0.0).to_json_dict()
        digits = out["characters_scanned"]
        assert len(digits) == 4598 and digits.isdigit() and Decimal(digits) == scanned
        assert sys.get_int_max_str_digits() == limit

    def test_schema_errors(self):
        with pytest.raises(ValueError):
            SolveInstance.from_json_dict({"mode": "agreement_forest_min_components"})
        with pytest.raises(ValueError):
            SolveInstance.from_json_dict({"trees": ["(a,b);"], "mode": "bogus"})
        with pytest.raises(ValueError):
            SolveInstance.from_json_dict(
                {"trees": ["((a,b),c);", "((x,y),z);"], "mode": "quartet_exact_partition"}
            )
        for mode in ("agreement_forest_min_components", "quartet_exact_partition"):
            with pytest.raises(ValueError, match="unknown objective"):
                SolveInstance.from_json_dict(
                    {"trees": ["((a,b),c);"] * 2, "mode": mode, "objective": "bogus"}
                )

    def test_agreement_needs_two_trees(self):
        with pytest.raises(ValueError):
            solve(
                SolveInstance(
                    trees=(caterpillar(5),),
                    k=1,
                    mode="agreement_forest_min_components",
                )
            )


# The scans as they were before the stream was pruned, kept as the judge of
# the pruned ones: every character drawn, and each scored in full.

def _agree(trees, masks):
    """True iff the character is convex on every tree after the first (the
    scanned one) and each block restricts to the same tree in all of them."""
    return all(_convex(t, masks) for t in trees[1:]) and all(
        len({_restricted_splits(t, b) for t in trees}) == 1 for b in masks
    )


def reference_scan(tree, k, score, first_only=False):
    """(character, objective_value, characters_scanned) of the first
    character with the lowest score, every character drawn until then."""
    best = best_value = None
    scanned = 0
    for masks, _, _ in _block_stream(tree, k):
        scanned += 1
        value = score(masks, best_value)
        if value is not None and (best_value is None or value < best_value):
            best, best_value = tuple(masks), value
            if first_only:
                break
    character = None if best is None else Character._canonical(
        tuple(sorted(_decode(tree.labels, bm) for bm in best)))
    return character, best_value, scanned


def reference_agreement(t1, t2, k):
    def score(masks, best):
        if (best is None or len(masks) < best) and _agree((t1, t2), masks):
            return len(masks)
        return None

    return reference_scan(t1, k, score)


def reference_quartets(trees):
    n = trees[0].n

    def score(masks, best):
        if 4 * len(masks) == n and _agree(trees, masks):
            return len(masks)
        return None

    return reference_scan(trees[0], 4 if n % 4 == 0 else n + 1, score, first_only=True)


def reference_objective(tree, trees, k):
    return reference_scan(tree, k, lambda masks, best: sum(_parsimony(t, masks) for t in trees))


def outcome(result):
    return result.character, result.objective_value, result.characters_scanned


@st.composite
def tree_pairs(draw, sizes=st.integers(3, 12), loaded=False):
    """Two trees on one taxon set: independent random trees, or one tree and
    the same shape with two taxa swapped.  With ``loaded``, the first tree
    may be fully loaded at 5, so it has pendant quartets."""
    n = draw(sizes)
    if loaded and n >= 5 and draw(st.booleans()):
        t1 = fully_loaded(n, 5)
    else:
        t1 = random_tree(n, seed=draw(st.integers(0, 10 ** 6)))
    if draw(st.booleans()):
        return t1, random_tree(n, seed=draw(st.integers(0, 10 ** 6)))
    a, b = draw(st.lists(st.sampled_from(t1.labels), min_size=2, max_size=2, unique=True))
    return t1, swap_labels(t1, a, b)


class TestPrunedScans:
    """Agreement and objective scans prune the stream as blocks close, and
    quartets score through the same block check: each answers as the
    unpruned scan does, characters_scanned included."""

    @settings(max_examples=120, deadline=None)
    @given(pair=tree_pairs(), k=st.integers(1, 3))
    def test_agreement_matches_reference(self, pair, k):
        t1, t2 = pair
        assert outcome(agreement_forest_min_components(t1, t2, k)) == reference_agreement(t1, t2, k)

    @settings(max_examples=25, deadline=None)
    @given(pair=tree_pairs(), k=st.integers(1, 3))
    def test_objective_matches_reference(self, pair, k):
        t1, t2 = pair
        for trees in ((t1, t2), (t2,), (t2, t1, t2)):
            assert outcome(optimize_objective(t1, trees, k)) == reference_objective(t1, trees, k)

    @settings(max_examples=60, deadline=None)
    @given(pair=tree_pairs(st.sampled_from((4, 8, 12, 16)), loaded=True))
    def test_quartets_match_reference(self, pair):
        t1, t2 = pair
        for trees in ((t1, t2), (t1, t1), (t1,)):
            assert outcome(quartet_exact_partition(trees)) == reference_quartets(trees)


def spans_meet(tree, a, b):
    """True when the spanning subtrees of the blocks ``a`` and ``b`` share
    an edge of ``tree``: both have taxa on both sides of one split."""
    a, b = tree._labels_of(a), tree._labels_of(b)
    return any(a & left and a & right and b & left and b & right
               for left, right in map(Split.sides, tree.splits()))


class TestAgreeingBlocks:
    """The agreement block check alone, as the stream calls its one check:
    a block as it closes at depth d, after the blocks accepted at depths
    0..d-1, and an open block at depth d, which joins no list, so the next
    call is again at depth d or less."""

    @settings(max_examples=150, deadline=None)
    @given(pair=tree_pairs(), data=st.data())
    def test_growing_and_closing_calls_match_a_fresh_answer(self, pair, data):
        t1, t2 = pair
        check = _agreeing_blocks((t1, t2))
        live = []
        for _ in range(data.draw(st.integers(1, 40), label="calls")):
            depth = data.draw(st.integers(0, len(live)), label="depth")
            del live[depth:]
            taken = sum(live)
            free = [i for i in range(t1.n) if not taken >> i & 1]
            if not free:
                continue
            block = sum(1 << i for i in data.draw(
                st.sets(st.sampled_from(free), min_size=1), label="block"))
            closing = data.draw(st.booleans(), label="closing")
            want = restrictions_agree(t1, t2, block) and not any(
                spans_meet(t2, block, b) for b in live)
            assert check(block, depth) == want, (live, block, depth)
            if closing and want:
                live.append(block)

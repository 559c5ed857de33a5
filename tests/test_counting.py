import re
import tracemalloc
from collections import Counter
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convchar import (
    brute_count,
    caterpillar,
    caterpillar_closed_k3,
    caterpillar_count,
    count_closed_k1,
    count_closed_k2,
    count_convex,
    fibonacci,
    fibonacci_float_check,
    fully_loaded,
    fully_loaded_count,
    growth_rate,
    parse_newick,
    random_tree,
    rate_table_tsv,
    split_recurrence_holds,
)
from convchar import TreeError, counting
from convchar.characters import _block_stream
from convchar.counting import (
    _count_text,
    _dp_tables,
    _join_vectors,
    _joined_children,
    _partners,
)
from convchar.verify import (
    cherry_bound,
    closed_forms,
    growth_rates,
    small_n_counts,
    two_block_floor,
)

from conftest import join_states, line_events
from test_trees import decorated_newick


class TestCountConvex:
    def test_worked_example_counts(self, example7):
        assert [count_convex(example7, k) for k in (1, 2, 3, 4)] == [233, 8, 3, 1]

    def test_zero_below_k_and_one_below_2k(self):
        cases = ((random_tree(5, seed=seed), k) for seed in range(5) for k in (3, 6, 99))
        assert small_n_counts(cases) == "15 cases"

    def test_cherry_bound(self):
        assert cherry_bound(random_tree(6 + i % 12, seed=i) for i in range(80)) == "80 trees"

    def test_two_characters_from_3k_minus_2(self):
        cases = ((random_tree(3 * k - 2 + i, seed=i), k) for k in range(2, 6) for i in range(8))
        assert two_block_floor(cases) == "32 trees"

    def test_degenerate_sizes(self):
        one = parse_newick("x;")
        two = parse_newick("(x,y);")
        assert count_convex(one, 1) == 1
        assert count_convex(one, 2) == 0
        assert count_convex(two, 1) == 2
        assert count_convex(two, 2) == 1
        assert count_convex(two, 3) == 0

    def test_k_must_be_positive(self, example7):
        with pytest.raises(ValueError):
            count_convex(example7, 0)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), n=st.integers(4, 9), data=st.data())
    def test_matches_brute_force(self, seed, n, data):
        """Every k up to n + 1, so the oracle also judges vectors shorter
        than k + 1 and the saturation at k near n."""
        k = data.draw(st.integers(1, n + 1), label="k")
        t = random_tree(n, seed=seed)
        assert count_convex(t, k) == brute_count(t, k)

    def test_leaf_steps_cost_the_same_at_any_k(self):
        """Every join of a caterpillar has a leaf child, and joining a leaf
        shifts the sibling's vector up one state at any k.  So the line
        events of ``counting.py`` for ``count_convex(caterpillar(2000), k)``,
        46 004 at both k = 2 and k = 10, stay within 1.01 times apart and
        1.05 times 46 011.  The double loop over states read 75 995 and
        123 775."""
        tree = caterpillar(2000)
        events = {k: line_events(lambda: count_convex(tree, k), (counting,)) for k in (2, 10)}
        assert events[10] <= 1.01 * events[2], events
        assert events[10] <= 1.05 * 46_011, events

    def test_memory_stays_linear_at_large_k(self):
        """Vectors stop at the taxa below and no join table is built, so a
        count at k = n/2 stays small: 41 KB, against 5.9 MB with (k+1)-wide
        vectors and a (k+1)^2 join table."""
        t = caterpillar(600)
        tracemalloc.start()
        try:
            assert count_convex(t, 300) == caterpillar_count(600, 300)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, peak

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), n=st.integers(3, 16))
    def test_topology_free_closed_forms(self, seed, n):
        closed_forms([random_tree(n, seed=seed)])


# Newick punctuation or one word (a label or a branch length).
_PIECE = re.compile(r"[(),:;]|[^\s(),:;]+")


def text_outcome(text: str, k: int):
    try:
        return _count_text(text, k)
    except TreeError as exc:
        return type(exc), str(exc)


def parse_outcome(text: str, k: int):
    try:
        tree = parse_newick(text)
    except TreeError as exc:
        return type(exc), str(exc)
    return tree.n, count_convex(tree, k)


def mutated(text: str, draw) -> str:
    """``text`` with one token deleted, doubled, swapped with the next one
    or, for a word, replaced by another word of the text, which makes
    duplicate labels."""
    spans = [m.span() for m in _PIECE.finditer(text)]
    i = draw(st.integers(0, len(spans) - 1), label="token")
    a, b = spans[i]
    how = draw(st.sampled_from(["delete", "double", "swap", "replace"]), label="how")
    if how == "delete":
        return text[:a] + text[b:]
    if how == "double":
        return text[:b] + " " + text[a:b] + text[b:]
    if how == "swap" and i + 1 < len(spans):
        c, d = spans[i + 1]
        return text[:a] + text[c:d] + text[b:c] + text[a:b] + text[d:]
    words = [text[c:d] for c, d in spans if text[c] not in "(),:;"]
    return text[:a] + draw(st.sampled_from(words), label="word") + text[b:]


class TestTextCount:
    """``_count_text`` reads the count off the Newick text, rooted where
    the text is rooted, and must give what parsing and counting give, or
    the same error."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 10 ** 6), n=st.integers(3, 12))
    def test_decorated_text_counts_as_its_tree(self, data, seed, n):
        t = random_tree(n, seed=seed)
        text = decorated_newick(t, data.draw)
        for k in range(1, 6):
            assert _count_text(text, k) == (t.n, count_convex(t, k)), (text, k)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 10 ** 6), n=st.integers(3, 8),
           k=st.integers(1, 5))
    def test_mutated_text_agrees_with_parse(self, data, seed, n, k):
        text = mutated(decorated_newick(random_tree(n, seed=seed), data.draw), data.draw)
        assert text_outcome(text, k) == parse_outcome(text, k), text

    @pytest.mark.parametrize("text", ["(a,b,c);", "((a,b,c));", "(a,(b,c),d)x:1;"])
    def test_topology_free_counts(self, text):
        n = parse_newick(text).n
        assert _count_text(text, 1) == (n, fibonacci(2 * n - 1))
        assert _count_text(text, 2) == (n, fibonacci(n - 1))

    @pytest.mark.parametrize("text", ["x;", "((x));", "(x,y);", "((x:1,y)z);"])
    def test_fewer_taxa_than_k(self, text):
        for k in range(1, 5):
            assert text_outcome(text, k) == parse_outcome(text, k), (text, k)

    @pytest.mark.parametrize("text", [
        "((a,b,c),d,e);", "(a,b,(c,d,e));", "((a,b,c),d);", "(((a,b,c)),d);",
        "(a,a,b);", "((a,b),(c,a));", "(a,b,c,d);", "((a,b),c;", "(a,(b,c)x y,d);",
    ])
    def test_errors_are_those_of_the_parse(self, text):
        with pytest.raises(TreeError) as info:
            parse_newick(text)
        with pytest.raises(TreeError) as got:
            _count_text(text, 2)
        assert (type(got.value), str(got.value)) == (type(info.value), str(info.value))


class TestEdgeRule:
    """The edge rule of ``counting``'s docstring: ``join_states``
    (``conftest.py``) states it pointwise, as the reference, and
    ``_partners``, which the listing stream reads, in mask form; the DP is
    held to it by the brute-force counts."""

    @staticmethod
    def partners_by_join(J, S, k):
        return sum(
            1 << j2 for j2 in range(k + 1)
            if any(S >> s & 1 for j1 in range(k + 1) if J >> j1 & 1
                   for s in join_states(j1, j2, k))
        )

    def test_each_state_against_join(self):
        for k in range(1, 9):
            cut, opened = 1, (1 << k + 1) - 2
            for j1 in range(k + 1):
                for S in range(1 << k + 1):
                    want = self.partners_by_join(1 << j1, S, k)
                    got = _partners(1 << j1, S, k)
                    for half in (cut, opened):
                        assert got & half == want & half, (k, j1, S, half)

    def test_state_masks_against_join(self):
        for k in range(1, 6):
            for J in range(1 << k + 1):
                for S in range(1 << k + 1):
                    assert _partners(J, S, k) == self.partners_by_join(J, S, k), (k, J, S)

    def test_vector_join_against_join(self):
        """``_join_vectors`` on the two child vectors of every internal
        vertex and the top, as ``_dp_tables`` builds them, on caterpillar,
        random and fully loaded trees, n = 2..40 and k = 1..8: in both
        argument orders, each state is the sum of the products of the
        pairs of child states that ``join_states`` puts there.  A
        caterpillar joins a leaf at every vertex, the leaf step's shift,
        saturated or not."""
        for n in range(2, 41):
            for k in range(1, 9):
                trees = [caterpillar(n)] if n < 3 else [caterpillar(n), random_tree(n, seed=n)]
                if 2 <= k <= n:
                    trees.append(fully_loaded(n, k))
                cap = [min(s, k) for s in range(2 * k + 1)]
                for tree in trees:
                    children = _joined_children(tree)
                    vecs = dict(_dp_tables(tree, k))
                    for v in range(n, len(children)):
                        vf, vg = (vecs[c] for c in children[v])
                        want = [0] * (min(len(vf) + len(vg) - 2, k) + 1)
                        for j1, x in enumerate(vf):
                            for j2, y in enumerate(vg):
                                for s in join_states(j1, j2, k):
                                    want[s] += x * y
                        assert _join_vectors(vf, vg, k, cap) == want, (n, k, v)
                        assert _join_vectors(vg, vf, k, cap) == want, (n, k, v)


class TestCountsByBlocks:
    """The block stream counts the characters by block number."""

    def test_topology_free_identities(self):
        """C(2n - r - 1, r - 1) characters with r blocks at k = 1 and
        C(n - r - 1, r - 1) at k = 2, on every topology, summing to the
        count: the stream's characters tallied by length, on caterpillar
        and random trees, n <= 12."""
        for n in (3, 4, 7, 11, 12):
            for tree in (caterpillar(n), random_tree(n, seed=n)):
                for k, want in (
                    (1, [comb(2 * n - r - 1, r - 1) for r in range(1, n + 1)]),
                    (2, [comb(n - r - 1, r - 1) for r in range(1, n // 2 + 1)]),
                ):
                    tally = Counter(len(live) for live, _, _ in _block_stream(tree, k))
                    assert [tally[r] for r in range(1, len(want) + 1)] == want, (
                        tree.canonical_newick(), k)
                    assert sum(tally.values()) == sum(want) == count_convex(tree, k)


class TestClosedForms:
    def test_fibonacci_values(self):
        assert [fibonacci(m) for m in range(8)] == [0, 1, 1, 2, 3, 5, 8, 13]

    def test_k1_examples(self):
        assert count_closed_k1(7) == 233
        assert count_closed_k1(1) == 1
        assert count_closed_k1(4) == 13

    def test_k2_examples(self):
        assert count_closed_k2(7) == 8
        assert count_closed_k2(2) == 1
        assert count_closed_k2(10) == 34

    def test_float_cross_check_agrees_with_integers(self):
        for m in range(0, 71):
            assert fibonacci_float_check(m) == fibonacci(m)
        with pytest.raises(ValueError):
            fibonacci_float_check(71)

    def test_k1_k2_against_brute_force(self):
        t = random_tree(4, seed=0)
        assert brute_count(t, 1) == count_closed_k1(4)
        t = random_tree(10, seed=1)
        assert brute_count(t, 2) == count_closed_k2(10)


class TestCaterpillarCount:
    def test_recurrence_trace(self):
        assert [caterpillar_count(n, 3) for n in range(3, 8)] == [1, 1, 1, 2, 3]
        assert caterpillar_count(5, 3) == 1
        assert caterpillar_count(7, 3) == 3

    def test_matches_dp_on_generated_caterpillars(self):
        for k in range(2, 7):
            for n in range(1, 26):
                assert count_convex(caterpillar(n), k) == caterpillar_count(n, k)

    def test_k3_closed_form(self):
        for n in range(3, 31):
            assert caterpillar_closed_k3(n) == caterpillar_count(n, 3)
        with pytest.raises(ValueError):
            caterpillar_closed_k3(61)

    def test_closed_form_constants(self):
        from convchar.counting import _k3_closed_constants

        alpha, c = _k3_closed_constants()
        assert abs(alpha - 1.4655712319) < 1e-9
        # c is the real root of 31x^3 - 31x^2 + 9x - 1 rebased by alpha^3.
        root = 31 * (c * alpha ** 3) ** 3 - 31 * (c * alpha ** 3) ** 2 + 9 * (c * alpha ** 3) - 1
        assert abs(root) < 1e-9
        assert abs(c - 0.1942540040) < 1e-9

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            caterpillar_count(5, 1)


class TestFullyLoadedCount:
    def test_examples(self):
        assert fully_loaded_count(7, 3) == 2
        assert fully_loaded_count(7, 4) == 1
        for k in range(2, 8):
            assert fully_loaded_count(k, k) == 1

    def test_matches_dp_on_generated_trees(self):
        for k in (3, 4, 5):
            for n in range(k, 22):
                assert count_convex(fully_loaded(n, k), k) == fully_loaded_count(n, k)

    def test_needs_n_at_least_k(self):
        with pytest.raises(ValueError):
            fully_loaded_count(3, 4)


class TestGrowthRate:
    def test_published_table(self):
        assert rate_table_tsv(6).splitlines() == [
            "1\t2.618\t2.618",
            "2\t1.618\t1.618",
            "3\t1.272\t1.466",
            "4\t1.174\t1.380",
            "5\t1.128\t1.325",
            "6\t1.101\t1.285",
        ]

    def test_examples_with_tolerance(self):
        assert abs(growth_rate(3).max_rate - 1.466) < 1e-3
        assert abs(growth_rate(6).max_rate - 1.285) < 1e-3
        assert abs(growth_rate(6).min_rate - 1.101) < 1e-3
        assert abs(growth_rate(2).max_rate - 1.618034) < 1e-6

    def test_residuals_and_monotonicity(self):
        assert growth_rates(14) == "k <= 14"


class TestSplitRecurrence:
    def test_caterpillar(self):
        assert split_recurrence_holds(caterpillar(10), 3)

    def test_worked_example_terms(self, example7):
        # Deleting the pendant triple {a,b,c} versus deleting one taxon of it:
        # 3 = 1 + 2.
        assert count_convex(example7, 3) == 3
        assert count_convex(example7.delete("abc"), 3) == 1
        assert count_convex(example7.delete("a"), 3) == 2
        assert split_recurrence_holds(example7, 3)

    def test_fully_loaded_tree(self):
        assert split_recurrence_holds(fully_loaded(9, 3), 3)

    def test_no_applicable_split(self):
        with pytest.raises(ValueError):
            split_recurrence_holds(caterpillar(4), 99)

import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convchar import (
    Character,
    all_partitions,
    brute_count,
    caterpillar,
    count_convex,
    enumerate_convex,
    is_convex,
    parse_newick,
    parsimony_score,
    random_tree,
    stream_encoding,
)
from convchar.bruteforce import _convex
from convchar.characters import _block_stream, _rendered
from convchar.trees import _decode
from convchar.verify import enumeration_consistency


def brute_parsimony(tree, character):
    """Independent oracle: minimize bichromatic edges over every labelling
    of the internal vertices."""
    blocks = character.blocks
    state = {}
    for bi, block in enumerate(blocks):
        for lab in block:
            state[tree.taxon_id(lab)] = bi
    edges = []
    seen = set()
    for v in range(tree.num_vertices()):
        for u in tree.neighbors(v):
            if (u, v) not in seen:
                seen.add((v, u))
                edges.append((v, u))
    internal = [v for v in range(tree.num_vertices()) if not tree.is_leaf(v)]
    best = len(edges)
    for assign in itertools.product(range(len(blocks)), repeat=len(internal)):
        full = dict(state)
        full.update(zip(internal, assign))
        cost = sum(1 for u, v in edges if full[u] != full[v])
        best = min(best, cost)
    return best


class TestCharacter:
    def test_canonical_order(self):
        ch = Character([["d", "c"], ["b", "a"]])
        assert ch.blocks == (("a", "b"), ("c", "d"))
        assert ch.text() == "a,b|c,d"
        assert ch.to_lists() == [["a", "b"], ["c", "d"]]

    def test_parse_comma_and_compact(self):
        taxa = set("abcdefg")
        assert Character.parse("a,b|c").blocks == (("a", "b"), ("c",))
        assert Character.parse("abc|defg", taxa=taxa).blocks == (
            ("a", "b", "c"),
            ("d", "e", "f", "g"),
        )
        # A token that names an actual taxon stays one label.
        assert Character.parse("ab|c", taxa={"ab", "c"}).blocks == (("ab",), ("c",))

    def test_rejects_overlap_and_empty(self):
        with pytest.raises(ValueError):
            Character([["a"], ["a", "b"]])
        with pytest.raises(ValueError):
            Character([])
        with pytest.raises(ValueError):
            Character([[]])

    @pytest.mark.parametrize("make", [
        lambda: Character.parse("a||b"),
        lambda: Character.parse("a,,b|c"),
        lambda: Character.parse("|"),
        lambda: Character([[""]]),
        lambda: Character([["a"], ["b", ""]]),
        lambda: Character([["a", 1]]),
        lambda: Character([[None]]),
    ])
    def test_rejects_empty_and_non_string_taxa(self, make):
        with pytest.raises(ValueError, match="^taxon labels must be non-empty strings$"):
            make()

    def test_names_a_taxon_repeated_in_one_block(self):
        with pytest.raises(ValueError, match="^taxon 'a' appears twice in one block$"):
            Character([["a", "b", "a"]])
        with pytest.raises(ValueError, match="^taxon 'a' appears twice in one block$"):
            Character.parse("a,a|b")
        with pytest.raises(ValueError, match="^taxon 'a' appears in two blocks$"):
            Character([["b", "a"], ["a"]])

    def test_equality_and_hash(self):
        assert Character([["b"], ["a"]]) == Character([["a"], ["b"]])
        assert len({Character([["a", "b"]]), Character([["b", "a"]])}) == 1


class TestIsConvex:
    def test_worked_example_cases(self, example7):
        taxa = example7.taxa
        assert is_convex(example7, Character.parse("abde|c|fg", taxa=taxa))
        assert is_convex(example7, Character.parse("abc|defg", taxa=taxa))
        assert is_convex(example7, [example7.labels])
        assert not is_convex(example7, Character.parse("ag|bcdef", taxa=taxa))

    def test_not_a_partition_raises(self, example7):
        with pytest.raises(ValueError):
            is_convex(example7, Character([["a", "b"]]))

    def test_two_block_convex_iff_split(self):
        t = random_tree(7, seed=5)
        sides = {frozenset(s.side_b) for s in t.splits()}
        sides |= {frozenset(s.side_a) for s in t.splits()}
        labels = set(t.labels)
        for size in (2, 3):
            for block in itertools.combinations(sorted(labels), size):
                ch = Character([block, sorted(labels - set(block))])
                assert is_convex(t, ch) == (frozenset(block) in sides)


class TestParsimony:
    def test_worked_example_scores(self, example7):
        taxa = example7.taxa
        assert parsimony_score(example7, Character.parse("abc|defg", taxa=taxa)) == 1
        assert parsimony_score(example7, [example7.labels]) == 0
        assert parsimony_score(example7, Character.parse("ag|bcdef", taxa=taxa)) == 2

    def test_against_exhaustive_orbit(self):
        t = random_tree(6, seed=9)
        taxa = sorted(t.labels)
        for blocks in all_partitions(taxa, 1):
            if blocks.block_count <= 3:
                assert parsimony_score(t, blocks) == brute_parsimony(t, blocks)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), n=st.integers(4, 9))
    def test_score_floor_and_convexity(self, seed, n):
        t = random_tree(n, seed=seed)
        rngseed = seed + n
        import random as _random

        rng = _random.Random(rngseed)
        labs = list(t.labels)
        rng.shuffle(labs)
        cuts = sorted(rng.sample(range(1, n), rng.randrange(1, min(4, n))))
        blocks = [labs[i:j] for i, j in zip([0] + cuts, cuts + [n])]
        ch = Character(blocks)
        score = parsimony_score(t, ch)
        assert score >= ch.block_count - 1
        # is_convex is this equality, so check it against the edge-by-block
        # definition.
        masks = [t._mask_of(b) for b in ch.blocks]
        assert (score == ch.block_count - 1) == _convex(t, masks)


class TestEnumeration:
    def test_worked_example_streams(self, example7):
        taxa = example7.taxa
        got3 = {c.text() for c in enumerate_convex(example7, 3)}
        assert got3 == {"a,b,c,d,e,f,g", "a,b,c|d,e,f,g", "a,b,c,d|e,f,g"}
        got4 = [c.text() for c in enumerate_convex(example7, 4)]
        assert got4 == ["a,b,c,d,e,f,g"]
        got2 = {c.text() for c in enumerate_convex(example7, 2)}
        assert len(got2) == 8
        assert all(
            Character.parse(s, taxa=taxa).min_block_size >= 2 for s in got2
        )

    def test_empty_and_degenerate_streams(self):
        t = parse_newick("x;")
        assert [c.text() for c in enumerate_convex(t, 1)] == ["x"]
        assert list(enumerate_convex(t, 2)) == []
        assert stream_encoding(t, Character([["x"]])) == ()
        assert list(enumerate_convex(caterpillar(4), 9)) == []

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), n=st.integers(3, 12), k=st.integers(1, 5))
    def test_stream_length_matches_count(self, seed, n, k):
        t = random_tree(n, seed=seed)
        assert sum(1 for _ in enumerate_convex(t, k)) == count_convex(t, k)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), n=st.integers(3, 9), k=st.integers(1, 4))
    def test_soundness_order_and_superset_law(self, seed, n, k):
        enumeration_consistency([random_tree(n, seed=seed)], (k,))

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), n=st.integers(3, 8), k=st.integers(1, 4))
    def test_completeness_against_oracle(self, seed, n, k):
        k = min(k, n)
        t = random_tree(n, seed=seed)
        got = {c.text() for c in enumerate_convex(t, k)}
        want = {
            c.text()
            for c in all_partitions(sorted(t.labels), k)
            if is_convex(t, c)
        }
        assert got == want
        assert len(got) == brute_count(t, k)


def listed_lines(tree, k, lines=None):
    """Per character of a ``_rendered`` listing, the number of ``render``
    calls made so far; the line's text is checked against the block stream."""
    calls = 0

    def render(bm):
        nonlocal calls
        calls += 1
        return ("" if bm & 1 else "|") + ",".join(_decode(tree.labels, bm))

    rendered = _rendered(tree, k, render)
    for slots, (masks, _, _) in zip(itertools.islice(rendered, lines), _block_stream(tree, k)):
        want = sorted(masks, key=lambda m: m & -m)
        assert "".join(slots) == "|".join(",".join(sorted(tree._labels_of(m))) for m in want)
        yield calls


class TestRendering:
    def test_names_replace_the_labels(self):
        t = random_tree(9, seed=3)
        names = [f"<{label}>" for label in t.labels]
        got = ["|".join(filter(None, slots))
               for slots in _rendered(t, 2, lambda bm: ",".join(_decode(names, bm)))]
        want = [
            "|".join(",".join(f"<{label}>" for label in b) for b in ch.blocks)
            for ch in enumerate_convex(t, 2)
        ]
        assert got == want and len(got) == count_convex(t, 2)

    @pytest.mark.parametrize("tree, k, lines, per_line", [
        (caterpillar(36), 4, 16493, 0.15),
        (random_tree(20, seed=7), 2, 4181, 0.5),
        (random_tree(12, seed=2), 1, 28657, 0.5),  # more distinct blocks than the memo holds
    ])
    def test_each_block_is_rendered_about_once(self, tree, k, lines, per_line):
        """A block that comes back while the stream's memo holds it is not
        rendered again: render calls per line stay low, and the text is
        the block stream's whatever the memo keeps."""
        counts = list(listed_lines(tree, k))
        assert len(counts) == lines
        assert counts[-1] <= per_line * lines

    def test_a_caterpillar_listing_renders_few_blocks_twice(self):
        """The one-dict memo keeps every block of a k = 4 caterpillar
        listing between fills: about one render call in twenty lines."""
        counts = list(listed_lines(caterpillar(36), 4))
        assert counts[-1] <= 0.06 * len(counts)

    @pytest.mark.slow
    def test_a_k1_listing_stays_in_bounded_memory(self):
        """The memo holds at most 8n renderings, however many distinct
        blocks come by: the traced peak of a whole k = 1 listing stays
        within 1.5 times the peak over its first 2 000 lines."""
        for tree in (random_tree(13, seed=1), caterpillar(13)):
            tracemalloc.start()
            try:
                render = lambda bm: ",".join(_decode(tree.labels, bm))
                for i, blocks in enumerate(_rendered(tree, 1, render), 1):
                    "|".join(blocks)
                    if i == 2000:
                        first = tracemalloc.get_traced_memory()[1]
                whole = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert i == 75025
            assert whole <= 1.5 * first, (tree.canonical_newick(), first, whole)

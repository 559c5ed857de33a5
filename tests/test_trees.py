import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convchar import (
    NewickError,
    Tree,
    TreeError,
    caterpillar,
    parse_newick,
    random_tree,
    write_newick,
)


def scrambled_newick(tree: Tree, root_leaf: int, flip: bool) -> str:
    """Alternative Newick text for the same tree: different root leaf and
    optionally reversed child order."""

    def render(v, parent):
        if tree.is_leaf(v):
            return tree.labels[v]
        subs = [render(u, v) for u in tree.neighbors(v) if u != parent]
        if flip:
            subs.reverse()
        return "(" + ",".join(subs) + ")"

    u = tree.neighbors(root_leaf)[0]
    return f"({tree.labels[root_leaf]},{render(u, root_leaf)});"


class TestParse:
    def test_three_leaf_star(self):
        t = parse_newick("((a,b),c);")
        assert t.n == 3
        assert t.labels == ("a", "b", "c")
        assert t.canonical_newick() == "(a,(b,c));"

    def test_rooted_representation_is_unrooted(self):
        t = parse_newick("((a,b),(c,d));")
        assert t.n == 4
        sides = {frozenset(s.side_b) for s in t.splits()}
        assert frozenset("ab") in sides or frozenset("cd") in sides

    def test_branch_lengths_and_internal_labels_discarded(self):
        t = parse_newick("((a:0.1,b:2e-3)90:0.3,c:0.4)root;")
        assert t == parse_newick("((a,b),c);")

    def test_single_leaf_and_edge(self):
        assert parse_newick("a;").n == 1
        assert parse_newick("a;").canonical_newick() == "a;"
        assert parse_newick("(a,b);").canonical_newick() == "(a,b);"
        assert parse_newick("((a,b));").n == 2

    def test_duplicate_label_rejected(self):
        with pytest.raises(TreeError, match="duplicate"):
            parse_newick("((a,b),(a,c));")

    @pytest.mark.parametrize(
        "bad",
        [
            "((a,b),c)",       # missing ;
            "((a,b),c;",       # unbalanced
            "((a,,b),c);",     # empty label
            "(,a);",
            "((a,b)),c);",
            "",
            ";",
            "(a,b),c);",
            "a b;",            # whitespace splits the label
        ],
    )
    def test_syntax_errors(self, bad):
        with pytest.raises(NewickError):
            parse_newick(bad)

    @pytest.mark.parametrize("bad", ["(a,b,c,d);", "(a,(b,c,d,e),f);"])
    def test_non_binary_rejected(self, bad):
        with pytest.raises(TreeError):
            parse_newick(bad)

    def test_star_with_three_children_is_fine(self):
        assert parse_newick("(a,b,c);").n == 3


# Every parser error and its exact message.
NEWICK_ERRORS = [
    ("", "empty input"),
    (" \t\n", "empty input"),
    ("((a,b),c)", "missing terminating ';'"),
    ("(a,b);c;", "more than one ';'"),
    ("(a(b,c));", "unexpected '('"),
    ("((a,b)(c,d));", "unexpected '('"),
    ("((a,,b),c);", "empty label before ','"),
    ("(,a);", "empty label before ','"),
    ("((a,b,),c);", "empty label before ')'"),
    ("();", "empty label before ')'"),
    ("a,b;", "',' outside parentheses"),
    ("(a,b),c;", "',' outside parentheses"),
    ("(a,b));", "unbalanced ')'"),
    ("a);", "unbalanced ')'"),
    ("((a,b),c;", "unbalanced '('"),
    ("(:1,b);", "unexpected ':'"),
    ("(a:1:2,b);", "unexpected ':'"),
    ("a b;", "unexpected text at 'b'"),
    ("(a,b)x y;", "unexpected text at 'y'"),
    ("(a b  c d e f g,h);", "unexpected text at 'b  c d e f'"),
    ("(a:,b);", "':' without a branch length"),
    ("(a,b):;", "':' without a branch length"),
    ("(a:x,b);", "bad branch length 'x'"),
    ("(a:1e,b);", "bad branch length '1e'"),
    (";", "expected a single tree"),
    ("  ;", "expected a single tree"),
]

# Non-binary input names the first offending vertex met breadth first from
# the root; the duplicate check comes before the degree check.
TREE_ERRORS = [
    ("(a,b,c,d);", "input tree is not binary: internal vertex has degree 4, expected 3"),
    ("((a,b,c,d));", "input tree is not binary: internal vertex has degree 4, expected 3"),
    ("(((a,b,c,d),e),(f,g,h,i,j),k);",
     "input tree is not binary: internal vertex has degree 6, expected 3"),
    ("((a1,a2,a3),(b1,b2,b3,b4));",
     "input tree is not binary: internal vertex has degree 4, expected 3"),
    ("((a,b),(a,c));", "duplicate taxon label 'a'"),
    ("((a,b,c,d),(a,e));", "duplicate taxon label 'a'"),
]

# labels and _adj recorded from the dict-of-sets parser this one replaced:
# internal ids follow breadth-first discovery from the smallest label,
# neighbours visited in the order their nodes close in the text.
GOLDEN = [
    ('a;', ('a',), ((),)),
    ('(a,b);', ('a', 'b'), ((1,), (0,))),
    ('((a,b));', ('a', 'b'), ((1,), (0,))),
    ('((a,b),c);', ('a', 'b', 'c'), ((3,), (3,), (3,), (0, 1, 2))),
    ('(a,b,c);', ('a', 'b', 'c'), ((3,), (3,), (3,), (0, 1, 2))),
    ('((a,b),(c,d));', ('a', 'b', 'c', 'd'), ((4,), (4,), (5,), (5,), (0, 1, 5), (2, 3, 4))),
    ('(e,(d,(c,(b,a))));', ('a', 'b', 'c', 'd', 'e'), ((5,), (5,), (6,), (7,), (7,), (0, 1, 6), (2, 5, 7), (3, 4, 6))),
    ('((b,d),(a,(c,e)),f);', ('a', 'b', 'c', 'd', 'e', 'f'), ((6,), (9,), (7,), (9,), (7,), (8,), (0, 7, 8), (2, 4, 6), (5, 6, 9), (1, 3, 8))),
    ('(((f,e),(d,c)),(b,a));', ('a', 'b', 'c', 'd', 'e', 'f'), ((6,), (6,), (9,), (9,), (8,), (8,), (0, 1, 7), (6, 8, 9), (4, 5, 7), (2, 3, 7))),
    ('((t10,t2),(t1,(t3,t20)),t0);', ('t0', 't1', 't10', 't2', 't20', 't3'), ((6,), (8,), (7,), (7,), (9,), (9,), (0, 7, 8), (2, 3, 6), (1, 6, 9), (4, 5, 8))),
    ('((a:1e-3,b:-0.5)x:0.3,(c,d)y:2,e)root;', ('a', 'b', 'c', 'd', 'e'), ((5,), (5,), (7,), (7,), (6,), (0, 1, 6), (4, 5, 7), (2, 3, 6))),
    ('((((a,b))),c,((d)));', ('a', 'b', 'c', 'd'), ((4,), (4,), (5,), (5,), (0, 1, 5), (2, 3, 4))),
    ('((((a:1,b:2)i1:3)i2,(c,(d,e)x)y),f:1e5);', ('a', 'b', 'c', 'd', 'e', 'f'), ((6,), (6,), (8,), (9,), (9,), (7,), (0, 1, 7), (5, 6, 8), (2, 7, 9), (3, 4, 8))),
    (' ( ( a : 1 , b ) x : 2 , ( c , d ) , e ) ; ', ('a', 'b', 'c', 'd', 'e'), ((5,), (5,), (7,), (7,), (6,), (0, 1, 6), (4, 5, 7), (2, 3, 6))),
    ('\t((a,b)\n,\r(c,d)\t90 :\t.5,e) ;\n', ('a', 'b', 'c', 'd', 'e'), ((5,), (5,), (7,), (7,), (6,), (0, 1, 6), (4, 5, 7), (2, 3, 6))),
    ('((e,f),((a,b),(c,d)));', ('a', 'b', 'c', 'd', 'e', 'f'), ((6,), (6,), (9,), (9,), (8,), (8,), (0, 1, 7), (6, 8, 9), (4, 5, 7), (2, 3, 7))),
    ('(((g,(a,c)),((b,h),f)),(e,d));', ('a', 'b', 'c', 'd', 'e', 'f', 'g', 'h'), ((8,), (13,), (8,), (12,), (12,), (11,), (9,), (13,), (0, 2, 9), (6, 8, 10), (9, 11, 12), (5, 10, 13), (3, 4, 10), (1, 7, 11))),
]


class TestParserPinned:
    @pytest.mark.parametrize("text,message", NEWICK_ERRORS)
    def test_newick_error_messages(self, text, message):
        with pytest.raises(NewickError) as info:
            parse_newick(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("text,message", TREE_ERRORS)
    def test_tree_error_messages(self, text, message):
        with pytest.raises(TreeError) as info:
            parse_newick(text)
        assert type(info.value) is TreeError
        assert str(info.value) == message

    @pytest.mark.parametrize("text,labels,adj", GOLDEN)
    def test_golden_adjacency(self, text, labels, adj):
        t = parse_newick(text)
        assert t.labels == labels
        assert t._adj == adj

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 10 ** 6), n=st.integers(3, 12))
    def test_decorated_text_parses_to_same_tree(self, data, seed, n):
        t = random_tree(n, seed=seed)
        assert parse_newick(decorated_newick(t, data.draw)) == t


def decorated_newick(tree: Tree, draw) -> str:
    """Newick text of ``tree`` with random whitespace around every token,
    branch lengths, internal labels, unary wrappers and child order, rooted
    at a random internal vertex or on a random edge."""
    ws = st.sampled_from(["", "", " ", "\t", "\n ", "  "])
    lengths = st.sampled_from(["", "", "1", "1e-3", "-0.5", "2.", ".5", "0"])
    inner = st.sampled_from(["", "", "x", "90", "n1"])

    def length() -> str:
        value = draw(lengths)
        return draw(ws) + ":" + draw(ws) + value if value else ""

    def tail(text: str, group: bool) -> str:
        if group:
            text += draw(ws) + draw(inner)
        text += length()
        for _ in range(draw(st.integers(0, 2))):
            text = "(" + draw(ws) + text + draw(ws) + ")" + draw(ws) + draw(inner) + length()
        return text

    def group(parts: list[str]) -> str:
        parts = draw(st.permutations(parts))
        return "(" + ",".join(draw(ws) + p + draw(ws) for p in parts) + ")"

    def render(v: int, parent: int) -> str:
        if tree.is_leaf(v):
            return tail(tree.labels[v], False)
        kids = [render(u, v) for u in tree.neighbors(v) if u != parent]
        return tail(group(kids), True)

    internal = range(tree.n, tree.num_vertices())
    if draw(st.booleans()):
        v = draw(st.sampled_from(internal))
        text = group([render(u, v) for u in tree.neighbors(v)])
    else:
        v = draw(st.sampled_from(range(tree.num_vertices())))
        u = draw(st.sampled_from(tree.neighbors(v)))
        text = group([render(v, u), render(u, v)])
    return draw(ws) + tail(text, True) + draw(ws) + ";" + draw(ws)


class TestCanonicalForm:
    def test_round_trip_is_identity(self, example7):
        assert parse_newick(write_newick(example7)) == example7

    def test_rotations_share_canonical_text(self):
        t = random_tree(6, seed=11)
        texts = {
            parse_newick(scrambled_newick(t, leaf, flip)).canonical_newick()
            for leaf in range(6)
            for flip in (False, True)
        }
        assert texts == {t.canonical_newick()}

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), n=st.integers(4, 14))
    def test_round_trip_random(self, seed, n):
        t = random_tree(n, seed=seed)
        assert parse_newick(write_newick(t)) == t


class TestRestrictDelete:
    def test_restrict_worked_example(self, example7):
        r = example7.restrict("abcd")
        assert r.n == 4
        assert frozenset("ab") in {frozenset(s.side_b) for s in r.splits()} | {
            frozenset(s.side_a) for s in r.splits()
        }

    def test_restrict_identity_and_single(self, example7):
        assert example7.restrict(example7.labels) is example7
        assert example7.restrict(["a"]).n == 1

    def test_restrict_errors(self, example7):
        with pytest.raises(ValueError):
            example7.restrict([])
        with pytest.raises(ValueError):
            example7.restrict(["zz"])

    def test_delete_empty_and_all(self, example7):
        assert example7.delete([]) is example7
        with pytest.raises(ValueError):
            example7.delete(example7.labels)

    def test_delete_end_cherry_gives_smaller_caterpillar(self):
        assert caterpillar(7).delete({"g"}).isomorphic_to(caterpillar(6))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_restrict_composes(self, seed):
        t = random_tree(9, seed=seed)
        a = set("abcdefg")
        b = set("abcd")
        assert t.restrict(a).restrict(b) == t.restrict(b)


class TestStructureQueries:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), n=st.integers(3, 12))
    def test_split_and_tripartition_counts(self, seed, n):
        t = random_tree(n, seed=seed)
        assert len(t.splits()) == 2 * n - 3
        assert len(t.tripartitions()) == n - 2
        for sp in t.splits():
            assert sp.side_a and sp.side_b
            assert sp.side_a | sp.side_b == t.taxa
            assert not sp.side_a & sp.side_b
        for tp in t.tripartitions():
            assert tp.part_a | tp.part_b | tp.part_c == t.taxa

    def test_worked_example_splits(self, example7):
        sides = set()
        for sp in example7.splits():
            sides.add(frozenset(sp.side_a))
            sides.add(frozenset(sp.side_b))
        assert frozenset("abc") in sides
        assert frozenset("efg") in sides

    def test_cherries(self):
        assert caterpillar(9).cherries() == [("a", "b"), ("h", "i")]
        assert len(parse_newick("(a,b,c);").cherries()) == 3
        assert parse_newick("(a,b);").cherries() == [("a", "b")]

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), n=st.integers(4, 14))
    def test_cherry_count_bounds(self, seed, n):
        t = random_tree(n, seed=seed)
        assert 2 <= len(t.cherries()) <= n // 2


class TestBoundedSplit:
    def test_caterpillar_example(self):
        sp = caterpillar(10).bounded_split(3)
        assert len(sp.side_b) in (3, 4)

    def test_n_equals_k_plus_one(self):
        t = random_tree(5, seed=3)
        assert len(t.bounded_split(4).side_b) == 4

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), n=st.integers(5, 12), k=st.integers(2, 6))
    def test_walk_always_lands_in_range(self, seed, n, k):
        if n <= k:
            n = k + 1 + (n % 3)
        t = random_tree(n, seed=seed)
        sp = t.bounded_split(k)
        assert k <= len(sp.side_b) <= 2 * (k - 1)
        # The far side really is a split of the tree.
        sides = {frozenset(s.side_b) for s in t.splits()}
        sides |= {frozenset(s.side_a) for s in t.splits()}
        assert frozenset(sp.side_b) in sides

    def test_requires_n_above_k(self, example7):
        with pytest.raises(ValueError):
            example7.bounded_split(7)

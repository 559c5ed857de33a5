import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convchar import (
    FullyLoadedSpec,
    NewickError,
    Tree,
    TreeError,
    all_topologies,
    caterpillar,
    default_labels,
    fully_loaded,
    parse_newick,
    random_tree,
    trees,
    write_newick,
)

from conftest import line_events


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
    ("(a:1 x,b);", "unexpected text at 'x,b)'"),
    ("(a,b)x:1:2;", "unexpected ':'"),
    ("(a,b)x:;", "':' without a branch length"),
    ("(a,b):1x;", "bad branch length '1x'"),
    ("(a,b)x(c);", "unexpected '('"),
    ("(a,b):1,c;", "',' outside parentheses"),
    ("(a,b):1);", "unbalanced ')'"),
    ("(a\u00a0b,c);", "unexpected text at 'b,c)'"),
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

# labels and neighbours recorded from the dict-of-sets parser this one
# replaced: internal ids follow breadth-first discovery from the smallest
# label, neighbours visited in the order their nodes close in the text.
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
        assert tuple(t.neighbors(v) for v in range(t.num_vertices())) == adj

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


def old_rooting(tree: Tree):
    """The rooting as a separate pass: a DFS from leaf 0, then every
    vertex's children sorted by the smallest taxon id below them."""
    V = tree.num_vertices()
    parent = [-1] * V
    order = []
    stack = [0]
    seen = [False] * V
    seen[0] = True
    while stack:
        v = stack.pop()
        order.append(v)
        for u in tree.neighbors(v):
            if not seen[u]:
                seen[u] = True
                parent[u] = v
                stack.append(u)
    low = list(range(V))
    for v in reversed(order):
        p = parent[v]
        if p >= 0 and low[v] < low[p]:
            low[p] = low[v]
    kids = [[] for _ in range(V)]
    for v in range(V):
        if parent[v] >= 0:
            kids[parent[v]].append(v)
    for v in range(V):
        kids[v].sort(key=low.__getitem__)
    return tuple(parent), tuple(tuple(c) for c in kids)


def rooting_corpus():
    yield parse_newick("(a,b);")
    yield parse_newick("((a,b),c);")
    yield parse_newick("(c,(b,a));")
    for n in range(3, 8):
        yield from all_topologies(default_labels(n))
    for n in range(3, 61):
        t = random_tree(n, seed=n)
        yield t
        yield t.restrict(t.labels[n // 3:])
    rng = random.Random(5)
    for k in range(2, 7):
        for n in range(k, 3 * k + 8):
            yield fully_loaded(n, k)
            yield fully_loaded(n, k, spec=FullyLoadedSpec.randomized(default_labels(n), k, rng))


class TestRooting:
    def test_single_taxon_is_trivially_rooted(self):
        t = parse_newick("a;")
        assert (t._parent, t._children) == ((-1,), ((),))

    def test_matches_separate_pass(self):
        for t in rooting_corpus():
            n, V = t.n, t.num_vertices()
            parent, children = t._parent, t._children
            assert (parent, children) == old_rooting(t), t
            # The id invariant: taxa 1..n-1, internal vertices by
            # descending id, then taxon 0 visit every child before its parent.
            order = [*range(1, n), *range(V - 1, n - 1, -1), 0]
            place = {v: i for i, v in enumerate(order)}
            assert sorted(place) == list(range(V))
            assert all(place[v] < place[parent[v]] for v in range(1, V))
            c0 = children[0][0]
            assert parent[c0] == 0
            assert all(n <= parent[v] < v for v in range(n, V) if v != c0)
            # The derived neighbours: ascending, symmetric, a leaf of
            # degree 1 and an internal vertex of degree 3.
            nbs = [t.neighbors(v) for v in range(V)]
            assert all(
                list(nb) == sorted(set(nb))
                and all(v in nbs[u] for u in nb)
                and len(nb) == (1 if v < n else 3)
                for v, nb in enumerate(nbs)
            ), t
        assert parse_newick("a;").neighbors(0) == ()


@st.composite
def newick_texts(draw):
    """Nested groups of arity 1-4 with optional internal labels and branch
    lengths, malformed ones in a quarter of the texts.  Leaves take fresh
    labels from a shuffled pool of 18 and now and then an earlier one, so
    duplicates occur.  Hypothesis favours small draws, so the rarer
    choices (a leaf, a malformed text, a reused label) take the top value.
    """
    lengths = ["", "", ":1", ": -0.5", ":2e-3"]
    inner = ["", "", "n1", "90"]
    if draw(st.integers(0, 3)) == 3:
        lengths += [":", ":x", "::1"]
        inner += ["x y", "("]
    lengths, inner = st.sampled_from(lengths), st.sampled_from(inner)
    pool = draw(st.permutations([*"abcdefghijklmnop", "t1", "é"]))
    used: list[str] = []
    arity = st.sampled_from([1, 2, 2, 2, 2, 3, 4])

    def node(depth: int) -> str:
        if depth == 0 or draw(st.integers(0, 3)) == 3:
            if used and draw(st.integers(0, 7)) == 7:
                text = draw(st.sampled_from(used))
            else:
                text = pool[len(used) % len(pool)]
                used.append(text)
        else:
            kids = [node(depth - 1) for _ in range(draw(arity))]
            text = "(" + ",".join(kids) + ")" + draw(inner)
        return text + draw(lengths)

    return node(draw(st.sampled_from([3, 2, 4, 1]))) + ";"


def assert_tree_invariants(t: Tree) -> None:
    """The Tree invariants of the trees module docstring."""
    n, V = t.n, t.num_vertices()
    parent, children = t._parent, t._children
    assert list(t.labels) == sorted(set(t.labels))
    assert V == (1 if n == 1 else 2 * n - 2)
    assert parse_newick(t.canonical_newick()) == t
    if n == 1:
        return
    (c0,) = children[0]
    assert parent[0] == -1 and parent[c0] == 0
    assert all(children[v] == () for v in range(1, n))
    assert all(parent[c] == v for v in range(V) for c in children[v])
    assert all(len(children[v]) == 2 for v in range(n, V))
    assert all(parent[v] < v for v in range(n, V) if v != c0)
    low = list(range(V))
    for v in range(V - 1, n - 1, -1):
        f, g = children[v]
        assert low[f] < low[g]
        low[v] = low[f]


class TestIngest:
    """Input is checked where it enters: every text either parses to a tree
    meeting the Tree invariants or raises TreeError, and restrictions of
    such trees meet the invariants too."""

    @settings(max_examples=400, deadline=None)
    @given(text=newick_texts(), data=st.data())
    def test_parse_is_a_valid_tree_or_tree_error(self, text, data):
        try:
            t = parse_newick(text)
        except TreeError:
            return
        assert_tree_invariants(t)
        keep = data.draw(st.sets(st.sampled_from(t.labels), min_size=1))
        r = t.restrict(keep)
        assert r.labels == tuple(sorted(keep))
        assert_tree_invariants(r)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), n=st.integers(3, 30), data=st.data())
    def test_restrict_random_subsets(self, seed, n, data):
        t = random_tree(n, seed=seed)
        assert_tree_invariants(t)
        keep = data.draw(st.sets(st.sampled_from(t.labels), min_size=1))
        assert_tree_invariants(t.restrict(keep))


# -- ingest digest -------------------------------------------------------------
#
# One sha256 over the outcome of every way a tree enters: parsed text, a
# restriction and the generators that build trees without text.  A tree
# outcome is its (labels, parent, children) arrays, an error its type and
# message, so the digest pins the numbering, every message and which error
# a text meets first.  Recorded before the parser moved to str.split
# tokens and one token pass, and before ``_assemble`` oriented by removing
# each vertex's discoverer.

INGEST_DIGEST = "ab852b38f5a55b2e69872164fc5e95a12a856ca49a2845b8915b47fcd9167799"

# Whitespace the parser must skip, Unicode spaces included, and characters
# that only look like it.
_FUZZ_SPACES = [" ", " ", "\t", "\n", "\r\n", "\x0b", "\x1c", "\x85", "\u00a0",
                "\u2003", "\u3000", "\u200b", "\ufeff"]
_FUZZ_LENGTHS = ["1", "0.5", "1e-3", "-2", ".5", "2.", "1E5", "+3", "inf", "nan", "1_0"]
_FUZZ_BAD_LENGTHS = ["x", "1e", "1x", "0x1", "--1", "1.2.3", ""]
_FUZZ_INNER = ["x", "90", "n1", "i.2", "é"]
_FUZZ_STRAY = "(),:; "


def _fuzz_text(rng: random.Random) -> str:
    """A Newick-like text: nested groups of arity 1-4 with internal labels
    and branch lengths, good and bad, fresh leaf labels with now and then
    a repeat, whitespace between tokens, in about half the texts stray
    punctuation or a dropped character, and a missing or doubled ';'."""
    used: list[str] = []

    def space() -> str:
        return rng.choice(_FUZZ_SPACES) if rng.random() < 0.15 else ""

    def node(depth: int) -> str:
        if depth == 0 or rng.random() < 0.35:
            if used and rng.random() < 0.05:
                text = rng.choice(used)
            else:
                text = rng.choice(["t", "a", "T_", "é"]) + str(len(used))
                used.append(text)
        else:
            kids = [node(depth - 1) for _ in range(rng.choice([1, 2, 2, 2, 3, 3, 4]))]
            text = "(" + ",".join(space() + kid + space() for kid in kids) + ")"
            if rng.random() < 0.2:
                text += space() + rng.choice(_FUZZ_INNER)
        if rng.random() < 0.25:
            bad = rng.random() < 0.04
            text += space() + ":" + space() + rng.choice(
                _FUZZ_BAD_LENGTHS if bad else _FUZZ_LENGTHS)
        return text

    text = node(rng.choice([1, 2, 3, 3, 4, 5]))
    for _ in range(rng.choice([0, 0, 0, 1, 1, 2])):
        at = rng.randrange(len(text) + 1)
        if rng.random() < 0.7:
            text = text[:at] + rng.choice(_FUZZ_STRAY) + text[at:]
        else:
            text = text[:at] + text[at + 1:]
    end = rng.choice([";"] * 6 + ["; ", " ;\n", "", ";;", ";a;"])
    return space() + text + end + space()


def _topology_text(n: int, rng: random.Random) -> str:
    """Newick text of a uniform random topology on n >= 3 shuffled labels,
    written from an internal vertex of degree 3."""
    adj: list[list[int]] = [[] for _ in range(2 * n - 2)]
    edges = [(0, n), (1, n), (2, n)]
    for leaf in range(3, n):
        i = rng.randrange(len(edges))
        u, v = edges[i]
        w = n + leaf - 2
        edges[i] = (u, w)
        edges += [(w, v), (w, leaf)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    names = default_labels(n)
    rng.shuffle(names)

    def render(v: int, parent: int) -> str:
        if v < n:
            return names[v]
        return "(" + ",".join(render(u, v) for u in adj[v] if u != parent) + ")"

    return render(n, -1) + ";"


def _chain_text(names: list[str]) -> str:
    """Rooted caterpillar text over ``names`` in spine order."""
    head = "".join(f"({x}," for x in names[:-2])
    return f"{head}({names[-2]},{names[-1]}){')' * (len(names) - 2)};"


def _outcome(make) -> tuple:
    try:
        t = make()
    except Exception as exc:  # every error is part of the outcome
        return type(exc).__name__, str(exc)
    return t.labels, t._parent, t._children


def ingest_outcomes():
    """Every outcome the ingest digest covers, in a fixed order."""
    rng = random.Random(20261019)
    for _ in range(40_000):
        text = _fuzz_text(rng)
        yield _outcome(lambda: parse_newick(text))
    for n in [*range(3, 40), 64, 100, 157, 200, 256, 300]:
        names = default_labels(n)
        rng.shuffle(names)
        yield _outcome(lambda: parse_newick(_chain_text(names)))
        text = _topology_text(n, rng)
        yield _outcome(lambda: parse_newick(text))
        t = parse_newick(text)
        for _ in range(3):
            keep = rng.sample(t.labels, rng.randint(1, n))
            yield _outcome(lambda: t.restrict(keep))
    for n in range(3, 80):
        yield _outcome(lambda: random_tree(n, seed=n))
    for n in range(1, 8):
        for t in all_topologies(default_labels(n)):
            yield _outcome(lambda: t)


def test_ingest_digest():
    digest = hashlib.sha256()
    for outcome in ingest_outcomes():
        digest.update(repr(outcome).encode("utf-8") + b"\n")
    assert digest.hexdigest() == INGEST_DIGEST


def test_ingest_work_is_linear():
    """Reading a tree costs the same work per taxon at 1 000 and 8 000
    taxa: line events of ``trees.py`` per taxon for ``parse_newick`` on a
    caterpillar over shuffled labels and on a random topology, and for
    ``restrict`` to a random half of the taxa, change by at most 2%."""
    figures = []
    for n in (1000, 8000):
        rng = random.Random(n)
        names = default_labels(n)
        rng.shuffle(names)
        chain, topology = _chain_text(names), random_tree(n, seed=1).canonical_newick()
        t = parse_newick(topology)
        keep = rng.sample(t.labels, n // 2)
        runs = (lambda: parse_newick(chain), lambda: parse_newick(topology),
                lambda: t.restrict(keep))
        figures.append([line_events(run, (trees,)) / n for run in runs])
    for small, big in zip(*figures):
        assert abs(big - small) <= 0.02 * small, figures

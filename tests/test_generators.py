import collections
import dataclasses
import hashlib
import itertools
import random

import pytest

from convchar import (
    FullyLoadedSpec,
    Tripartition,
    all_topologies,
    caterpillar,
    caterpillar_count,
    count_convex,
    default_labels,
    fully_loaded,
    fully_loaded_count,
    fully_loaded_decomposition,
    is_fully_loaded,
    linearize,
    parse_newick,
    random_tree,
    replace_pendant_fully_loaded,
    Split,
    TreeError,
)
from convchar.verify import linearize_monotone, pendant_replacement_monotone


class TestCaterpillar:
    def test_spine_order_and_cherries(self):
        t = caterpillar(9)
        assert t.cherries() == [("a", "b"), ("h", "i")]
        sides = {frozenset(s.side_b) for s in t.splits()}
        sides |= {frozenset(s.side_a) for s in t.splits()}
        # Prefixes of the label order appear as splits: the spine respects it.
        for i in range(2, 8):
            assert frozenset("abcdefghi"[:i]) in sides
        assert len(caterpillar(12).cherries()) == 2

    def test_small_sizes(self):
        assert caterpillar(1).n == 1
        assert caterpillar(2).n == 2
        assert caterpillar(3) == parse_newick("(a,b,c);")
        assert caterpillar(4) == parse_newick("((a,b),(c,d));")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            caterpillar(3, ["x", "x", "y"])

    @pytest.mark.parametrize("bad", ["a,b", "a b", "(a)", "a;", "x:1", ""])
    def test_invalid_labels_rejected(self, bad):
        with pytest.raises(TreeError, match="taxon label"):
            caterpillar(3, [bad, "c", "d"])

    def test_empty_label_lists_rejected(self):
        with pytest.raises(ValueError, match="n must be positive"):
            caterpillar(0, [])
        with pytest.raises(ValueError, match="n must be positive"):
            list(all_topologies([]))

    def test_realizes_maximum(self):
        for k in (3, 4):
            for n in range(k, 18):
                assert count_convex(caterpillar(n), k) == caterpillar_count(n, k)


class TestFullyLoaded:
    def test_default_counts(self):
        for k in (3, 4, 5):
            for n in range(k, 20):
                t = fully_loaded(n, k)
                assert t.n == n
                assert count_convex(t, k) == fully_loaded_count(n, k)

    def test_two_chunk_tree_has_unit_count(self):
        for k in (3, 4, 5):
            t = fully_loaded(2 * (k - 1), k)
            assert count_convex(t, k) == 1

    def test_worked_example_spec(self, example7):
        # 3-star scaffold carrying {a,b,c}, {e,f,g} and the residue {d}
        # reproduces the worked-example tree exactly.
        spec = FullyLoadedSpec(
            n=7,
            k=4,
            scaffold=parse_newick("(a,d,e);"),
            residue_leaf="d",
            residue_size=1,
            parts=(("a", ("c", "a", "b")), ("d", ("d",)), ("e", ("e", "f", "g"))),
        )
        assert fully_loaded(7, 4, spec=spec).isomorphic_to(example7)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FullyLoadedSpec(
                n=7,
                k=4,
                scaffold=parse_newick("(a,d,e);"),
                residue_leaf=None,
                residue_size=0,
                parts=(("a", ("a", "b", "c")), ("d", ("d",)), ("e", ("e", "f", "g"))),
            )
        with pytest.raises(ValueError):
            fully_loaded(3, 4)
        with pytest.raises(ValueError):
            fully_loaded(7, 1)
        with pytest.raises(ValueError, match="^give labels or a spec, not both$"):
            fully_loaded(4, 3, labels=list("wxyz"), spec=FullyLoadedSpec.default(list("abcd"), 3))

    def test_invalid_part_taxon_rejected(self):
        with pytest.raises(TreeError, match="invalid taxon label 'x,y'"):
            fully_loaded(2, 2, spec=FullyLoadedSpec(
                n=2,
                k=2,
                scaffold=caterpillar(2, ["a", "c"]),
                residue_leaf=None,
                residue_size=0,
                parts=(("a", ("x,y",)), ("c", ("c",))),
            ))

    def test_invalid_labels_rejected_by_every_generator(self):
        bad = ["a", "b", "c(d)"]
        with pytest.raises(TreeError, match="invalid taxon label"):
            random_tree(3, labels=bad)
        with pytest.raises(TreeError, match="invalid taxon label"):
            next(all_topologies(bad))
        with pytest.raises(TreeError, match="invalid taxon label"):
            fully_loaded(3, 2, labels=bad)
        with pytest.raises(TreeError, match="non-empty strings"):
            random_tree(3, labels=["a", "b", 3])

    @pytest.mark.parametrize("labels, k", [
        (["a", "b", "c"], 1), (["a", "b", "c"], 0), (["a", "b", "c"], -2), ([], 3),
    ])
    def test_randomized_spec_preconditions(self, labels, k):
        with pytest.raises(ValueError, match=r"^need k >= 2 and n >= 1$"):
            FullyLoadedSpec.randomized(labels, k, random.Random(0))
        with pytest.raises(ValueError, match=r"^need k >= 2 and n >= 1$"):
            FullyLoadedSpec.default(labels, k)

    def test_randomized_specs_all_agree(self):
        rng = random.Random(7)
        for (n, k) in ((10, 3), (13, 4), (17, 5)):
            labels = [f"t{i:02d}" for i in range(n)]
            want = fully_loaded_count(n, k)
            for _ in range(5):
                spec = FullyLoadedSpec.randomized(labels, k, rng)
                t = fully_loaded(n, k, spec=spec)
                assert count_convex(t, k) == want
                assert is_fully_loaded(t, k)


class TestIsFullyLoaded:
    def test_worked_example(self, example7):
        assert not is_fully_loaded(example7, 3)
        assert is_fully_loaded(example7, 4)
        assert is_fully_loaded(example7, 5)
        w4 = fully_loaded_decomposition(example7, 4)
        assert {frozenset(p) for _, p in w4.parts} == {
            frozenset("abc"),
            frozenset("efg"),
            frozenset("d"),
        }
        assert w4.residue_size == 1

    def test_caterpillar_nine_not_3_loaded(self):
        assert not is_fully_loaded(caterpillar(9), 3)

    def test_eight_taxon_3_loaded_has_four_cherries(self):
        t = fully_loaded(8, 3)
        assert len(t.cherries()) == 4
        assert len(t.bounded_split(3).side_b) in (3, 4)
        assert is_fully_loaded(t, 3)

    def test_generator_roundtrip(self):
        for k in (3, 4, 5):
            for n in range(k, 16):
                t = fully_loaded(n, k)
                w = fully_loaded_decomposition(t, k)
                assert w is not None
                assert w.residue_size == (n % (k - 1))

    def test_vacuous_small_trees(self):
        assert is_fully_loaded(parse_newick("(a,b);"), 4)
        assert is_fully_loaded(parse_newick("x;"), 3)


class TestRandomTree:
    def test_determinism(self):
        a = random_tree(10, seed=7)
        b = random_tree(10, seed=7)
        assert a.canonical_newick() == b.canonical_newick()
        assert random_tree(10, seed=8) != a

    def test_structure(self):
        for seed in range(20):
            t = random_tree(11, seed=seed)
            assert t.n == 11
            assert t.num_vertices() == 2 * 11 - 2
            assert len(t.splits()) == 2 * 11 - 3

    def test_uniform_over_quartet_topologies(self):
        counts = collections.Counter(
            random_tree(4, seed=s).canonical_newick() for s in range(30000)
        )
        assert len(counts) == 3
        for freq in counts.values():
            assert abs(freq / 30000 - 1 / 3) <= 0.02

    def test_needs_three_taxa(self):
        with pytest.raises(ValueError):
            random_tree(2, seed=0)


class TestLinearize:
    def _oriented(self, tree, c_taxa):
        for tp in tree.tripartitions():
            if frozenset(c_taxa) in tp.parts:
                others = [p for p in tp.parts if p != frozenset(c_taxa)]
                return dataclasses.replace(
                    tp, part_a=others[0], part_b=others[1], part_c=frozenset(c_taxa)
                )
        raise AssertionError("no such tripartition")

    def test_explicit_ten_taxon_example(self):
        t = parse_newick("(((a,b),c),((d,e),f),(((g,h),i),j));")
        tp = self._oriented(t, "ghij")
        out = linearize(t, tp)
        assert out.taxa == t.taxa
        # Every prefix of the sorted c-part now splits off together with the
        # a-side: the four taxa hang singly along the path.
        sides = {frozenset(s.side_b) for s in out.splits()}
        sides |= {frozenset(s.side_a) for s in out.splits()}
        for i in range(1, 4):
            assert frozenset("abc") | frozenset("ghij"[:i]) in sides
        assert len(out.cherries()) < len(t.cherries())

    def test_never_decreases_count_when_c_small(self):
        cases = ((random_tree(11, seed=seed), 3) for seed in itertools.count())
        assert linearize_monotone(cases, 25) == "25 trees"

    def test_deep_parts(self):
        # The middle of the default fully 3-loaded tree on 6000 taxa: a
        # 3000-taxon part, a pendant cherry and a 2998-taxon part, each
        # side a path about 1500 vertices long.
        t = fully_loaded(6000, 3)
        labels = t.labels
        cherry = t.neighbors(t.taxon_id(labels[3000]))[0]
        center = next(u for u in t.neighbors(cherry) if u >= t.n)
        tp = Tripartition(
            frozenset(labels[:3000]),
            frozenset(labels[3002:]),
            frozenset(labels[3000:3002]),
            center,
        )
        out = linearize(t, tp)
        assert out.taxa == t.taxa
        assert out.delete(tp.part_c) == t.delete(tp.part_c)

    def test_preconditions(self):
        t = random_tree(8, seed=1)
        tp = t.tripartitions()[0]
        single = min(tp.parts, key=len)
        if len(single) == 1:
            with pytest.raises(ValueError):
                linearize(t, dataclasses.replace(tp, part_c=single, part_a=tp.part_a))
        with pytest.raises(ValueError):
            bad = dataclasses.replace(tp, part_c=frozenset({"nope"}))
            linearize(t, bad)

    def test_parts_as_plain_iterables(self):
        t = random_tree(12, seed=0)
        tp = next(tp for tp in t.tripartitions() if min(map(len, tp.parts)) >= 2)
        plain = Tripartition(sorted(tp.part_a), set(tp.part_b), sorted(tp.part_c), tp.center)
        assert linearize(t, plain) == linearize(t, tp)


class TestReplacePendant:
    def test_never_increases_count(self):
        cases = ((random_tree(12, seed=seed), 3) for seed in range(30))
        assert pendant_replacement_monotone(cases) == "30 trees"

    def test_fixed_point_when_already_loaded(self):
        t = fully_loaded(12, 4)
        sp = t.bounded_split(4)
        out = replace_pendant_fully_loaded(t, sp, 4)
        assert count_convex(out, 4) == count_convex(t, 4)

    def test_size_guard(self):
        t = random_tree(12, seed=3)
        wide = next(sp for sp in t.splits() if len(sp.side_b) > 4)
        with pytest.raises(ValueError):
            replace_pendant_fully_loaded(t, wide, 3)

    def test_sides_as_plain_iterables(self):
        t = random_tree(12, seed=3)
        sp = t.bounded_split(3)
        plain = Split(sorted(sp.side_a), sorted(sp.side_b))
        assert replace_pendant_fully_loaded(t, plain, 3) == replace_pendant_fully_loaded(t, sp, 3)


def assert_valid_witness(tree, k, w):
    """``w`` is a fully k-loaded decomposition of ``tree``: pendant parts of
    k-1 taxa, one of n mod (k-1) at most, over the scaffold they induce."""
    parts = [frozenset(taxa) for _, taxa in w.parts]
    assert sorted(t for p in parts for t in p) == sorted(tree.labels)
    r = tree.n % (k - 1)
    assert w.residue_size == r
    assert sorted(len(p) for p in parts if len(p) != k - 1) == ([r] if r else [])
    pendant = {tree.taxa} | {side for s in tree.splits() for side in s.sides()}
    assert all(p in pendant for p in parts)
    reps = [rep for rep, _ in w.parts]
    assert all(rep == min(taxa) for rep, taxa in w.parts)
    assert w.scaffold == tree.restrict(reps)


class TestWitnessValidity:
    def test_every_witness_is_a_decomposition(self):
        trees = [t for n in range(1, 8) for t in all_topologies(default_labels(n))]
        rng = random.Random(11)
        for k in range(2, 7):
            for n in range(k, 4 * k + 6):
                spec = FullyLoadedSpec.randomized(default_labels(n), k, rng)
                trees.append(fully_loaded(n, k, spec=spec))
        found = 0
        for t in trees:
            for k in range(2, 7):
                w = fully_loaded_decomposition(t, k)
                if w is not None:
                    assert_valid_witness(t, k, w)
                    found += 1
        assert found > len(trees)


# -- generator digest ----------------------------------------------------------
#
# One sha256 over the outcome of every generator that builds a spec or
# moves between the paper's tree families: the fully loaded specs, the
# witness of a fully loaded tree, linearization and pendant replacement.
# A tree outcome is its (labels, parent, children) arrays, a spec its
# fields, an error its type and message.  Recorded before the specs were
# built through one constructor and edges found by one side-mask lookup.

GENERATOR_DIGEST = "7f96527c49786bc5ef29f92055650c8e401697c41a948df82247862d94b8fce7"


def _tree_form(t):
    return t.labels, t._parent, t._children


def _spec_form(s):
    if s is None:
        return None
    return s.n, s.k, _tree_form(s.scaffold), s.residue_leaf, s.residue_size, s.parts


def _outcome(make, form):
    try:
        result = make()
    except Exception as exc:  # every error is part of the outcome
        return type(exc).__name__, str(exc)
    return form(result)


def _rotations(tp):
    a, b, c = tp.parts
    for parts in ((a, b, c), (b, c, a), (c, a, b)):
        yield Tripartition(*parts, center=tp.center)


def generator_outcomes():
    """Every outcome the generator digest covers, in a fixed order."""
    rng = random.Random(20261019)
    for n in range(1, 30):
        labels = default_labels(n)
        for k in range(2, 8):
            yield _outcome(lambda: FullyLoadedSpec.default(labels, k), _spec_form)
            spec = FullyLoadedSpec.randomized(labels, k, rng)
            yield _spec_form(spec)
            yield _outcome(lambda: fully_loaded(n, k, spec=spec), _tree_form)
    yield rng.random()  # pins how many draws the specs took

    trees = [t for n in range(1, 8) for t in all_topologies(default_labels(n))]
    trees += [random_tree(n, seed=s) for n in range(8, 16) for s in range(3)]
    trees += [
        fully_loaded(n, k, spec=FullyLoadedSpec.randomized(default_labels(n), k, rng))
        for k in range(2, 7) for n in range(k, 4 * k + 6)
    ]
    for t in trees:
        for k in range(2, 7):
            yield _outcome(lambda: fully_loaded_decomposition(t, k), _spec_form)

    batch = [random_tree(n, seed=s) for n in range(6, 13) for s in range(4)]
    batch += [caterpillar(9), fully_loaded(10, 3), fully_loaded(11, 4)]
    for t in batch:
        other = random_tree(t.n, seed=t.n + 100)
        for tp in t.tripartitions():
            for rotated in _rotations(tp):
                yield _outcome(lambda: linearize(t, rotated), _tree_form)
        tp = t.tripartitions()[0]
        probes = [
            dataclasses.replace(tp, center=0),
            dataclasses.replace(tp, part_c=tp.part_c | {"nope"}),
            *other.tripartitions(),
        ]
        for probe in probes:
            yield _outcome(lambda: linearize(t, probe), _tree_form)
        for sp in t.splits() + other.splits():
            for k in range(1, 6):
                for split in (sp, Split(sp.side_b, sp.side_a)):
                    yield _outcome(
                        lambda: replace_pendant_fully_loaded(t, split, k), _tree_form
                    )
        sp = max(t.splits(), key=lambda s: len(s.side_b))
        for split in (Split(sp.side_a - {"a"}, sp.side_b), Split(sp.side_b, sp.side_b)):
            k = len(split.side_b)
            yield _outcome(lambda: replace_pendant_fully_loaded(t, split, k), _tree_form)


def test_generator_digest():
    digest = hashlib.sha256()
    for outcome in generator_outcomes():
        digest.update(repr(outcome).encode("utf-8") + b"\n")
    assert digest.hexdigest() == GENERATOR_DIGEST

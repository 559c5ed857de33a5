"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime.  Run with ``pytest tests/test_acceptance.py -v -s``.

All expected values are exact; the per-criterion wall-clock budgets are
asserted as well.
"""

import time
from contextlib import contextmanager
from itertools import count

import pytest

from convchar import (
    Character,
    FakeClock,
    agreement_forest_min_components,
    all_partitions,
    caterpillar,
    caterpillar_closed_k3,
    caterpillar_count,
    count_convex,
    enumerate_convex,
    fully_loaded,
    is_convex,
    optimize_objective,
    parse_newick,
    parsimony_score,
    quartet_exact_partition,
    random_tree,
    run_bench,
)
from convchar.cli import main
from convchar.verify import (
    deletion_recurrence,
    exhaustive_extremes,
    extremal_sandwich,
    fully_loaded_shapes,
    linearize_monotone,
    oracle_agreement,
    pendant_replacement_monotone,
    tripartition_identity,
)

EXAMPLE7 = "(((a,b),c),((f,g),e),d);"
EXAMPLE7_ALT = "(((a,b),c),((e,f),g),d);"


@contextmanager
def criterion(name: str, budget_s: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    print(f"[PASS] {name}  ({elapsed:.2f}s of {budget_s:g}s budget)")
    assert elapsed <= budget_s, f"{name} exceeded its {budget_s}s budget"


def test_c01_worked_example_reproduction():
    with criterion("criterion 1: seven-taxon example counts and listings", 1.0):
        t = parse_newick(EXAMPLE7)
        assert [count_convex(t, k) for k in (1, 2, 3, 4)] == [233, 8, 3, 1]

        got3 = {c.text() for c in enumerate_convex(t, 3)}
        assert got3 == {"a,b,c,d,e,f,g", "a,b,c|d,e,f,g", "a,b,c,d|e,f,g"}

        got2 = {c.text() for c in enumerate_convex(t, 2)}
        expected2 = {
            "a,b,c,d,e,f,g",
            "a,b|c,d,e,f,g",
            "a,b,c|d,e,f,g",
            "a,b,c,d|e,f,g",
            "a,b,c,d,e|f,g",
            "a,b|c,d|e,f,g",
            "a,b|c,d,e|f,g",
            "a,b,c|d,e|f,g",
        }
        assert got2 == expected2
        # Independent oracle for the same listing.
        oracle2 = {
            c.text()
            for c in all_partitions(sorted(t.labels), 2)
            if is_convex(t, c)
        }
        assert got2 == oracle2

        # The alternative orientation of the {e,f,g} pendant carries the
        # same counts and the same minimum-block-3 listing.
        v = parse_newick(EXAMPLE7_ALT)
        assert [count_convex(v, k) for k in (1, 2, 3, 4)] == [233, 8, 3, 1]
        assert {c.text() for c in enumerate_convex(v, 3)} == got3


def test_c02_topological_neutrality_exhaustive():
    with criterion("criterion 2: neutrality and extremes over all topologies, n <= 8", 120.0):
        # 105, 945 and 10395 topologies, each one checked at k = 1..5.
        assert exhaustive_extremes((6, 7, 8), ks=(3, 4, 5)) == "11445 topologies"


@pytest.mark.slow
def test_c03_oracle_equivalence():
    with criterion("criterion 3: dp equals brute force, 200 trees per n", 300.0):
        trees = (random_tree(n, seed=n * 100000 + i) for n in range(5, 10) for i in range(200))
        assert oracle_agreement(trees, range(1, 5)) == "1000 trees, k <= 4"


def test_c04_extremal_sandwich():
    with criterion("criterion 4: extremal sandwich, 1000 trees per size", 300.0):
        trees = (random_tree(n, seed=n * 1000000 + i) for n in (10, 15, 20) for i in range(1000))
        assert extremal_sandwich(trees, (3, 4, 5)) == "9000 bounds"


def test_c05a_deletion_recurrence():
    with criterion("criterion 5a: deletion identity on 100 applicable trees", 60.0):
        cases = ((random_tree(8 + s % 6, seed=s), 2 + s % 3) for s in count(1))
        assert deletion_recurrence(cases, 100) == "100 trees"


def test_c05b_caterpillar_recurrence_vs_dp():
    with criterion("criterion 5b: caterpillar recurrence vs dp, n <= 25", 60.0):
        for k in range(2, 7):
            for n in range(0, 26):
                if n >= 1:
                    assert count_convex(caterpillar(n), k) == caterpillar_count(n, k)
        # Recurrence restated directly.
        for k in range(2, 7):
            for n in range(k + 1, 26):
                assert caterpillar_count(n, k) == caterpillar_count(
                    n - 1, k
                ) + caterpillar_count(n - k, k)


def test_c05c_tripartition_identity():
    with criterion("criterion 5c: tripartition identity on 100 configs", 60.0):
        ks = ((s, 3 + s % 2) for s in count(1))
        cases = ((random_tree(3 * k + s % 5, seed=10000 + s), k) for s, k in ks)
        assert tripartition_identity(cases, 100) == "100 trees"


def test_c05d_k3_closed_form():
    with criterion("criterion 5d: size-3 closed form, 3 <= n <= 30", 60.0):
        for n in range(3, 31):
            assert caterpillar_closed_k3(n) == caterpillar_count(n, 3)


def test_c06_rate_table_cli():
    with criterion("criterion 6: growth-rate table to three decimals", 1.0):
        import io
        from contextlib import redirect_stdout

        buf = io.StringIO()
        with redirect_stdout(buf):
            assert main(["rate", "--kmax", "6"]) == 0
        rows = [line.split("\t") for line in buf.getvalue().splitlines()]
        assert rows == [
            ["1", "2.618", "2.618"],
            ["2", "1.618", "1.618"],
            ["3", "1.272", "1.466"],
            ["4", "1.174", "1.380"],
            ["5", "1.128", "1.325"],
            ["6", "1.101", "1.285"],
        ]


def test_c07_transformation_monotonicity():
    with criterion("criterion 7: linearize/replace monotone on 100 configs", 120.0):
        cases = ((random_tree(10 + s % 5, seed=20000 + s), 3 + s % 3) for s in count(1))
        assert linearize_monotone(cases, 100) == "100 trees"
        cases = ((random_tree(11 + s % 5, seed=30000 + s), 3 + s % 3) for s in range(1, 101))
        assert pendant_replacement_monotone(cases) == "100 trees"


def test_c08_fully_loaded_shape_independence():
    with criterion("criterion 8: five distinct fully loaded shapes agree", 60.0):
        assert fully_loaded_shapes(range(10, 21), (3, 4, 5), seed=77) == "165 shapes"


def test_c09_bench_trend_under_fixed_clock():
    with criterion("criterion 9: bench max_n trends with k and family", 120.0):
        records = run_bench(
            families=("caterpillar", "random"),
            ks=(1, 2, 3, 4, 5, 6),
            budgets=(400.0,),
            seed=3,
            clock=FakeClock(),
        )
        by_family = {}
        for rec in records:
            by_family.setdefault(rec.family, {})[rec.k] = rec.max_n_completed
        for family, table in by_family.items():
            ns = [table[k] for k in (1, 2, 3, 4, 5, 6)]
            assert ns == sorted(ns), (family, ns)
        for k in (3, 4, 5, 6):
            assert by_family["random"][k] >= by_family["caterpillar"][k]


def test_c10_solver_sanity():
    with criterion("criterion 10: solver sanity", 60.0):
        for i in range(50):
            t = random_tree(7 + i % 3, seed=40000 + i)
            res = agreement_forest_min_components(t, t, 2)
            assert res.objective_value == 1
            assert res.character == Character([t.labels])

        pos = quartet_exact_partition([fully_loaded(8, 5), fully_loaded(8, 5)])
        assert pos.character is not None
        assert {frozenset(b) for b in pos.character.blocks} == {
            frozenset("abcd"),
            frozenset("efgh"),
        }
        neg_size = quartet_exact_partition([random_tree(7, seed=1)])
        assert neg_size.character is None and neg_size.characters_scanned == 0
        neg_shape = quartet_exact_partition(
            [parse_newick("(((a,b),c),(d,e),(f,(g,h)));")] * 2
        )
        assert neg_shape.character is None

        t1 = caterpillar(6)
        t2 = caterpillar(6, ["a", "c", "b", "d", "e", "f"])
        res = optimize_objective(t1, [t1, t2], 2)
        scores = [
            parsimony_score(t1, ch) + parsimony_score(t2, ch)
            for ch in enumerate_convex(t1, 2)
        ]
        assert res.characters_scanned == len(scores) == 5
        assert res.objective_value == min(scores)

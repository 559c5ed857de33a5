import pytest

from convchar import (
    MAX_TAXA,
    all_partitions,
    all_topologies,
    brute_count,
    caterpillar,
    count_closed_k1,
    count_closed_k2,
    count_convex,
    default_labels,
    random_tree,
)

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147]


class TestAllPartitions:
    def test_bell_counts(self):
        for n in range(1, 8):
            assert sum(1 for _ in all_partitions(default_labels(n), 1)) == BELL[n]

    def test_n3_listing(self):
        got = {c.text() for c in all_partitions(["a", "b", "c"], 1)}
        assert got == {"a,b,c", "a,b|c", "a,c|b", "a|b,c", "a|b|c"}

    def test_min_block_two_on_four(self):
        got = {c.text() for c in all_partitions(list("abcd"), 2)}
        assert got == {"a,b,c,d", "a,b|c,d", "a,c|b,d", "a,d|b,c"}

    def test_full_block_only(self):
        assert [c.block_count for c in all_partitions(default_labels(7), 7)] == [1]

    def test_guards(self):
        with pytest.raises(ValueError):
            list(all_partitions(default_labels(MAX_TAXA + 1), 1))
        with pytest.raises(ValueError):
            list(all_partitions(["a", "b"], 0))
        with pytest.raises(ValueError):
            list(all_partitions(["a", "a"], 1))


class TestBruteCount:
    def test_worked_example(self, example7):
        assert brute_count(example7, 1) == 233
        assert brute_count(example7, 2) == 8

    def test_closed_forms_exhaustive_small(self):
        for n in (4, 5, 6):
            for t in all_topologies(default_labels(n)):
                assert brute_count(t, 1) == count_closed_k1(n)
                assert brute_count(t, 2) == count_closed_k2(n)

    @pytest.mark.parametrize("n", [7, 8])
    def test_closed_forms_sampled(self, n):
        for seed in range(10):
            t = random_tree(n, seed=seed)
            assert brute_count(t, 1) == count_closed_k1(n)
            assert brute_count(t, 2) == count_closed_k2(n)

    def test_k_above_n_is_zero(self):
        assert brute_count(caterpillar(4), 5) == 0 == count_convex(caterpillar(4), 5)
        assert list(all_partitions(["a", "b"], 3)) == []

    def test_size_guard(self):
        with pytest.raises(ValueError):
            brute_count(random_tree(15, seed=0), 1)

"""The same-behaviour harness's digests, run in-process on a tiny corpus;
no git history is needed."""

import hashlib
import importlib.util
import json
import re
from pathlib import Path

import pytest

from convchar import (
    agreement_forest_min_components, caterpillar, enumerate_convex, fully_loaded, parse_newick,
    random_tree,
)
from convchar.characters import _block_stream, _parsimony
from convchar.solvers import _agreeing_blocks, _scan

TREE = "((a,b),(c,(d,(e,f))),g);"


@pytest.fixture(scope="module")
def same_behaviour():
    script = Path(__file__).resolve().parents[1] / "scripts" / "same_behaviour.py"
    spec = importlib.util.spec_from_file_location("same_behaviour", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_digests_of_a_tiny_corpus(same_behaviour, tmp_path):
    tree_file = tmp_path / "t.nwk"
    tree_file.write_text(TREE + "\n")
    instance = tmp_path / "solve.json"
    instance.write_text(json.dumps({"trees": [TREE, TREE], "k": 2,
                                    "mode": "agreement_forest_min_components"}))
    requests = [
        ("list text", ["list", str(tree_file), "-k", "2"]),
        ("list json", ["list", str(tree_file), "-k", "2", "--format", "json"]),
        ("list limit", ["list", str(tree_file), "--limit", "3"]),
        ("count", ["count", str(tree_file), "-k", "2"]),
        ("solve", ["solve", str(instance)]),
        ("missing file", ["count", str(tmp_path / "none.nwk")]),
    ]
    listings = [("caterpillar", 5, 2), ("random", 6, 1), ("fully_loaded", 7, 3)]
    streams = [("random", 8, 1, 3, True)]
    scans = [("agreement", "random", 9, 2, [2]), ("objective", "caterpillar", 8, 1, [1, 4])]
    got = same_behaviour.digests(requests, listings, streams, scans)

    assert list(got) == [name for name, _ in requests] + [
        "enumerate caterpillar n=5 k=2", "enumerate random n=6 k=1",
        "enumerate fully_loaded n=7 k=3", "stream random n=8 k=1 limit=3 checked",
        "agreement scan #000 random n=9 k=2 swaps=[2]",
        "objective scan #001 caterpillar n=8 k=1 swaps=[1, 4]"]
    chars = list(enumerate_convex(parse_newick(TREE), 2))
    assert got["list text"] == sha("0\n" + "".join(ch.text() + "\n" for ch in chars))
    assert got["list json"] == sha(
        "0\n" + "".join(json.dumps(ch.to_lists()) + "\n" for ch in chars))
    assert got["count"] == sha(f"0\n1\t7\t2\t{len(chars)}\n")
    assert got["missing file"] == sha("1\n")  # the error goes to stderr
    for tree, k, name in ((caterpillar(5), 2, "caterpillar n=5 k=2"),
                          (random_tree(6, seed=6), 1, "random n=6 k=1"),
                          (fully_loaded(7, 3), 3, "fully_loaded n=7 k=3")):
        want = "\n".join(ch.text() for ch in enumerate_convex(tree, k))
        assert got[f"enumerate {name}"] == sha(want)

    # The stream runs at limit 3 under the agreement check against the tree
    # with the names at canonical positions n // 2 - 1 and n // 2 swapped.
    tree = random_tree(8, seed=8)
    other = swap_names(tree, 3)
    lines, sizes = [], []
    for live, dropped, added in _block_stream(tree, 1, _agreeing_blocks((tree, other)), [3]):
        lines.append(f"{live} {dropped} {added}")
        sizes.append(len(live))
    assert lines and max(sizes) < 3
    assert got["stream random n=8 k=1 limit=3 checked"] == sha("\n".join(lines))

    tree = random_tree(9, seed=0)  # a scan's random trees take its index as seed
    res = agreement_forest_min_components(tree, swap_names(tree, 2), 2)
    assert got["agreement scan #000 random n=9 k=2 swaps=[2]"] == sha(
        f"{res.character}\t{res.objective_value}\t{res.characters_scanned}")

    tree = caterpillar(8)
    trees = (tree, swap_names(swap_names(tree, 1), 4), random_tree(8, seed=2))
    values = [sum(_parsimony(t, masks) for t in trees)
              for masks, _, _ in _block_stream(tree, 1) if len(masks) > 1]
    res = _scan(tree, 1, lambda masks: None if len(masks) == 1 else sum(
        _parsimony(t, masks) for t in trees), lambda b: 3 * (b - 1))
    assert res.objective_value == min(values)
    assert got["objective scan #001 caterpillar n=8 k=1 swaps=[1, 4]"] == sha(
        f"{res.character}\t{res.objective_value}\t{res.characters_scanned}")
    # The solve result's wall time is stripped, so a second run digests alike.
    assert same_behaviour.digests(requests, listings, streams, scans) == got


def swap_names(tree, i):
    """``tree`` with the names at canonical Newick positions i and i + 1
    exchanged."""
    text = tree.canonical_newick()
    names = re.findall(r"[^(),;]+", text)
    names[i], names[i + 1] = names[i + 1], names[i]
    it = iter(names)
    return parse_newick(re.sub(r"[^(),;]+", lambda _: next(it), text))


def test_first_difference_names_the_first_differing_case(same_behaviour):
    base = {"a": "1", "b": "2", "c": "3"}
    first = same_behaviour.first_difference
    assert first(base, dict(base)) is None
    assert first(base, {"a": "1", "b": "x", "c": "y"}) == "b"
    assert first(base, {"a": "1", "c": "3"}) == "b"
    assert first(base, {**base, "d": "4"}) == "d"


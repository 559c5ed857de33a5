"""The same-behaviour harness's digests, run in-process on a tiny corpus;
no git history is needed."""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from convchar import caterpillar, enumerate_convex, fully_loaded, parse_newick, random_tree

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
    got = same_behaviour.digests(requests, listings)

    assert list(got) == [name for name, _ in requests] + [
        "enumerate caterpillar n=5 k=2", "enumerate random n=6 k=1",
        "enumerate fully_loaded n=7 k=3"]
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
    # The solve result's wall time is stripped, so a second run digests alike.
    assert same_behaviour.digests(requests, listings) == got


def test_first_difference_names_the_first_differing_case(same_behaviour):
    base = {"a": "1", "b": "2", "c": "3"}
    first = same_behaviour.first_difference
    assert first(base, dict(base)) is None
    assert first(base, {"a": "1", "b": "x", "c": "y"}) == "b"
    assert first(base, {"a": "1", "c": "3"}) == "b"
    assert first(base, {**base, "d": "4"}) == "d"


"""Golden ``solve`` output: the sha256 of stdout, with ``wall_time_ms``
removed, pinned for fixed instances.  The digests were recorded before the
agreement and objective scans passed their block-count bound to ``_scan``
as one ``floor``, so any change to an answer, a tie-break or
``characters_scanned`` shows here as a changed digest."""

import contextlib
import hashlib
import io
import json
import re

import pytest

from convchar import fully_loaded, parse_newick, random_tree
from convchar.cli import main

AGREE, QUARTET, OBJECTIVE = (
    "agreement_forest_min_components", "quartet_exact_partition", "objective_optimize")


def swapped(tree, i, j):
    """The same shape with the taxa of ids ``i`` and ``j`` exchanged."""
    a, b = tree.labels[i], tree.labels[j]
    swap = {a: b, b: a}
    text = re.sub(r"[^(),;]+", lambda m: swap.get(m.group(), m.group()), tree.canonical_newick())
    return parse_newick(text)


def random_pair(n, seed):
    return random_tree(n, seed=seed), random_tree(n, seed=seed + 50)


def swap_pair(n, seed, i, j):
    t = random_tree(n, seed=seed)
    return t, swapped(t, i, j)


# (mode, trees, k, digest)
GOLDEN = {
    "agreement random(11) k=1": (
        AGREE, lambda: random_pair(11, 1), 1,
        "2adea3fbfe722aa029c6e9f652d16c9c8992960e80103d55b0b93cd12d760219"),
    "agreement random(8) k=2": (
        AGREE, lambda: random_pair(8, 1), 2,
        "8b11a472b7ec506795d9a70a259f8ab2a4df830d0dc5fe3c98f15d66a46f3fd2"),
    "agreement random(11) k=2": (
        AGREE, lambda: random_pair(11, 2), 2,
        "95584979cb6dfc9e42486223b6f3110972f79b378e55922091a0d853676e8188"),
    "agreement random(12) k=3": (
        AGREE, lambda: random_pair(12, 3), 3,
        "809c294bfe63d8f451e1ae1cdcc866caba5c0c5a2eb2de4f0f52ec82b98cf136"),
    "agreement swap(12) k=1": (
        AGREE, lambda: swap_pair(12, 0, 3, 9), 1,
        "1d6616d13f918eb647ce110b8cdb92dbb4748bf32d2e04fa1e769e7f8b54b41a"),
    "agreement swap(12) k=2": (
        AGREE, lambda: swap_pair(12, 2, 2, 9), 2,
        "5de10089906fea2c4a12ecbbf481e3f044215efc57799a2356c5a1377b53379d"),
    "agreement swap(12) k=3": (
        AGREE, lambda: swap_pair(12, 1, 1, 10), 3,
        "c92a3978c963eea5352ae17bee23e605ab2fd239f5074c4427b13dc136c41d0d"),
    "agreement swap(16) k=3": (
        AGREE, lambda: swap_pair(16, 0, 1, 14), 3,
        "1098eda0d5cf1625b7f5982b3fcd48257267b6bba100f61b3f17a718464831dd"),
    "objective on 1 tree": (
        OBJECTIVE, lambda: (random_tree(10, seed=5),), 2,
        "34f5824197877cb2a175c87c287bc4c532ad5a7115502d1929818572b5d8972c"),
    "objective on 2 trees": (
        OBJECTIVE, lambda: random_pair(10, 5), 2,
        "34f5824197877cb2a175c87c287bc4c532ad5a7115502d1929818572b5d8972c"),
    "objective on 3 trees": (
        OBJECTIVE, lambda: (*random_pair(9, 5), random_tree(9, seed=7)), 1,
        "d3808ac44565434a21853336478914401f01a402cbc92cebfebf0932440a096b"),
    # Equal trees and the sum_parsimony objective end at the one-block
    # character, which the floor proves optimal before the walk.
    "agreement random(10) with itself k=1": (
        AGREE, lambda: (random_tree(10, seed=4),) * 2, 1,
        "e92f2c7ebd0b4f14fd2950db3c8e552e76dfdffa3f97c5477f7f4b739898464f"),
    "agreement random(10) with itself k=2": (
        AGREE, lambda: (random_tree(10, seed=4),) * 2, 2,
        "6b8941a739e4b8671676a51af815a6af518440866fed180cb487a80eeffcb7cd"),
    "agreement random(10) with itself k=3": (
        AGREE, lambda: (random_tree(10, seed=4),) * 2, 3,
        "6722e62a0811ad03ef4b426157311f2155dddd4b36dad7518995e8cbf1a58d1d"),
    "objective k=n on 9 taxa": (
        OBJECTIVE, lambda: (random_tree(9, seed=6), random_tree(9, seed=7)), 9,
        "886c46d39d457daa5894fa3d4ef834102302409a8e8531fdcec8c7be5d0afc72"),
    "quartet hit fully_loaded(16, 5)": (
        QUARTET, lambda: (fully_loaded(16, 5), fully_loaded(16, 5)), 1,
        "9ec22a406f4df8f3d7c6fa53c6326dbd332bb84ce7b27e08287216bd5c63a342"),
    "quartet miss random(12)": (
        QUARTET, lambda: random_pair(12, 3), 1,
        "d7fe27ee7f16a8a5bb6cb7d48fe3e1c9d460ae2cb36ed3c35547c640b6023dcb"),
    "k > n empty stream": (
        AGREE, lambda: random_pair(5, 0), 7,
        "a06733038ebc1415258f379876662b79aa5e303e38d736cc7993326bf2d49373"),
}


def solve_output(mode, trees, k, tmp_path):
    path = tmp_path / "instance.json"
    instance = {"trees": [t.canonical_newick() for t in trees], "k": k, "mode": mode}
    path.write_text(json.dumps(instance), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["solve", str(path)]) == 0
    text = out.getvalue()
    result = json.loads(text)
    assert text == json.dumps(result) + "\n"
    del result["wall_time_ms"]
    return json.dumps(result) + "\n"


@pytest.mark.parametrize("name", list(GOLDEN))
def test_solve_output_digest(name, tmp_path):
    mode, make, k, digest = GOLDEN[name]
    text = solve_output(mode, make(), k, tmp_path)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest, text

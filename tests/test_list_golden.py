"""Golden ``list`` output: the sha256 of stdout, text and JSON, pinned for
fixed trees.  The digests were recorded before the block stream learned to
splice back unchanged suffixes, so any change to stream order or rendering
shows here as a changed digest."""

import contextlib
import hashlib
import io
import json

import pytest

from convchar import caterpillar, enumerate_convex, fully_loaded, random_tree
from convchar.cli import main

# (tree, k, --limit, exit code, lines, text digest, JSON digest)
GOLDEN = {
    "caterpillar(36) k=4": (
        lambda: caterpillar(36), 4, None, 0, 16493,
        "4a2069813caaa3b48d577baca94d8a3a82e49fe57b3f7fe093e44a67320d61bd",
        "6f29ae5e816ae18e15cd04683824232cfb65b9ce9005e624175d64e4201e8dac"),
    "random_tree(20, seed=7) k=2": (
        lambda: random_tree(20, seed=7), 2, None, 0, 4181,
        "b9b8a14644c48694f1e2264a864d76a9c02b60c32c3c9f8f4cb4e84acb94fc84",
        "a4ca78dad6378ee2d985d9353c9e273378ba2d89747e43e2781e77220dc92abe"),
    "random_tree(12) k=1": (
        lambda: random_tree(12), 1, None, 0, 28657,
        "bfe388d8941f182888b4549d185e21915e6089b6ff8b89b12eea2eeaf48b3948",
        "761d0274421398ac44eca1c9d61a5ef0903c2c35e6cd5dca155bb17dc36f272f"),
    "fully_loaded(15, 3) k=3": (
        lambda: fully_loaded(15, 3), 3, None, 0, 13,
        "4b3d145a3546d959978cc668de3fd166cc32ce0735ef010f8cbb8307fd1dfd8e",
        "6818ecee9b2025868a6d564d4102e96b071727377db551a77c9546447750e6f2"),
    "caterpillar(2000) k=3 --limit 200": (
        lambda: caterpillar(2000), 3, 200, 3, 200,
        "6c905d34d446e91423d9c0a8fa31ef2e398176d92730207cf0382c40d3554c37",
        "d5dedc6336b41a05c653a3edf0869d2685b1329ce55d7f734d124fa7419bd397"),
    "random_tree(3000) k=3 --limit 200": (
        lambda: random_tree(3000), 3, 200, 3, 200,
        "3dd68224e48436b99ded4f886a2f994f4a1b03da27eef0fd9bcaa09970cf5e93",
        "a7130bd561558c8281b8475a3f808dcbe745de878da4c5664470f094c9754a83"),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_list_output_digest(name, tmp_path):
    make, k, limit, code, lines, *digests = GOLDEN[name]
    path = tmp_path / "tree.nwk"
    path.write_text(make().canonical_newick() + "\n", encoding="utf-8")
    for fmt, digest in zip(("text", "json"), digests):
        argv = ["list", str(path), "-k", str(k), "--format", fmt]
        if limit is not None:
            argv += ["--limit", str(limit)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == code
        text = out.getvalue()
        assert text.count("\n") == lines, fmt
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest, fmt


class Writes:
    """A stdout stand-in that keeps the text of each ``write`` call."""

    def __init__(self):
        self.calls = []

    def write(self, text):
        self.calls.append(text)
        return len(text)

    def flush(self):
        pass


def listed(argv):
    """``main(argv)``'s exit code and the text of each write to stdout."""
    out = Writes()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.calls


def rendered(ch, fmt):
    return (ch.text() if fmt == "text" else json.dumps(ch.to_lists())) + "\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("limit", [None, 0, 1, 7, 21, 22])
def test_list_makes_one_write_per_line(fmt, limit, tmp_path):
    """Each line of ``list`` is one ``write`` of one newline-terminated
    line, and nothing is written past ``--limit``."""
    tree = caterpillar(9)  # 21 characters at k = 2
    path = tmp_path / "tree.nwk"
    path.write_text(tree.canonical_newick() + "\n", encoding="utf-8")
    want = [rendered(ch, fmt) for ch in enumerate_convex(tree, 2)]
    assert len(want) == 21
    argv = ["list", str(path), "-k", "2", "--format", fmt]
    if limit is not None:
        argv += ["--limit", str(limit)]
    code, calls = listed(argv)
    if limit is not None and limit < len(want):
        assert code == 3
        want = want[:limit]
    else:
        assert code == 0
    assert calls == want
    assert all(call.count("\n") == 1 and call.endswith("\n") for call in calls)


# Labels that JSON escapes, as in test_bench_cli.LABELS.
ESCAPED = ('a"b', "c\\d", "é", "Ω", "x", "q")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_list_over_several_trees(fmt, k, tmp_path):
    """Each tree's lines carry its own names and open afresh: the output of
    a file of trees is each tree's listing in turn, and ``--limit`` counts
    lines across trees."""
    trees = [random_tree(6, seed=5, labels=ESCAPED), caterpillar(7), caterpillar(1),
             caterpillar(2)]  # a one-taxon tree, and k > n for the last at k = 3
    path = tmp_path / "trees.nwk"
    path.write_text("".join(t.canonical_newick() + "\n" for t in trees), encoding="utf-8")
    per_tree = [[rendered(ch, fmt) for ch in enumerate_convex(t, k)] for t in trees]
    want = [line for lines in per_tree for line in lines]
    argv = ["list", str(path), "-k", str(k), "--format", fmt]
    code, calls = listed(argv)
    assert code == 0 and "".join(calls) == "".join(want)
    if fmt == "json":
        assert "\\u00e9" in calls[0] and '\\"' in calls[0]
    limit = len(per_tree[0]) + 2  # inside the second tree
    assert len(per_tree[1]) > 2
    code, calls = listed(argv + ["--limit", str(limit)])
    assert code == 3 and calls == want[:limit]

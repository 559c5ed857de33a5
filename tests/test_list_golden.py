"""Golden ``list`` output: the sha256 of stdout, text and JSON, pinned for
fixed trees.  The digests were recorded before the block stream learned to
splice back unchanged suffixes, so any change to stream order or rendering
shows here as a changed digest."""

import contextlib
import hashlib
import io

import pytest

from convchar import caterpillar, fully_loaded, random_tree
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

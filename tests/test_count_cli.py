"""The ``count`` command's contract.

``count`` reads each line's count off its Newick text without building a
tree.  Its output must still be what parsing the line and counting the
tree gives, and a bad line must still stop the whole command before
anything is printed, with ``parse_newick``'s own message.
"""

import tracemalloc

import pytest

from convchar import caterpillar, count_convex, parse_newick, random_tree
from convchar.cli import main

GOOD = "(((a,b),c),((f,g),e),d);"

BAD_LINES = [
    ("((a,b),c;", "syntax"),
    ("((a,b),(a,c));", "duplicate"),
    ("((a,b,c),d);", "non-binary"),
]


def parse_error(text: str) -> str:
    with pytest.raises(ValueError) as info:
        parse_newick(text)
    return str(info.value)


@pytest.mark.parametrize("bad,kind", BAD_LINES)
def test_bad_second_line_prints_nothing(tmp_path, capsys, bad, kind):
    path = tmp_path / "trees.nwk"
    path.write_text(f"{GOOD}\n{bad}\n{GOOD}\n")
    assert main(["count", str(path), "-k", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: line 2: {parse_error(bad)}\n", kind


def test_group_of_three_below_the_top_is_not_binary(tmp_path, capsys):
    path = tmp_path / "trees.nwk"
    path.write_text("((a,b,c),d);\n")
    assert main(["count", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: line 1: input tree is not binary: internal vertex has degree 4, expected 3\n"


def test_mixed_file_matches_parse_and_count(tmp_path, capsys):
    """A byte order mark, CRLF endings, a blank line, rooted and unrooted
    texts, unary wrappers, internal labels and lengths, and trees too small
    for k: each line counts as its parsed tree does."""
    lines = [
        "(a,b,c);",
        "((a,b,c));",
        "(a,(b,c),d)x:1;",
        "",
        "   ",
        "x;",
        "(p,q);",
        "((p:0.5,q)r);",
        GOOD,
        "((((a,b),c),d),(e,(f,g)));",
        caterpillar(12).canonical_newick(),
        random_tree(30, seed=5).canonical_newick(),
        " ( ( a , b ) 90 : 2 , ( c , d ) , e ) ; ",
    ]
    path = tmp_path / "trees.nwk"
    path.write_bytes(b"\xef\xbb\xbf" + "\r\n".join(lines).encode() + b"\r\n")
    for k in (1, 2, 3, 10):
        assert main(["count", str(path), "-k", str(k)]) == 0
        out, err = capsys.readouterr()
        expected = []
        for lineno, line in enumerate(lines, start=1):
            if line.strip():
                tree = parse_newick(line)
                expected.append(f"{lineno}\t{tree.n}\t{k}\t{count_convex(tree, k)}")
        assert (out.splitlines(), err) == (expected, ""), k


def test_huge_k_builds_nothing_k_sized(tmp_path, capsys):
    """A k far above the taxa reads 0 at once: the join table is bounded by
    the text, not by k, so the count takes well under 1 MB."""
    path = tmp_path / "trees.nwk"
    path.write_text("((a,b),(c,d));\n")
    tracemalloc.start()
    try:
        assert main(["count", str(path), "-k", "1000000000000"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr() == ("1\t4\t1000000000000\t0\n", "")
    assert peak < 1_000_000, peak

import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import convchar
from convchar import (
    Character,
    FakeClock,
    caterpillar,
    caterpillar_count,
    count_closed_k1,
    count_convex,
    enumerate_convex,
    fibonacci,
    fully_loaded_count,
    parse_newick,
    parsimony_score,
    random_tree,
    run_bench,
)
from convchar.characters import _block_stream
from convchar.cli import main

EXAMPLE = "(((a,b),c),((f,g),e),d);"


def load_make_tables():
    script = Path(__file__).resolve().parents[1] / "scripts" / "make_tables.py"
    spec = importlib.util.spec_from_file_location("make_tables", script)
    make_tables = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_tables)
    return make_tables


class TestBench:
    def test_fake_clock_is_deterministic(self):
        kw = dict(families=("caterpillar",), ks=(2,), budgets=(50.0,), seed=1)
        a = run_bench(clock=FakeClock(), **kw)
        b = run_bench(clock=FakeClock(), **kw)
        assert a == b

    def test_max_n_reflects_counts_under_fake_clock(self):
        (rec,) = run_bench(
            families=("caterpillar",), ks=(3,), budgets=(100.0,), seed=0,
            clock=FakeClock(),
        )
        # The fake clock ticks once per reading, so a full listing of c
        # characters costs about c ticks; max_n is the last size fitting.
        assert caterpillar_count(rec.max_n_completed, 3) <= 100
        assert caterpillar_count(rec.max_n_completed + 1, 3) > 98
        assert rec.characters_listed == caterpillar_count(rec.max_n_completed, 3)

    def test_tiny_real_budget_reaches_single_character_sizes(self):
        records = run_bench(
            families=("caterpillar", "random", "fully_loaded"),
            ks=(3,),
            budgets=(0.02,),
            seed=0,
        )
        for rec in records:
            assert rec.max_n_completed >= 3

    def test_make_tables_reports_closed_stdout(self):
        make_tables = load_make_tables()

        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        err = io.StringIO()
        with contextlib.redirect_stdout(ClosedPipe()), contextlib.redirect_stderr(err):
            assert make_tables.main(["--budgets", "0.01", "--kmax", "2"]) == 1
        assert err.getvalue().startswith("error: ")
        assert "Traceback" not in err.getvalue()

    def test_make_tables_usage_error_exit_code(self):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert load_make_tables().main(["--budgets", "0"]) == 2
        assert "must be positive" in err.getvalue()
        assert "Traceback" not in err.getvalue()

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            run_bench(families=("nope",))
        with pytest.raises(ValueError):
            run_bench(budgets=(0,))
        with pytest.raises(ValueError):
            run_bench(budgets=(float("nan"),))
        with pytest.raises(ValueError):
            run_bench(families=("fully_loaded",), ks=(1,))
        with pytest.raises(ValueError, match="k=4.*n_cap of 3"):
            run_bench(families=("caterpillar",), ks=(4,), n_cap=3)

    def test_k_above_the_size_cap_is_an_error(self, capsys):
        argv = ["bench", "--n-cap", "3", "--k-list", "4", "--families", "caterpillar",
                "--budgets", "0.1"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "k=4" in captured.err


class TestCli:
    def write_tree(self, tmp_path, text=EXAMPLE + "\n"):
        p = tmp_path / "trees.nwk"
        p.write_text(text)
        return str(p)

    def test_count(self, tmp_path, capsys):
        path = self.write_tree(tmp_path, EXAMPLE + "\n" + EXAMPLE + "\n")
        assert main(["count", path, "-k", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["1\t7\t2\t8", "2\t7\t2\t8"]

    def test_count_oversized_k_is_zero(self, tmp_path, capsys):
        path = self.write_tree(tmp_path)
        assert main(["count", path, "-k", "99"]) == 0
        assert capsys.readouterr().out.splitlines() == ["1\t7\t99\t0"]

    def test_count_past_the_int_to_str_digit_limit(self, tmp_path, capsys):
        # F(21999) has 4 598 digits, past the default limit of 4 300 that
        # str() of an int obeys.
        limit = sys.get_int_max_str_digits()
        path = self.write_tree(tmp_path, random_tree(11_000).canonical_newick() + "\n")
        assert main(["count", path]) == 0
        line, n, k, digits = capsys.readouterr().out.rstrip("\n").split("\t")
        assert (line, n, k) == ("1", "11000", "1")
        assert len(digits) == 4598 and digits.isdigit()
        assert Decimal(digits) == count_closed_k1(11_000)
        assert sys.get_int_max_str_digits() == limit

    def test_count_parse_error_has_line_number(self, tmp_path, capsys):
        path = self.write_tree(tmp_path, EXAMPLE + "\n(((oops;\n")
        assert main(["count", path]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_list_matches_count(self, tmp_path, capsys):
        path = self.write_tree(tmp_path)
        assert main(["list", path, "-k", "3"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["a,b,c|d,e,f,g", "a,b,c,d|e,f,g", "a,b,c,d,e,f,g"]

    def test_list_single_character_k4(self, tmp_path, capsys):
        path = self.write_tree(tmp_path)
        assert main(["list", path, "-k", "4"]) == 0
        assert capsys.readouterr().out.splitlines() == ["a,b,c,d,e,f,g"]

    def test_list_limit_truncates_with_status(self, tmp_path, capsys):
        path = self.write_tree(tmp_path)
        assert main(["list", path, "-k", "1", "--limit", "5"]) == 3
        assert len(capsys.readouterr().out.splitlines()) == 5
        assert main(["list", path, "--limit", "-1"]) == 2
        assert capsys.readouterr().out == ""

    def test_list_json_format(self, tmp_path, capsys):
        path = self.write_tree(tmp_path)
        assert main(["list", path, "-k", "4", "--format", "json"]) == 0
        row = json.loads(capsys.readouterr().out)
        assert row == [["a", "b", "c", "d", "e", "f", "g"]]

    def test_gen_round_trips_through_count(self, capsys):
        assert main(["gen", "fully_loaded", "7", "--k", "4"]) == 0
        newick = capsys.readouterr().out.strip()
        assert count_convex(parse_newick(newick), 4) == 1

    def test_gen_random_deterministic(self, capsys):
        assert main(["gen", "random", "10", "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert main(["gen", "random", "10", "--seed", "7"]) == 0
        assert capsys.readouterr().out == first

    def test_gen_caterpillar(self, capsys):
        assert main(["gen", "caterpillar", "9"]) == 0
        t = parse_newick(capsys.readouterr().out.strip())
        assert t.cherries() == [("a", "b"), ("h", "i")]

    def test_gen_fully_loaded_requires_k(self, capsys):
        assert main(["gen", "fully_loaded", "7"]) == 2
        assert main(["gen", "fully_loaded", "3", "--k", "4"]) == 1
        assert main(["gen", "random", "2"]) == 1  # bounds of one family stay domain errors

    def test_rate_table(self, capsys):
        assert main(["rate", "--kmax", "3"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "1\t2.618\t2.618",
            "2\t1.618\t1.618",
            "3\t1.272\t1.466",
        ]

    def test_rate_past_float_overflow(self, capsys):
        # 1.5 ** k overflows a float for k > 1750.
        assert main(["rate", "--kmax", "2000"]) == 0
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 2000
        assert captured.err == ""

    def test_bench_rows(self, capsys):
        assert main(["bench", "--k-list", "2", "--budgets", "0.05", "--n-cap", "12"]) == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
        assert [r[0] for r in rows] == ["caterpillar", "random"]
        assert all(len(r) == 6 for r in rows)

    def test_verify_fast(self, capsys):
        assert main(["verify", "--nmax", "7", "--kmax", "3", "--samples", "12"]) == 0
        assert main(["verify", "--nmax", "5", "--kmax", "6", "--samples", "2"]) == 0  # k > n
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_verify_guard(self, capsys):
        assert main(["verify", "--nmax", "15", "--samples", "4", "--kmax", "2"]) == 1
        assert "limited to 14" in capsys.readouterr().out

    def test_solve(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        inst.write_text(
            json.dumps(
                {
                    "trees": [EXAMPLE, EXAMPLE],
                    "k": 2,
                    "mode": "agreement_forest_min_components",
                }
            )
        )
        assert main(["solve", str(inst)]) == 0
        res = json.loads(capsys.readouterr().out)
        assert res["objective_value"] == 1
        assert res["characters_scanned"] == "8"

    def test_solve_schema_error(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        base = {"trees": ["((a,b),c);"], "mode": "objective_optimize"}
        for data in (
            {"trees": ["((a,b),c);"], "mode": "bogus"},
            ["((a,b),c);"],
            {**base, "k": None},
            {**base, "k": [2]},
            {**base, "objective": ["sum_parsimony"]},
            {"trees": ["((a,b),c);"] * 2, "mode": "agreement_forest_min_components",
             "objective": "bogus"},
        ):
            inst.write_text(json.dumps(data))
            assert main(["solve", str(inst)]) == 1, data
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err, data

    def test_stdin_dash(self, tmp_path, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(EXAMPLE + "\n"))
        assert main(["count", "-", "-k", "1"]) == 0
        assert capsys.readouterr().out.strip().endswith("233")

    def test_byte_order_mark_is_skipped(self, tmp_path, capsys, monkeypatch):
        """A UTF-8 byte order mark at the start of a tree or instance file,
        or of stdin, is not part of the input."""
        path = tmp_path / "bom.nwk"
        path.write_bytes(b"\xef\xbb\xbf" + (EXAMPLE + "\n" + EXAMPLE + "\n").encode())
        assert main(["count", str(path), "-k", "2"]) == 0
        assert capsys.readouterr().out.splitlines() == ["1\t7\t2\t8", "2\t7\t2\t8"]
        assert main(["list", str(path), "-k", "4"]) == 0
        assert capsys.readouterr().out.splitlines() == ["a,b,c,d,e,f,g"] * 2
        monkeypatch.setattr("sys.stdin", io.StringIO("\ufeff" + EXAMPLE + "\n"))
        assert main(["count", "-", "-k", "1"]) == 0
        assert capsys.readouterr().out.strip().endswith("233")

        inst = json.dumps({"trees": [EXAMPLE, EXAMPLE], "k": 2,
                           "mode": "agreement_forest_min_components"})
        path = tmp_path / "bom.json"
        path.write_bytes(b"\xef\xbb\xbf" + inst.encode())
        assert main(["solve", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["objective_value"] == 1
        monkeypatch.setattr("sys.stdin", io.StringIO("\ufeff" + inst))
        assert main(["solve", "-"]) == 0
        assert json.loads(capsys.readouterr().out)["objective_value"] == 1

    def test_closed_stdout_drops_output(self, tmp_path, capsys, monkeypatch):
        """With ``sys.stdout`` None, as in a process started with fd 1
        closed, ``count``, ``list`` and ``solve`` drop their output as
        ``print`` does: no exception, the usual exit code."""
        path = self.write_tree(tmp_path)
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({"trees": [EXAMPLE, EXAMPLE], "k": 2,
                                    "mode": "agreement_forest_min_components"}))
        monkeypatch.setattr("sys.stdout", None)
        for argv, code in (
            (["count", path, "-k", "2"], 0),
            (["list", path, "-k", "2"], 0),
            (["list", path, "-k", "2", "--format", "json"], 0),
            (["list", path, "-k", "2", "--limit", "3"], 3),
            (["solve", str(inst)], 0),
        ):
            assert main(argv) == code, argv
        assert capsys.readouterr().err == ""

    def test_usage_error_exit_code(self, capsys):
        assert main(["count"]) == 2
        assert main(["nonsense"]) == 2
        for argv in (
            ["verify", "--nmax", "3"],
            ["verify", "--kmax", "1"],
            ["verify", "--samples", "0"],
            ["bench", "--k-list", "x"],
            ["bench", "--budgets", "1,y"],
            ["bench", "--families", "nope"],
            ["bench", "--k-list", "0"],
            ["bench", "--budgets", "0"],
            ["bench", "--n-cap", "0"],
            ["bench", "--n-cap", "-1"],
            ["rate", "--kmax", "0"],
            ["count", "-", "-k", "0"],
            ["list", "-", "-k", "-1"],
            ["gen", "caterpillar", "0"],
            ["gen", "random", "-3"],
            ["gen", "fully_loaded", "7", "--k", "1"],
        ):
            assert main(argv) == 2, argv
            assert capsys.readouterr().out == "", argv


# Labels JSON must escape, non-ASCII ones and ones sorting around ",".
LABELS = ('a"b', "c\\d", "é", "Ω", "!", "#", "~", "a", "ab", "B", "x", "z9", "q", "m")


@st.composite
def list_requests(draw):
    n = draw(st.integers(3, 12))
    names = draw(st.lists(st.sampled_from(LABELS), min_size=n, max_size=n, unique=True))
    tree = random_tree(n, seed=draw(st.integers(0, 2**32)), labels=names)
    return tree, draw(st.integers(1, 4)), draw(st.none() | st.integers(0, 40))


@pytest.mark.slow
@settings(max_examples=40, deadline=None)
@given(list_requests())
def test_list_renders_each_character_byte_identically(request):
    """``list`` prints exactly ``Character.text()`` / ``json.dumps(to_lists())``
    of the validated character of every block-mask tuple in stream order,
    and ``enumerate_convex`` yields those same characters."""
    tree, k, limit = request
    expected = [Character(tree._labels_of(m) for m in masks) for masks, _, _ in _block_stream(tree, k)]
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "tree.nwk")
        Path(path).write_text(tree.canonical_newick() + "\n", encoding="utf-8")
        for fmt, render in (("text", Character.text),
                            ("json", lambda ch: json.dumps(ch.to_lists()))):
            argv, want, code = ["list", path, "-k", str(k), "--format", fmt], expected, 0
            if limit is not None:
                argv += ["--limit", str(limit)]
                if len(expected) > limit:
                    want, code = expected[:limit], 3
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(argv) == code
            assert out.getvalue() == "".join(render(ch) + "\n" for ch in want)
    streamed = list(enumerate_convex(tree, k))
    assert streamed == expected
    for ch in streamed:
        assert ch == Character(ch.blocks) and ch.blocks == Character(ch.blocks).blocks
        assert all(type(b) is tuple for b in ch.blocks)


class TestDeepTrees:
    """Deep trees must work without recursion and without touching the
    interpreter's recursion limit; checks that could crash the interpreter
    run in a child process."""

    def run_python(self, args, **kw):
        env = dict(os.environ)
        src = str(Path(convchar.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                              text=True, timeout=120, **kw)

    def test_count_deep_caterpillar_in_subprocess(self, tmp_path):
        t = caterpillar(20_000)
        path = tmp_path / "deep.nwk"
        path.write_text(t.canonical_newick() + "\n")
        proc = self.run_python(["-m", "convchar", "count", str(path), "-k", "2"])
        assert proc.returncode == 0, proc.stderr[-500:]
        assert proc.stdout == f"1\t20000\t2\t{fibonacci(19_999)}\n"
        proc = self.run_python(
            ["-m", "convchar", "list", str(path), "-k", "2", "--limit", "3"]
        )
        assert proc.returncode == 3, proc.stderr[-500:]
        lines = proc.stdout.splitlines()
        assert len(lines) == len(set(lines)) == 3
        for line in lines:
            ch = Character.parse(line)
            assert ch.taxa == t.taxa and ch.min_block_size >= 2
            # Convex exactly when the Fitch score is block_count - 1.
            assert parsimony_score(t, ch) == ch.block_count - 1

    @pytest.mark.slow
    def test_recursion_limit_unchanged(self):
        # Runs parse, count, the first character and the encoding on a
        # 10^5-taxon caterpillar; its first character at k=2 pairs up
        # neighbouring taxa along the spine.
        code = (
            "import sys\n"
            "from convchar import (caterpillar, count_convex, enumerate_convex,\n"
            "    fibonacci, parse_newick, stream_encoding)\n"
            "limit = sys.getrecursionlimit()\n"
            "n = 100_000\n"
            "t = caterpillar(n)\n"
            "assert parse_newick(t.canonical_newick()) == t\n"
            "assert count_convex(t, 2) == fibonacci(n - 1)\n"
            "first = next(enumerate_convex(t, 2))\n"
            "assert first.blocks == tuple(zip(t.labels[::2], t.labels[1::2]))\n"
            "assert stream_encoding(t, [t.labels]) == (1,) * (2 * n - 3)\n"
            "assert sys.getrecursionlimit() == limit\n"
        )
        proc = self.run_python(["-c", code])
        assert proc.returncode == 0, proc.stderr[-500:]

    def test_forced_subtrees_need_no_recursion(self):
        # At k=120 nearly all of a caterpillar with 200 or 300 taxa has one
        # completion, and the later characters of the 300-taxon stream
        # splice in forced subtrees over a hundred levels deep.
        code = (
            "import sys\n"
            "from itertools import islice\n"
            "from convchar import caterpillar, count_convex\n"
            "from convchar.characters import _block_stream\n"
            "sys.setrecursionlimit(100)\n"
            "for n, count, streamed in ((200, 1, 1), (300, 62, 50)):\n"
            "    t = caterpillar(n)\n"
            "    assert count_convex(t, 120) == count\n"
            "    got = 0\n"
            "    for live, _, _ in islice(_block_stream(t, 120), streamed):\n"
            "        assert sum(live) == (1 << n) - 1\n"
            "        assert min(m.bit_count() for m in live) >= 120\n"
            "        got += 1\n"
            "    assert got == streamed\n"
        )
        proc = self.run_python(["-c", code])
        assert proc.returncode == 0, proc.stderr[-500:]

    def test_gen_deep_trees_parse_back(self, capsys):
        assert main(["gen", "caterpillar", "5000"]) == 0
        t = parse_newick(capsys.readouterr().out)
        assert t == caterpillar(5000)
        assert main(["gen", "fully_loaded", "6000", "--k", "3"]) == 0
        t = parse_newick(capsys.readouterr().out)
        assert t.n == 6000
        assert count_convex(t, 3) == fully_loaded_count(6000, 3)

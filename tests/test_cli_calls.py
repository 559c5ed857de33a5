"""``cli.main`` called many times in one process.

The argument parser is built once, when ``convchar.cli`` is imported.
These tests hold it to what makes that safe: a call leaves nothing behind
for the next one, no call builds a parser, and help, usage and errors are
formatted for the terminal width and streams of the moment of the call.
"""

import argparse
import io
import os
import subprocess
import sys
from pathlib import Path

import convchar
from convchar import enumerate_convex, parse_newick, random_tree
from convchar.cli import build_parser, main

EXAMPLE = "(((a,b),c),((f,g),e),d);"


def run(argv, capsys):
    """``main(argv)``'s exit code, stdout and stderr."""
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_tree(tmp_path):
    path = tmp_path / "trees.nwk"
    path.write_text(EXAMPLE + "\n")
    return str(path)


class TestRepeatedCalls:
    """Options given to one call do not leak into the next one's defaults."""

    def test_list_after_a_truncated_json_listing(self, tmp_path, capsys):
        path = write_tree(tmp_path)
        code, out, _ = run(["list", path, "-k", "2", "--limit", "1", "--format", "json"], capsys)
        assert code == 3 and len(out.splitlines()) == 1 and out.startswith("[[")
        code, out, err = run(["list", path], capsys)
        every_k1 = [ch.text() for ch in enumerate_convex(parse_newick(EXAMPLE), 1)]
        assert (code, out.splitlines(), err) == (0, every_k1, "")
        assert len(every_k1) == 233

    def test_count_after_count_with_k(self, tmp_path, capsys):
        path = write_tree(tmp_path)
        assert run(["count", path, "-k", "3"], capsys) == (0, "1\t7\t3\t3\n", "")
        assert run(["count", path], capsys) == (0, "1\t7\t1\t233\n", "")

    def test_gen_after_gen_with_seed(self, capsys):
        code, seeded, _ = run(["gen", "random", "6", "--seed", "7"], capsys)
        assert code == 0
        fresh = random_tree(6, seed=0).canonical_newick() + "\n"
        assert seeded != fresh
        assert run(["gen", "random", "6"], capsys) == (0, fresh, "")

    def test_usage_error_between_two_good_calls(self, tmp_path, capsys):
        path = write_tree(tmp_path)
        for good in (["count", path, "-k", "2"], ["list", path, "-k", "3", "--format", "json"]):
            first = run(good, capsys)
            assert first[0] == 0
            for bad in (["count", path, "-k", "0"], ["list", path, "--format", "xml"],
                        ["list", path, "--limit", "2", "--bogus"], ["nonsense"]):
                code, out, err = run(bad, capsys)
                assert (code, out) == (2, ""), bad
                assert "error:" in err, bad
            assert run(good, capsys) == first


def test_main_builds_no_parser(tmp_path, monkeypatch, capsys):
    """Work gate: after import, ``main`` constructs no ``ArgumentParser``,
    whatever the command and whether it succeeds, fails or prints help."""
    path = write_tree(tmp_path)
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    calls = (
        (["count", path, "-k", "2"], 0),
        (["count", path], 0),
        (["list", path, "-k", "3"], 0),
        (["list", path, "--limit", "2", "--format", "json"], 3),
        (["gen", "caterpillar", "5"], 0),
        (["gen", "random", "6", "--seed", "3"], 0),
        (["rate", "--kmax", "2"], 0),
        (["count", path, "-k", "0"], 2),
        (["nonsense"], 2),
        (["list", "--help"], 0),
    )
    for argv, code in calls:
        assert main(argv) == code, argv
    capsys.readouterr()
    assert built == []
    build_parser()  # the count sees every parser: the top one and 7 subcommands
    assert len(built) == 8


class TestFormattedAtCallTime:
    """Help and usage text are formatted when they are printed, so a parser
    built at import still follows the terminal width and streams of each
    call."""

    def test_help_follows_columns_set_after_import(self, monkeypatch, capsys):
        for argv in (["--help"], ["list", "--help"]):
            monkeypatch.setenv("COLUMNS", "60")
            code, narrow, _ = run(argv, capsys)
            assert code == 0 and narrow.startswith("usage: convchar")
            assert max(map(len, narrow.splitlines())) <= 60, argv
            monkeypatch.setenv("COLUMNS", "200")
            code, wide, _ = run(argv, capsys)
            assert code == 0
            assert max(map(len, wide.splitlines())) > 60, argv

    def test_usage_error_goes_to_the_stderr_of_the_call(self, monkeypatch):
        streams = []
        for _ in range(2):
            err = io.StringIO()
            monkeypatch.setattr(sys, "stderr", err)
            assert main(["count"]) == 2
            streams.append(err)
        for err in streams:
            text = err.getvalue()
            assert text.startswith("usage: convchar count")
            assert text.count("error:") == 1

    def test_one_shot_module_run(self, tmp_path):
        """``python -m convchar`` builds the parser as it imports the CLI
        and runs the command."""
        path = write_tree(tmp_path)
        env = dict(os.environ)
        src = str(Path(convchar.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "convchar", "count", path], env=env,
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1\t7\t1\t233\n", "")

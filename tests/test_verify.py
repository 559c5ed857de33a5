"""Drift guard: every check in the ``convchar.verify`` catalogue runs both in
``convchar verify`` and in some pytest test."""

import ast
from pathlib import Path

from convchar import verify


def test_every_check_runs_in_verify_and_in_pytest(monkeypatch):
    names = {fn.__name__ for _, fn in verify.CATALOGUE}
    called = set()

    def recorded(fn):
        def wrapper(*args):
            called.add(fn.__name__)
            return fn(*args)
        wrapper.__name__ = fn.__name__
        return wrapper

    wrapped = [(name, recorded(fn)) for name, fn in verify.CATALOGUE]
    monkeypatch.setattr(verify, "CATALOGUE", wrapped)
    lines = []
    assert verify.run_verification(nmax=5, kmax=3, samples=2, report=lines.append), lines
    assert called == names

    # Names called inside the test functions of the other test modules.
    others = [p for p in Path(__file__).parent.glob("test_*.py") if p.name != "test_verify.py"]
    tests = [node for path in others for node in ast.walk(ast.parse(path.read_text("utf-8")))
             if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")]
    calls = {getattr(c.func, "id", getattr(c.func, "attr", None))
             for test in tests for c in ast.walk(test) if isinstance(c, ast.Call)}
    assert names <= calls, sorted(names - calls)

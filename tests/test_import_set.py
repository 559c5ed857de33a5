"""Which ``convchar`` modules a command imports, and the package API that
lazy resolution must keep.

``import convchar`` and ``convchar.cli`` load ``trees``, ``counting`` and
``characters``; ``solvers``, ``generators``, ``bench``, ``bruteforce`` and
``verify`` load only when a command or a name needs them.  The gates count
modules in a fresh child process, since this one has imported them all, so
they do not depend on the machine's speed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import convchar

OFF_PATH = {f"convchar.{name}" for name in ("solvers", "bench", "bruteforce", "generators", "verify")}

COMMANDS = """
import contextlib, io, json, sys
from convchar.cli import main

tree, instance = sys.argv[1:]
loaded = lambda: sorted(m for m in sys.modules if m == "convchar" or m.startswith("convchar."))
report = {"import": loaded()}
for name, argv in (
    ("count", ["count", tree, "-k", "2"]),
    ("list", ["list", tree, "-k", "2", "--format", "json"]),
    ("rate", ["rate", "--kmax", "2"]),
    ("solve", ["solve", instance]),
    ("gen", ["gen", "fully_loaded", "9", "--k", "3"]),
    ("bench", ["bench", "--families", "fully_loaded", "--k-list", "2",
               "--budgets", "0.05", "--n-cap", "8"]),
    ("verify", ["verify", "--nmax", "5", "--samples", "1"]),
):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    report[name] = {"code": code, "modules": loaded()}
print(json.dumps(report))
"""

API = """
import json, sys
import convchar

loaded = lambda: sorted(m for m in sys.modules if m == "convchar" or m.startswith("convchar."))
report = {"import": loaded(), "dir_covers_all": set(convchar.__all__) <= set(dir(convchar))}
try:
    convchar.nope
    report["nope"] = "resolved"
except AttributeError as exc:
    report["nope"] = str(exc)
from convchar import verify
report["verify_is_module"] = verify is sys.modules["convchar.verify"]
resolved = {name: getattr(convchar, name) for name in convchar.__all__}
# Each name must be bound, to the same object, by every module of the
# package that binds it.
same = {name: [vars(m)[name] is value for module, m in sys.modules.items()
               if module.startswith("convchar.") and name in vars(m)]
        for name, value in resolved.items()}
report["mismatched"] = sorted(name for name, hits in same.items() if not hits or not all(hits))
star = {}
exec("from convchar import *", star)
report["star"] = sorted(set(star) - {"__builtins__"}) == sorted(convchar.__all__) and all(
    star[name] is value for name, value in resolved.items())
print(json.dumps(report))
"""


def run_child(code, *args):
    env = dict(os.environ)
    src = str(Path(convchar.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


def test_each_command_imports_only_its_engine(tmp_path):
    tree = tmp_path / "tree.nwk"
    tree.write_text("(((a,b),c),((f,g),e),d);\n")
    instance = tmp_path / "instance.json"
    instance.write_text(json.dumps({"trees": ["((a,b),(c,d),e);", "((a,c),(b,d),e);"],
                                    "k": 2, "mode": "agreement_forest_min_components"}))
    report = run_child(COMMANDS, tree, instance)
    base = set(report["import"])
    assert base == {"convchar", "convchar.cli", "convchar.trees", "convchar.counting",
                    "convchar.characters"}
    for name in ("count", "list", "rate"):
        assert report[name] == {"code": 0, "modules": sorted(base)}, name
    assert report["solve"] == {"code": 0, "modules": sorted(base | {"convchar.solvers"})}
    for name in ("gen", "bench", "verify"):
        assert report[name]["code"] == 0, name
    assert OFF_PATH <= set(report["verify"]["modules"])


def test_package_api_is_unchanged():
    report = run_child(API)
    assert not OFF_PATH & set(report["import"])
    assert report["dir_covers_all"]
    assert report["nope"] == "module 'convchar' has no attribute 'nope'"
    assert report["verify_is_module"]
    assert report["star"]
    assert report["mismatched"] == []

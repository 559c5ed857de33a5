"""End-to-end benchmark of the convchar command line.

    python3 perfbench/run.py --workload {big_trees,list_stream,solve_mix} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports ``convchar`` from
``src/`` there and exits with code 2 when that is missing.

One client drives the program in a closed loop: one process, one thread,
the next request sent when the previous one returns.  A request is one
in-process call of ``convchar.cli.main(argv)`` on a generated input file,
with stdout going to a sink that keeps the output and stamps its first
write.  Every request starts cold: its tree is parsed from the file again,
and the process-wide count cache is emptied first when the program has one.
Every output is checked (see ``checks.py``).  Times are scaled by the speed
of a fixed kernel timed between requests (``speed.py``), so that drift of
the machine's own speed largely cancels; raw figures are reported too.

The workload's request list is one *pass*.  A run makes as many whole
passes as fit in ``--seconds`` at the workload's nominal pass time, and at
least ``min_passes``, so the requests of a run, and so its ``attempted``
and ``failed`` counts, depend on the seed and ``--seconds`` alone, never
on how fast the machine happens to be.  Only a run slower than
``CAP_FACTOR`` times ``--seconds`` stops early, after its minimum passes,
so it still ends in time.
With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` one untraced pass is followed by traced passes and the last
line reports the per-layer metrics of ``tracing.py``, per pass.  Lines
before the last one show the metrics with their units and a JSON detail
record: tail percentile and sample count, failures, the deep-caterpillar
probe, the cold-start self-test and, when tracing, its overhead.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import checks
import tracing
import workloads
from speed import NOMINAL_S, SpeedTrack

MIN_TRACED_PASSES = 2   # traced passes; the cold-start self-test compares two
SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 150
CAP_FACTOR = 1.5        # passes stop early only past this many times --seconds


class Sink:
    """Stdout stand-in: keeps what is written and stamps the first write."""

    def __init__(self):
        self.parts: list[str] = []
        self.first: float | None = None

    def write(self, text: str) -> int:
        if self.first is None:
            self.first = perf_counter()
        self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass


@dataclass
class Result:
    request: workloads.Request
    seconds: float               # raw wall time
    first_line_s: float | None   # raw, from the request's start
    chars: int
    ok: bool
    crashed: bool
    message: str
    speed_index: int             # kernel sample taken just before the request
    trace_self: dict | None = None
    scale: float = 1.0           # machine-speed factor (speed.py), set after the run


class Client:
    """Sends requests to the freshly imported CLI, one at a time."""

    def __init__(self, cli, counting):
        self.cli = cli
        self.clear_cache = getattr(counting, "clear_count_cache", None)

    def call(self, argv: list[str], out: Sink):
        if self.clear_cache is not None:
            self.clear_cache()
        gc.collect()
        err = io.StringIO()
        saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = out, err
        t0 = perf_counter()
        try:
            rc, exc = self.cli.main(argv), None
        except Exception as e:  # a crash is a failed request, not a benchmark error
            rc, exc = None, e
        finally:
            seconds = perf_counter() - t0
            sys.stdout, sys.stderr = saved
        return t0, seconds, rc, exc, err.getvalue()


def setup_once(name: str, seed: int, workdir: Path):
    """Import the program afresh, write the inputs and warm up."""
    t0 = perf_counter()
    for mod in [m for m in sys.modules if m == "convchar" or m.startswith("convchar.")]:
        del sys.modules[mod]
    cc = importlib.import_module("convchar")
    client = Client(importlib.import_module("convchar.cli"),
                    importlib.import_module("convchar.counting"))
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    wl = workloads.build(name, seed, workdir, cc)
    for argv in workloads.warmup_requests(workdir):
        _, _, rc, exc, err = client.call(argv, Sink())
        if exc is not None or rc != 0:
            raise RuntimeError(f"warm-up {argv[0]} failed: rc={rc} {exc or err}")
    return perf_counter() - t0, cc, client, wl


def run_pass(wl: workloads.Workload, client: Client, speed: SpeedTrack,
             tracer: tracing.Tracer | None) -> list[Result]:
    results = []
    for req in wl.requests:
        index = speed.sample()
        out = Sink()
        if tracer is not None:
            out.write = tracer.traced_write(out.write)
            tracer.enabled = True
        t0, seconds, rc, exc, err = client.call(req.argv, out)
        trace_self = None
        if tracer is not None:
            tracer.enabled = False
            trace_self = tracer.take_self_times()
        first = out.first - t0 if out.first is not None else None
        if exc is not None:
            ok, chars, message = False, 0, f"{type(exc).__name__}: {exc}"
        else:
            ok, chars, message = req.check(rc, "".join(out.parts))
            if not ok and err:
                message += f" (stderr: {err.strip()[:120]})"
        results.append(Result(req, seconds, first, chars, ok, exc is not None, message,
                              index, trace_self))
    return results


def planned_passes(wl: workloads.Workload, seconds: float, floor: int) -> int:
    """Passes of a run: as many as fit in ``seconds`` at the workload's
    nominal pass time, so that a seed always makes the same requests."""
    return max(floor, int(seconds / wl.pass_s))


def run_probe(path: Path, root: Path) -> dict:
    """``count`` on the deep caterpillar in a child process."""
    n = workloads.PROBE_TAXA
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    t0 = perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "convchar", "count", str(path), "-k", "2"],
            cwd=root, env=env, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"taxa": n, "rc": None, "seconds": perf_counter() - t0, "ok": False,
                "crashed": True, "message": f"timed out after {PROBE_TIMEOUT_S} s"}
    seconds = perf_counter() - t0
    exact = checks.fib(n - 1)
    if proc.returncode < 0 or proc.returncode == 1:
        # Killed by a signal, or a traceback / domain error: no output to judge.
        if proc.returncode < 0:
            message = f"killed by {signal.Signals(-proc.returncode).name}"
        else:
            message = (proc.stderr.strip().splitlines() or [""])[-1][:160]
        return {"taxa": n, "rc": proc.returncode, "seconds": seconds, "ok": False,
                "crashed": True, "message": message}
    ok, _, message = checks.check_count(proc.returncode, proc.stdout, n=n, k=2, low=exact, high=exact)
    return {"taxa": n, "rc": proc.returncode, "seconds": seconds, "ok": ok,
            "crashed": False, "message": message}


def tail_percentile(min_samples: int) -> int:
    """Highest whole percentile with at least 10 samples beyond it, for the
    guaranteed sample count; fixed per workload, so runs compare."""
    return max(50, int(100 * (1 - 10 / min_samples)))


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(results: list[Result], q: int, setup_s: float, scaled: bool) -> dict:
    """The end-to-end metrics, with times scaled by machine speed or raw."""
    def t(r: Result) -> float:
        return r.seconds * r.scale if scaled else r.seconds

    times = [t(r) for r in results]
    total = sum(times)
    listing = [r for r in results if r.request.kind == "list"]
    first_pool = listing or [r for r in results if r.request.kind == "solve"]
    firsts = [r.first_line_s * (r.scale if scaled else 1.0)
              for r in first_pool if r.first_line_s is not None]
    emitting = [r for r in results if r.request.kind in ("list", "solve")]
    completed = sum(not r.crashed for r in results)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (setup_s, "s"),
        "requests_per_s": (completed / total, "1/s"),
        "request_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "request_tail_ms": (percentile(times, q) * 1e3, "ms"),
        "first_line_ms": (statistics.median(firsts) * 1e3, "ms"),
        "taxa_per_s": (sum(r.request.taxa for r in results) / total, "1/s"),
        "chars_per_s": (sum(r.chars for r in emitting) / sum(t(r) for r in emitting), "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }


def work_counters(snap: dict) -> dict:
    """The machine-independent part of a traced pass."""
    out = {f"{name}.calls": c for name, c in snap["calls"].items()}
    out.update((k, v) for k, v in snap["counters"].items() if k != "cli.bytes_out")
    return dict(sorted(out.items()))


def per_layer(traced: list[list[Result]], snaps: list[dict], wl: workloads.Workload,
              overhead_s: float) -> dict:
    """Per-layer metrics per pass: counts from the first traced pass, self
    times scaled by machine speed and averaged over the traced passes."""
    calls, counters = snaps[0]["calls"], snaps[0]["counters"]
    self_s: dict[str, float] = {}
    for r in (r for p in traced for r in p):
        for name, value in r.trace_self.items():
            self_s[name] = self_s.get(name, 0.0) + value * r.scale / len(traced)
    m = {}
    for name in list(tracing.FUNCTIONS) + list(tracing.METHODS) + [tracing.OUTPUT]:
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
        m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    s = tracing.STREAM
    m[f"{s}.calls"] = (calls.get(s, 0), "count")
    m[f"{s}.first_s"] = (self_s.get(s + ".first_s", 0.0), "s")
    m[f"{s}.next_s"] = (self_s.get(s + ".next_s", 0.0), "s")
    m[f"{s}.chars"] = (counters.get(s + ".chars", 0), "count")
    m["counting.dp_cells"] = (counters.get("counting.dp_cells", 0), "count")
    m["solvers.scanned"] = (counters.get("solvers.scanned", 0), "count")
    tried = counters.get("agreement.is_convex", 0)
    m["solvers.agreement.convex_pass_ratio"] = (
        counters.get("agreement.is_convex_true", 0) / tried if tried else 0.0, "ratio")
    quartet_total = sum(r.quartet_count for r in wl.requests)
    m["solvers.quartet.scan_ratio"] = (
        counters.get("solvers.quartet_exact_partition.scanned", 0) / quartet_total
        if quartet_total else 0.0, "ratio")
    m["cli.bytes_out"] = (counters.get("cli.bytes_out", 0), "count")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m


def pass_p50(results: list[Result]) -> float:
    return statistics.median(r.seconds * r.scale for r in results)


def pass_seconds(results: list[Result]) -> float:
    return sum(r.seconds * r.scale for r in results)


def run(args, root: Path, workdir: Path) -> int:
    speed = SpeedTrack()
    raw_setups, setup_marks = [], []
    for _ in range(SETUP_REPEATS):
        setup_marks.append(speed.sample())
        seconds, cc, client, wl = setup_once(args.workload, args.seed, workdir)
        raw_setups.append(seconds)
    speed.sample()
    setups = [s * speed.scale(i) for s, i in zip(raw_setups, setup_marks)]
    # Keep what set-up built out of the collector's way, as in a fresh
    # process whose heap holds only the request's own objects.
    gc.collect()
    gc.freeze()

    probe = run_probe(wl.probe, root) if wl.probe is not None else None

    tracer = tracing.Tracer() if args.trace else None
    passes: list[list[Result]] = []
    snaps: list[dict] = []
    pass_walls: list[float] = []
    floor = MIN_TRACED_PASSES + 1 if tracer else wl.min_passes
    planned = planned_passes(wl, args.seconds, floor)
    deadline = perf_counter() + CAP_FACTOR * args.seconds
    while len(passes) < planned and (len(passes) < floor or perf_counter() < deadline):
        t0 = perf_counter()
        if tracer is not None and passes:
            if len(passes) == 1:
                tracer.install()
            tracer.reset()
            passes.append(run_pass(wl, client, speed, tracer))
            snaps.append(tracer.snapshot())
        else:
            passes.append(run_pass(wl, client, speed, None))
        pass_walls.append(perf_counter() - t0)
    speed.sample()
    if tracer is not None:
        tracer.uninstall()

    results = [r for p in passes for r in p]
    for r in results:
        r.scale = speed.scale(r.speed_index)
    attempted = len(results) + (probe is not None)
    failed = sum(not r.ok for r in results) + (probe is not None and not probe["ok"])
    correct = (all(r.ok or r.crashed for r in results)
               and (probe is None or probe["ok"] or probe["crashed"]))

    # Cold-start self-test: repetitions do the same work in comparable time.
    # Only the work counters are exact, so only they are gated.
    measured = passes[1:] if tracer else passes
    selftest = {"p50_ratio_pass2_to_pass1": pass_p50(measured[1]) / pass_p50(measured[0])}
    if tracer is not None:
        vectors = [work_counters(s) for s in snaps]
        selftest["counters_repeat"] = all(v == vectors[0] for v in vectors[1:])
        selftest["work_counters"] = vectors[0]
        correct = correct and selftest["counters_repeat"]

    q = tail_percentile(len(wl.requests) * wl.min_passes)
    by_label: dict[str, list[float]] = {}
    first_by_label: dict[str, list[float]] = {}
    for r in results:
        by_label.setdefault(r.request.label, []).append(r.seconds * r.scale * 1e3)
        if r.request.kind == "list" and r.first_line_s is not None:
            first_by_label.setdefault(r.request.label, []).append(r.first_line_s * r.scale * 1e3)
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(passes), "passes_planned": planned, "requests_per_pass": len(wl.requests),
        "pass_wall_s": pass_walls,
        "setup_s": {"scaled": setups, "raw": raw_setups},
        "speed": {"kernel_nominal_s": NOMINAL_S, "kernel_median_s": statistics.median(speed.samples),
                  "kernel_min_s": min(speed.samples), "kernel_max_s": max(speed.samples)},
        "failed_ratio": {"value": failed / attempted, "unit": "ratio"},
        "failures": [f"{r.request.label}: {r.message}" for r in results if not r.ok][:10],
        "probe": probe,
        "selftest": selftest,
        "request_ms_by_label": {k: statistics.median(v) for k, v in by_label.items()},
        "first_line_ms_by_label": {k: statistics.median(v) for k, v in first_by_label.items()},
    }
    if tracer is None:
        setup_s = statistics.median(setups)
        metrics = end_to_end(results, q, setup_s, scaled=True)
        detail["request_tail"] = {"percentile": q, "samples": len(results),
                                  "beyond": round(len(results) * (1 - q / 100), 1)}
        detail["raw_metrics"] = {k: v for k, (v, _) in
                                 end_to_end(results, q, statistics.median(raw_setups), scaled=False).items()}
    else:
        untraced = pass_seconds(passes[0])
        traced = statistics.mean(pass_seconds(p) for p in passes[1:])
        metrics = per_layer(passes[1:], snaps, wl, traced - untraced)
        detail["trace_overhead"] = {"untraced_pass_s": untraced, "traced_pass_s": traced,
                                    "overhead_s": traced - untraced,
                                    "overhead_ratio": traced / untraced}

    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:>18.6g} {unit}")
    print(f"{'failed_ratio':48s} {failed / attempted:>18.6g} ratio")
    if tracer is None:
        print(f"request_tail_ms is p{q} of {len(results)} requests; times are scaled by"
              f" machine speed (speed.py), raw ones are in the detail line")
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "convchar" / "cli.py").is_file():
        print(f"error: no convchar sources under {root / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    workdir = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        return run(args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())

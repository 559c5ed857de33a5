"""Output checks for benchmark requests.

Every check takes the request's exit code and captured stdout and returns
``(ok, chars, message)``: whether the output is right, how many characters
the request emitted (``list``) or scanned (``solve``), and a short reason
when it is not right.

Reference counts come from the closed forms below, which the benchmark
computes itself rather than asking the program under test: ``F(n-1)`` for
k = 2, the caterpillar recurrence for the maximum and the fully-loaded
Fibonacci form for the minimum.
"""

from __future__ import annotations

import json


def fib(m: int) -> int:
    a, b = 0, 1
    for _ in range(m):
        a, b = b, a + b
    return a


def caterpillar_max(n: int, k: int) -> int:
    """c(n) = c(n-1) + c(n-k); 0 below k, 1 for k <= n < 2k (k >= 2)."""
    seq = [0] * k + [1] * k
    while len(seq) <= n:
        seq.append(seq[-1] + seq[-k])
    return seq[n]


def fully_loaded_min(n: int, k: int) -> int:
    """F(ceil(n / (k-1)) - 1), the count of every fully k-loaded tree."""
    return fib(-(-n // (k - 1)) - 1)


def count_bounds(family: str, n: int, k: int) -> tuple[int, int]:
    """Inclusive (low, high) bounds on count(T, k) for an n-taxon tree."""
    if k == 2:
        exact = fib(n - 1)
        return exact, exact
    if family == "caterpillar":
        exact = caterpillar_max(n, k)
        return exact, exact
    if family == "fully_loaded":
        exact = fully_loaded_min(n, k)
        return exact, exact
    return fully_loaded_min(n, k), caterpillar_max(n, k)


def check_count(rc, out: str, n: int, k: int, low: int, high: int):
    if rc != 0:
        return False, 0, f"exit code {rc}, expected 0"
    fields = out.strip().split("\t")
    if len(fields) != 4:
        return False, 0, f"expected one TSV row, got {out[:80]!r}"
    if fields[0] != "1" or fields[1] != str(n) or fields[2] != str(k):
        return False, 0, f"row header {fields[:3]} does not match n={n} k={k}"
    value = int(fields[3])
    if not low <= value <= high:
        return False, 0, f"count {value} outside [{low}, {high}]"
    return True, 0, ""


def _text_blocks(line: str) -> list[list[str]]:
    return [block.split(",") for block in line.split("|")]


def check_list(rc, out: str, taxa: frozenset[str], k: int, count: int,
               limit: int | None, fmt: str):
    """Lines are distinct partitions of ``taxa`` into blocks of >= k taxa;
    there are min(count, limit) of them; exit 3 exactly when truncated."""
    truncated = limit is not None and count > limit
    want_lines = limit if truncated else count
    want_rc = 3 if truncated else 0
    if rc != want_rc:
        return False, 0, f"exit code {rc}, expected {want_rc}"
    lines = out.splitlines()
    if len(lines) != want_lines:
        return False, len(lines), f"{len(lines)} lines, expected {want_lines}"
    if len(set(lines)) != len(lines):
        return False, len(lines), "duplicate characters"
    parse = json.loads if fmt == "json" else _text_blocks
    n = len(taxa)
    for line in lines:
        blocks = parse(line)
        flat = [t for b in blocks for t in b]
        if len(flat) != n or frozenset(flat) != taxa:
            return False, len(lines), f"not a partition of the taxa: {line[:80]!r}"
        if min(len(b) for b in blocks) < k:
            return False, len(lines), f"block below k={k}: {line[:80]!r}"
    return True, len(lines), ""


def check_solve(rc, out: str, cc, instance: dict, trees: list, count: int,
                max_components: int | None = None):
    """Check one ``solve`` result against the instance.

    ``cc`` is the imported ``convchar`` package, ``trees`` the instance's
    trees parsed once at set-up and ``count`` the level-k count of the
    scanned tree.  Agreement and objective modes must scan exactly
    ``count`` characters; quartet mode may stop early only on a hit.
    """
    if rc != 0:
        return False, 0, f"exit code {rc}, expected 0"
    lines = out.splitlines()
    if len(lines) != 1:
        return False, 0, f"expected one JSON line, got {len(lines)}"
    res = json.loads(lines[0])
    scanned = int(res["characters_scanned"])
    mode = instance["mode"]
    text = res["character"]
    full_scan = mode != "quartet_exact_partition" or text is None
    if full_scan and scanned != count:
        return False, scanned, f"scanned {scanned}, expected the full count {count}"
    if not full_scan and not 1 <= scanned <= count:
        return False, scanned, f"scanned {scanned} outside [1, {count}]"
    if text is None:
        if max_components is not None:
            return False, scanned, "no character, but a solution is known to exist"
        if res["objective_value"] is not None:
            return False, scanned, "objective value without a character"
        return True, scanned, ""
    blocks = [b.split(",") for b in text.split("|")]
    taxa = trees[0].taxa
    flat = [t for b in blocks for t in b]
    if len(flat) != len(taxa) or frozenset(flat) != taxa:
        return False, scanned, "result is not a partition of the taxa"
    k = 4 if mode == "quartet_exact_partition" else instance["k"]
    if min(len(b) for b in blocks) < k:
        return False, scanned, f"block below k={k}"
    if mode == "objective_optimize":
        if not cc.is_convex(trees[0], blocks):
            return False, scanned, "result not convex on the scanned tree"
        value = sum(cc.parsimony_score(t, blocks) for t in trees)
        if res["objective_value"] != value:
            return False, scanned, f"objective {res['objective_value']}, recomputed {value}"
        return True, scanned, ""
    if mode == "quartet_exact_partition" and any(len(b) != 4 for b in blocks):
        return False, scanned, "quartet result has a block that is not of size 4"
    if not all(cc.is_convex(t, blocks) for t in trees):
        return False, scanned, "result not convex on every tree"
    for b in blocks:
        if len({t.restrict(b).canonical_newick() for t in trees}) != 1:
            return False, scanned, f"block {b[:4]}... restricts differently"
    if res["objective_value"] != len(blocks):
        return False, scanned, "objective is not the block count"
    if max_components is not None and len(blocks) > max_components:
        return False, scanned, f"{len(blocks)} components, a {max_components}-component forest exists"
    return True, scanned, ""

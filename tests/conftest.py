import sys

import pytest

from convchar import parse_newick

# Seven-taxon worked example: caterpillar with pendant triples {a,b,c} and
# {e,f,g} around the lone leaf d.  Known values: 233 convex characters, 8
# with blocks >= 2, 3 with blocks >= 3, 1 with blocks >= 4.
EXAMPLE7_NEWICK = "(((a,b),c),((f,g),e),d);"


@pytest.fixture(scope="session")
def example7():
    return parse_newick(EXAMPLE7_NEWICK)


def line_events(run, modules):
    """Line events of the code in ``modules`` while ``run()`` runs, counted
    with ``sys.settrace`` so the library carries no counter for work gates."""
    paths = {module.__file__ for module in modules}
    events = 0

    def local(frame, event, arg):
        nonlocal events
        if event == "line":
            events += 1
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename in paths else None

    before = sys.gettrace()
    sys.settrace(calls)
    try:
        run()
    finally:
        sys.settrace(before)
    return events


def join_states(j1, j2, k):
    """States of the edge above a vertex whose child edges are in states
    ``j1`` and ``j2``, by the edge rule (``counting``'s module docstring):
    the pointwise reference the DP's and the stream's forms of the rule are
    held to."""
    if not (j1 and j2):
        return (j1 + j2,)
    s = min(j1 + j2, k)
    return (s, 0) if s == k else (s,)

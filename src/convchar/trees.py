"""Unrooted binary trees over labelled leaves.

Vertices are dense integers: leaves 0..n-1 in sorted label order (so the leaf
id doubles as the taxon id), internal vertices n..2n-3.  Taxon subsets are
manipulated as Python int bitmasks, bit i == taxon i.  Trees are immutable;
every "modifying" operation returns a new tree, so instances can be shared
freely across threads and used as cache keys through their canonical Newick
form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, NamedTuple


class TreeError(ValueError):
    """Structural violation: bad degrees, duplicate or invalid taxa."""


class NewickError(TreeError):
    """Malformed Newick text."""


@dataclass(frozen=True)
class Split:
    """Leaf bipartition induced by deleting one edge."""

    side_a: frozenset[str]
    side_b: frozenset[str]

    def sides(self) -> tuple[frozenset[str], frozenset[str]]:
        return self.side_a, self.side_b


@dataclass(frozen=True)
class Tripartition:
    """Leaf tripartition induced by one internal (degree-3) vertex.

    ``center`` is the internal vertex id in the tree the tripartition was
    taken from.  Operations that care about roles (e.g. which part gets
    replaced by a caterpillar) read the parts positionally; use
    ``dataclasses.replace`` to reassign roles.
    """

    part_a: frozenset[str]
    part_b: frozenset[str]
    part_c: frozenset[str]
    center: int

    @property
    def parts(self) -> tuple[frozenset[str], frozenset[str], frozenset[str]]:
        return self.part_a, self.part_b, self.part_c


class _RootData(NamedTuple):
    parent: tuple[int, ...]
    children: tuple[tuple[int, ...], ...]
    postorder: tuple[int, ...]  # every child precedes its parent; root last


# A taxon label: anything but whitespace and the Newick punctuation.
_LABEL = re.compile(r"[^\s(),;:]+")
# One Newick token after optional whitespace: punctuation or a word (a
# label or a branch length).  Applied to text without its ';'.
_TOKEN = re.compile(r"\s*([(),:]|[^(),:;\s]+)")
_PUNCT = frozenset("(),:")


def _check_label(label: str) -> None:
    if not isinstance(label, str) or not label:
        raise TreeError("taxon labels must be non-empty strings")
    if not _LABEL.fullmatch(label):
        raise TreeError(f"invalid taxon label {label!r}")


def _assemble(adj: list[list[int] | None], leaf_labels: dict[int, str]) -> "Tree":
    """Validate and normalize a raw adjacency into a Tree.

    ``adj[v]`` lists the neighbours of vertex ``v`` in ascending order, or
    is None for a vertex that is gone; ``leaf_labels`` maps the labelled
    vertices.  Unlabelled vertices of degree 2 (the root of a rooted
    representation) are suppressed in place, so ``adj`` is consumed.
    Leaves are renumbered by sorted label, internal vertices in
    breadth-first discovery order from the smallest label, neighbours
    visited in ascending order.
    """
    n = len(leaf_labels)
    if n == 0:
        raise TreeError("tree has no taxa")
    labels = sorted(leaf_labels.values())
    for lab in labels:
        _check_label(lab)
    if len(set(labels)) != n:
        dup = next(labels[i] for i in range(1, n) if labels[i] == labels[i - 1])
        raise TreeError(f"duplicate taxon label {dup!r}")

    V = len(adj)
    if any(v >= V or adj[v] is None for v in leaf_labels):
        raise TreeError("labelled vertex missing from adjacency")
    vertices = V - adj.count(None)
    if n == 1:
        (v,) = leaf_labels
        if vertices != 1 or adj[v]:
            raise TreeError("single-taxon tree must be a lone vertex")
        return Tree((labels[0],), ((),))

    # A sound leaf reads 0, a sound internal vertex 3 (or 2: suppressed).
    degree = [-1 if nbs is None else len(nbs) for nbs in adj]
    for v in leaf_labels:
        degree[v] -= 1
    if degree.count(0) != n or degree.count(3) + degree.count(2) != vertices - n:
        _degree_error(adj, leaf_labels)
    if sum(degree) + n + V - vertices != 2 * (vertices - 1):
        raise TreeError("graph is not a tree")
    for v in [v for v, d in enumerate(degree) if d == 2]:
        a, b = adj[v]
        for x, y in ((a, b), (b, a)):
            xs = adj[x]
            xs[xs.index(v)] = y
            xs.sort()
        adj[v] = None
        vertices -= 1

    # Renumber: leaves by sorted label, internals in BFS discovery order.
    new_id = [-1] * V
    rank = {lab: i for i, lab in enumerate(labels)}
    for v, lab in leaf_labels.items():
        new_id[v] = rank[lab]
    start = next(v for v, lab in leaf_labels.items() if lab == labels[0])
    seen = [False] * V
    seen[start] = True
    order = [start]
    nxt = n
    for v in order:
        for u in adj[v]:
            if not seen[u]:
                seen[u] = True
                if new_id[u] < 0:
                    new_id[u] = nxt
                    nxt += 1
                order.append(u)
    if len(order) != vertices:
        raise TreeError("graph is not connected")

    new_adj: list = [None] * vertices
    for v in order:
        new_adj[new_id[v]] = tuple(sorted([new_id[u] for u in adj[v]]))
    return Tree(tuple(labels), tuple(new_adj))


def _degree_error(adj: list[list[int] | None], leaf_labels: dict[int, str]):
    """Raise for the vertex of wrong degree nearest the last vertex (a
    parsed tree's root), breadth first, as the text reads from its root."""
    def wrong(v: int) -> bool:
        d = len(adj[v])
        return d != 1 if v in leaf_labels else d not in (2, 3)

    start = max(v for v, nbs in enumerate(adj) if nbs is not None)
    order, seen = [start], {start}
    for v in order:
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                order.append(u)
    order += [v for v, nbs in enumerate(adj) if nbs is not None and v not in seen]
    v = next(v for v in order if wrong(v))
    kind, want = ("leaf", 1) if v in leaf_labels else ("internal vertex", 3)
    raise TreeError(f"{kind} has degree {len(adj[v])}, expected {want}")


class Tree:
    """Immutable unrooted binary tree with distinctly labelled leaves.

    Construct through :func:`parse_newick` or the generators module; the raw
    constructor trusts its arguments.
    """

    __slots__ = (
        "_labels", "_adj", "_n", "_newick", "_root", "_below_masks",
        "_internal_masks", "_label_ids",
    )

    def __init__(self, labels: tuple[str, ...], adj: tuple[tuple[int, ...], ...]):
        self._labels = labels
        self._adj = adj
        self._n = len(labels)
        self._newick: str | None = None
        self._root: _RootData | None = None
        self._below_masks: tuple[int, ...] | None = None
        self._internal_masks: tuple[int, ...] | None = None
        self._label_ids: dict[str, int] | None = None

    # -- basic queries ---------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    @property
    def taxa(self) -> frozenset[str]:
        return frozenset(self._labels)

    def num_vertices(self) -> int:
        return len(self._adj)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def is_leaf(self, v: int) -> bool:
        return v < self._n

    def taxon_id(self, label: str) -> int:
        i = self._index().get(label)
        if i is None:
            raise ValueError(f"unknown taxon {label!r}")
        return i

    def _index(self) -> dict[str, int]:
        if self._label_ids is None:
            self._label_ids = {lab: i for i, lab in enumerate(self._labels)}
        return self._label_ids

    def __repr__(self) -> str:
        return f"Tree({self.canonical_newick()!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tree):
            return NotImplemented
        return self.canonical_newick() == other.canonical_newick()

    def __hash__(self) -> int:
        return hash(self.canonical_newick())

    def isomorphic_to(self, other: "Tree") -> bool:
        """Leaf-labelled isomorphism, decided on canonical forms."""
        return self.canonical_newick() == other.canonical_newick()

    # -- masks and rooting -----------------------------------------------

    def _mask_of(self, labels: Iterable[str]) -> int:
        idx = self._index()
        m = 0
        for lab in labels:
            i = idx.get(lab)
            if i is None:
                raise ValueError(f"unknown taxon {lab!r}")
            m |= 1 << i
        return m

    def _labels_of(self, mask: int) -> frozenset[str]:
        out = []
        while mask:
            low = mask & -mask
            out.append(self._labels[low.bit_length() - 1])
            mask ^= low
        return frozenset(out)

    def _rooting(self) -> _RootData:
        """Root at leaf 0 with children ordered by smallest taxon below."""
        if self._root is not None:
            return self._root
        if self._n < 2:
            raise TreeError("rooting needs at least two taxa")
        V = len(self._adj)
        parent = [-1] * V
        order: list[int] = []
        stack = [0]
        seen = [False] * V
        seen[0] = True
        while stack:
            v = stack.pop()
            order.append(v)
            for u in self._adj[v]:
                if not seen[u]:
                    seen[u] = True
                    parent[u] = v
                    stack.append(u)
        post = tuple(reversed(order))
        low = list(range(V))  # smallest taxon id at or below each vertex
        for v in post:
            p = parent[v]
            if p >= 0 and low[v] < low[p]:
                low[p] = low[v]
        kids: list[list[int]] = [[] for _ in range(V)]
        for v in range(V):
            p = parent[v]
            if p >= 0:
                kids[p].append(v)
        for v in range(V):
            # Canonical child order: smallest taxon id below comes first.
            kids[v].sort(key=low.__getitem__)
        self._root = _RootData(tuple(parent), tuple(tuple(c) for c in kids), post)
        return self._root

    def _below(self) -> tuple[int, ...]:
        """Taxa bitmask at or below each vertex of the rooting.

        Built on first use only: on a deep tree these masks take memory
        quadratic in n, which counting, listing and rendering never need.
        """
        if self._below_masks is None:
            rd = self._rooting()
            below = [0] * len(self._adj)
            for v in rd.postorder:
                if v < self._n:
                    below[v] |= 1 << v
                p = rd.parent[v]
                if p >= 0:
                    below[p] |= below[v]
            self._below_masks = tuple(below)
        return self._below_masks

    def _internal_edge_masks(self) -> tuple[int, ...]:
        """Below-masks of edges with two internal endpoints.

        Edges incident to a leaf can never carry two crossing blocks, so
        convexity checks only need these.
        """
        if self._internal_masks is None:
            if self._n < 4:
                self._internal_masks = ()
            else:
                below = self._below()
                c0 = self._rooting().children[0][0]
                self._internal_masks = tuple(
                    below[v]
                    for v in range(self._n, len(self._adj))
                    if v != c0
                )
        return self._internal_masks

    # -- rendering ---------------------------------------------------------

    def canonical_newick(self) -> str:
        """Deterministic Newick: rooted at the smallest taxon's edge,
        subtrees ordered by smallest contained label."""
        if self._newick is None:
            if self._n == 1:
                self._newick = self._labels[0] + ";"
            else:
                c0 = self._rooting().children[0][0]
                self._newick = f"({self._labels[0]},{self._text_away(c0, 0)});"
        return self._newick

    def _text_away(self, v: int, away: int) -> str:
        """Rooted Newick text (no ';') of the side of edge ``away``--``v``
        that holds ``v``, subtrees ordered by smallest contained label."""
        rd = self._rooting()
        parent, children = rd.parent, rd.children
        out: list[str] = []
        stack: list = [(v, away)]  # (vertex, neighbour it hangs from) or a literal
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            w, p = item
            if w < self._n:
                out.append(self._labels[w])
                continue
            if p == parent[w]:
                f, g = children[w]
            else:
                # Walking towards the root leaf 0: the parent's side holds
                # taxon 0, so it comes first.
                f = parent[w]
                g = next(c for c in children[w] if c != p)
            out.append("(")
            stack.extend((")", (g, w), ",", (f, w)))
        return "".join(out)

    # -- structural operations ---------------------------------------------

    def restrict(self, keep: Iterable[str]) -> "Tree":
        """Minimal spanning subtree of ``keep`` with degree-2 vertices
        suppressed."""
        keep_ids = {self.taxon_id(lab) for lab in keep}
        if not keep_ids:
            raise ValueError("subset must be non-empty")
        if len(keep_ids) == self._n:
            return self
        adj: list[list[int] | None] = [list(nbs) for nbs in self._adj]
        drop = [v for v in range(self._n) if v not in keep_ids]
        while drop:
            v = drop.pop()
            for u in adj[v]:
                nbs = adj[u]
                nbs.remove(v)
                if len(nbs) == 1 and u >= self._n:
                    drop.append(u)
            adj[v] = None
        return _assemble(adj, {v: self._labels[v] for v in keep_ids})

    def delete(self, drop: Iterable[str]) -> "Tree":
        """Restriction to the complement of ``drop``."""
        drop_ids = {self.taxon_id(lab) for lab in drop}
        if not drop_ids:
            return self
        if len(drop_ids) == self._n:
            raise ValueError("cannot delete every taxon")
        return self.restrict(
            lab for i, lab in enumerate(self._labels) if i not in drop_ids
        )

    def splits(self) -> list[Split]:
        """One split per edge (2n-3 for n >= 3); side_a holds the smallest
        taxon."""
        if self._n < 2:
            return []
        below = self._below()
        full = (1 << self._n) - 1
        return [
            Split(self._labels_of(full ^ below[v]), self._labels_of(below[v]))
            for v in range(1, len(self._adj))
        ]

    def tripartitions(self) -> list[Tripartition]:
        """One tripartition per internal vertex, parts ordered by smallest
        label."""
        if self._n < 3:
            return []
        rd = self._rooting()
        below = self._below()
        full = (1 << self._n) - 1
        out = []
        for v in range(self._n, len(self._adj)):
            masks = [below[c] for c in rd.children[v]]
            masks.append(full ^ below[v])
            masks.sort(key=lambda m: m & -m)
            out.append(Tripartition(*(self._labels_of(m) for m in masks), center=v))
        return out

    def cherries(self) -> list[tuple[str, str]]:
        """Unordered leaf pairs sharing a common neighbor.

        Small-n convention: n=2 gives the single pair, the 3-star gives all
        three pairs.
        """
        if self._n < 2:
            return []
        if self._n == 2:
            return [(self._labels[0], self._labels[1])]
        pairs = []
        for v in range(self._n, len(self._adj)):
            leaves = sorted(u for u in self._adj[v] if u < self._n)
            for a, b in combinations(leaves, 2):
                pairs.append((self._labels[a], self._labels[b]))
        return sorted(pairs)

    def bounded_split(self, k: int) -> Split:
        """A split whose far side B satisfies k <= |B| <= 2(k-1).

        Directed walk: orient edges away from the smallest taxon, step onto
        an outgoing edge while one holds at least k taxa on its far side,
        stop when impossible.  Requires n > k.
        """
        if k < 2:
            raise ValueError("k must be at least 2")
        if self._n <= k:
            raise ValueError("bounded split requires n > k")
        rd = self._rooting()
        below = self._below()
        cur = rd.children[0][0]
        while True:
            options = [w for w in rd.children[cur] if below[w].bit_count() >= k]
            if not options:
                break
            options.sort(key=lambda w: (-below[w].bit_count(), below[w] & -below[w]))
            cur = options[0]
        far = below[cur]
        size = far.bit_count()
        assert k <= size <= 2 * (k - 1)
        full = (1 << self._n) - 1
        return Split(self._labels_of(full ^ far), self._labels_of(far))


def parse_newick(text: str) -> Tree:
    """Parse one semicolon-terminated Newick expression into an unrooted
    binary tree.

    Branch lengths and internal labels are parsed and discarded.  A rooted
    representation (root of degree 2) is unrooted by suppressing the root;
    any other internal degree is rejected.
    """
    s = text.strip()
    if not s:
        raise NewickError("empty input")
    if not s.endswith(";"):
        raise NewickError("missing terminating ';'")
    s = s[:-1]
    if ";" in s:
        raise NewickError("more than one ';'")

    tokens = _TOKEN.findall(s)
    # Parse nodes are numbered as they close, so every neighbour list comes
    # out ascending: children in text order, then the parent.  A unary group
    # "(x)" is x itself and gets no node.
    adj: list[list[int]] = []
    leaf_labels: dict[int, str] = {}
    stack: list[list[int]] = [[]]  # children of each open group
    expecting_item = True
    i, end = 0, len(tokens)
    while i < end:
        tok = tokens[i]
        i += 1
        if tok == "(":
            if not expecting_item:
                raise NewickError("unexpected '('")
            stack.append([])
            continue
        if tok == ",":
            if expecting_item:
                raise NewickError("empty label before ','")
            if len(stack) < 2:
                raise NewickError("',' outside parentheses")
            expecting_item = True
            continue
        if tok == ":":
            raise NewickError("unexpected ':'")
        if tok == ")":
            if expecting_item:
                raise NewickError("empty label before ')'")
            kids = stack.pop()
            if not stack:
                raise NewickError("unbalanced ')'")
            if len(kids) == 1:
                v = kids[0]
            else:
                v = len(adj)
                adj.append(kids)
                for c in kids:
                    adj[c].append(v)
            if i < end and tokens[i] not in _PUNCT:
                i += 1  # internal label, discarded
        else:
            if not expecting_item:
                at = [m.start(1) for m in _TOKEN.finditer(s)][i - 1]
                raise NewickError(f"unexpected text at {s[at:at + 10]!r}")
            v = len(adj)
            adj.append([])
            leaf_labels[v] = tok
        stack[-1].append(v)
        expecting_item = False
        if i < end and tokens[i] == ":":
            if i + 1 == end or tokens[i + 1] in _PUNCT:
                raise NewickError("':' without a branch length")
            try:
                float(tokens[i + 1])
            except ValueError:
                raise NewickError(f"bad branch length {tokens[i + 1]!r}") from None
            i += 2
    if len(stack) != 1:
        raise NewickError("unbalanced '('")
    if len(stack[0]) != 1:
        raise NewickError("expected a single tree")

    try:
        return _assemble(adj, leaf_labels)
    except TreeError as exc:
        if "degree" in str(exc):
            raise TreeError(f"input tree is not binary: {exc}") from None
        raise


def write_newick(tree: Tree) -> str:
    """Canonical Newick text of ``tree`` (see Tree.canonical_newick)."""
    return tree.canonical_newick()

"""Unrooted binary trees over labelled leaves.

Vertices are dense integers: leaves 0..n-1 in sorted label order (so the leaf
id doubles as the taxon id), internal vertices n..2n-3.  Taxon subsets are
manipulated as Python int bitmasks, bit i == taxon i.  Trees are immutable;
every "modifying" operation returns a new tree, so instances can be shared
freely across threads and used as cache keys through their canonical Newick
form.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, NamedTuple

_RESERVED = frozenset("(),;:")


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


def _check_label(label: str) -> None:
    if not isinstance(label, str) or not label:
        raise TreeError("taxon labels must be non-empty strings")
    if any(c.isspace() for c in label) or any(c in _RESERVED for c in label):
        raise TreeError(f"invalid taxon label {label!r}")


def _assemble(adj: dict[int, set[int]], leaf_labels: dict[int, str]) -> "Tree":
    """Validate and normalize a raw adjacency into a Tree.

    ``adj`` maps surviving vertex ids to neighbor sets, ``leaf_labels`` maps
    the labelled vertices.  Internal ids are renumbered deterministically.
    """
    n = len(leaf_labels)
    if n == 0:
        raise TreeError("tree has no taxa")
    labels = sorted(leaf_labels.values())
    for lab in labels:
        _check_label(lab)
    if len(set(labels)) != n:
        dup = next(l for i, l in enumerate(labels) if l in labels[:i])
        raise TreeError(f"duplicate taxon label {dup!r}")

    vertices = set(adj)
    if set(leaf_labels) - vertices:
        raise TreeError("labelled vertex missing from adjacency")
    if n == 1:
        (v,) = leaf_labels
        if len(vertices) != 1 or adj[v]:
            raise TreeError("single-taxon tree must be a lone vertex")
        return Tree((labels[0],), ((),))

    for v, nbs in adj.items():
        want = 1 if v in leaf_labels else 3
        if len(nbs) != want:
            kind = "leaf" if v in leaf_labels else "internal vertex"
            raise TreeError(f"{kind} has degree {len(nbs)}, expected {want}")
    edge_count = sum(len(nbs) for nbs in adj.values()) // 2
    if edge_count != len(vertices) - 1:
        raise TreeError("graph is not a tree")

    # Renumber: leaves by sorted label, internals in BFS discovery order.
    label_rank = {lab: i for i, lab in enumerate(labels)}
    new_id = {old: label_rank[lab] for old, lab in leaf_labels.items()}
    start = next(old for old, lab in leaf_labels.items() if lab == labels[0])
    nxt = n
    seen = {start}
    dq = deque([start])
    while dq:
        v = dq.popleft()
        for u in sorted(adj[v]):
            if u not in seen:
                seen.add(u)
                if u not in new_id:
                    new_id[u] = nxt
                    nxt += 1
                dq.append(u)
    if len(seen) != len(vertices):
        raise TreeError("graph is not connected")

    new_adj: list[list[int]] = [[] for _ in range(len(vertices))]
    for v, nbs in adj.items():
        new_adj[new_id[v]] = sorted(new_id[u] for u in nbs)
    return Tree(tuple(labels), tuple(tuple(a) for a in new_adj))


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
        V = len(self._adj)
        adj: dict[int, set[int]] = {v: set(self._adj[v]) for v in range(V)}
        dq = deque(v for v in range(self._n) if v not in keep_ids)
        while dq:
            v = dq.pop()
            if v not in adj:
                continue
            for u in adj.pop(v):
                nbs = adj[u]
                nbs.discard(v)
                if len(nbs) == 1 and u >= self._n:
                    dq.append(u)
        for v in [w for w in adj if w >= self._n and len(adj[w]) == 2]:
            if v in adj and len(adj[v]) == 2:
                a, b = adj[v]
                adj[a].discard(v)
                adj[b].discard(v)
                adj[a].add(b)
                adj[b].add(a)
                del adj[v]
        leaf_labels = {v: self._labels[v] for v in keep_ids}
        return _assemble(adj, leaf_labels)

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

    children: list[list[int]] = []   # per node id
    labels: dict[int, str] = {}
    stack: list[list[int]] = [[]]

    def new_node(kids: list[int], label: str | None) -> int:
        nid = len(children)
        children.append(kids)
        if label is not None:
            labels[nid] = label
        return nid

    i, length = 0, len(s)

    def skip_ws(j: int) -> int:
        while j < length and s[j].isspace():
            j += 1
        return j

    def read_token(j: int) -> tuple[str, int]:
        start = j
        while j < length and s[j] not in _RESERVED and not s[j].isspace():
            j += 1
        return s[start:j], j

    def skip_length(j: int) -> int:
        j = skip_ws(j)
        if j < length and s[j] == ":":
            j = skip_ws(j + 1)
            tok, j = read_token(j)
            if not tok:
                raise NewickError("':' without a branch length")
            try:
                float(tok)
            except ValueError:
                raise NewickError(f"bad branch length {tok!r}") from None
        return j

    expecting_item = True
    while True:
        i = skip_ws(i)
        if i >= length:
            break
        c = s[i]
        if c == "(":
            if not expecting_item:
                raise NewickError("unexpected '('")
            stack.append([])
            i += 1
        elif c == ",":
            if expecting_item:
                raise NewickError("empty label before ','")
            if len(stack) < 2:
                raise NewickError("',' outside parentheses")
            expecting_item = True
            i += 1
        elif c == ")":
            if expecting_item:
                raise NewickError("empty label before ')'")
            kids = stack.pop()
            if not stack:
                raise NewickError("unbalanced ')'")
            i = skip_ws(i + 1)
            tok, i = read_token(i)  # internal label, discarded
            i = skip_length(i)
            stack[-1].append(new_node(kids, None))
            expecting_item = False
        elif c == ":":
            raise NewickError("unexpected ':'")
        else:
            if not expecting_item:
                raise NewickError(f"unexpected text at {s[i:i + 10]!r}")
            tok, i = read_token(i)
            i = skip_length(i)
            stack[-1].append(new_node([], tok))
            expecting_item = False
    if len(stack) != 1:
        raise NewickError("unbalanced '('")
    if len(stack[0]) != 1:
        raise NewickError("expected a single tree")
    def resolve(v: int) -> int:
        # Collapse redundant unary groups like "((a,b))".
        while len(children[v]) == 1:
            v = children[v][0]
        return v

    root = resolve(stack[0][0])

    # Build the undirected graph.
    adj: dict[int, set[int]] = {root: set()}
    leaf_labels: dict[int, str] = {}
    dq = deque([root])
    while dq:
        v = dq.popleft()
        if not children[v]:
            if v not in labels:
                raise NewickError("leaf without a label")
            leaf_labels[v] = labels[v]
            continue
        for u0 in children[v]:
            u = resolve(u0)
            adj[v].add(u)
            adj.setdefault(u, set()).add(v)
            dq.append(u)

    # Suppress degree-2 vertices (covers a rooted representation's root).
    pending = deque(v for v in adj if v not in leaf_labels and len(adj[v]) == 2)
    while pending:
        v = pending.pop()
        if v not in adj or len(adj[v]) != 2:
            continue
        a, b = adj[v]
        adj[a].discard(v)
        adj[b].discard(v)
        if b in adj[a]:
            raise NewickError("parallel edges after suppression")
        adj[a].add(b)
        adj[b].add(a)
        del adj[v]

    try:
        return _assemble(adj, leaf_labels)
    except TreeError as exc:
        if "degree" in str(exc):
            raise TreeError(f"input tree is not binary: {exc}") from None
        raise


def write_newick(tree: Tree) -> str:
    """Canonical Newick text of ``tree`` (see Tree.canonical_newick)."""
    return tree.canonical_newick()

"""Unrooted binary trees over labelled leaves.

Vertices are dense integers: leaves 0..n-1 in sorted label order (so the leaf
id doubles as the taxon id), internal vertices n..2n-3 in breadth-first
discovery order from taxon 0.  A tree is stored as its rooting at taxon 0
and nothing else: the labels, each vertex's ``parent`` (-1 for taxon 0) and
its ``children``, ordered by the smallest taxon below them (leaves other
than 0 have none, taxon 0 has the one vertex c0).  Neighbours are derived
from these.  An internal vertex's parent is the vertex it was discovered
from, so it has a smaller id, except c0, whose parent is leaf 0.  Reading
the internal vertices by descending id is therefore bottom-up, and the
taxa 1..n-1, then the internal vertices by descending id, then taxon 0
visit every vertex after all of its children.

Outside input is checked where it enters: ``parse_newick`` rejects
malformed text, duplicate labels and non-binary trees (its tokens admit
only valid labels), and the generators check the label lists they are
given.  ``_assemble``, which every tree is built by, trusts its callers
and only suppresses degree-2 vertices, numbers and roots.

Newick text is read once, by one token walker, ``_walk_newick``.  Its
tokens come from ``str.split`` after the punctuation is padded with spaces,
and one pass over them, in one of five states (an item due, after ':',
after a group, after an item, after a branch length), checks the syntax
with no lookahead and folds the text bottom-up through two actions its
caller passes: one makes a leaf's item from its label, the other a group's
item from its children's items as the group closes (a unary group is its
child).  ``parse_newick``'s actions build the parse tree as an adjacency;
``counting`` counts straight from the text with actions of its own.
``_assemble`` roots the adjacency by a breadth-first walk from taxon 0
that orients each vertex by removing from its neighbour list the vertex it
was found from, and reads ``children`` off the lists that are left.

Taxon subsets are manipulated as Python int bitmasks, bit i == taxon i.
Trees are immutable; every "modifying" operation returns a new tree, so
instances can be shared freely across threads and used as cache keys
through their canonical Newick form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain, combinations
from operator import length_hint
from typing import Iterable


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


# A taxon label: anything but whitespace and the Newick punctuation.
_LABEL = re.compile(r"[^\s(),;:]+")
# One Newick token after optional whitespace: punctuation or a word (a
# label or a branch length).  Applied to text without its ';', only to find
# where unexpected text starts.
_TOKEN = re.compile(r"\s*([(),:]|[^(),:;\s]+)")
# Where the Newick parser is: where an item is due, after ':', after a
# group (which may take a label), after an item, or after a branch length.
# The order is relied on: '(' is due only at _ITEM, ',' and ')' from
# _GROUP on, ':' at _GROUP and _ITEM_DONE.
_ITEM, _COLON, _GROUP, _ITEM_DONE, _LENGTH = range(5)
_NO_LENGTH = "':' without a branch length"


def _decode(labels: tuple[str, ...], bm: int) -> tuple[str, ...]:
    """Labels of a taxon mask in taxon-id order, which is sorted label order."""
    out = []
    while bm:
        low = bm & -bm
        out.append(labels[low.bit_length() - 1])
        bm ^= low
    return tuple(out)


def _check_label(label: str) -> None:
    if not isinstance(label, str) or not label:
        raise TreeError("taxon labels must be non-empty strings")
    if not _LABEL.fullmatch(label):
        raise TreeError(f"invalid taxon label {label!r}")


def _assemble(adj: list[list[int]], leaf_labels: dict[int, str]) -> "Tree":
    """Number and root a tree given as a raw adjacency.

    Trusts its caller: ``adj`` is a tree in which ``adj[v]`` lists the
    neighbours of vertex ``v`` in ascending order, or is empty for a vertex
    that is gone; ``leaf_labels`` maps each leaf (or the lone vertex of a
    one-taxon tree) to a valid label, no two alike; every other vertex has
    degree 3, or 2 where it is to be suppressed (the root of a rooted
    representation, a vertex a restriction passes through).  ``adj`` is
    consumed: degree-2 vertices are suppressed in place, and rooting turns
    each list into the vertex's children.

    The tree is rooted by a breadth-first walk from the smallest label,
    neighbours taken in ascending order.  Each vertex the walk finds is
    oriented by removing from its list the vertex it was found from, so no
    neighbour needs a seen test, and what is left is its children.  Leaves
    are renumbered by sorted label and internal vertices in the order the
    walk finds them, so the new ids of their children, in one flat list
    read in pairs, are ``children``.  A last bottom-up pass orders each
    pair by the smallest taxon below and sets ``parent``.
    """
    leaves = sorted(leaf_labels, key=leaf_labels.__getitem__)
    labels = tuple(map(leaf_labels.__getitem__, leaves))
    n = len(labels)
    if n == 1:
        return Tree(labels, (-1,), ((),))
    # Suppressing a vertex changes no other vertex's degree.
    degrees = list(map(len, adj))
    v = -1
    for _ in range(degrees.count(2)):
        v = degrees.index(2, v + 1)
        a, b = adj[v]
        for x, y in ((a, b), (b, a)):
            xs = adj[x]
            xs[xs.index(v)] = y
            xs.sort()

    # ``internal`` is the walk's queue: leaves other than the start have no
    # children left and never join it.
    start = leaves[0]
    internal = [start]
    for v in internal:
        for u in adj[v]:
            kids = adj[u]
            kids.remove(v)
            if kids:
                internal.append(u)
    del internal[0]  # the start leaf, whose one child is c0
    vertices = 2 * n - 2
    new_id = [0] * len(adj)
    for i, v in enumerate(leaves):
        new_id[v] = i
    for i, v in enumerate(internal, n):
        new_id[v] = i
    ids = list(map(new_id.__getitem__, chain.from_iterable(map(adj.__getitem__, internal))))

    children: list[tuple[int, ...]] = [()] * n
    children[0] = (new_id[adj[start][0]],)
    children += zip(ids[::2], ids[1::2])
    parent = [0] * vertices
    parent[0] = -1
    low = list(range(vertices))
    for v in range(vertices - 1, n - 1, -1):
        f, g = children[v]
        if low[g] < low[f]:
            children[v] = f, g = g, f
        low[v] = low[f]
        parent[f] = parent[g] = v
    return Tree(labels, tuple(parent), tuple(children))


class Tree:
    """Immutable unrooted binary tree with distinctly labelled leaves,
    stored as its rooting at taxon 0 (see the module docstring).

    Construct through :func:`parse_newick` or the generators module; the raw
    constructor trusts its arguments.
    """

    __slots__ = (
        "_labels", "_parent", "_children", "_newick", "_below_masks", "_label_ids",
    )

    def __init__(
        self,
        labels: tuple[str, ...],
        parent: tuple[int, ...],
        children: tuple[tuple[int, ...], ...],
    ):
        self._labels = labels
        self._parent = parent
        self._children = children
        self._newick: str | None = None
        self._below_masks: tuple[int, ...] | None = None
        self._label_ids: dict[str, int] | None = None

    # -- basic queries ---------------------------------------------------

    @property
    def n(self) -> int:
        return len(self._labels)

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    @property
    def taxa(self) -> frozenset[str]:
        return frozenset(self._labels)

    def num_vertices(self) -> int:
        return len(self._parent)

    def neighbors(self, v: int) -> tuple[int, ...]:
        """The neighbours of ``v`` in ascending order."""
        p = self._parent[v]
        if p < 0:
            return self._children[v]
        return tuple(sorted((p, *self._children[v])))

    def is_leaf(self, v: int) -> bool:
        return v < len(self._labels)

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
        return frozenset(_decode(self._labels, mask))

    def _below(self) -> tuple[int, ...]:
        """Taxa bitmask at or below each vertex of the rooting.

        Built on first use only: on a deep tree these masks take memory
        quadratic in n, which counting, listing and rendering never need.
        """
        if self._below_masks is None:
            n, children = len(self._labels), self._children
            below = [1 << v for v in range(n)]
            below += [0] * (len(children) - n)
            for v in range(len(children) - 1, n - 1, -1):
                f, g = children[v]
                below[v] = below[f] | below[g]
            below[0] = (1 << n) - 1
            self._below_masks = tuple(below)
        return self._below_masks

    # -- rendering ---------------------------------------------------------

    def canonical_newick(self) -> str:
        """Deterministic Newick: rooted at the smallest taxon's edge,
        subtrees ordered by smallest contained label."""
        if self._newick is None:
            if self.n == 1:
                self._newick = self._labels[0] + ";"
            else:
                c0 = self._children[0][0]
                self._newick = f"({self._labels[0]},{self._text_away(c0, 0)});"
        return self._newick

    def _text_away(self, v: int, away: int) -> str:
        """Rooted Newick text (no ';') of the side of edge ``away``--``v``
        that holds ``v``, subtrees ordered by smallest contained label."""
        labels, parent, children = self._labels, self._parent, self._children
        n = len(labels)
        out: list[str] = []
        stack: list = [(v, away)]  # (vertex, neighbour it hangs from) or a literal
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            w, p = item
            if w < n:
                out.append(labels[w])
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
        suppressed.

        Pruned on the rooting: the edge above a vertex spans kept taxa on
        both sides exactly when it lies on the subtree, so one bottom-up
        count of the kept taxa below each vertex finds its edges, and
        ``_assemble`` gets only the vertices they join.
        """
        keep_ids = {self.taxon_id(lab) for lab in keep}
        if not keep_ids:
            raise ValueError("subset must be non-empty")
        n, parent, children = len(self._labels), self._parent, self._children
        total = len(keep_ids)
        if total == n:
            return self
        below = [0] * len(parent)
        for v in keep_ids:
            below[v] = 1
        for v in range(len(parent) - 1, n - 1, -1):
            f, g = children[v]
            below[v] = below[f] + below[g]
        # Edges taken by ascending child leave every list ascending but
        # c0's: an internal vertex's leaf children have smaller ids than its
        # parent, its internal children larger ones, and c0's parent is 0.
        adj = [[] for _ in parent]
        for v in range(1, len(parent)):
            if 0 < below[v] < total:
                p = parent[v]
                adj[v].append(p)
                adj[p].append(v)
        adj[children[0][0]].sort()
        return _assemble(adj, dict(zip(keep_ids, map(self._labels.__getitem__, keep_ids))))

    def delete(self, drop: Iterable[str]) -> "Tree":
        """Restriction to the complement of ``drop``."""
        drop_ids = {self.taxon_id(lab) for lab in drop}
        if not drop_ids:
            return self
        if len(drop_ids) == self.n:
            raise ValueError("cannot delete every taxon")
        return self.restrict(
            lab for i, lab in enumerate(self._labels) if i not in drop_ids
        )

    def splits(self) -> list[Split]:
        """One split per edge (2n-3 for n >= 3); side_a holds the smallest
        taxon."""
        if self.n < 2:
            return []
        below = self._below()
        full = (1 << self.n) - 1
        return [
            Split(self._labels_of(full ^ below[v]), self._labels_of(below[v]))
            for v in range(1, len(below))
        ]

    def tripartitions(self) -> list[Tripartition]:
        """One tripartition per internal vertex, parts ordered by smallest
        label."""
        if self.n < 3:
            return []
        below = self._below()
        full = (1 << self.n) - 1
        out = []
        for v in range(self.n, len(below)):
            masks = [below[c] for c in self._children[v]]
            masks.append(full ^ below[v])
            masks.sort(key=lambda m: m & -m)
            out.append(Tripartition(*(self._labels_of(m) for m in masks), center=v))
        return out

    def cherries(self) -> list[tuple[str, str]]:
        """Unordered leaf pairs sharing a common neighbor.

        Small-n convention: n=2 gives the single pair, the 3-star gives all
        three pairs.
        """
        n = len(self._labels)
        if n < 2:
            return []
        if n == 2:
            return [(self._labels[0], self._labels[1])]
        pairs = []
        for v in range(n, len(self._parent)):
            leaves = sorted(u for u in self.neighbors(v) if u < n)
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
        if self.n <= k:
            raise ValueError("bounded split requires n > k")
        children = self._children
        below = self._below()
        cur = children[0][0]
        while True:
            options = [w for w in children[cur] if below[w].bit_count() >= k]
            if not options:
                break
            options.sort(key=lambda w: (-below[w].bit_count(), below[w] & -below[w]))
            cur = options[0]
        far = below[cur]
        size = far.bit_count()
        assert k <= size <= 2 * (k - 1)
        full = (1 << self.n) - 1
        return Split(self._labels_of(full ^ far), self._labels_of(far))


def _walk_newick(text: str, leaf, group):
    """Check one semicolon-terminated Newick expression and fold its items
    bottom-up: ``leaf(label)`` makes the item of a leaf, ``group(kids)`` the
    item of a group of two or more items, from the list of its children's
    items in text order, which it may keep.  A unary group "(x)" is x
    itself, and internal labels and branch lengths are checked and
    discarded.  Returns the one top item; raises NewickError at the first
    fault of malformed text, and lets the actions' own exceptions through.
    """
    s = text.strip()
    if not s:
        raise NewickError("empty input")
    if not s.endswith(";"):
        raise NewickError("missing terminating ';'")
    s = s[:-1]
    if ";" in s:
        raise NewickError("more than one ';'")

    # With ';' gone, str.split cuts the same tokens as _TOKEN would: both
    # take whitespace to be what str.isspace says it is.
    tokens = s.replace("(", " ( ").replace(")", " ) ").replace(",", " , ")
    tokens = tokens.replace(":", " : ").split()
    stack: list[list] = []  # items of the enclosing open groups
    kids: list = []  # items of the innermost one, or the top item
    state = _ITEM
    it = iter(tokens)
    for tok in it:
        if tok == "(":
            if state:
                raise NewickError(_NO_LENGTH if state == _COLON else "unexpected '('")
            stack.append(kids)
            kids = []
        elif tok == ",":
            if state < _GROUP:
                raise NewickError(_NO_LENGTH if state else "empty label before ','")
            if not stack:
                raise NewickError("',' outside parentheses")
            state = _ITEM
        elif tok == ")":
            if state < _GROUP:
                raise NewickError(_NO_LENGTH if state else "empty label before ')'")
            if not stack:
                raise NewickError("unbalanced ')'")
            item = kids[0] if len(kids) == 1 else group(kids)
            kids = stack.pop()
            kids.append(item)
            state = _GROUP
        elif tok == ":":
            if not _GROUP <= state <= _ITEM_DONE:
                raise NewickError(_NO_LENGTH if state == _COLON else "unexpected ':'")
            state = _COLON
        elif state == _ITEM:
            kids.append(leaf(tok))
            state = _ITEM_DONE
        elif state == _GROUP:
            state = _ITEM_DONE  # internal label, discarded
        elif state == _COLON:
            try:
                float(tok)
            except ValueError:
                raise NewickError(f"bad branch length {tok!r}") from None
            state = _LENGTH
        else:
            # A list iterator's length hint is the number of tokens left.
            at = [m.start(1) for m in _TOKEN.finditer(s)][len(tokens) - length_hint(it) - 1]
            raise NewickError(f"unexpected text at {s[at:at + 10]!r}")
    if state == _COLON:
        raise NewickError(_NO_LENGTH)
    if stack:
        raise NewickError("unbalanced '('")
    if len(kids) != 1:
        raise NewickError("expected a single tree")
    return kids[0]


def parse_newick(text: str) -> Tree:
    """Parse one semicolon-terminated Newick expression into an unrooted
    binary tree.

    Branch lengths and internal labels are parsed and discarded.  A rooted
    representation (root of degree 2) is unrooted by suppressing the root;
    any other internal degree is rejected, after duplicate labels are.
    """
    # Parse nodes are numbered as they close, so every neighbour list comes
    # out ascending: children in text order, then the parent.
    adj: list[list[int]] = []
    leaf_labels: dict[int, str] = {}
    wide: list[int] = []  # groups of three or more

    def leaf(label: str) -> int:
        v = len(adj)
        leaf_labels[v] = label
        adj.append([])
        return v

    def group(kids: list[int]) -> int:
        v = len(adj)
        for c in kids:
            adj[c].append(v)
        adj.append(kids)
        if len(kids) > 2:
            wide.append(v)
        return v

    _walk_newick(text, leaf, group)
    if len(set(leaf_labels.values())) != len(leaf_labels):
        labels = sorted(leaf_labels.values())
        dup = next(b for a, b in zip(labels, labels[1:]) if a == b)
        raise TreeError(f"duplicate taxon label {dup!r}")
    # A leaf has degree 1 and a group one more than its children, save the
    # root, so a vertex of degree above 3 is exactly a non-binary one, and
    # only a wide group can be one.  Report the first met breadth first
    # from the root, the last node to close; a node's children are its
    # neighbours with smaller ids.
    if wide and any(len(adj[v]) > 3 for v in wide):
        order = [len(adj) - 1]
        for v in order:
            order += [u for u in adj[v] if u < v]
        d = next(len(adj[v]) for v in order if len(adj[v]) > 3)
        raise TreeError(
            f"input tree is not binary: internal vertex has degree {d}, expected 3"
        )
    return _assemble(adj, leaf_labels)


def write_newick(tree: Tree) -> str:
    """Canonical Newick text of ``tree`` (see Tree.canonical_newick)."""
    return tree.canonical_newick()

"""Tree families and structural transformations.

Generators build Newick text for the parser or, as ``random_tree`` and
``all_topologies`` do, an edge list for ``trees._assemble``, which the
parser also ends in, so every produced tree gets the same numbering as
user input.  Labels are checked where they enter: a label list handed to
a generator, and the taxa of a ``FullyLoadedSpec``, must hold distinct
valid labels.  The random model is sequential uniform edge attachment,
which yields the uniform distribution over labelled binary topologies.

One constructor builds every ``FullyLoadedSpec``, the witness's included,
from ordered chunks (the witness keeps masks until then) and a scaffold.
``fully_loaded`` takes ``labels`` or a ``spec``, not both.  The moves find
their edge by the taxon mask of one side.
"""

from __future__ import annotations

import random
import re
import string
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .trees import Split, Tree, Tripartition, _assemble, _check_label, _decode, parse_newick


def default_labels(n: int) -> list[str]:
    """a..z for n <= 26, zero-padded t-numbers beyond."""
    if n < 1:
        raise ValueError("n must be positive")
    if n <= 26:
        return list(string.ascii_lowercase[:n])
    width = len(str(n))
    return [f"t{str(i).zfill(width)}" for i in range(1, n + 1)]


def _unique_labels(n: int, labels: Sequence[str] | None) -> list[str]:
    if labels is None:
        return default_labels(n)
    if n < 1:
        raise ValueError("n must be positive")
    labs = list(labels)
    if len(labs) != n:
        raise ValueError(f"need {n} labels, got {len(labs)}")
    for lab in labs:
        _check_label(lab)
    if len(set(labs)) != n:
        raise ValueError("labels must be distinct")
    return labs


def _rooted_chain(labels: Sequence[str]) -> str:
    """Rooted caterpillar subtree text; spine order follows ``labels``."""
    if len(labels) == 1:
        return labels[0]
    return "(" + ",(".join(labels[:-1]) + "," + labels[-1] + ")" * (len(labels) - 1)


def caterpillar(n: int, labels: Sequence[str] | None = None) -> Tree:
    """The caterpillar: all internal vertices on one path, two cherries for
    n >= 4, leaves along the spine in the given label order."""
    labs = _unique_labels(n, labels)
    return parse_newick(_rooted_chain(labs) + ";")


def _edge_tree(edges: list[tuple[int, int]], labs: Sequence[str], m: int) -> Tree:
    """The tree on leaves 0..m-1 (leaf i labelled ``labs[i]``) and internal
    vertices m..2m-3 with the given edges."""
    adj: list[list[int]] = [[] for _ in range(max(1, 2 * m - 2))]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    for nbs in adj:
        nbs.sort()
    return _assemble(adj, {i: labs[i] for i in range(m)})


def random_tree(n: int, seed: int = 0, labels: Sequence[str] | None = None) -> Tree:
    """Uniform random labelled topology on n >= 3 taxa, deterministic per
    seed.

    Starts from the 3-star and attaches each next leaf by subdividing one
    of the current edges chosen uniformly.
    """
    if n < 3:
        raise ValueError("random trees need n >= 3")
    labs = sorted(_unique_labels(n, labels))
    rng = random.Random(seed)
    center = n
    edges: list[tuple[int, int]] = [(0, center), (1, center), (2, center)]
    nxt = n + 1
    for leaf in range(3, n):
        idx = rng.randrange(len(edges))
        u, v = edges[idx]
        w = nxt
        nxt += 1
        edges[idx] = (u, w)
        edges.append((w, v))
        edges.append((w, leaf))
    return _edge_tree(edges, labs, n)


def all_topologies(labels: Sequence[str]) -> Iterator[Tree]:
    """Every labelled binary topology on ``labels`` exactly once:
    (2n-5)!! trees, generated by recursive leaf insertion."""
    labs = _unique_labels(len(labels), labels)
    n = len(labs)
    if n == 1:
        yield _edge_tree([], labs, 1)
        return
    if n == 2:
        yield _edge_tree([(0, 1)], labs, 2)
        return

    edges = [(0, n), (1, n), (2, n)]
    nxt = [n + 1]

    def rec(leaf: int) -> Iterator[Tree]:
        if leaf == n:
            yield _edge_tree(edges, labs, n)
            return
        w = nxt[0]
        nxt[0] += 1
        for idx in range(len(edges)):
            u, v = edges[idx]
            edges[idx] = (u, w)
            edges.append((w, v))
            edges.append((w, leaf))
            yield from rec(leaf + 1)
            edges.pop()
            edges.pop()
            edges[idx] = (u, v)
        nxt[0] -= 1

    yield from rec(3)


@dataclass(frozen=True)
class FullyLoadedSpec:
    """Blueprint of a fully k-loaded tree.

    Every scaffold leaf expands into a pendant subtree of exactly k-1 taxa,
    except the residue leaf, which carries n mod (k-1) taxa when that is
    non-zero.  ``parts`` maps each scaffold leaf label to the tuple of taxa
    it expands into; the tuple order is the spine order of the pendant
    caterpillar, so permuting it varies the pendant shape.
    """

    n: int
    k: int
    scaffold: Tree
    residue_leaf: str | None
    residue_size: int
    parts: tuple[tuple[str, tuple[str, ...]], ...]

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be at least 2")
        part_map = dict(self.parts)
        if set(part_map) != set(self.scaffold.labels):
            raise ValueError("parts must cover exactly the scaffold leaves")
        m = -(-self.n // (self.k - 1))
        if self.scaffold.n != m:
            raise ValueError(f"scaffold must have ceil(n/(k-1)) = {m} leaves")
        all_taxa: list[str] = []
        for leaf, taxa in part_map.items():
            for taxon in taxa:
                _check_label(taxon)
            all_taxa.extend(taxa)
            want = self.residue_size if leaf == self.residue_leaf else self.k - 1
            if len(taxa) != want:
                raise ValueError(f"part at {leaf!r} has {len(taxa)} taxa, expected {want}")
        if len(all_taxa) != self.n or len(set(all_taxa)) != self.n:
            raise ValueError("parts must partition n distinct taxa")
        r = self.n % (self.k - 1)
        if r == 0:
            if self.residue_leaf is not None or self.residue_size != 0:
                raise ValueError("no residue allowed when (k-1) divides n")
        else:
            if self.residue_leaf is None or self.residue_size != r:
                raise ValueError(f"residue subtree must carry n mod (k-1) = {r} taxa")

    def parts_dict(self) -> dict[str, tuple[str, ...]]:
        return dict(self.parts)

    @classmethod
    def _of_chunks(
        cls, k: int, chunks: Sequence[Sequence[str]], scaffold: Callable[[list[str]], Tree]
    ) -> "FullyLoadedSpec":
        """Spec of ``chunks`` in order, each at its smallest taxon, over
        ``scaffold(reps)``; a chunk of other than k-1 taxa is the residue."""
        reps = [min(c) for c in chunks]
        odd = [(rep, len(c)) for rep, c in zip(reps, chunks) if len(c) != k - 1]
        residue_leaf, residue_size = odd[0] if odd else (None, 0)
        return cls(
            n=sum(map(len, chunks)),
            k=k,
            scaffold=scaffold(reps),
            residue_leaf=residue_leaf,
            residue_size=residue_size,
            parts=tuple((rep, tuple(c)) for rep, c in zip(reps, chunks)),
        )

    @classmethod
    def default(cls, labels: Sequence[str], k: int) -> "FullyLoadedSpec":
        """Caterpillar scaffold over chunk minima, taxa chunked in label
        order, residue at the end of the spine."""
        labs = sorted(labels)
        if k < 2 or not labs:
            raise ValueError("need k >= 2 and n >= 1")
        chunks = [labs[i:i + k - 1] for i in range(0, len(labs), k - 1)]
        return cls._of_chunks(k, chunks, lambda reps: caterpillar(len(reps), reps))

    @classmethod
    def randomized(cls, labels: Sequence[str], k: int, rng: random.Random) -> "FullyLoadedSpec":
        """Random scaffold topology, random chunk assignment and random
        pendant spine orders; used to exercise shape independence."""
        labs = list(labels)
        if k < 2 or not labs:
            raise ValueError("need k >= 2 and n >= 1")
        rng.shuffle(labs)
        r = len(labs) % (k - 1)
        chunks = [labs[:r]] if r else []
        chunks.extend(labs[i:i + k - 1] for i in range(r, len(labs), k - 1))
        rng.shuffle(chunks)

        def scaffold(reps: list[str]) -> Tree:
            if len(reps) >= 3:
                return random_tree(len(reps), seed=rng.randrange(2 ** 32), labels=reps)
            return caterpillar(len(reps), sorted(reps))

        return cls._of_chunks(k, chunks, scaffold)


def fully_loaded(
    n: int,
    k: int,
    labels: Sequence[str] | None = None,
    spec: FullyLoadedSpec | None = None,
) -> Tree:
    """A fully k-loaded tree on n >= k taxa.

    Without a spec: caterpillar scaffold, pendant caterpillars, residue at an
    end-of-spine scaffold leaf, over ``labels`` if given.  A spec pins
    scaffold shape, taxon placement and pendant spine orders; giving both
    ``labels`` and a spec raises ``ValueError``.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if n < k:
        raise ValueError("fully loaded trees need n >= k")
    if spec is None:
        spec = FullyLoadedSpec.default(_unique_labels(n, labels), k)
    elif labels is not None:
        raise ValueError("give labels or a spec, not both")
    elif spec.n != n or spec.k != k:
        raise ValueError("spec disagrees with n or k")
    parts = spec.parts_dict()
    # Every scaffold leaf label in the scaffold's Newick text becomes its part.
    text = re.sub(
        r"[^(),;]+",
        lambda m: _rooted_chain(parts[m.group()]),
        spec.scaffold.canonical_newick(),
    )
    return parse_newick(text)


def fully_loaded_decomposition(tree: Tree, k: int) -> FullyLoadedSpec | None:
    """Witness that ``tree`` is fully k-loaded, or None.

    Searches for a partition of the taxa into pendant subtrees of at most
    k-1 taxa with at most one undersized part, by rooting at the smallest
    taxon and minimizing the number of undersized parts bottom-up.

    The witness returned: the part holding the smallest taxon is every
    taxon not below v, for the first vertex v other than taxon 0 in the
    rooting's children-first order (trees module docstring: the other taxa
    by id, then the internal vertices by descending id) at which that part
    and a partition of the taxa below v fit; below v,
    a whole subtree stays one part wherever splitting it gains nothing.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    n = tree.n
    full = (1 << n) - 1

    def witness(masks: list[int]) -> FullyLoadedSpec:
        chunks = [_decode(tree.labels, m) for m in sorted(masks, key=lambda m: m & -m)]
        return FullyLoadedSpec._of_chunks(k, chunks, tree.restrict)

    if n <= k - 1:
        # Vacuously fully loaded: single-leaf scaffold.
        return witness([full])

    children = tree._children
    below = tree._below()
    V = tree.num_vertices()
    order = [*range(1, n), *range(V - 1, n - 1, -1)]  # children first, no taxon 0
    INF = n + 10
    min_under = [INF] * V
    take_whole = [False] * V
    for v in order:
        size = below[v].bit_count()
        best, whole = INF, False
        if size <= k - 1:
            best, whole = (0 if size == k - 1 else 1), True
        if v >= n:
            f, g = children[v]
            split_cost = min_under[f] + min_under[g]
            if split_cost < best:
                best, whole = split_cost, False
        min_under[v] = best
        take_whole[v] = whole

    for v in order:
        top_size = n - below[v].bit_count()
        if not 1 <= top_size <= k - 1:
            continue
        total = (0 if top_size == k - 1 else 1) + min_under[v]
        if total <= 1:
            masks = [full ^ below[v]]
            stack = [v]
            while stack:
                w = stack.pop()
                if take_whole[w]:
                    masks.append(below[w])
                else:
                    stack.extend(children[w])
            return witness(masks)
    return None


def is_fully_loaded(tree: Tree, k: int) -> bool:
    return fully_loaded_decomposition(tree, k) is not None


def linearize(tree: Tree, tp: Tripartition) -> Tree:
    """Replace the part_c subtree by a caterpillar threaded between the
    part_a and part_b subtrees.

    The c-taxa hang singly, in sorted label order starting on the a-side,
    off consecutive subdivision vertices of the a--b path.  Requires all
    three parts to have at least two taxa.
    """
    na, nb, _ = _match_tripartition(tree, tp)
    if min(len(tp.part_a), len(tp.part_b), len(tp.part_c)) < 2:
        raise ValueError("linearization needs all three parts of size >= 2")
    inner = tree._text_away(nb, tp.center)
    for c in sorted(tp.part_c, reverse=True):
        inner = f"({c},{inner})"
    return parse_newick(f"({tree._text_away(na, tp.center)},{inner});")


def _match_tripartition(tree: Tree, tp: Tripartition) -> tuple[int, int, int]:
    """Map tp's parts to the neighbor subtrees at tp.center; raises if the
    tripartition does not belong to the tree."""
    v = tp.center
    if not (tree.n <= v < tree.num_vertices()):
        raise ValueError("tripartition center is not an internal vertex")
    taxa = tree.taxa
    edges = [taxa.issuperset(p) and _edge_with_side(tree, tree._mask_of(p)) for p in tp.parts]
    if not all(edge and edge[0] == v for edge in edges):
        raise ValueError("tripartition does not match the tree")
    return edges[0][1], edges[1][1], edges[2][1]


def replace_pendant_fully_loaded(tree: Tree, split: Split, k: int) -> Tree:
    """Swap the side_b pendant subtree for the single-edge-scaffold fully
    loaded tree on the same taxa, attached by subdividing the scaffold edge.

    Requires k <= |side_b| <= 2(k-1); never increases the convex character
    count at level k.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    b = sorted(split.side_b)
    if not k <= len(b) <= 2 * (k - 1):
        raise ValueError("side_b size must lie in [k, 2(k-1)]")
    a_text = tree._text_away(*_edge_of_split(tree, split))
    return parse_newick(f"({a_text},{_rooted_chain(b[:k - 1])},{_rooted_chain(b[k - 1:])});")


def _edge_of_split(tree: Tree, split: Split) -> tuple[int, int]:
    """(a-side endpoint, b-side endpoint) of the edge inducing ``split``."""
    side_a, side_b = frozenset(split.side_a), frozenset(split.side_b)
    if side_a | side_b != tree.taxa or side_a & side_b:
        raise ValueError("split sides do not partition the tree's taxa")
    edge = _edge_with_side(tree, tree._mask_of(side_b))
    if edge is None:
        raise ValueError("tree does not contain the split")
    return edge


def _edge_with_side(tree: Tree, side: int) -> tuple[int, int] | None:
    """(u, w) for the edge u--w whose side holding w holds exactly the taxa
    of the mask ``side``, or None if no edge has that side."""
    parent, below = tree._parent, tree._below()
    rest = ((1 << tree.n) - 1) ^ side
    for v in range(1, len(parent)):
        if below[v] == side:
            return parent[v], v
        if below[v] == rest:
            return v, parent[v]
    return None

"""Tree families and structural transformations.

Generators build Newick text and feed it through the parser, so every
produced tree goes through the same validation as user input.  The random
model is sequential uniform edge attachment, which yields the uniform
distribution over labelled binary topologies.
"""

from __future__ import annotations

import random
import re
import string
from dataclasses import dataclass
from typing import Iterator, Sequence

from .trees import Split, Tree, Tripartition, _assemble, parse_newick


def default_labels(n: int) -> list[str]:
    """a..z for n <= 26, zero-padded t-numbers beyond."""
    if n < 1:
        raise ValueError("n must be positive")
    if n <= 26:
        return list(string.ascii_lowercase[:n])
    width = len(str(n))
    return [f"t{str(i).zfill(width)}" for i in range(1, n + 1)]


def _unique_labels(n: int, labels: Sequence[str] | None) -> list[str]:
    labs = list(labels) if labels is not None else default_labels(n)
    if len(labs) != n:
        raise ValueError(f"need {n} labels, got {len(labs)}")
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
    def default(cls, labels: Sequence[str], k: int) -> "FullyLoadedSpec":
        """Caterpillar scaffold over chunk minima, taxa chunked in label
        order, residue at the end of the spine."""
        labs = sorted(labels)
        n = len(labs)
        if k < 2 or n < 1:
            raise ValueError("need k >= 2 and n >= 1")
        chunks = [labs[i:i + k - 1] for i in range(0, n, k - 1)]
        reps = [c[0] for c in chunks]
        r = n % (k - 1)
        return cls(
            n=n,
            k=k,
            scaffold=caterpillar(len(reps), reps),
            residue_leaf=reps[-1] if r else None,
            residue_size=r,
            parts=tuple((rep, tuple(chunk)) for rep, chunk in zip(reps, chunks)),
        )

    @classmethod
    def randomized(cls, labels: Sequence[str], k: int, rng: random.Random) -> "FullyLoadedSpec":
        """Random scaffold topology, random chunk assignment and random
        pendant spine orders; used to exercise shape independence."""
        labs = list(labels)
        n = len(labs)
        rng.shuffle(labs)
        r = n % (k - 1)
        chunks = []
        if r:
            chunks.append(labs[:r])
            labs = labs[r:]
        chunks.extend(labs[i:i + k - 1] for i in range(0, len(labs), k - 1))
        rng.shuffle(chunks)
        reps = [min(c) for c in chunks]
        residue_leaf = None
        for rep, chunk in zip(reps, chunks):
            if len(chunk) != k - 1:
                residue_leaf = rep
        if len(reps) >= 3:
            scaffold = random_tree(len(reps), seed=rng.randrange(2 ** 32), labels=reps)
        else:
            scaffold = caterpillar(len(reps), sorted(reps))
        return cls(
            n=n,
            k=k,
            scaffold=scaffold,
            residue_leaf=residue_leaf,
            residue_size=r,
            parts=tuple((rep, tuple(chunk)) for rep, chunk in zip(reps, chunks)),
        )


def fully_loaded(
    n: int,
    k: int,
    labels: Sequence[str] | None = None,
    spec: FullyLoadedSpec | None = None,
) -> Tree:
    """A fully k-loaded tree on n >= k taxa.

    Without a spec: caterpillar scaffold, pendant caterpillars, residue at an
    end-of-spine scaffold leaf.  A spec pins scaffold shape, taxon placement
    and pendant spine orders.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if n < k:
        raise ValueError("fully loaded trees need n >= k")
    if spec is None:
        spec = FullyLoadedSpec.default(_unique_labels(n, labels), k)
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
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    n = tree.n

    def build_spec(parts: list[frozenset[str]]) -> FullyLoadedSpec:
        reps = sorted(min(p) for p in parts)
        scaffold = (
            tree.restrict(reps) if len(reps) > 1 else _single_leaf_tree(reps[0])
        )
        residue_leaf = None
        residue_size = 0
        by_rep = {min(p): tuple(sorted(p)) for p in parts}
        for rep, taxa in by_rep.items():
            if len(taxa) != k - 1:
                residue_leaf, residue_size = rep, len(taxa)
        return FullyLoadedSpec(
            n=n,
            k=k,
            scaffold=scaffold,
            residue_leaf=residue_leaf,
            residue_size=residue_size,
            parts=tuple(sorted(by_rep.items())),
        )

    if n <= k - 1:
        # Vacuously fully loaded: single-leaf scaffold.
        return build_spec([tree.taxa])

    rd = tree._rooting()
    below = tree._below()
    V = tree.num_vertices()
    INF = n + 10
    min_under = [INF] * V
    take_whole = [False] * V
    for v in rd.postorder:
        if v == 0:
            continue
        size = below[v].bit_count()
        best, whole = INF, False
        if size <= k - 1:
            best, whole = (0 if size == k - 1 else 1), True
        if v >= n:
            f, g = rd.children[v]
            split_cost = min_under[f] + min_under[g]
            if split_cost < best:
                best, whole = split_cost, False
        min_under[v] = best
        take_whole[v] = whole

    for v in rd.postorder:
        if v == 0:
            continue
        top_size = n - below[v].bit_count()
        if not 1 <= top_size <= k - 1:
            continue
        total = (0 if top_size == k - 1 else 1) + min_under[v]
        if total <= 1:
            parts = [tree._labels_of(((1 << n) - 1) ^ below[v])]
            stack = [v]
            while stack:
                w = stack.pop()
                if take_whole[w]:
                    parts.append(tree._labels_of(below[w]))
                else:
                    stack.extend(rd.children[w])
            return build_spec(parts)
    return None


def _single_leaf_tree(label: str) -> Tree:
    return parse_newick(label + ";")


def is_fully_loaded(tree: Tree, k: int) -> bool:
    return fully_loaded_decomposition(tree, k) is not None


def _away_mask(tree: Tree, v: int, parent: int) -> int:
    rd = tree._rooting()
    below = tree._below()
    if rd.parent[v] == parent:
        return below[v]
    return ((1 << tree.n) - 1) ^ below[parent]


def linearize(tree: Tree, tp: Tripartition) -> Tree:
    """Replace the part_c subtree by a caterpillar threaded between the
    part_a and part_b subtrees.

    The c-taxa hang singly, in sorted label order starting on the a-side,
    off consecutive subdivision vertices of the a--b path.  Requires all
    three parts to have at least two taxa.
    """
    roles = _match_tripartition(tree, tp)
    if min(len(tp.part_a), len(tp.part_b), len(tp.part_c)) < 2:
        raise ValueError("linearization needs all three parts of size >= 2")
    na, nb, _ = roles
    a_text = tree._text_away(na, tp.center)
    b_text = tree._text_away(nb, tp.center)
    inner = b_text
    for c in sorted(tp.part_c, reverse=True):
        inner = f"({c},{inner})"
    return parse_newick(f"({a_text},{inner});")


def _match_tripartition(tree: Tree, tp: Tripartition) -> tuple[int, int, int]:
    """Map tp's parts to the neighbor subtrees at tp.center; raises if the
    tripartition does not belong to the tree."""
    v = tp.center
    if not (tree.n <= v < tree.num_vertices()):
        raise ValueError("tripartition center is not an internal vertex")
    by_taxa: dict[frozenset[str], int] = {}
    for u in tree.neighbors(v):
        by_taxa[tree._labels_of(_away_mask(tree, u, v))] = u
    try:
        return (
            by_taxa[frozenset(tp.part_a)],
            by_taxa[frozenset(tp.part_b)],
            by_taxa[frozenset(tp.part_c)],
        )
    except KeyError:
        raise ValueError("tripartition does not match the tree") from None


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
    ua, ub = _edge_of_split(tree, split)
    a_text = tree._text_away(ua, ub)
    chunk1, chunk2 = b[: k - 1], b[k - 1:]
    return parse_newick(
        f"({a_text},{_rooted_chain(chunk1)},{_rooted_chain(chunk2)});"
    )


def _edge_of_split(tree: Tree, split: Split) -> tuple[int, int]:
    """(a-side endpoint, b-side endpoint) of the edge inducing ``split``."""
    want_b = frozenset(split.side_b)
    if frozenset(split.side_a) | want_b != tree.taxa or frozenset(split.side_a) & want_b:
        raise ValueError("split sides do not partition the tree's taxa")
    rd = tree._rooting()
    below = tree._below()
    mask_b = tree._mask_of(want_b)
    full = (1 << tree.n) - 1
    for v in range(1, tree.num_vertices()):
        if below[v] == mask_b:
            return rd.parent[v], v
        if below[v] == full ^ mask_b:
            return v, rd.parent[v]
    raise ValueError("tree does not contain the split")

"""Containers for the family sum over X: the pool of closed 2-linked
non-expanding sets with their multiplicities, and a small generating pair
for a pool set.

``count_general`` sums container families over the X side.  Its pool is
every closed 2-linked set A of X that does not expand, and each family is
weighted by D(A), the number of 2-linked B with N(B) = N(A) inside A.  One
walk over the 2-linked sets of X gives both: B inside the closed set A has
N(B) = N(A) exactly when [B] = A, so counting each non-expanding visited
set under its closure yields every pool set with its D.
``small_generator`` builds, for a direct call, a pair (A', A''): A' is
small and 2-linked, and N(A') is essential for A (it holds the high-degree
core of N(A) and reaches every vertex of [A]); A'' extends A' with
N(A'') = N(A), which sizes ``general_count.estimate_D``'s Monte-Carlo draws
for D(A).  A sum over Y is the sum over X of the mirrored graph.
"""

from __future__ import annotations

from itertools import combinations
from types import MappingProxyType
from typing import Mapping, Sequence

from .errors import InvalidInputError
from .graphs import (
    X_SIDE,
    BipartiteGraph,
    ExpansionParams,
    SideSet,
    bits_of,
    closure_bits,
    is_two_linked,
    iter_bits,
    neighborhood_bits,
    opposite,
    two_linked_component_bits,
    two_linked_sets,
)


def greedy_cover(covers: Sequence[int], target: int) -> int:
    """Greedy set cover: pick covering indices until ``target`` is covered.

    ``covers[q]`` is the bitmask of target elements that candidate ``q``
    covers.  Returns the bitmask of chosen candidate indices.  Each round
    picks the candidate covering the most uncovered elements, lowest index
    winning ties, so the output is deterministic and satisfies the standard
    (|Q| / a) * (1 + ln b) size bound when every target element has at least
    a candidates covering it and no candidate covers more than b elements.
    """
    if target == 0:
        return 0
    reachable = 0
    for mask in covers:
        reachable |= mask
    if target & ~reachable:
        raise InvalidInputError("cover target has elements no candidate covers")
    chosen = 0
    remaining = target
    while remaining:
        best = -1
        best_gain = 0
        for q, mask in enumerate(covers):
            gain = (mask & remaining).bit_count()
            if gain > best_gain:
                best_gain = gain
                best = q
        chosen |= 1 << best
        remaining &= ~covers[best]
    return chosen


def _prune_cover(covers: Sequence[int], target: int, chosen: int) -> int:
    # Drop members (highest index first) whose removal keeps target covered.
    for q in sorted(iter_bits(chosen), reverse=True):
        trial = chosen & ~(1 << q)
        covered = 0
        for r in iter_bits(trial):
            covered |= covers[r]
        if target & ~covered == 0:
            chosen = trial
    return chosen


def _min_cover(covers: Sequence[int], target: int, universe: int) -> int:
    """Smallest cover of ``target`` using candidates from ``universe``.

    Exact by ascending-size search when the candidate pool is small; falls
    back to pruned greedy beyond that.
    """
    if target == 0:
        return 0
    pool = list(iter_bits(universe))
    if len(pool) <= 16:
        for k in range(1, len(pool) + 1):
            for combo in combinations(pool, k):
                covered = 0
                for q in combo:
                    covered |= covers[q]
                if target & ~covered == 0:
                    return bits_of(combo)
        raise InvalidInputError("cover target has elements no candidate covers")
    restricted = [covers[q] if universe >> q & 1 else 0 for q in range(len(covers))]
    return _prune_cover(restricted, target, greedy_cover(restricted, target))


def threshold_degree_set(G: BipartiteGraph, A: SideSet, s: int) -> SideSet:
    """W_s: neighborhood vertices with at least s neighbors inside [A]."""
    side = A.side
    closed = closure_bits(G, side, A.bits)
    w_bits = neighborhood_bits(G, side, A.bits)
    rows = G.rows(opposite(side))
    out = 0
    for u in iter_bits(w_bits):
        if (rows[u] & closed).bit_count() >= s:
            out |= 1 << u
    return SideSet(opposite(side), out)


def small_generator(G: BipartiteGraph, A: SideSet) -> tuple[SideSet, SideSet]:
    """Build the generating pair (A', A'') for a 2-linked set A.

    A' is small, 2-linked, lives inside [A], and N(A') is an essential
    subset for A; A'' extends A' inside [A] with N(A'') = N(A).  Both lie
    inside A itself whenever A is closed.  Construction:
    a maximal disjoint-neighborhood core A0 inside [A], a greedy cover A1 of
    the high-degree neighborhood vertices, shortest-path linking A2, and a
    minimal cover A3 (drawn from A itself) of the low-degree remainder.
    The pair depends on G and A alone and is kept in the graph's memo,
    built once per graph object.
    """
    return G.memo(("small_generator", A), lambda: _small_generator(G, A))


def _small_generator(G: BipartiteGraph, A: SideSet) -> tuple[SideSet, SideSet]:
    if not A.bits:
        raise InvalidInputError("small_generator needs a nonempty set")
    side = A.side
    if not is_two_linked(G, A):
        raise InvalidInputError("small_generator needs a 2-linked set")
    rows = G.rows(side)
    closed = closure_bits(G, side, A.bits)
    w_bits = neighborhood_bits(G, side, A.bits)
    core = threshold_degree_set(G, A, (G.d + 1) // 2).bits

    # A0: maximal pairwise-disjoint-neighborhood subset of [A], anchored at
    # the minimum vertex of A.  Maximality over the closure forces N^2(A0)
    # to reach all of [A].
    anchor = (A.bits & -A.bits).bit_length() - 1
    a0 = 1 << anchor
    used = rows[anchor]
    for u in iter_bits(closed & ~a0):
        if rows[u] & used == 0:
            a0 |= 1 << u
            used |= rows[u]

    # A1: cover whatever part of the high-degree core A0 misses, using
    # closure vertices.
    need = core & ~neighborhood_bits(G, side, a0)
    covers = [rows[q] & need if closed >> q & 1 else 0 for q in range(G.side_size(side))]
    a1 = _prune_cover(covers, need, greedy_cover(covers, need)) if need else 0

    # A2: link the components of A0 | A1 by shortest paths in the square
    # graph restricted to the closure.
    linked = a0 | a1
    a2 = 0
    square = G.square_rows(side)
    while True:
        comps = two_linked_component_bits(G, side, linked | a2)
        if len(comps) <= 1:
            break
        start = comps[0]
        others = 0
        for c in comps[1:]:
            others |= c
        # BFS over closure vertices from the first component.
        parent: dict[int, int] = {u: -1 for u in iter_bits(start)}
        frontier = start
        seen = start
        hit = -1
        while frontier and hit < 0:
            nxt = 0
            for u in iter_bits(frontier):
                for v in iter_bits(square[u] & closed & ~seen):
                    parent[v] = u
                    nxt |= 1 << v
                    if others >> v & 1:
                        hit = v
                        break
                if hit >= 0:
                    break
            seen |= nxt
            frontier = nxt
        if hit < 0:
            raise InvalidInputError("closure of a 2-linked set failed to link")
        v = parent[hit]
        while v >= 0 and not (linked | a2) >> v & 1:
            a2 |= 1 << v
            v = parent[v]

    a_prime = a0 | a1 | a2

    # A3: minimal cover of the low-degree neighborhood remainder, drawn from
    # A itself so that N(A'') never exceeds N(A).
    rest = w_bits & ~neighborhood_bits(G, side, a_prime)
    covers_a = [rows[q] & rest if A.bits >> q & 1 else 0 for q in range(G.side_size(side))]
    a3 = _min_cover(covers_a, rest, A.bits)
    a_dd = a_prime | a3
    return SideSet(side, a_prime), SideSet(side, a_dd)


def pool_multiplicities(
    G: BipartiteGraph, params: ExpansionParams = ExpansionParams()
) -> Mapping[SideSet, int]:
    """Every closed 2-linked non-expanding set A of X, in ascending order of
    its mask, with its multiplicity D(A): the number of 2-linked B with
    [B] = A, which for B inside the closed set A is N(B) = N(A).

    One walk over the X side's 2-linked sets counts them: each visited S
    that does not expand is a hit for [S], which is closed, 2-linked and,
    as N(S) = N([S]), non-expanding too.  So the keys are exactly the pool
    and the values its D's.  Whether (|N(S)|, |[S]|) expands is read from a
    table built once per walk, and only for an S whose closure has no hit
    yet: both sizes depend on [S] alone, so a closure already counted does
    not expand.  The walk runs once per (graph object, params): the counts
    are kept in the graph's memo and handed out as a read-only view."""

    def build() -> Mapping[SideSet, int]:
        width = G.n_x + 1
        expands = [
            params.expands(G.d, nbhd, closed)
            for nbhd in range(G.n_y + 1)
            for closed in range(width)
        ]
        hits: dict[int, int] = {}
        for _, nbhd, closed in two_linked_sets(G, X_SIDE, G.n_x):
            k = hits.get(closed)
            if k is not None:
                hits[closed] = k + 1
            elif not expands[nbhd.bit_count() * width + closed.bit_count()]:
                hits[closed] = 1
        return MappingProxyType({SideSet(X_SIDE, bits): hits[bits] for bits in sorted(hits)})

    return G.memo(("nonexpanding_closed", params), build)


def distinct_nonexpanding_closed(
    G: BipartiteGraph, params: ExpansionParams = ExpansionParams()
) -> list[SideSet]:
    """Every closed 2-linked non-expanding set of X, the pool behind family
    assembly, in ascending order of its mask: the keys of
    ``pool_multiplicities``, as a fresh list."""
    return list(pool_multiplicities(G, params))

"""Container generation for 2-linked vertex sets in regular bipartite graphs.

Two generation routes are provided.  For expanding sets, a small "essential
subset" of the neighborhood reconstructs the neighborhood exactly; for
non-expanding sets, the closure is recovered from an essential subset plus a
bounded number of extra neighborhood vertices.  Both routes are enumerable,
which is what makes the container families small enough to sum over.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Sequence

from .errors import CapacityError, InvalidInputError
from .graphs import (
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


def is_essential_subset(G: BipartiteGraph, F: SideSet, A: SideSet) -> bool:
    """F is essential for A when it holds the high-degree core of N(A) and
    its own neighborhood reaches every vertex of [A]."""
    if F.side != opposite(A.side):
        raise InvalidInputError("essential subset lives on the side opposite A")
    w_bits = neighborhood_bits(G, A.side, A.bits)
    if F.bits & ~w_bits:
        return False
    core = threshold_degree_set(G, A, (G.d + 1) // 2).bits
    if core & ~F.bits:
        return False
    closed = closure_bits(G, A.side, A.bits)
    return closed & ~neighborhood_bits(G, F.side, F.bits) == 0


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


def essential_size_cap(d: int, w: int) -> int:
    """Size budget for essential subsets of a weight-w neighborhood.

    (w/d) * 4 ln d for d >= 8; below that the union-of-covers argument needs
    the additive slack kept explicit, giving (w/d) * (4 + 2 ln d).
    """
    if d < 2:
        return w
    per = max(4.0 * math.log(d), 4.0 + 2.0 * math.log(d))
    return math.ceil((w / d) * per)


def enumerate_essential_candidates(
    G: BipartiteGraph,
    v: int,
    w: int,
    side: str = "X",
) -> list[SideSet]:
    """All candidate essential subsets for 2-linked sets anchored at v with
    neighborhood weight w.

    Candidates are neighborhoods N(B) of 2-linked sets B containing v of size
    at most the essential cap, returned deduplicated on the side opposite
    ``side``.
    """
    n = G.side_size(side)
    if not 0 <= v < n:
        raise InvalidInputError(f"anchor vertex {v} out of range")
    cap = essential_size_cap(G.d, w)
    seen = {nbhd for _, nbhd, _ in two_linked_sets(G, side, cap, root=v)}
    other = opposite(side)
    return [SideSet(other, bits) for bits in sorted(seen)]


def enumerate_expanding(
    G: BipartiteGraph,
    v: int,
    a: int,
    w: int,
    params: ExpansionParams | None = None,
    side: str = "X",
) -> list[SideSet]:
    """G(v, a, w): expanding 2-linked sets containing v with closure size a
    and neighborhood size w.  Enumerated directly; used as ground truth for
    the container counting bounds."""
    params = params or ExpansionParams()
    if not params.expands(G.d, w, a):
        return []
    # |N| and |[S]| only grow with S: prune past w, and past a altogether
    top = [w if size <= a else -1 for size in range(G.side_size(side) + 1)]
    out = [
        SideSet(side, bits)
        for bits, nbhd, closed in two_linked_sets(G, side, a, root=v, top=top)
        if closed.bit_count() == a and nbhd.bit_count() == w
    ]
    return sorted(out, key=lambda s: s.bits)


CANDIDATE_BUDGET = 1 << 22  # (F, extras) candidates the reconstruction route may try


def enumerate_nonexpanding_closed(
    G: BipartiteGraph,
    v: int,
    a: int,
    params: ExpansionParams | None = None,
    side: str = "X",
) -> list[SideSet]:
    """G'(v, a): closed 2-linked non-expanding sets containing v of size a.

    Reconstruction route: the neighborhood weight w of such a set lies in
    [a, w_hi], w_hi the largest size up to the other side that the
    expansion rule rejects beside a; an essential subset F of the
    neighborhood determines the set up to at most 2(w - a) extra
    neighborhood vertices drawn from N^2(F); the set itself is then the
    collection of side vertices whose neighborhoods fall inside the
    reconstructed W.  Every survivor of the final checks is genuine.
    Completeness rests on the asymptotic essential-subset argument and the
    caps on F and the extras, so it is checked, not proven: the tests hold
    the output to ``distinct_nonexpanding_closed`` on small graphs and Q5.
    """
    params = params or ExpansionParams()
    n = G.side_size(side)
    if not 0 <= v < n:
        raise InvalidInputError(f"anchor vertex {v} out of range")
    if a <= 0 or a > n:
        return []
    d = G.d
    q = (math.log2(d) ** 2 / d) if d >= 2 else 0.0
    w_lo = a
    # |N| >= a in a regular bipartite graph; the rule rejects |N| < a / (1 - c1 q / 2)
    n_other = G.side_size(opposite(side))
    w_hi = max((w for w in range(a, n_other + 1) if not params.expands(d, w, a)), default=a)
    rows_side = G.rows(side)
    found: set[int] = set()
    budget = CANDIDATE_BUDGET

    candidates = enumerate_essential_candidates(G, v, w_hi, side)
    for f_set in candidates:
        f_bits = f_set.bits
        f_size = f_bits.bit_count()
        if f_size > w_hi:
            continue
        # Extra vertices live in N^2(F) minus F; their count is bounded both
        # by the window and by the high-degree-core constraint on F.
        n2f = neighborhood_bits(G, side, neighborhood_bits(G, opposite(side), f_bits))
        pool = list(iter_bits(n2f & ~f_bits))
        if params.c1 * q < 1.0:
            k_cap = math.floor(params.c1 * q * f_size / (1.0 - params.c1 * q))
        else:
            k_cap = n
        k_cap = min(k_cap, w_hi - f_size, len(pool))
        if d >= 2:
            k_cap = min(k_cap, max(0, 2 * (w_hi - a)), math.floor(params.c1 * q * w_hi))
        for k in range(0, k_cap + 1):
            for extra in combinations(pool, k):
                budget -= 1
                if budget < 0:
                    raise CapacityError(
                        "candidate budget exhausted in non-expanding enumeration "
                        f"({CANDIDATE_BUDGET} tried, {len(found)} sets found)"
                    )
                w_bits = f_bits | bits_of(extra)
                w_size = w_bits.bit_count()
                if not w_lo <= w_size <= w_hi:
                    continue
                u_bits = 0
                for u in range(n):
                    if rows_side[u] & ~w_bits == 0:
                        u_bits |= 1 << u
                if u_bits.bit_count() != a or not u_bits >> v & 1:
                    continue
                if neighborhood_bits(G, side, u_bits) != w_bits:
                    continue
                candidate = SideSet(side, u_bits)
                if not is_two_linked(G, candidate):
                    continue
                # u_bits is closed with N(u_bits) = W, so the sizes decide
                if params.expands(d, w_size, a):
                    continue
                found.add(u_bits)
    return [SideSet(side, bits) for bits in sorted(found)]


def distinct_nonexpanding_closed(
    G: BipartiteGraph, params: ExpansionParams | None = None, side: str = "X"
) -> list[SideSet]:
    """Every closed 2-linked non-expanding set on a side: the sets of the
    side's 2-linked walk with [S] = S that do not expand.  Ground truth for
    the anchored enumeration and the pool behind family assembly.  The walk
    runs once per (graph object, params, side): the pool is kept in the
    graph's memo and every call gets its own copy of the list."""
    params = params or ExpansionParams()

    def build() -> tuple[SideSet, ...]:
        out = [
            SideSet(side, bits)
            for bits, nbhd, closed in two_linked_sets(G, side, G.side_size(side))
            if closed == bits
            and not params.expands(G.d, nbhd.bit_count(), closed.bit_count())
        ]
        return tuple(sorted(out, key=lambda s: s.bits))

    return list(G.memo(("nonexpanding_closed", params, side), build))

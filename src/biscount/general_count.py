"""Counting without an expansion promise: container families plus local
cluster expansions.

Every independent set splits its X-side into 2-linked components; the
non-expanding components are remembered through their closures (a family of
pairwise far-apart container sets), the expanding ones through a polymer
partition function on the part of X the family does not dominate, its
region.  Summing over families with exact multiplicities D(A) recovers i(G)
exactly; the approximate route replaces the local partition functions by
truncated cluster expansions.  A family's local factor depends on its region
alone, so both sums run over regions, each weighted by the exact total of
its families' other factors (``_region_weights``), and no family list is
kept.  Both read every D(A) from the pool walk of
``containers.pool_multiplicities``.  The subset scan ``exhaustive_D`` and
the Monte-Carlo estimator ``estimate_D`` compute the same D(A) by other
routes, for direct calls and for the tests that hold the walk to them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .cluster_expansion import (
    KP_ASSUMED,
    KP_FAILED,
    KP_VERIFIED,
    choose_ell,
    exact_xi,
    kp_unweighted,
    truncated_log_xi,
    verify_kp,
)
from .containers import distinct_nonexpanding_closed, pool_multiplicities, small_generator
from .errors import CapacityError, InvalidInputError
from .expander import (
    METHOD_GENERAL,
    ApproxCount,
    SideTerm,
    _check_epsilon,
    _exact_result,
    _logaddexp,
)
from .graphs import (
    X_SIDE,
    Y_SIDE,
    BipartiteGraph,
    ExpansionParams,
    SideSet,
    closure_bits,
    is_expanding,
    is_two_linked,
    linked_in,
    neighborhood_bits,
)
from .polymers import (
    Polymer,
    PolymerFamily,
    WeightModel,
    compatible_configs,
    enumerate_polymers,
    incompatibility_masks,
)


FAMILY_BUDGET = 1 << 20  # families one listing may visit


def _families_over(
    G: BipartiteGraph, pool: list[SideSet]
) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """Each family over ``pool`` as (its pool indices, N(union),
    N(N(union))): the compatible collections of the pool sets taken as X
    polymers, in ``compatible_configs``' order under ``FAMILY_BUDGET``."""
    nbhds = [neighborhood_bits(G, X_SIDE, s.bits) for s in pool]
    seconds = [neighborhood_bits(G, Y_SIDE, nb) for nb in nbhds]
    clash = incompatibility_masks([Polymer(X_SIDE, s.bits, nb) for s, nb in zip(pool, nbhds)])
    budget = FAMILY_BUDGET
    over = f"family stream exceeds {budget} members"
    return compatible_configs(clash, nbhds, seconds, budget, over)


def _region_weights(G: BipartiteGraph, p: ExpansionParams) -> dict[int, tuple[int, int]]:
    """The family sum folded by region: for each region R (X minus the
    second neighbourhood of a family's union), the exact integer
    W(R) = sum over the families F leaving R of
    prod D(A) * 2^(n_y - |N(union F)|), with the number of those families.
    A family's local partition function depends on its region alone, so
    both sums read this fold instead of the families.  Regions come in the
    order their first family is listed, the empty family's (all of X)
    first.  The fold depends on the graph and params alone, so it is built
    once per graph object and kept in its memo; no family is held."""

    def build() -> dict[int, tuple[int, int]]:
        full = G.full_mask(X_SIDE)
        pool = distinct_nonexpanding_closed(G, p)
        multiplicity = list(pool_multiplicities(G, p).values())
        folded: dict[int, tuple[int, int]] = {}
        for members, used, blocked in _families_over(G, pool):
            weight = 1 << (G.n_y - used.bit_count())
            for i in members:
                weight *= multiplicity[i]
            region = full & ~blocked
            total, count = folded.get(region, (0, 0))
            folded[region] = (total + weight, count + 1)
        return folded

    return G.memo(("region_weights", p), build)


# -- the container-set multiplicity D ------------------------------------------


EXHAUSTIVE_D_CAP = 24  # largest |A| whose 2^|A| subsets exhaustive_D scans
D_DRAW_CHUNK = 1 << 20  # estimate_D's draws held at once (8 MiB of uint64)
D_DRAW_BUDGET = 1 << 30  # most draws one estimate_D call may make


def _d_hit_test(G: BipartiteGraph, A: SideSet):
    """``is_hit(local)``: whether the B subseteq A that ``local`` names, as in
    ``_count_d_hits``, is 2-linked with N(B) = N(A), from B's rows alone."""
    verts = A.vertices()
    rows = G.rows(A.side)
    square = G.square_rows(A.side)
    target = neighborhood_bits(G, A.side, A.bits)

    def is_hit(local: int) -> bool:
        bits = nbhd = 0
        while local:
            low = local & -local
            local ^= low
            v = verts[low.bit_length() - 1]
            bits |= 1 << v
            nbhd |= rows[v]
        return nbhd == target and linked_in(square, bits)

    return is_hit


def _count_d_hits(G: BipartiteGraph, A: SideSet, table=None) -> int:
    """The number of B subseteq A counted by D(A), 2-linked with
    N(B) = N(A); with ``table``, table[local] = 1 for each of them, where
    bit j of ``local`` stands for the j-th vertex of A in ascending order.

    A depth-first walk that decides the vertices of A in order and carries
    N(B) as the OR of their rows; a branch whose N(B) together with the rows
    still undecided misses part of N(A) is never entered, so 2-linkedness is
    tested only on the covering sets, by one square-graph search from B's
    lowest vertex.  B = {} is never 2-linked."""
    verts = A.vertices()
    rows = G.rows(A.side)
    square = G.square_rows(A.side)
    suffix = [0] * (len(verts) + 1)  # suffix[j]: N of the vertices from j on
    for j in range(len(verts) - 1, -1, -1):
        suffix[j] = suffix[j + 1] | rows[verts[j]]
    target = suffix[0]

    # a stacked state can still cover N(A) with its undecided rows; taking
    # the next vertex keeps that, so the descent always takes it and stacks
    # the skip only when the skip can still cover
    count = 0
    stack = [(0, 0, 0, 0)]
    while stack:
        j, local, bits, nbhd = stack.pop()
        while j < len(verts):
            v = verts[j]
            if nbhd | suffix[j + 1] == target:
                stack.append((j + 1, local, bits, nbhd))
            local |= 1 << j
            bits |= 1 << v
            nbhd |= rows[v]
            j += 1
        if linked_in(square, bits):
            count += 1
            if table is not None:
                table[local] = 1
    return count


def exhaustive_D(G: BipartiteGraph, A: SideSet) -> int:
    """|{B subseteq A : B 2-linked, N(B) = N(A)}| by a walk over the subsets
    of A that covers only those whose neighbourhood can still reach N(A).
    The count depends on G and A alone, so it is kept in the graph's memo
    and taken once per graph object."""
    if A.size > EXHAUSTIVE_D_CAP:
        raise CapacityError(f"exhaustive D capped at |A| <= {EXHAUSTIVE_D_CAP}")
    return G.memo(("exhaustive_D", A), lambda: _count_d_hits(G, A))


def _check_container_set(G: BipartiteGraph, A: SideSet, params: ExpansionParams) -> None:
    if not A.bits:
        raise InvalidInputError("container set must be nonempty")
    if closure_bits(G, A.side, A.bits) != A.bits:
        raise InvalidInputError("container set must be closed")
    if not is_two_linked(G, A):
        raise InvalidInputError("container set must be 2-linked")
    if is_expanding(G, A, params):
        raise InvalidInputError("container set must be non-expanding")


@dataclass(frozen=True)
class DEstimate:
    """Monte-Carlo estimate of D(A) with its sampling configuration.

    Sampling B uniformly from the subsets of A hits the target event with
    probability at least 2^{-|A''|} (every superset of the generator's A''
    qualifies), which sizes the sample count."""

    value: float
    epsilon: float
    delta: float
    samples_used: int
    hits: int
    p_lower: Fraction


def _d_draws(epsilon: float, delta: float, a2_size: int) -> int:
    """The Monte-Carlo sample count m = ceil(3 eps^-2 ln(2/delta) 2^{|A''|})
    for D(A) at epsilon <= 1, from |A''| of ``small_generator``."""
    return math.ceil(3.0 * epsilon**-2 * math.log(2.0 / delta) * 2**a2_size)


def _check_draws(A: SideSet, m: int) -> None:
    if m > D_DRAW_BUDGET:
        raise CapacityError(f"D(A) for |A| = {A.size} needs {m} draws, over {D_DRAW_BUDGET}")


def estimate_D(
    G: BipartiteGraph,
    A: SideSet,
    epsilon: float,
    delta: float,
    seed: int,
    params: ExpansionParams = ExpansionParams(),
) -> DEstimate:
    """Relative-error Monte-Carlo estimate of the multiplicity D(A).  A
    sample count m over ``D_DRAW_BUDGET`` raises CapacityError before the
    first draw.  The budget bounds draws, not time: for |A| <= 18 the draws
    index, in numpy chunks, a hit table filled by the walk ``exhaustive_D``
    counts with, but past 18 each draw is a Python OR of the drawn rows and
    one square-graph search (about 25 us on the whole side of K_{64,64}), so
    a call within the budget can still run for hours.  numpy is imported
    only where a D is sampled: here, and for ``count_general``'s child seeds."""
    _check_container_set(G, A, params)
    if epsilon <= 0:
        raise InvalidInputError("epsilon must be positive")
    if not 0 < delta < 1:
        raise InvalidInputError("delta must lie in (0, 1)")
    eps_eff = min(epsilon, 1.0)
    a2_size = small_generator(G, A)[1].size
    m = _d_draws(eps_eff, delta, a2_size)
    _check_draws(A, m)

    import numpy as np

    na = A.size
    rng = np.random.default_rng(seed)
    if na <= 18:
        table = np.zeros(1 << na, dtype=np.uint8)
        _count_d_hits(G, A, table)
        # chunked draws continue one stream, so the hits match a single draw
        hits = 0
        for start in range(0, m, D_DRAW_CHUNK):
            draws = rng.integers(0, 1 << na, size=min(D_DRAW_CHUNK, m - start), dtype=np.uint64)
            hits += int(table[draws].sum())
    else:
        is_hit = _d_hit_test(G, A)
        # na uniform bits per draw from whole bytes, at any width
        width = (na + 7) // 8
        mask = (1 << na) - 1
        hits = 0
        for _ in range(m):
            hits += is_hit(int.from_bytes(rng.bytes(width), "little") & mask)

    value = hits / m * 2.0**na
    return DEstimate(value, eps_eff, delta, m, hits, Fraction(1, 2**a2_size))


# -- exact assembly --------------------------------------------------------------


def assemble_exact(G: BipartiteGraph, params: ExpansionParams = ExpansionParams()) -> int:
    """i(G) as the exact family sum over X, folded by region: each region's
    weight W(R) from ``_region_weights`` (the families' products of the
    multiplicities D(A) the pool walk counted, times the free factor for
    the untouched part of Y) times the exact polymer partition function on
    R."""
    m = WeightModel.unweighted()
    universe = enumerate_polymers(G, PolymerFamily("expanding", X_SIDE, params), G.n_x)
    total = Fraction(0)
    for region, (weight, _) in _region_weights(G, params).items():
        total += weight * exact_xi(universe, m, universe.within(region))
    if total.denominator != 1:
        raise InvalidInputError("family sum did not reduce to an integer")
    return int(total)


# -- approximate assembly ---------------------------------------------------------


def count_general(
    G: BipartiteGraph,
    epsilon: float,
    delta: float = 0.05,
    seed: int = 0,
    params: ExpansionParams = ExpansionParams(),
) -> ApproxCount:
    """Approximate i(G) by the family sum over X with truncated local
    cluster expansions: the log-sum over regions R of ln W(R) + ln Xi(ell)(R),
    with W(R) from ``_region_weights``.

    Every multiplicity D(A) is exact: the pool walk of
    ``pool_multiplicities`` counts it, so no D is sampled; ``delta`` is only
    checked to lie in (0, 1), and ``seed`` is unused.  The pool with its
    D's, the region weights (by params), the polymer universe, the KP verdict
    and the per-region ln Xi(ell) (by params and ell) depend on the graph
    alone and are kept in its memo (``BipartiteGraph.memo``), so later calls
    on the same graph object take them from there.  One polymer universe, to
    the truncation size, serves the convergence check and every region's
    local expansion.  When d > sqrt(n) the local partition functions are
    dropped (replaced by 1), as the defect structure is negligible in that
    regime, and the convergence condition is reported as assumed."""
    _check_epsilon(epsilon)
    if not 0 < delta < 1:
        raise InvalidInputError("delta must lie in (0, 1)")
    n, d = G.n_x, G.d
    big_l = choose_ell(n, d, epsilon / 2.0)
    drop_xi = d * d > n
    m = WeightModel.unweighted()

    weights = _region_weights(G, params)
    if drop_xi:
        kp_status = KP_ASSUMED  # nothing was checked; the factor is dropped
    else:
        universe = enumerate_polymers(
            G, PolymerFamily("expanding", X_SIDE, params), min(big_l, n)
        )
        # the KP verdict and the per-region ln Xi(ell) depend on the graph,
        # params and ell alone: kept in the graph's memo
        kp_status = G.memo(
            ("general_kp", params, big_l),
            lambda: KP_VERIFIED if verify_kp(universe, m, kp_unweighted(d)).all_pass
            else KP_FAILED,
        )
        # ln Xi(ell) once per region mask; the side's tail bound covers each
        log_xi = G.memo(
            ("general_log_xi", params, big_l),
            lambda: functools.cache(lambda mask: truncated_log_xi(universe, m, big_l, n, d, mask)),
        )

    # every W(R) is at least 1 (each D is), so no region's term vanishes
    log_value = -math.inf
    config_total = families = 0
    for region, (weight, count) in weights.items():
        log_term = math.log(weight)
        if not drop_xi:
            est_xi = log_xi(universe.within(region))
            config_total += count * est_xi.config_count
            log_term += est_xi.log_value
        log_value = _logaddexp(log_value, log_term)
        families += count

    flags = []
    if drop_xi:
        flags.append("xi-dropped (d > sqrt n)")
    if kp_status == KP_FAILED:
        flags.append("kp-failed-at-cap")
    if not flags:
        flags.append("certified")
    breakdown = (SideTerm(X_SIDE, 0.0, big_l, kp_status, config_total),)
    notes = {
        "families": families,
        "nonempty_families": families - 1,
        "distinct_sets": len(pool_multiplicities(G, params)),
        "ell": big_l,
    }
    return ApproxCount(
        log_value=log_value,
        rel_error_bound=epsilon,
        method=METHOD_GENERAL,
        side_breakdown=breakdown,
        flags=tuple(flags),
        notes=notes,
    )


def count_general_exact(
    G: BipartiteGraph, params: ExpansionParams = ExpansionParams()
) -> ApproxCount:
    """The exact family assembly wrapped in the common result type."""
    return _exact_result(assemble_exact(G, params), METHOD_GENERAL)

"""Counting without an expansion promise: container families plus local
cluster expansions.

Every independent set splits its X-side into 2-linked components; the
non-expanding components are remembered through their closures (a family of
pairwise far-apart container sets), the expanding ones through a polymer
partition function on the part of X the family does not dominate.  Summing
over families with exact multiplicities D(A) recovers i(G) exactly; the
approximate route replaces the local partition functions by truncated
cluster expansions and takes each D(A) exactly when the full subset scan of
A costs no more than the Monte-Carlo sample budget, by sampling otherwise.
"""

from __future__ import annotations

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
from .containers import distinct_nonexpanding_closed, small_generator
from .errors import CapacityError, InvalidInputError
from .expander import (
    LN2,
    METHOD_GENERAL,
    ApproxCount,
    SideTerm,
    _check_epsilon,
    _log_int,
    _logaddexp,
)
from .graphs import (
    BipartiteGraph,
    ExpansionParams,
    SideSet,
    closure_bits,
    is_expanding,
    is_two_linked,
    neighborhood_bits,
    opposite,
)
from .polymers import PolymerFamily, WeightModel, enumerate_polymers, restrict_universe


@dataclass(frozen=True)
class NonExpandingFamily:
    """A set of closed, 2-linked, non-expanding container sets with pairwise
    disjoint neighborhoods (hence also pairwise disjoint and far apart)."""

    sets: tuple[SideSet, ...]

    @property
    def union_bits(self) -> int:
        out = 0
        for s in self.sets:
            out |= s.bits
        return out

    @property
    def anchors(self) -> tuple[int, ...]:
        return tuple((s.bits & -s.bits).bit_length() - 1 for s in self.sets)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(s.size for s in self.sets)

    def validate(self, G: BipartiteGraph, params: ExpansionParams) -> None:
        seen_nbhd = 0
        for s in self.sets:
            _check_container_set(G, s, params)
            nb = neighborhood_bits(G, s.side, s.bits)
            if nb & seen_nbhd:
                raise InvalidInputError("family neighborhoods overlap")
            seen_nbhd |= nb
        # d-regularity gives |N(A_i)| >= d, so disjointness caps the length
        if self.sets and len(self.sets) * G.d > G.side_size(self.sets[0].side):
            raise InvalidInputError("family too large for disjoint neighborhoods")


def enumerate_families(
    G: BipartiteGraph,
    params: ExpansionParams | None = None,
    side: str = "X",
    max_families: int = 1 << 20,
) -> Iterator[NonExpandingFamily]:
    """All families over the distinct non-expanding closed sets of a side,
    the empty family first, then in ascending pool order."""
    pool = distinct_nonexpanding_closed(G, params or ExpansionParams(), side)
    yield from _families_over(G, side, pool, max_families)


def _families_over(
    G: BipartiteGraph, side: str, pool: list[SideSet], max_families: int
) -> Iterator[NonExpandingFamily]:
    nbhds = [neighborhood_bits(G, side, s.bits) for s in pool]
    produced = 0

    def emit(fam: tuple[SideSet, ...]) -> NonExpandingFamily:
        nonlocal produced
        produced += 1
        if produced > max_families:
            raise CapacityError(f"family stream exceeds {max_families} members")
        return NonExpandingFamily(fam)

    # depth-first in pool order; each branch extends by a later set whose
    # neighborhood avoids everything already used
    def rec(
        fam: tuple[SideSet, ...], start: int, used: int
    ) -> Iterator[NonExpandingFamily]:
        for i in range(start, len(pool)):
            if nbhds[i] & used:
                continue
            new_fam = fam + (pool[i],)
            yield emit(new_fam)
            yield from rec(new_fam, i + 1, used | nbhds[i])

    yield emit(())
    yield from rec((), 0, 0)


def family_region(G: BipartiteGraph, side: str, union_bits: int) -> int:
    """The polymer ground set left to a family: the side minus the second
    neighborhood of the family union."""
    full = G.full_mask(side)
    if not union_bits:
        return full
    nb = neighborhood_bits(G, side, union_bits)
    return full & ~neighborhood_bits(G, opposite(side), nb)


# -- the container-set multiplicity D ------------------------------------------


EXHAUSTIVE_D_CAP = 24  # largest |A| whose 2^|A| subsets exhaustive_D scans
D_DRAW_CHUNK = 1 << 20  # estimate_D's draws held at once (8 MiB of uint64)
D_DRAW_BUDGET = 1 << 30  # most draws one estimate_D call may make


def _count_d_hits(G: BipartiteGraph, A: SideSet, table=None) -> int:
    """The number of B subseteq A counted by D(A), 2-linked with
    N(B) = N(A); with ``table``, table[local] = 1 for each of them, where
    bit j of ``local`` stands for the j-th vertex of A in ascending order.

    A depth-first walk that decides the vertices of A in order and carries
    N(B) as the OR of their rows; a branch whose N(B) together with the rows
    still undecided misses part of N(A) is cut, so 2-linkedness is tested
    only on the covering sets."""
    verts = A.vertices()
    rows = G.rows(A.side)
    suffix = [0] * (len(verts) + 1)  # suffix[j]: N of the vertices from j on
    for j in range(len(verts) - 1, -1, -1):
        suffix[j] = suffix[j + 1] | rows[verts[j]]
    target = suffix[0]
    count = 0

    def walk(j: int, local: int, bits: int, nbhd: int) -> None:
        nonlocal count
        if nbhd | suffix[j] != target:
            return
        if j == len(verts):
            if is_two_linked(G, SideSet(A.side, bits)):
                count += 1
                if table is not None:
                    table[local] = 1
            return
        v = verts[j]
        walk(j + 1, local | 1 << j, bits | 1 << v, nbhd | rows[v])
        walk(j + 1, local, bits, nbhd)

    walk(0, 0, 0, 0)
    return count


def exhaustive_D(G: BipartiteGraph, A: SideSet) -> int:
    """|{B subseteq A : B 2-linked, N(B) = N(A)}| by a walk over the subsets
    of A that covers only those whose neighbourhood can still reach N(A)."""
    if A.size > EXHAUSTIVE_D_CAP:
        raise CapacityError(f"exhaustive D capped at |A| <= {EXHAUSTIVE_D_CAP}")
    return _count_d_hits(G, A)


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
    params: ExpansionParams | None = None,
) -> DEstimate:
    """Relative-error Monte-Carlo estimate of the multiplicity D(A).  A
    sample count m over ``D_DRAW_BUDGET`` raises CapacityError before the
    first draw.  The budget bounds draws, not time: for |A| <= 18 the draws
    index, in numpy chunks, a hit table filled by the walk ``exhaustive_D``
    counts with, but past 18 each draw is a Python neighbourhood and
    2-linkedness scan (about 30 us on the whole side of K_{64,64}), so a call
    within the budget can still run for hours.  numpy is imported only
    where a D is sampled: here, and for ``count_general``'s child seeds."""
    p = params or ExpansionParams()
    _check_container_set(G, A, p)
    if epsilon <= 0:
        raise InvalidInputError("epsilon must be positive")
    if not 0 < delta < 1:
        raise InvalidInputError("delta must lie in (0, 1)")
    eps_eff = min(epsilon, 1.0)
    a2_size = small_generator(G, A, p)[1].size
    m = _d_draws(eps_eff, delta, a2_size)
    _check_draws(A, m)

    import numpy as np

    verts = A.vertices()
    na = len(verts)
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
        target = neighborhood_bits(G, A.side, A.bits)

        def is_hit(local: int) -> bool:
            bits = 0
            for j in range(na):
                if (local >> j) & 1:
                    bits |= 1 << verts[j]
            if neighborhood_bits(G, A.side, bits) != target:
                return False
            return bits != 0 and is_two_linked(G, SideSet(A.side, bits))

        # na uniform bits per draw from whole bytes, at any width
        width = (na + 7) // 8
        mask = (1 << na) - 1
        hits = 0
        for _ in range(m):
            hits += is_hit(int.from_bytes(rng.bytes(width), "little") & mask)

    value = hits / m * 2.0**na
    return DEstimate(value, eps_eff, delta, m, hits, Fraction(1, 2**a2_size))


# -- exact assembly --------------------------------------------------------------


def assemble_exact(
    G: BipartiteGraph,
    params: ExpansionParams | None = None,
    side: str = "X",
) -> int:
    """i(G) as the exact family sum: for each family, the product of exact
    multiplicities, a free factor for the untouched part of the other side,
    and the exact polymer partition function on the leftover region."""
    p = params or ExpansionParams()
    other = opposite(side)
    n_other = G.side_size(other)
    m = WeightModel.unweighted()
    universe = enumerate_polymers(G, PolymerFamily("expanding", side, p), G.side_size(side))
    total = Fraction(0)
    for family in enumerate_families(G, p, side):
        union = family.union_bits
        covered = neighborhood_bits(G, side, union).bit_count()
        local = restrict_universe(universe, family_region(G, side, union))
        xi = exact_xi(local, m)
        prod = 1
        for s in family.sets:
            prod *= exhaustive_D(G, s)
        total += prod * Fraction(2) ** (n_other - covered) * Fraction(xi)
    if total.denominator != 1:
        raise InvalidInputError("family sum did not reduce to an integer")
    return int(total)


# -- approximate assembly ---------------------------------------------------------


def count_general(
    G: BipartiteGraph,
    epsilon: float,
    delta: float,
    seed: int,
    params: ExpansionParams | None = None,
    side: str = "X",
    max_families: int = 1 << 20,
) -> ApproxCount:
    """Approximate i(G) by the family sum with truncated local cluster
    expansions.

    Each distinct container set A is weighed once, at accuracy epsilon/(2n)
    and failure budget delta split over the nonempty families.  D(A) is
    exact, by the full subset scan, when its 2^|A| subsets cost no more than
    the m samples ``estimate_D`` would draw and |A| <= EXHAUSTIVE_D_CAP;
    otherwise ``estimate_D`` samples it.  ``notes`` counts both routes and
    the draws, and the "certified" flag needs every D exact.
    One polymer universe, to the truncation size, serves the convergence
    check and every family's local expansion, restricted to the family's
    region.  When d > sqrt(n) the local partition functions are dropped
    (replaced by 1), as the defect structure is negligible in that regime,
    and the convergence condition is reported as assumed."""
    _check_epsilon(epsilon)
    if not 0 < delta < 1:
        raise InvalidInputError("delta must lie in (0, 1)")
    p = params or ExpansionParams()
    n, d = G.side_size(side), G.d
    other = opposite(side)
    n_other = G.side_size(other)
    big_l = choose_ell(n, d, epsilon / 2.0)
    drop_xi = d * d > n
    m = WeightModel.unweighted()

    pool = distinct_nonexpanding_closed(G, p, side)
    eps_d = min(epsilon, 1.0) / (2.0 * n)
    a2_sizes = [small_generator(G, s, p)[1].size for s in pool]
    # each pool set is a nonempty family, so delta' <= delta / |pool|: a set
    # too large to scan is sampled, and its draws at that bound, a lower
    # bound on the run's, are held to the budget before any family is listed
    for s, a2_size in zip(pool, a2_sizes):
        if s.size > EXHAUSTIVE_D_CAP:
            _check_draws(s, _d_draws(eps_d, delta / len(pool), a2_size))
    families = list(_families_over(G, side, pool, max_families))
    nonempty = sum(1 for f in families if f.sets)
    delta_prime = delta / max(1, nonempty)

    seeds = None  # child i of SeedSequence(seed) over the pool, built on first use
    d_values: dict[int, float] = {}
    d_sampled = d_samples = 0
    # every D's route is planned, and its draws held to the budget, before
    # any subset scan or draw runs
    draws = [_d_draws(eps_d, delta_prime, a2_size) for a2_size in a2_sizes]
    scan = [s.size <= EXHAUSTIVE_D_CAP and 1 << s.size <= k for s, k in zip(pool, draws)]
    for s, k, exact in zip(pool, draws, scan):
        if not exact:
            _check_draws(s, k)
    for i, (s, exact) in enumerate(zip(pool, scan)):
        if exact:
            d_values[s.bits] = float(exhaustive_D(G, s))
        else:
            if seeds is None:
                import numpy as np

                seeds = np.random.SeedSequence(seed).generate_state(len(pool))
            est = estimate_D(G, s, eps_d, delta_prime, int(seeds[i]), p)
            d_values[s.bits] = est.value
            d_sampled += 1
            d_samples += est.samples_used

    if drop_xi:
        kp_status = KP_ASSUMED  # nothing was checked; the factor is dropped
    else:
        universe = enumerate_polymers(G, PolymerFamily("expanding", side, p), min(big_l, n))
        report = verify_kp(universe, m, kp_unweighted(d))
        kp_status = KP_VERIFIED if report.all_pass else KP_FAILED

    term_logs: list[float] = []
    zero_estimates = 0
    config_total = 0
    for family in families:
        union = family.union_bits
        covered = neighborhood_bits(G, side, union).bit_count()
        log_term = (n_other - covered) * LN2
        dead = False
        for s in family.sets:
            value = d_values[s.bits]
            if value <= 0.0:
                dead = True
                break
            log_term += math.log(value)
        if dead:
            zero_estimates += 1
            continue
        if not drop_xi:
            region = family_region(G, side, union)
            local = restrict_universe(universe, region)
            est_xi = truncated_log_xi(local, m, big_l, region.bit_count(), d)
            config_total += est_xi.config_count
            log_term += est_xi.log_value
        term_logs.append(log_term)

    if not term_logs:
        raise InvalidInputError("every family term vanished; nothing to report")
    log_value = term_logs[0]
    for t in term_logs[1:]:
        log_value = _logaddexp(log_value, t)

    flags = []
    if drop_xi:
        flags.append("xi-dropped (d > sqrt n)")
    if kp_status == KP_FAILED:
        flags.append("kp-failed-at-cap")
    if d_sampled:
        flags.append("d-sampled (holds w.p. >= 1 - delta)")
    if not flags:
        flags.append("certified")
    breakdown = (SideTerm(side, 0.0, big_l, kp_status, config_total),)
    notes = {
        "families": len(families),
        "nonempty_families": nonempty,
        "distinct_sets": len(pool),
        "ell": big_l,
        "epsilon_D": eps_d,
        "delta_prime": delta_prime,
        "d_exact": len(pool) - d_sampled,
        "d_sampled": d_sampled,
        "d_samples": d_samples,
        "zero_estimates": zero_estimates,
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
    G: BipartiteGraph,
    params: ExpansionParams | None = None,
    side: str = "X",
) -> ApproxCount:
    """The exact family assembly wrapped in the common result type."""
    value = assemble_exact(G, params, side)
    return ApproxCount(
        log_value=_log_int(value),
        rel_error_bound=0.5,
        method=METHOD_GENERAL,
        flags=("exact",),
        exact_value=value,
    )

"""Approximate counting and sampling on regular bipartite expanders.

The count is assembled from both sides at once: i(G) is approximated by
2^n (Xi^X(ell) + Xi^Y(ell)) with truncated cluster expansions of the two
defect-polymer partition functions, and the weighted analogue replaces the
2^n prefactor by (1+lambda)^n with the small-set polymer family.  When the
graph's claimed side swap verifies, Xi^Y = Xi^X and X's term serves both.  The
samplers realize the two-step measure behind that estimate: pick a side
proportional to its partition function, draw a defect configuration, fill
the opposite side independently.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import accumulate
from random import Random

from .cluster_expansion import (
    C5,
    KP_FAILED,
    KP_VERIFIED,
    beta_weight,
    choose_ell,
    exact_xi,
    kp_hardcore,
    kp_unweighted,
    truncated_log_xi,
    verify_kp,
)
from .errors import CapacityError, InvalidInputError
from .graphs import (
    X_SIDE,
    Y_SIDE,
    BipartiteGraph,
    ExpansionParams,
    SideSwap,
    is_side_swap,
    iter_bits,
    neighborhood_bits,
    opposite,
    two_linked_component_bits,
)
from .oracle import (
    DRAW_BITS,
    exact_count_bipartite,
    exact_hardcore,
    quantize,
)
from .polymers import (
    PolymerFamily,
    PolymerUniverse,
    WeightModel,
    enumerate_polymers,
    iter_compatible_configs,
)

LN2 = math.log(2)

METHOD_BRUTE = "brute"
METHOD_EXPANDER = "expander-CE"
METHOD_GENERAL = "general"
METHOD_ORACLE = "oracle"

CENSUS_SIDE_CAP = 20  # largest side whose 2^n masks polymer_census tables

# the analysis's constants on the weighted regime, at their one value: c4
# scales the hypothesis on beta(lambda), big C2 the fugacity threshold
C4 = 1.0
BIG_C2 = 1.0

# getrandbits(1) keeps the top bit of one 32-bit Mersenne Twister word
FILL_WORD = 32
FILL_WORD_MASK = (1 << FILL_WORD) - 1
# the top bits of the first c words, c = 0..32
FILL_TOPS = [
    sum(1 << (FILL_WORD * t + FILL_WORD - 1) for t in range(c)) for c in range(FILL_WORD + 1)
]
# a fair fill's plan: the bits one call draws; the first window's top bits,
# multiplier, shift back and vertices; then, per further window, its first
# word's offset and the same four
FillPlan = tuple[int, int, int, int, int, tuple[tuple[int, int, int, int, int], ...]]
# a table draw's lead bits: its side draw, then its configuration draw
LEAD_BITS = 2 * DRAW_BITS
DRAW_MASK = (1 << DRAW_BITS) - 1


def _log_int(v: int) -> float:
    """Natural log of a positive integer, safe beyond float range."""
    if v <= 0:
        raise InvalidInputError("log of a nonpositive integer")
    shift = v.bit_length() - 53
    if shift <= 0:
        return math.log(v)
    return math.log(v >> shift) + shift * LN2


def _log_exact(value: int | Fraction) -> float:
    """Natural log of a positive exact integer or rational."""
    if isinstance(value, Fraction):
        return _log_int(value.numerator) - _log_int(value.denominator)
    return _log_int(int(value))


def _logaddexp(a: float, b: float) -> float:
    if a < b:
        a, b = b, a
    if b == -math.inf:
        return a
    return a + math.log1p(math.exp(b - a))


def epsilon_zero(n: int, d: int) -> float:
    """The small-n cutoff 2^{-n log2^2(d) / (60 d)} below which the
    two-sided estimate carries no useful guarantee."""
    if n < 1 or d < 2:
        raise InvalidInputError("epsilon_zero needs n >= 1 and d >= 2")
    return 2.0 ** (-n * math.log2(d) ** 2 / (60.0 * d))


def sampler_tv_bound(n: int, d: int, epsilon: float) -> float:
    """Asymptotic total-variation budget of the two-step sampler: the
    epsilon spent on the partition functions plus twice the small-n cutoff."""
    return epsilon + 2.0 * epsilon_zero(n, d)


# -- result type --------------------------------------------------------------


@dataclass(frozen=True)
class SideTerm:
    """One side's contribution to a two-sided estimate."""

    side: str
    log_xi: float
    ell: int
    kp_status: str
    config_count: int = 0
    certified_bound: float = 0.0


@dataclass(frozen=True)
class ApproxCount:
    """An approximate (or exact) count in natural-log space.

    ``exact_value`` is set only when the method produced an exact integer
    or rational, and then ``rel_error_bound`` is 0; otherwise it is the
    relative accuracy the run was configured for, certified only when
    ``flags`` says so.
    """

    log_value: float
    rel_error_bound: float
    method: str
    side_breakdown: tuple[SideTerm, ...] = ()
    flags: tuple[str, ...] = ()
    notes: dict = field(default_factory=dict)
    exact_value: int | Fraction | None = None

    @property
    def kp_status(self) -> str | None:
        statuses = {t.kp_status for t in self.side_breakdown}
        if not statuses:
            return None
        if KP_FAILED in statuses:
            return KP_FAILED
        if statuses == {KP_VERIFIED}:
            return KP_VERIFIED
        return statuses.pop() if len(statuses) == 1 else "assumed"

    @property
    def certified(self) -> bool:
        return "certified" in self.flags


def _check_epsilon(epsilon: float) -> None:
    if not 0.0 < epsilon < 1.0:
        raise InvalidInputError("epsilon must lie strictly between 0 and 1")


# -- polymer census ------------------------------------------------------------


@dataclass(frozen=True)
class PolymerCensus:
    """How many independent sets have all their one-side 2-linked components
    inside the polymer family, on each side and on both at once."""

    in_x: int
    in_y: int
    both: int
    total: int


def _admitted_mask_table(G: BipartiteGraph, fam: PolymerFamily) -> list[bool]:
    # table over all side masks; component admissions are cached since
    # distinct masks share their 2-linked components
    n = G.side_size(fam.side)
    if n > CENSUS_SIDE_CAP:
        raise CapacityError(f"census table needs 2^{n} entries, side cap is {CENSUS_SIDE_CAP}")
    admit: dict[int, bool] = {}
    out = [False] * (1 << n)
    for s in range(1 << n):
        good = True
        for comp in two_linked_component_bits(G, fam.side, s):
            verdict = admit.get(comp)
            if verdict is None:
                verdict = fam.admits(G, comp)
                admit[comp] = verdict
            if not verdict:
                good = False
                break
        out[s] = good
    return out


def polymer_census(
    G: BipartiteGraph,
    params: ExpansionParams = ExpansionParams(),
    membership: str = "expanding",
) -> PolymerCensus:
    """Exact counts behind the identity |I_X| = 2^n Xi^X and the
    inclusion-exclusion check |I_X| + |I_Y| - |I_X cap I_Y| <= i(G)."""
    ok_x = _admitted_mask_table(G, PolymerFamily(membership, X_SIDE, params))
    ok_y = _admitted_mask_table(G, PolymerFamily(membership, Y_SIDE, params))
    n_x, n_y = G.n_x, G.n_y
    full_x, full_y = G.full_mask(X_SIDE), G.full_mask(Y_SIDE)

    # F[M] = number of admitted Y-masks contained in M
    F = [1 if v else 0 for v in ok_y]
    for i in range(n_y):
        bit = 1 << i
        for m in range(1 << n_y):
            if m & bit:
                F[m] += F[m ^ bit]

    in_x = in_y = both = total = 0
    for s in range(1 << n_x):
        free = full_y & ~neighborhood_bits(G, X_SIDE, s)
        count = 1 << free.bit_count()
        total += count
        if ok_x[s]:
            in_x += count
            both += F[free]
    for t in range(1 << n_y):
        if ok_y[t]:
            free = full_x & ~neighborhood_bits(G, Y_SIDE, t)
            in_y += 1 << free.bit_count()
    return PolymerCensus(in_x, in_y, both, total)


# -- counting ------------------------------------------------------------------


def _side_estimate(
    G: BipartiteGraph,
    fam: PolymerFamily,
    m: WeightModel,
    kp,
    ell: int,
) -> SideTerm:
    n = G.side_size(fam.side)
    universe = enumerate_polymers(G, fam, min(ell, n))
    status = KP_VERIFIED if verify_kp(universe, m, kp).all_pass else KP_FAILED
    est = truncated_log_xi(universe, m, ell, n, G.d)
    return SideTerm(fam.side, est.log_value, ell, status, est.config_count, est.certified_bound)


def _membership(m: WeightModel) -> str:
    # the polymer family each weight model expands over
    return "small" if m.variant == "hardcore" else "expanding"


def _exact_result(value: int | Fraction, method: str, notes: dict | None = None) -> ApproxCount:
    """An exact count in the common result type: the one place an exact
    ``ApproxCount`` is built, for every method that counts exactly."""
    return ApproxCount(
        log_value=_log_exact(value),
        rel_error_bound=0.0,
        method=method,
        flags=("exact",),
        notes={} if notes is None else notes,
        exact_value=value,
    )


def _side_swap(G: BipartiteGraph) -> SideSwap | None:
    """G's claimed side swap once it is verified (once per graph object and
    claim, in the graph's memo), else None."""
    swap = G.claimed_swap
    if swap is None or not G.memo(("side_swap", swap), lambda: is_side_swap(G, swap)):
        return None
    return swap


def _two_sided(
    G: BipartiteGraph,
    m: WeightModel,
    kp,
    epsilon: float,
    p: ExpansionParams,
    log_prefactor: float,
    flags: list[str],
    notes: dict,
) -> ApproxCount:
    """n log_prefactor + ln(Xi^X(ell) + Xi^Y(ell)), with ell chosen for an
    additive log error of epsilon/4 per side.  ``flags`` are the caller's
    hypothesis flags.  When there are none and the convergence condition
    verifies at the cap on both sides, "certified" is added, unless a side's
    universe at the cap is empty: there the condition holds vacuously and
    the estimate is the bare prefactor, so "uncertified (empty universe)"
    stands in its place."""
    n = G.n_x
    ell = choose_ell(n, G.d, epsilon / 4.0, model=m.variant)
    swap = _side_swap(G)
    term_x = _side_estimate(G, PolymerFamily(_membership(m), X_SIDE, p), m, kp, ell)
    if swap is None:
        term_y = _side_estimate(G, PolymerFamily(_membership(m), Y_SIDE, p), m, kp, ell)
    else:
        # a side swap maps X's polymers onto Y's, sizes and neighbourhood
        # sizes kept, so Xi^Y = Xi^X and X's term serves both
        term_y = replace(term_x, side=Y_SIDE)
    notes["side_swap"] = None if swap is None else swap.name
    if KP_FAILED in (term_x.kp_status, term_y.kp_status):
        flags.append("kp-failed-at-cap")
    if not flags:
        # every polymer of a universe capped at ell walks alone, so a walk
        # of the empty configuration only is an empty universe
        empty = 1 in (term_x.config_count, term_y.config_count)
        flags.append("uncertified (empty universe)" if empty else "certified")
    return ApproxCount(
        log_value=n * log_prefactor + _logaddexp(term_x.log_xi, term_y.log_xi),
        rel_error_bound=epsilon,
        method=METHOD_EXPANDER,
        side_breakdown=(term_x, term_y),
        flags=tuple(flags),
        notes=notes,
    )


def count_expander(
    G: BipartiteGraph,
    epsilon: float,
    params: ExpansionParams = ExpansionParams(),
    force_method: str | None = None,
) -> ApproxCount:
    """i(G) ~ 2^n (Xi^X(ell) + Xi^Y(ell)) over the expanding polymer family.

    Falls back to the exact oracle when epsilon is below twice the small-n
    cutoff, where the two-sided estimate promises nothing; the certified
    flag additionally requires the convergence condition to verify at the
    truncation cap on both sides.
    """
    _check_epsilon(epsilon)
    n, d = G.n_x, G.d
    eps0 = epsilon_zero(n, d)
    method = force_method or (METHOD_BRUTE if epsilon <= 2.0 * eps0 else METHOD_EXPANDER)
    notes = {"epsilon_zero": eps0}

    if method == METHOD_BRUTE:
        return _exact_result(exact_count_bipartite(G).value, METHOD_BRUTE, notes)
    if method != METHOD_EXPANDER:
        raise InvalidInputError(f"unknown method {method!r}")
    flags = ["uncertified (small-n regime)"] if eps0 >= 0.25 else []
    return _two_sided(
        G, WeightModel.unweighted(), kp_unweighted(d), epsilon,
        params, LN2, flags, notes,
    )


# -- counting: hard-core ---------------------------------------------------------


@dataclass(frozen=True)
class HardCoreParams:
    """Fugacity and expansion constants for the weighted route.

    ``alpha`` is the expansion ratio the caller asserts for G (verifiable
    with check_alpha_expander)."""

    lam: Fraction
    alpha: Fraction = Fraction(1, 2)

    def __post_init__(self) -> None:
        object.__setattr__(self, "lam", Fraction(self.lam))
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        if self.lam <= 0:
            raise InvalidInputError("fugacity must be positive")
        if not 0 < self.alpha <= 1:
            raise InvalidInputError("alpha must lie in (0, 1]")

    def beta(self, d: int) -> Fraction | float:
        return beta_weight(self.lam, d, self.alpha)

    def condition_flags(self, d: int) -> dict[str, bool]:
        """Which hypotheses of the weighted-guarantee regime hold at this
        (d, lambda)."""
        beta = float(self.beta(d))
        q = math.log2(d) ** 2
        lam_threshold = BIG_C2 * math.log2(d) / d**0.25
        return {
            "lambda-above-threshold": float(self.lam) > lam_threshold,
            "beta-hypothesis": beta
            >= C4 * max(math.log2(d**5 / float(self.alpha)) / math.sqrt(d),
                             2.0 * q / (float(self.alpha) * d)),
            "alpha-beta-hypothesis": float(self.alpha) * beta
            >= (4000.0 / C5) * q / d,
        }


def count_hardcore_expander(
    G: BipartiteGraph,
    hp: HardCoreParams,
    epsilon: float,
    params: ExpansionParams = ExpansionParams(),
    force_method: str | None = None,
) -> ApproxCount:
    """Z_G(lambda) ~ (1+lambda)^n (Xi^X(lambda,ell) + Xi^Y(lambda,ell)) over
    the small-set polymer family.
    """
    _check_epsilon(epsilon)
    d = G.d
    notes: dict = {"conditions": hp.condition_flags(d), "beta": float(hp.beta(d))}

    method = force_method or METHOD_EXPANDER
    if method == METHOD_BRUTE:
        return _exact_result(exact_hardcore(G, hp.lam).value, METHOD_BRUTE, notes)
    if method != METHOD_EXPANDER:
        raise InvalidInputError(f"unknown method {method!r}")
    flags = [f"hypothesis-unmet:{name}" for name, ok in notes["conditions"].items() if not ok]
    return _two_sided(
        G, WeightModel.hardcore(hp.lam), kp_hardcore(d, hp.lam, hp.alpha), epsilon,
        params, _log_exact(1 + hp.lam), flags, notes,
    )


# -- sampling -------------------------------------------------------------------

@dataclass(frozen=True)
class SideTable:
    """All defect configurations of one side, each with the opposite side's
    free vertices, exact integer cumulative weights over one common
    denominator, and their quantized inversion thresholds."""

    side: str
    config_bits: tuple[int, ...]
    free_bits: tuple[int, ...]
    cumulative: tuple[int, ...]
    denominator: int
    thresholds: tuple[int, ...]
    xi: Fraction

    def config_weight(self, i: int) -> Fraction:
        return Fraction(self.cumulative[i] - (self.cumulative[i - 1] if i else 0), self.denominator)


@dataclass(frozen=True)
class SamplerTables:
    side_threshold: int
    x: SideTable
    y: SideTable
    fill_num: Fraction  # per-vertex inclusion probability for the free side

    def table(self, side: str) -> SideTable:
        return self.x if side == X_SIDE else self.y


def _build_side_table(
    G: BipartiteGraph, fam: PolymerFamily, m: WeightModel
) -> tuple[SideTable, PolymerUniverse, list[tuple[int, ...]]]:
    """One side's table, with the universe it walks and each configuration's
    polymer indices, in walk order."""
    side, other = fam.side, opposite(fam.side)
    n, n_other = G.side_size(side), G.side_size(other)
    universe = enumerate_polymers(G, fam, n)
    # compatible polymers have disjoint sets and neighbourhoods, so a
    # configuration of size s and |N| = w weighs what its class (s, w) does
    weights = m.class_weights(n, n_other)
    full = G.full_mask(other)
    configs: list[tuple[int, ...]] = []
    bits_list: list[int] = []
    free_list: list[int] = []
    cum: list[int] = []
    acc = 0
    for config in iter_compatible_configs(universe):
        bits = nbhd = 0
        for i in config:
            bits |= universe[i].bits
            nbhd |= universe[i].nbhd
        acc += weights.numerator(bits.bit_count(), nbhd.bit_count())
        configs.append(config)
        bits_list.append(bits)
        free_list.append(full & ~nbhd)
        cum.append(acc)
    return _side_table(side, bits_list, free_list, cum, weights.denominator), universe, configs


def _side_table(side: str, bits: list[int], free: list[int], cum: list[int], den: int) -> SideTable:
    acc = cum[-1]
    thresholds = tuple((c << DRAW_BITS) // acc for c in cum)
    return SideTable(side, tuple(bits), tuple(free), tuple(cum), den, thresholds, Fraction(acc, den))


def _mask_map(perm: tuple[int, ...]):
    """The map taking a mask to its image under the index map ``perm``, one
    table lookup per byte of the mask."""
    tables = []
    for base in range(0, len(perm), 8):
        chunk = perm[base : base + 8]
        table = [0] * (1 << len(chunk))
        for mask in range(1, len(table)):
            low = mask & -mask
            table[mask] = table[mask ^ low] | 1 << chunk[low.bit_length() - 1]
        tables.append(table)

    def image(mask: int) -> int:
        out = 0
        for table in tables:
            out |= table[mask & 0xFF]
            mask >>= 8
        return out

    return image


def _swapped_table(
    tx: SideTable, universe: PolymerUniverse, configs: list[tuple[int, ...]], swap: SideSwap
) -> SideTable:
    """Y's table from X's under a verified side swap, in the order Y's own
    build lists it.  The swap maps X's polymers onto Y's, sizes and
    neighbourhood sizes kept, so each configuration keeps its weight.  Y's
    universe is sorted by bit mask and its walk yields index tuples in
    lexicographic order, so ranking the mapped polymers by mask and sorting
    the configurations by their tuples of ranks gives Y's order."""
    x_to_y, y_to_x = _mask_map(swap.x_to_y), _mask_map(swap.y_to_x)
    mapped = [x_to_y(p.bits) for p in universe]
    rank = [0] * len(mapped)
    for r, i in enumerate(sorted(range(len(mapped)), key=mapped.__getitem__)):
        rank[i] = r
    keys = [tuple(sorted(map(rank.__getitem__, config))) for config in configs]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    cum = tx.cumulative
    return _side_table(
        Y_SIDE,
        [x_to_y(tx.config_bits[j]) for j in order],
        [y_to_x(tx.free_bits[j]) for j in order],
        list(accumulate(cum[j] - (cum[j - 1] if j else 0) for j in order)),
        tx.denominator,
    )


def sampler_tables(
    G: BipartiteGraph,
    params: ExpansionParams = ExpansionParams(),
    lam: Fraction | None = None,
) -> SamplerTables:
    """Precomputed exact inversion tables for the two-step sampler: over the
    expanding family unweighted, or the small-set family at fugacity lam.

    When G's claimed side swap verifies, only X's universe is built and
    walked, and Y's table is X's mapped through the swap and put in the
    order Y's own walk lists it, so every field equals the two-sided
    build's.  Without a verified claim both sides are built."""
    m = WeightModel.unweighted() if lam is None else WeightModel.hardcore(lam)
    tx, universe, configs = _build_side_table(G, PolymerFamily(_membership(m), X_SIDE, params), m)
    swap = _side_swap(G)
    if swap is None:
        ty = _build_side_table(G, PolymerFamily(_membership(m), Y_SIDE, params), m)[0]
    else:
        ty = _swapped_table(tx, universe, configs, swap)
    fill = Fraction(1, 2) if lam is None else Fraction(lam) / (1 + Fraction(lam))
    return SamplerTables(quantize(tx.xi / (tx.xi + ty.xi)), tx, ty, fill)


def exact_mu_hat(
    G: BipartiteGraph,
    params: ExpansionParams = ExpansionParams(),
    lam: Fraction | None = None,
) -> dict[tuple[int, int], Fraction]:
    """The two-step measure as an exact table keyed by (X-mask, Y-mask):
    side chosen proportional to Xi, defect configuration by its Gibbs
    weight, free side filled vertex-wise."""
    tables = sampler_tables(G, params, lam)
    lam_f = Fraction(1) if lam is None else Fraction(lam)
    xi_total = tables.x.xi + tables.y.xi
    out: dict[tuple[int, int], Fraction] = {}
    for table in (tables.x, tables.y):
        for i, (bits, free) in enumerate(zip(table.config_bits, table.free_bits)):
            # side, configuration and fill: Xi/total * w/Xi * lam^k/(1+lam)^f
            free_n = free.bit_count()
            p_config = table.config_weight(i) / xi_total / (1 + lam_f) ** free_n
            by_size = [p_config * lam_f**k for k in range(free_n + 1)]
            sub = free
            while True:
                key = (bits, sub) if table.side == X_SIDE else (sub, bits)
                out[key] = out.get(key, Fraction(0)) + by_size[sub.bit_count()]
                if not sub:
                    break
                sub = (sub - 1) & free
    return out


class _Peeling:
    """One side's sequential peeling for one run.

    A step depends on its region alone: every vertex below the region's
    lowest one is gone, either removed or blocked by a chosen polymer, and
    the lowest one is the vertex peeled.  So each distinct region's step,
    its thresholds and the (polymer bits, kept vertices) of each outcome,
    is built once per run, on its first visit, where its peeling identity
    is checked.

    The peeling runs on integers: ``xi_of`` gives a region's Xi as its
    numerator N(M) over the universe's one denominator, a branch's mass
    w(gamma) Xi(M') is N(M') a^|gamma| b^(|N(gamma)| - |gamma|) /
    (a+b)^|N(gamma)| with lambda = a/b, and each threshold is the floor
    ``quantize`` takes.  The division is exact, as no configuration of M'
    touches N(gamma) and |N(gamma)| >= |gamma| in a regular bipartite
    graph."""

    def __init__(
        self, G: BipartiteGraph, side: str, universe: PolymerUniverse, m: WeightModel, xi_of,
    ) -> None:
        self.side, self.universe, self.xi_of = side, universe, xi_of
        self.full = G.full_mask(side)
        self.within = functools.cache(universe.within)
        # N^2(gamma): gamma and every vertex sharing a neighbour with it
        self.square = [neighborhood_bits(G, opposite(side), p.nbhd) for p in universe]
        lam = m.lam if m.variant == "hardcore" else Fraction(1)
        a, b = lam.numerator, lam.denominator
        self.weights = [
            (a**p.size * b ** (p.nbhd_size - p.size), (a + b) ** p.nbhd_size) for p in universe
        ]
        self.steps: dict[int, tuple[list[int], list[tuple[int, int]]]] = {}

    def step(self, region: int) -> tuple[list[int], list[tuple[int, int]]]:
        """The thresholds and outcomes of peeling ``region``'s lowest vertex v:
        v removed, or one polymer holding v chosen and its N^2 blocked."""
        universe, xi_of, within = self.universe, self.xi_of, self.within
        v = (region & -region).bit_length() - 1
        inside = within(region)
        holding = universe.holding.get(v, 0)
        xi_r = xi_of(inside)
        # without v, the region keeps exactly the polymers that avoid v
        acc = xi_of(inside & ~holding)
        cumulative = [acc]
        outcomes = [(0, ~(1 << v))]
        for i in iter_bits(inside & holding):
            blocked = self.square[i] & region
            num, den = self.weights[i]
            mass, rest = divmod(xi_of(within(region & ~blocked)) * num, den)
            if rest:
                raise RuntimeError(
                    f"branch mass of polymer {i} of side {self.side} is not an integer"
                )
            acc += mass
            cumulative.append(acc)
            outcomes.append((universe[i].bits, ~blocked))
        if acc != xi_r:
            # the one-vertex peeling identity; exact arithmetic makes it a
            # hard invariant rather than a tolerance check
            raise RuntimeError(f"peeling identity broken at vertex {v} of side {self.side}")
        step = self.steps[region] = ([(c << DRAW_BITS) // xi_r for c in cumulative], outcomes)
        return step


def _sequential_defect(peeling: _Peeling, rng: Random) -> int:
    """Draw a defect configuration by per-vertex peeling: at each surviving
    vertex, either no polymer contains it (remove the vertex) or one does
    (remove the polymer's blocked set), with probabilities given by ratios
    of region partition functions.  One 96-bit draw per step picks the
    first outcome whose threshold exceeds it, or the last outcome."""
    steps = peeling.steps
    region = peeling.full
    chosen = 0
    while region:
        step = steps.get(region)
        if step is None:
            step = peeling.step(region)
        thresholds, outcomes = step
        bits, keep = outcomes[
            bisect_right(thresholds, rng.getrandbits(DRAW_BITS), 0, len(outcomes) - 1)
        ]
        chosen |= bits
        region &= keep
    return chosen


def _fair_fill_plan(free: int) -> FillPlan:
    """How one ``getrandbits(32 f)`` call fills the f vertices of ``free``
    exactly as f calls of ``getrandbits(1)``, one per vertex ascending, do.

    Both read the same f 32-bit words in order: ``getrandbits(1)`` keeps a
    word's top bit, and the one call puts word j at bits 32j..32j+31, so
    the j-th free vertex's fair bit is bit 32j+31.  The free vertices are
    cut into windows of 32 consecutive positions.  A window's c bits, 32
    apart, reach their vertices in one multiply: the partial product taking
    bit t to the place of vertex i lands 32(t - i) away from that place,
    outside the window unless t = i, and no two partial products share a
    bit, so nothing carries."""
    windows = []
    first = 0
    while free:
        base = (free & -free).bit_length() - 1
        window = free & (FILL_WORD_MASK << base)
        free ^= window
        c = window.bit_count()
        # bit 32t + 31 goes to the window's t-th vertex v through the term
        # 2^(v + top - 32t) of the multiplier, its exponent nonnegative
        top = FILL_WORD * (c - 1)
        mult, shift, rest = 0, top, window
        while rest:
            low = rest & -rest
            rest ^= low
            mult |= low << shift
            shift -= FILL_WORD
        windows.append((FILL_WORD * first, FILL_TOPS[c], mult, top + FILL_WORD - 1, window))
        first += c
    if not windows:
        return 0, 0, 0, 0, 0, ()
    _, tops, mult, shift, window = windows[0]
    return FILL_WORD * first, tops, mult, shift, window, tuple(windows[1:])


def _fair_fill(plan: FillPlan, getrandbits) -> int:
    """The fair fill of a free side, drawn through its ``_fair_fill_plan``:
    one call (``getrandbits(0)`` draws nothing) and one multiply a window."""
    nbits, tops, mult, shift, window, more = plan
    words = getrandbits(nbits)
    fill = (words & tops) * mult >> shift & window
    for first, tops, mult, shift, window in more:
        fill |= (words >> first & tops) * mult >> shift & window
    return fill


def _table_draws(tables: SamplerTables, rng: Random, samples: int) -> list[tuple[int, int]]:
    """``samples`` draws by inverting ``tables``, each reading the generator
    as a 96-bit side draw, a 96-bit configuration draw and the fill (96 bits
    per free vertex ascending, or ``_fair_fill``'s one call at lambda = 1)
    do.  ``getrandbits`` fills its words from the low end, so for a and b
    multiples of 32 one ``getrandbits(a + b)`` reads what ``getrandbits(a)``
    then ``getrandbits(b)`` read: the side and configuration draws are the
    halves of one 192-bit read, and a fair fill's read takes the next
    draw's 192 lead bits too.

    Each side keeps one draw record per configuration, made on its first
    draw: its bits and its free side's fill plan at lambda = 1, else its
    bits and its free vertices' bits in ascending order."""
    getrandbits = rng.getrandbits
    side_threshold = tables.side_threshold
    fair = tables.fill_num == Fraction(1, 2)
    fill_threshold = quantize(tables.fill_num)

    def record(table: SideTable, i: int) -> tuple:
        free = table.free_bits[i]
        if fair:
            return table.config_bits[i], _fair_fill_plan(free)
        lows = []
        while free:
            low = free & -free
            free ^= low
            lows.append(low)
        return table.config_bits[i], tuple(lows)

    sides = [(t, t.thresholds, [None] * len(t.thresholds)) for t in (tables.x, tables.y)]
    out = []
    lead = getrandbits(LEAD_BITS)
    for _ in range(samples):
        on_x = lead & DRAW_MASK < side_threshold
        table, thresholds, records = sides[0] if on_x else sides[1]
        i = bisect_right(thresholds, lead >> DRAW_BITS)
        rec = records[i]
        if rec is None:
            rec = records[i] = record(table, i)
        if fair:
            # _fair_fill inlined, its one call reading the next lead too
            bits, (nbits, tops, mult, shift, window, more) = rec
            words = getrandbits(nbits + LEAD_BITS)
            fill = (words & tops) * mult >> shift & window
            for first, tops, mult, shift, window in more:
                fill |= (words >> first & tops) * mult >> shift & window
            lead = words >> nbits
        else:
            bits, lows = rec
            fill = 0
            for low in lows:
                if getrandbits(DRAW_BITS) < fill_threshold:
                    fill |= low
            lead = getrandbits(LEAD_BITS)
        out.append((bits, fill) if on_x else (fill, bits))
    return out


def _sample_run(
    G: BipartiteGraph,
    m: WeightModel,
    epsilon: float,
    p: ExpansionParams,
    seed: int,
    samples: int,
    mode: str,
) -> list[tuple[int, int]]:
    """Draws from the two-step measure of weight model ``m``: a side with
    probability proportional to its Xi, a defect configuration on it (from
    the exact tables, or by sequential peeling), then the opposite side's
    free vertices filled independently.  Both modes are exact, so
    ``epsilon`` is checked and spends nothing."""
    _check_epsilon(epsilon)
    if samples < 1:
        raise InvalidInputError("samples must be positive")
    rng = Random(seed)
    lam = m.lam if m.variant == "hardcore" else None
    if mode == "table":
        return _table_draws(sampler_tables(G, p, lam=lam), rng, samples)
    if mode != "sequential":
        raise InvalidInputError(f"unknown sampling mode {mode!r}")

    def peeling(side: str) -> tuple[_Peeling, Fraction]:
        # one universe per side for the whole run, a region a mask over
        # it, and one memo that the side choice reads the whole side
        # from too: Xi as its integer numerator over the universe's one
        # denominator
        u = enumerate_polymers(G, PolymerFamily(_membership(m), side, p), G.side_size(side))
        den = m.class_weights(len(u.holding), u.stride - 1).denominator

        @functools.cache
        def xi_of(mask: int) -> int:
            scaled = exact_xi(u, m, mask) * den
            if scaled.denominator != 1:
                raise RuntimeError(f"Xi of side {side} is not over its common denominator")
            return scaled.numerator

        return _Peeling(G, side, u, m, xi_of), Fraction(xi_of(u.all), den)

    (peel_x, vx), (peel_y, vy) = (peeling(side) for side in (X_SIDE, Y_SIDE))
    peelings = {X_SIDE: peel_x, Y_SIDE: peel_y}
    side_threshold = quantize(vx / (vx + vy))
    getrandbits = rng.getrandbits
    fill_num = Fraction(1, 2) if lam is None else lam / (1 + lam)
    fair = fill_num == Fraction(1, 2)
    fill_threshold = quantize(fill_num)
    plans: dict[int, FillPlan] = {}
    out = []
    for _ in range(samples):
        side = X_SIDE if getrandbits(DRAW_BITS) < side_threshold else Y_SIDE
        bits = _sequential_defect(peelings[side], rng)
        free = G.full_mask(opposite(side)) & ~neighborhood_bits(G, side, bits)
        if fair:
            # one call for the whole free side, planned once per free mask
            plan = plans.get(free)
            if plan is None:
                plan = plans[free] = _fair_fill_plan(free)
            fill = _fair_fill(plan, getrandbits)
        else:
            # one 96-bit draw per free vertex, ascending, against the
            # quantized fill probability
            fill = 0
            while free:
                low = free & -free
                free ^= low
                if getrandbits(DRAW_BITS) < fill_threshold:
                    fill |= low
        out.append((bits, fill) if side == X_SIDE else (fill, bits))
    return out


def sample_expander(
    G: BipartiteGraph,
    epsilon: float,
    params: ExpansionParams = ExpansionParams(),
    seed: int = 0,
    samples: int = 1,
    mode: str = "table",
) -> list[tuple[int, int]]:
    """Draw independent sets from the two-step measure over the expanding
    polymer family.  Table mode inverts exact configuration tables; the
    sequential mode peels one vertex at a time through exact
    partition-function ratios."""
    return _sample_run(G, WeightModel.unweighted(), epsilon, params, seed, samples, mode)


def sample_hardcore_expander(
    G: BipartiteGraph,
    hp: HardCoreParams,
    epsilon: float,
    params: ExpansionParams = ExpansionParams(),
    seed: int = 0,
    samples: int = 1,
    mode: str = "table",
) -> list[tuple[int, int]]:
    """Hard-core analogue of sample_expander: small-set polymers, weighted
    defect configurations, free side filled at rate lambda/(1+lambda)."""
    return _sample_run(G, WeightModel.hardcore(hp.lam), epsilon, params, seed, samples, mode)

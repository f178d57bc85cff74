"""Approximate counting and sampling on regular bipartite expanders.

The count is assembled from both sides at once: i(G) is approximated by
2^n (Xi^X(ell) + Xi^Y(ell)) with truncated cluster expansions of the two
defect-polymer partition functions, and the weighted analogue replaces the
2^n prefactor by (1+lambda)^n with the small-set polymer family.  The
samplers realize the two-step measure behind that estimate: pick a side
proportional to its partition function, draw a defect configuration, fill
the opposite side independently.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random

from .cluster_expansion import (
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
    neighborhood_bits,
    opposite,
    two_linked_component_bits,
)
from .oracle import (
    DRAW_BITS,
    DRAW_DEN,
    exact_count_bipartite,
    exact_hardcore,
    quantize,
)
from .polymers import (
    Polymer,
    PolymerFamily,
    WeightModel,
    enumerate_polymers,
    iter_compatible_configs,
    restrict_universe,
)

LN2 = math.log(2)

METHOD_BRUTE = "brute"
METHOD_EXPANDER = "expander-CE"
METHOD_GENERAL = "general"
METHOD_ORACLE = "oracle"


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
    or rational; ``rel_error_bound`` is the relative accuracy the run was
    configured for, certified only when ``flags`` says so.
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
    if n > 20:
        raise CapacityError(f"census table needs 2^{n} entries, side cap is 20")
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
    params: ExpansionParams | None = None,
    membership: str = "expanding",
) -> PolymerCensus:
    """Exact counts behind the identity |I_X| = 2^n Xi^X and the
    inclusion-exclusion check |I_X| + |I_Y| - |I_X cap I_Y| <= i(G)."""
    p = params or ExpansionParams()
    ok_x = _admitted_mask_table(G, PolymerFamily(membership, X_SIDE, p))
    ok_y = _admitted_mask_table(G, PolymerFamily(membership, Y_SIDE, p))
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


def _exact_result(value: int | Fraction, epsilon: float, notes: dict) -> ApproxCount:
    return ApproxCount(
        log_value=_log_exact(value),
        rel_error_bound=epsilon,
        method=METHOD_BRUTE,
        flags=("exact",),
        notes=notes,
        exact_value=value,
    )


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
    hypothesis flags; "certified" is added only when there are none and the
    convergence condition verifies at the cap on both sides."""
    n = G.n_x
    ell = choose_ell(n, G.d, epsilon / 4.0, model=m.variant)
    fams = (PolymerFamily(_membership(m), side, p) for side in (X_SIDE, Y_SIDE))
    term_x, term_y = (_side_estimate(G, fam, m, kp, ell) for fam in fams)
    if KP_FAILED in (term_x.kp_status, term_y.kp_status):
        flags.append("kp-failed-at-cap")
    if not flags:
        flags.append("certified")
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
    params: ExpansionParams | None = None,
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
        return _exact_result(exact_count_bipartite(G).value, epsilon, notes)
    if method != METHOD_EXPANDER:
        raise InvalidInputError(f"unknown method {method!r}")
    flags = ["uncertified (small-n regime)"] if eps0 >= 0.25 else []
    return _two_sided(
        G, WeightModel.unweighted(), kp_unweighted(d), epsilon,
        params or ExpansionParams(), LN2, flags, notes,
    )


# -- counting: hard-core ---------------------------------------------------------


@dataclass(frozen=True)
class HardCoreParams:
    """Fugacity and expansion constants for the weighted route.

    ``alpha`` is the expansion ratio the caller asserts for G (verifiable
    with check_alpha_expander); c4 and c5 scale the hypothesis the analysis
    places on beta(lambda); big_c2 scales the fugacity threshold."""

    lam: Fraction
    alpha: Fraction = Fraction(1, 2)
    c4: float = 1.0
    c5: float = 1.0
    big_c2: float = 1.0

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
        lam_threshold = self.big_c2 * math.log2(d) / d**0.25
        return {
            "lambda-above-threshold": float(self.lam) > lam_threshold,
            "beta-hypothesis": beta
            >= self.c4 * max(math.log2(d**5 / float(self.alpha)) / math.sqrt(d),
                             2.0 * q / (float(self.alpha) * d)),
            "alpha-beta-hypothesis": float(self.alpha) * beta
            >= (4000.0 / self.c5) * q / d,
        }


def count_hardcore_expander(
    G: BipartiteGraph,
    hp: HardCoreParams,
    epsilon: float,
    params: ExpansionParams | None = None,
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
        return _exact_result(exact_hardcore(G, hp.lam).value, epsilon, notes)
    if method != METHOD_EXPANDER:
        raise InvalidInputError(f"unknown method {method!r}")
    flags = [f"hypothesis-unmet:{name}" for name, ok in notes["conditions"].items() if not ok]
    return _two_sided(
        G, WeightModel.hardcore(hp.lam), kp_hardcore(d, hp.lam, hp.alpha, hp.c5), epsilon,
        params or ExpansionParams(), _log_exact(1 + hp.lam), flags, notes,
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


def _build_side_table(G: BipartiteGraph, fam: PolymerFamily, m: WeightModel) -> SideTable:
    side, other = fam.side, opposite(fam.side)
    n, n_other = G.side_size(side), G.side_size(other)
    universe = enumerate_polymers(G, fam, n)
    # compatible polymers have disjoint sets and neighbourhoods, so a
    # configuration of size s and |N| = w weighs what its class (s, w) does
    weights = m.class_weights(n, n_other)
    full = G.full_mask(other)
    bits_list: list[int] = []
    free_list: list[int] = []
    cum: list[int] = []
    acc = 0
    for config in iter_compatible_configs(universe):
        bits = nbhd = 0
        for i in config:
            bits |= universe[i].bits
            nbhd |= universe[i].nbhd
        s, w = bits.bit_count(), nbhd.bit_count()
        acc += weights.numerator(s, w)
        bits_list.append(bits)
        free_list.append(full & ~nbhd)
        cum.append(acc)
    den = weights.denominator
    thresholds = tuple((c << DRAW_BITS) // acc for c in cum)
    return SideTable(
        side, tuple(bits_list), tuple(free_list), tuple(cum), den, thresholds, Fraction(acc, den)
    )


def sampler_tables(
    G: BipartiteGraph,
    params: ExpansionParams | None = None,
    lam: Fraction | None = None,
    membership: str | None = None,
) -> SamplerTables:
    """Precomputed exact inversion tables for the two-step sampler."""
    p = params or ExpansionParams()
    if membership is None:
        membership = "expanding" if lam is None else "small"
    m = WeightModel.unweighted() if lam is None else WeightModel.hardcore(lam)
    tx = _build_side_table(G, PolymerFamily(membership, X_SIDE, p), m)
    ty = _build_side_table(G, PolymerFamily(membership, Y_SIDE, p), m)
    fill = Fraction(1, 2) if lam is None else Fraction(lam) / (1 + Fraction(lam))
    return SamplerTables(quantize(tx.xi / (tx.xi + ty.xi)), tx, ty, fill)


def exact_mu_hat(
    G: BipartiteGraph,
    params: ExpansionParams | None = None,
    lam: Fraction | None = None,
    membership: str | None = None,
) -> dict[tuple[int, int], Fraction]:
    """The two-step measure as an exact table keyed by (X-mask, Y-mask):
    side chosen proportional to Xi, defect configuration by its Gibbs
    weight, free side filled vertex-wise."""
    tables = sampler_tables(G, params, lam, membership)
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


def _threshold(num: Fraction | float, den: Fraction | float) -> int:
    """The draw threshold realizing probability num/den: quantized exactly
    for Fractions, rounded down in floats."""
    ratio = num / den
    return quantize(ratio) if isinstance(ratio, Fraction) else int(ratio * DRAW_DEN)


def _sequential_defect(
    G: BipartiteGraph,
    side: str,
    universe: list[Polymer],
    m: WeightModel,
    rng: Random,
    use_exact_xi: bool,
    xi_of,
) -> int:
    """Draw a defect configuration by per-vertex peeling: at each surviving
    vertex, either no polymer contains it (remove the vertex) or one does
    (remove the polymer's blocked set), with probabilities given by ratios
    of region partition functions, read from ``xi_of``.  ``universe`` is the
    side's whole polymer universe; each region's candidates are restricted
    from it."""
    n = G.side_size(side)
    region = G.full_mask(side)
    chosen = 0
    for v in range(n):
        if not (region >> v) & 1:
            continue
        xi_r = xi_of(region)
        xi_without = xi_of(region & ~(1 << v))
        cands = [p for p in restrict_universe(universe, region) if (p.bits >> v) & 1]
        branches = []
        for p in cands:
            # N^2(gamma): gamma and every vertex sharing a neighbour with it
            blocked = neighborhood_bits(G, opposite(side), p.nbhd) & region
            weight = m.weight(p) if use_exact_xi else math.exp(m.log_weight(p))
            branches.append((p.bits, blocked, weight * xi_of(region & ~blocked)))
        if use_exact_xi and xi_r != xi_without + sum(b[2] for b in branches):
            # the one-vertex peeling identity; exact arithmetic makes it a
            # hard invariant rather than a tolerance check
            raise RuntimeError(f"peeling identity broken at vertex {v} of side {side}")
        u = rng.getrandbits(DRAW_BITS)
        if u < _threshold(xi_without, xi_r):
            region &= ~(1 << v)
            continue
        acc = xi_without
        picked = None
        for bits, blocked, mass in branches:
            acc = acc + mass
            if u < _threshold(acc, xi_r):
                picked = (bits, blocked)
                break
        if picked is None and branches:
            picked = (branches[-1][0], branches[-1][1])
        if picked is None:
            region &= ~(1 << v)
            continue
        chosen |= picked[0]
        region &= ~picked[1]
    return chosen


def _sample_run(
    G: BipartiteGraph,
    m: WeightModel,
    epsilon: float,
    p: ExpansionParams,
    seed: int,
    samples: int,
    mode: str,
    use_exact_xi: bool,
) -> list[tuple[int, int]]:
    """Draws from the two-step measure of weight model ``m``: a side with
    probability proportional to its Xi, a defect configuration on it (from
    the exact tables, or by sequential peeling), then the opposite side's
    free vertices filled independently."""
    _check_epsilon(epsilon)
    if samples < 1:
        raise InvalidInputError("samples must be positive")
    rng = Random(seed)
    getrandbits = rng.getrandbits
    membership = _membership(m)
    lam = m.lam if m.variant == "hardcore" else None
    if mode == "table":
        tables = sampler_tables(G, p, lam=lam, membership=membership)
        side_threshold = tables.side_threshold
        rows = {
            t.side: (t.thresholds, t.config_bits, t.free_bits) for t in (tables.x, tables.y)
        }

        def defect(side: str) -> tuple[int, int]:
            thresholds, config_bits, free_bits = rows[side]
            i = bisect_left(thresholds, getrandbits(DRAW_BITS) + 1)
            return config_bits[i], free_bits[i]

    elif mode == "sequential":
        ell = choose_ell(G.n_x, G.d, epsilon / 8.0, model=m.variant)
        # one universe per side for the whole run; every region restricts it
        universes = {
            side: enumerate_polymers(G, PolymerFamily(membership, side, p), G.side_size(side))
            for side in (X_SIDE, Y_SIDE)
        }

        def region_memo(universe: list[Polymer]):
            # Xi of a region depends on it only through the polymers inside,
            # so one memo per side, keyed by their masks, serves the run; it
            # holds Xi exactly, or ln Xi(ell) in floats
            memo: dict[tuple[int, ...], Fraction | float] = {}

            def value_of(region: int) -> Fraction | float:
                local = restrict_universe(universe, region)
                key = tuple(q.bits for q in local)
                value = memo.get(key)
                if value is None:
                    if use_exact_xi:
                        value = exact_xi(local, m)
                    else:
                        log_xi = truncated_log_xi(local, m, ell, region.bit_count(), G.d)
                        value = log_xi.log_value
                    memo[key] = value
                return value

            return value_of

        memo_of = {side: region_memo(universe) for side, universe in universes.items()}
        # the side choice reads each whole side from the memo the peeling uses
        vx, vy = (memo_of[side](G.full_mask(side)) for side in (X_SIDE, Y_SIDE))
        if use_exact_xi:
            xi_of = memo_of
            side_threshold = _threshold(vx, vx + vy)
        else:
            xi_of = {side: lambda r, f=f: math.exp(f(r)) for side, f in memo_of.items()}
            side_threshold = int(DRAW_DEN / (1.0 + math.exp(vy - vx)))

        def defect(side: str) -> tuple[int, int]:
            bits = _sequential_defect(G, side, universes[side], m, rng, use_exact_xi, xi_of[side])
            return bits, G.full_mask(opposite(side)) & ~neighborhood_bits(G, side, bits)

    else:
        raise InvalidInputError(f"unknown sampling mode {mode!r}")
    fill_num = Fraction(1, 2) if lam is None else lam / (1 + lam)
    fair = fill_num == Fraction(1, 2)
    fill_threshold = quantize(fill_num)
    out = []
    for _ in range(samples):
        side = X_SIDE if getrandbits(DRAW_BITS) < side_threshold else Y_SIDE
        bits, free = defect(side)
        # one draw per free vertex, ascending: a fair bit, or 96 bits
        # against the quantized fill probability
        fill = 0
        while free:
            low = free & -free
            free ^= low
            if fair:
                if getrandbits(1):
                    fill |= low
            elif getrandbits(DRAW_BITS) < fill_threshold:
                fill |= low
        out.append((bits, fill) if side == X_SIDE else (fill, bits))
    return out


def sample_expander(
    G: BipartiteGraph,
    epsilon: float,
    params: ExpansionParams | None = None,
    seed: int = 0,
    samples: int = 1,
    mode: str = "table",
    use_exact_xi: bool = True,
) -> list[tuple[int, int]]:
    """Draw independent sets from the two-step measure over the expanding
    polymer family.  Table mode inverts exact configuration tables; the
    sequential mode peels one vertex at a time through partition-function
    ratios (exact ratios by default)."""
    return _sample_run(
        G, WeightModel.unweighted(), epsilon, params or ExpansionParams(),
        seed, samples, mode, use_exact_xi,
    )


def sample_hardcore_expander(
    G: BipartiteGraph,
    hp: HardCoreParams,
    epsilon: float,
    params: ExpansionParams | None = None,
    seed: int = 0,
    samples: int = 1,
    mode: str = "table",
    use_exact_xi: bool = True,
) -> list[tuple[int, int]]:
    """Hard-core analogue of sample_expander: small-set polymers, weighted
    defect configurations, free side filled at rate lambda/(1+lambda)."""
    return _sample_run(
        G, WeightModel.hardcore(hp.lam), epsilon, params or ExpansionParams(),
        seed, samples, mode, use_exact_xi,
    )

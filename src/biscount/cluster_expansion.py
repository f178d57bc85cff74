"""Truncated cluster-expansion evaluation of ln Xi with certified error.

The truncation keeps the grades <= ell of ln Xi, computed one way: as
a_1 + ... + a_ell, the log series of the size polynomial walked over the
compatible configurations of total size <= ell.  Grade by grade this is the
cluster expansion truncated at total cluster size ell (the sum of
phi(H) prod w(gamma) / prod m! over clusters of size <= ell), an identity the
test suite checks in exact arithmetic against its own Ursell cluster
enumerator.  Under the convergence condition the discarded tail is
exponentially small in ell, and the bound actually asserted depends on the
weight model.  The
condition itself is checked numerically per polymer up to a size cap; the
asymptotic guarantee behind it only kicks in for large degree, so
desk-scale failures are reported rather than hidden.  Every routine that
works on a polymer universe takes it from the caller, which enumerates it
once and passes each region as a polymer mask over it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidInputError
from .graphs import BipartiteGraph
from .polymers import (
    Polymer,
    PolymerFamily,
    PolymerUniverse,
    WeightModel,
    class_counts,
    enumerate_polymers,
    log_series_coefficients,
    xi_size_polynomial,
)

KP_VERIFIED = "verified-to-cap"
KP_FAILED = "failed-at-cap"
KP_ASSUMED = "assumed"

# the analysis's constant c5 on the hard-core KP rates, at its one value
C5 = 1.0


def _exact_log2(x: Fraction) -> int | None:
    # integer log2 when x is an exact power of two, else None
    if x <= 0:
        return None
    num, den = x.numerator, x.denominator
    if num == 1 and den & (den - 1) == 0:
        return -(den.bit_length() - 1)
    if den == 1 and num & (num - 1) == 0:
        return num.bit_length() - 1
    return None


def beta_weight(lam: Fraction, d: int, alpha: Fraction) -> Fraction | float:
    """The exponent weight beta(lambda) = log2^2(1+lambda) /
    (log2(1+lambda) + log2(2 d^5 / alpha)); exact rational whenever both
    logs are integers."""
    if d < 2:
        raise InvalidInputError("beta needs d >= 2")
    lam = Fraction(lam)
    alpha = Fraction(alpha)
    if lam <= 0 or alpha <= 0:
        raise InvalidInputError("beta needs lambda > 0 and alpha > 0")
    l1 = _exact_log2(1 + lam)
    l2 = _exact_log2(2 * Fraction(d) ** 5 / alpha)
    if l1 is not None and l2 is not None:
        return Fraction(l1 * l1, l1 + l2)
    x = math.log2(float(1 + lam))
    y = math.log2(2.0 * d**5 / float(alpha))
    return x * x / (x + y)


@dataclass(frozen=True)
class KPFunctions:
    """Per-polymer functions f, g entering the convergence condition
    sum over gamma' incompatible with gamma of w e^{f+g} <= f(gamma)."""

    f_per_vertex: float
    g_per_nbhd: float
    label: str

    def f(self, p: Polymer) -> float:
        return self.f_per_vertex * p.size

    def g(self, p: Polymer) -> float:
        return self.g_per_nbhd * p.nbhd_size


def kp_unweighted(d: int) -> KPFunctions:
    """f = ln2 |gamma| log2^2(d)/d, g = 2 ln2 |N(gamma)| log2^2(d)/d."""
    q = math.log2(d) ** 2 / d
    return KPFunctions(math.log(2) * q, 2 * math.log(2) * q, "unweighted")


def kp_hardcore(d: int, lam: Fraction, alpha: Fraction) -> KPFunctions:
    """f = C5 alpha ln2 beta(lambda) |gamma| / 8 and the same rate on
    |N(gamma)| for g."""
    b = float(beta_weight(lam, d, alpha))
    rate = C5 * float(alpha) * math.log(2) * b / 8.0
    return KPFunctions(rate, rate, f"hardcore(lambda={lam})")


@dataclass(frozen=True)
class KPPolymerCheck:
    bits: int
    size: int
    nbhd_size: int
    lhs: float
    rhs: float
    passed: bool


@dataclass(frozen=True)
class KPReport:
    checks: tuple[KPPolymerCheck, ...]
    all_pass: bool
    # the sum on the left is restricted to the universe checked, polymers up
    # to a size cap, so a pass is numerical evidence, not the asymptotic
    # claim itself
    truncated_universe: bool = True


def verify_kp(universe: PolymerUniverse, m: WeightModel, kp: KPFunctions) -> KPReport:
    """Check the convergence condition per polymer of ``universe``, summing
    over the polymers of that universe only (enumerate it to the size cap
    the check should reach).  An empty universe passes vacuously.

    The weight, f and g depend on a polymer only through its class
    (|gamma|, |N(gamma)|), so each sum is taken by class: the boosted weight
    w e^{f+g} of the class times the number of its members incompatible
    with gamma, added by ``math.fsum``."""
    incompat = universe.incompat
    boosted: dict[tuple[int, int], float] = {}
    members: dict[tuple[int, int], int] = {}
    for i, p in enumerate(universe):
        key = (p.size, p.nbhd_size)
        if key not in boosted:
            boosted[key] = math.exp(m.log_weight(p) + kp.f(p) + kp.g(p))
        members[key] = members.get(key, 0) | 1 << i
    by_class = [(boosted[key], mask) for key, mask in members.items()]
    checks = []
    for i, p in enumerate(universe):
        mask = incompat[i]
        lhs = math.fsum(b * (mask & in_class).bit_count() for b, in_class in by_class)
        rhs = kp.f(p)
        checks.append(
            KPPolymerCheck(p.bits, p.size, p.nbhd_size, lhs, rhs, lhs <= rhs)
        )
    return KPReport(tuple(checks), all(c.passed for c in checks))


def choose_ell(n: int, d: int, epsilon: float, model: str = "unweighted") -> int:
    """Truncation size meeting the additive log-error target epsilon."""
    if n < 1 or d < 2:
        raise InvalidInputError("choose_ell needs n >= 1 and d >= 2")
    if not 0 < epsilon:
        raise InvalidInputError("epsilon must be positive")
    q = math.log2(d) ** 2
    if model == "unweighted":
        raw = d / (2.0 * q) * math.log2(n / epsilon)
    elif model == "hardcore":
        raw = d / (1000.0 * q) * math.log2(n / epsilon)
    else:
        raise InvalidInputError(f"unknown model {model!r}")
    return max(1, math.ceil(raw))


def truncation_bound(n: int, d: int, ell: int, model: str) -> float:
    """Certified tail bound for the truncation at ell (valid under the
    convergence condition)."""
    q = math.log2(d) ** 2
    if model == "unweighted":
        return n * 2.0 ** (-2.0 * ell * q / d)
    if model == "hardcore":
        return n * 2.0 ** (-500.0 * q * ell / d)
    raise InvalidInputError(f"unknown model {model!r}")


@dataclass(frozen=True)
class LogPartitionEstimate:
    log_value: float
    ell_used: int
    certified_bound: float
    model: str
    config_count: int


def truncated_log_xi(
    universe: PolymerUniverse,
    m: WeightModel,
    ell: int,
    n: int,
    d: int,
    mask: int = -1,
) -> LogPartitionEstimate:
    """ln Xi(ell) = a_1 + ... + a_ell, the log-series coefficients of the
    size polynomial c_0..c_ell walked over the configurations of total size
    <= ell (within the walk's configuration budget); equal to the sum of the
    clusters of size <= ell.  The sum is taken in Fractions and rounded once.

    The ground set's polymers are ``mask`` (default -1: all) of ``universe``,
    which holds every one of size <= ell (larger ones are never walked).
    The tail bound is taken for ``n`` ground vertices, d-regular."""
    if ell < 0:
        raise InvalidInputError("ell must be nonnegative")
    model = m.variant
    coeffs = xi_size_polynomial(universe, m, upto=ell, mask=mask)
    total = sum(log_series_coefficients(coeffs, ell)[1:])
    bound = truncation_bound(n, d, ell, model) if n else 0.0
    return LogPartitionEstimate(float(total), ell, bound, model, coeffs.configs)


def exact_xi(universe: PolymerUniverse, m: WeightModel, mask: int = -1) -> Fraction:
    """Xi of the polymers ``mask`` (default -1: all) of a complete universe,
    the sum of its size polynomial over every compatible configuration: one
    integer, sum count * numerator(s, w) over the class cells of the
    universe's kept walk, over the weights' one common denominator.  More
    than polymers.CONFIG_BUDGET configurations raise CapacityError."""
    stride = universe.stride
    weights = m.class_weights(len(universe.holding), stride - 1)
    numerator = weights.numerator
    total = 0
    for cell, count in class_counts(universe, mask=mask)[1]:
        s, w = divmod(cell, stride)
        total += count * numerator(s, w)
    return Fraction(total, weights.denominator)


def exact_log_xi(G: BipartiteGraph, fam: PolymerFamily, m: WeightModel) -> float:
    xi = exact_xi(enumerate_polymers(G, fam, G.side_size(fam.side)), m)
    return math.log(xi.numerator) - math.log(xi.denominator)


@dataclass(frozen=True)
class TailMass:
    """Exact P(total polymer size >= threshold) under the Gibbs measure,
    next to the exponential bound the analysis promises for large d."""

    probability: Fraction
    paper_bound: float
    threshold: int
    model: str


def tail_mass(
    G: BipartiteGraph,
    fam: PolymerFamily,
    m: WeightModel,
    delta: float,
) -> TailMass:
    if delta < 0:
        raise InvalidInputError("delta must be nonnegative")
    n = G.side_size(fam.side)
    universe = enumerate_polymers(G, fam, n)
    coeffs = xi_size_polynomial(universe, m)
    threshold = math.ceil(delta * n)
    xi = sum(coeffs)
    heavy = sum(coeffs[threshold:]) if threshold < len(coeffs) else Fraction(0)
    q = math.log2(G.d) ** 2
    if m.variant == "hardcore":
        bound = 2.0 ** (-100.0 * q * delta * n / G.d)
    else:
        bound = 2.0 ** (-delta * n * q / (2.0 * G.d))
    return TailMass(heavy / xi, bound, threshold, m.describe())

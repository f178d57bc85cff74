"""Polymer models over 2-linked vertex sets.

A polymer lives on one side of the bipartition and is blamed for the
neighborhood it occupies: the unweighted model charges 2^{-|N(gamma)|}, the
hardcore model lambda^{|gamma|} (1+lambda)^{-|N(gamma)|}.  Two polymers are
compatible when their union is not 2-linked, which for same-side sets means
disjoint vertices and disjoint neighborhoods.  The partition function sums
weight products over compatible collections, and its size polynomial
sum_k c_k z^k groups them by total polymer size k.

ln Xi is evaluated one way, as the log series a_l of the size polynomial:
a_l is the sum of phi(H) prod w(gamma) / prod m! over the clusters (connected
multisets of polymers, H their incompatibility graph, phi its Ursell function,
m the multiplicities) of total size l, an identity the test suite checks in
exact arithmetic against a cluster enumerator of its own.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import CapacityError, InvalidInputError
from .graphs import (
    BipartiteGraph,
    ExpansionParams,
    SideSet,
    X_SIDE,
    closure_bits,
    is_small_closure,
    is_two_linked,
    iter_bits,
    neighborhood_bits,
    opposite,
    two_linked_sets,
)


@dataclass(frozen=True)
class Polymer:
    side: str
    bits: int
    nbhd: int

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    @property
    def nbhd_size(self) -> int:
        return self.nbhd.bit_count()

    def as_side_set(self) -> SideSet:
        return SideSet(self.side, self.bits)


@dataclass(frozen=True)
class PolymerFamily:
    """Which 2-linked sets count as polymers: the expanding ones (unweighted
    route) or the small ones (hardcore route)."""

    membership: str = "expanding"
    side: str = X_SIDE
    params: ExpansionParams = ExpansionParams()

    def admits(self, G: BipartiteGraph, bits: int) -> bool:
        if not is_two_linked(G, SideSet(self.side, bits)):
            return False
        w = neighborhood_bits(G, self.side, bits).bit_count()
        return self.admits_sizes(G, w, closure_bits(G, self.side, bits).bit_count())

    def admits_sizes(self, G: BipartiteGraph, nbhd_size: int, closure_size: int) -> bool:
        """Membership of a 2-linked set from |N(S)| and |[S]| alone."""
        if self.membership == "expanding":
            return self.params.expands(G.d, nbhd_size, closure_size)
        if self.membership == "small":
            return is_small_closure(G.side_size(self.side), closure_size)
        raise InvalidInputError(f"unknown membership {self.membership!r}")


class WeightModel:
    """Polymer weight assignment with exact-rational and log evaluation.

    The tilde variant multiplies the unweighted weight by
    2^{|gamma| log2^2(d) / d}; its exponent is irrational in general, so only
    the log form is offered there.
    """

    def __init__(self, variant: str, lam: Fraction | None = None, d: int | None = None):
        if variant not in ("unweighted", "hardcore", "tilde"):
            raise InvalidInputError(f"unknown weight variant {variant!r}")
        if variant == "hardcore":
            if lam is None or lam <= 0:
                raise InvalidInputError("hardcore weights need lambda > 0")
            lam = Fraction(lam)
        if variant == "tilde" and (d is None or d < 2):
            raise InvalidInputError("tilde weights need the graph degree d >= 2")
        self.variant = variant
        self.lam = lam
        self.d = d

    @classmethod
    def unweighted(cls) -> "WeightModel":
        return cls("unweighted")

    @classmethod
    def hardcore(cls, lam: Fraction) -> "WeightModel":
        return cls("hardcore", lam=Fraction(lam))

    @classmethod
    def tilde(cls, d: int) -> "WeightModel":
        return cls("tilde", d=d)

    @property
    def exact_available(self) -> bool:
        return self.variant != "tilde"

    def weight(self, p: Polymer) -> Fraction:
        if self.variant == "unweighted":
            return Fraction(1, 1 << p.nbhd_size)
        if self.variant == "hardcore":
            return self.lam**p.size / (1 + self.lam) ** p.nbhd_size
        raise InvalidInputError("tilde weights have no exact rational form")

    def log_weight(self, p: Polymer) -> float:
        return self.log_class_weight(p.size, p.nbhd_size)

    def log_class_weight(self, size: int, nbhd_size: int) -> float:
        """ln of the weight of a polymer, or of a compatible configuration,
        with ``size`` vertices and ``nbhd_size`` neighbours: every model's
        log weight is linear in the pair, so it adds over compatible sets."""
        if self.variant == "unweighted":
            return -nbhd_size * math.log(2)
        if self.variant == "hardcore":
            return size * math.log(self.lam) - nbhd_size * math.log(1 + self.lam)
        boost = size * (math.log2(self.d) ** 2 / self.d)
        return (boost - nbhd_size) * math.log(2)

    def class_weights(self, n: int, n_other: int) -> ClassWeights:
        """Exact weights by class (s, w) for s <= n and w <= n_other."""
        if self.variant == "tilde":
            raise InvalidInputError("tilde weights have no exact rational form")
        return ClassWeights(self.lam if self.variant == "hardcore" else Fraction(1), n, n_other)

    def describe(self) -> str:
        if self.variant == "hardcore":
            return f"hardcore(lambda={self.lam})"
        if self.variant == "tilde":
            return f"tilde(d={self.d})"
        return "unweighted"


class ClassWeights:
    """lam^s / (1+lam)^w (lam = 1 unweighted), the weight of a compatible
    configuration with s vertices and w neighbours, as an integer numerator
    over one common denominator for 0 <= s <= n and 0 <= w <= n_other: with
    lam = a/b it is a^s b^(n-s+w) (a+b)^(n_other-w) / (b^n (a+b)^n_other),
    both exponents nonnegative."""

    def __init__(self, lam: Fraction, n: int, n_other: int) -> None:
        a, b = lam.numerator, lam.denominator
        self._pow_a = [a**k for k in range(n + 1)]
        self._pow_b = [b**k for k in range(n + n_other + 1)]
        self._pow_ab = [(a + b) ** k for k in range(n_other + 1)]
        self._n, self._n_other = n, n_other
        self.denominator = self._pow_b[n] * self._pow_ab[n_other]

    def numerator(self, s: int, w: int) -> int:
        return self._pow_a[s] * self._pow_b[self._n - s + w] * self._pow_ab[self._n_other - w]


def are_compatible(g1: Polymer, g2: Polymer) -> bool:
    """True iff the union is not 2-linked: no shared vertices and no shared
    neighbors.  Every polymer is incompatible with itself."""
    if g1.side != g2.side:
        raise InvalidInputError("compatibility is defined for same-side polymers")
    return not (g1.bits & g2.bits or g1.nbhd & g2.nbhd)


def enumerate_polymers(
    G: BipartiteGraph,
    fam: PolymerFamily,
    size_cap: int,
    max_polymers: int = 1 << 20,
) -> list[Polymer]:
    """The polymer universe up to ``size_cap`` vertices, sorted by bit mask.
    A region's universe is this one filtered by ``restrict_universe``.

    A filter of ``graphs.two_linked_sets`` over the family's side: every set
    it yields is 2-linked and comes with |N(S)| and |[S]|, which decide
    membership.  The walk is pruned by ``top``, the largest |N| that
    ``admits_sizes`` accepts beside each |[S]|: both only grow with S and
    |N| never exceeds the other side, so past it no superset is a polymer."""
    side = fam.side
    n = G.side_size(side)
    n_other = G.side_size(opposite(side))
    admitted = [
        [fam.admits_sizes(G, w, a) for w in range(n_other + 1)] for a in range(n + 1)
    ]
    top = [max((w for w, ok in enumerate(row) if ok), default=-1) for row in admitted]
    out: list[Polymer] = []
    for bits, nbhd, closed in two_linked_sets(G, side, size_cap, top=top):
        if admitted[closed.bit_count()][nbhd.bit_count()]:
            if len(out) >= max_polymers:
                raise CapacityError(
                    f"polymer universe exceeds {max_polymers} members (partial count)"
                )
            out.append(Polymer(side, bits, nbhd))
    out.sort(key=lambda p: p.bits)
    return out


def restrict_universe(universe: Sequence[Polymer], region: int) -> list[Polymer]:
    """The polymers of ``universe`` that lie inside ``region``, in order.

    This is exactly the universe of the region itself: membership is decided
    by parent-graph predicates, and 2-linkedness depends on the set alone
    (its square-graph edges join its own vertices), so a polymer inside the
    region is found by enumerating either the region or the whole side."""
    return [p for p in universe if not p.bits & ~region]


def incompatibility_masks(universe: Sequence[Polymer]) -> list[int]:
    """mask[i] has bit j set when polymer j is incompatible with polymer i
    (the diagonal is always set).

    Built from one bin per neighbour y, the polymers whose neighbourhood
    holds y: mask[i] is the OR of the bins over N(gamma_i).  Two same-side
    polymers that share a vertex share its neighbours (graphs of degree 0
    are rejected and ``nbhd`` is N(bits)), so sharing a neighbour is exactly
    incompatibility."""
    if len({p.side for p in universe}) > 1:
        raise InvalidInputError("compatibility is defined for same-side polymers")
    nbrs = [list(iter_bits(p.nbhd)) for p in universe]
    bins: dict[int, int] = {}
    for i, ys in enumerate(nbrs):
        bit = 1 << i
        for y in ys:
            bins[y] = bins.get(y, 0) | bit
    masks = []
    for ys in nbrs:
        mask = 0
        for y in ys:
            mask |= bins[y]
        masks.append(mask)
    return masks


def _fits_masks(sizes: Sequence[int], budget: int) -> list[int]:
    """fits[r] for r = 0..budget: the mask of the polymers of size at most r."""
    fits = [0] * (budget + 1)
    for i, size in enumerate(sizes):
        if size <= budget:
            fits[size] |= 1 << i
    for r in range(1, budget + 1):
        fits[r] |= fits[r - 1]
    return fits


CONFIG_BUDGET = 1 << 22  # compatible configurations one walk may visit


def iter_compatible_configs(
    universe: Sequence[Polymer], max_configs: int = CONFIG_BUDGET, max_size: int | None = None
) -> Iterator[tuple[int, ...]]:
    """Every collection of pairwise-compatible polymers as a tuple of
    ascending universe indices; the empty collection comes first.  With
    ``max_size``, only those of total size at most ``max_size``: a polymer
    too large for the budget left is masked out before it is tried."""
    incompat = incompatibility_masks(universe)
    sizes = [p.size for p in universe]
    budget = sum(sizes) if max_size is None else max(max_size, 0)
    fits = _fits_masks(sizes, budget)
    count = 0

    def walk(free: int, chosen: tuple[int, ...], room: int) -> Iterator[tuple[int, ...]]:
        # free: the polymers after the last choice compatible with all of it
        nonlocal count
        count += 1
        if count > max_configs:
            raise CapacityError(f"more than {max_configs} polymer configurations")
        yield chosen
        while free:
            low = free & -free
            free ^= low
            i = low.bit_length() - 1
            left = room - sizes[i]
            yield from walk(free & ~incompat[i] & fits[left], chosen + (i,), left)

    yield from walk(fits[budget], (), budget)


class SizePolynomial(list):
    """Size-polynomial coefficients c_0, c_1, ... and ``configs``, the number
    of configurations summed into them."""

    configs = 0


def xi_size_polynomial(
    universe: Sequence[Polymer], m: WeightModel, max_configs: int = CONFIG_BUDGET,
    upto: int | None = None,
) -> SizePolynomial:
    """Coefficients c_k = total weight of compatible configurations with
    combined polymer size k; c_0 = 1 and sum(c) = Xi.  With ``upto``, only
    c_0..c_upto, from the configurations of total size at most ``upto``.
    Exact models give Fractions, the tilde model floats.

    Compatible polymers have disjoint vertices and disjoint neighbourhoods,
    so a configuration's weight depends only on its class (s, w), its total
    size and total neighbourhood size: the walk only counts configurations
    per class, and each nonzero class is weighed once, in integers over one
    common denominator (exact) or by ``math.fsum`` (tilde)."""
    bits = nbhd = total_size = 0
    for p in universe:
        bits |= p.bits
        nbhd |= p.nbhd
        total_size += p.size
    # a configuration covers w <= |union of N(gamma)| neighbours, so the
    # cell s * stride + w is a sum of per-polymer keys without carries
    stride = nbhd.bit_count() + 1
    keys = [p.size * stride + p.nbhd_size for p in universe]
    cells = Counter(
        sum(map(keys.__getitem__, config))
        for config in iter_compatible_configs(universe, max_configs, upto)
    )
    length = (total_size if upto is None else upto) + 1
    if m.exact_available:
        weights = m.class_weights(bits.bit_count(), stride - 1)
        nums = [0] * length
        for cell, count in cells.items():
            s, w = divmod(cell, stride)
            nums[s] += count * weights.numerator(s, w)
        coeffs = SizePolynomial(Fraction(c, weights.denominator) for c in nums)
    else:
        terms: list[list[float]] = [[] for _ in range(length)]
        for cell, count in cells.items():
            s, w = divmod(cell, stride)
            terms[s].append(count * math.exp(m.log_class_weight(s, w)))
        coeffs = SizePolynomial(math.fsum(t) for t in terms)
    coeffs.configs = sum(cells.values())
    return coeffs


def log_series_coefficients(coeffs: Sequence[Fraction], upto: int) -> list[Fraction]:
    """Taylor coefficients a_l of ln(sum c_k z^k) around z=0, l = 0..upto, by
    a_l = c_l - sum_{j<l} (j/l) a_j c_{l-j}: exact for Fraction (or int)
    coefficients, in floats for float ones.  The cluster expansion's grade-l
    terms sum to exactly a_l.

    Exact input runs in integers: with c_k = C_k / L over the common
    denominator L, B_l = l a_l L^l obeys
    B_l = l C_l L^(l-1) - sum_{j<l} B_j C_{l-j} L^(l-j-1)."""
    if not coeffs or coeffs[0] != 1:
        raise InvalidInputError("series log needs c_0 = 1")
    if isinstance(coeffs[0], float):
        c = [float(coeffs[k]) if k < len(coeffs) else 0.0 for k in range(upto + 1)]
        a = [0.0] * (upto + 1)
        for ell in range(1, upto + 1):
            a[ell] = c[ell] - sum((j * a[j] * c[ell - j] for j in range(1, ell)), 0.0) / ell
        return a
    c = [Fraction(coeffs[k]) if k < len(coeffs) else Fraction(0) for k in range(upto + 1)]
    den = math.lcm(*(x.denominator for x in c))
    nums = [x.numerator * (den // x.denominator) for x in c]
    pow_den = [1]
    for _ in range(upto):
        pow_den.append(pow_den[-1] * den)
    big_b = [0] * (upto + 1)
    for ell in range(1, upto + 1):
        acc = ell * nums[ell] * pow_den[ell - 1]
        for j in range(1, ell):
            acc -= big_b[j] * nums[ell - j] * pow_den[ell - j - 1]
        big_b[ell] = acc
    return [Fraction(b, ell * pow_den[ell]) if ell else Fraction(0) for ell, b in enumerate(big_b)]

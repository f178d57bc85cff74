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

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

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

    def admitted_table(self, G: BipartiteGraph) -> list[list[bool]]:
        """``admits_sizes`` as table[|[S]|][|N(S)|] over the family's side and
        the other; the smallness rule reads |[S]| alone."""
        n, n_other = G.side_size(self.side), G.side_size(opposite(self.side))
        if self.membership == "expanding":
            return self.params.expands_table(G.d, n, n_other)
        return [[self.admits_sizes(G, 0, a)] * (n_other + 1) for a in range(n + 1)]


class WeightModel:
    """Polymer weight assignment with exact-rational and log evaluation.

    Everything the fugacity decides is read off the model: ``lam`` (1
    unweighted, where lam^s (1+lam)^-w is 2^-w), the polymer family
    ``membership`` it expands over, and ``fill`` = lam/(1+lam), the rate
    at which the samplers fill the free opposite side.  ``fill`` and the
    logs of lam and 1+lam are taken on first read, so a count that builds
    a model does no more Fraction work than lam itself."""

    def __init__(self, variant: str, lam: Fraction | None = None):
        if variant not in ("unweighted", "hardcore"):
            raise InvalidInputError(f"unknown weight variant {variant!r}")
        if variant == "unweighted":
            lam = 1
        elif lam is None or lam <= 0:
            raise InvalidInputError("hardcore weights need lambda > 0")
        self.variant = variant
        self.lam = Fraction(lam)
        self.membership = "small" if variant == "hardcore" else "expanding"

    @classmethod
    def unweighted(cls) -> "WeightModel":
        return cls("unweighted")

    @classmethod
    def hardcore(cls, lam: Fraction) -> "WeightModel":
        return cls("hardcore", Fraction(lam))

    @functools.cached_property
    def fill(self) -> Fraction:
        return self.lam / (1 + self.lam)

    @functools.cached_property
    def _logs(self) -> tuple[float, float]:
        # the logs of the floats lam and 1 + lam convert to, from integers:
        # 1 + a/b is (a+b)/b in lowest terms
        a, b = self.lam.numerator, self.lam.denominator
        return math.log(a / b), math.log((a + b) / b)

    def weight(self, p: Polymer) -> Fraction:
        return self.lam**p.size / (1 + self.lam) ** p.nbhd_size

    def log_weight(self, p: Polymer) -> float:
        ln_lam, ln_one_plus = self._logs
        return p.size * ln_lam - p.nbhd_size * ln_one_plus

    def class_weights(self, n: int, n_other: int) -> ClassWeights:
        """Exact weights by class (s, w) for s <= n and w <= n_other."""
        return ClassWeights(self.lam, n, n_other)

    def describe(self) -> str:
        if self.variant == "hardcore":
            return f"hardcore(lambda={self.lam})"
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


POLYMER_BUDGET = 1 << 20  # polymers one universe may hold
CONFIG_BUDGET = 1 << 22  # compatible configurations one walk may visit
MASK_BUDGET = 256 << 23  # bits (256 MiB) the incompatibility masks of a universe may hold


def enumerate_polymers(G: BipartiteGraph, fam: PolymerFamily, size_cap: int) -> PolymerUniverse:
    """The polymer universe up to ``size_cap`` vertices, sorted by bit mask.
    A region's polymers are the universe's mask ``within(region)``.

    The universe depends on the graph, the family and the cap alone (a cap
    past the side's size is the side's size), so it is kept in the graph's
    memo and built once per graph object."""
    cap = min(size_cap, G.side_size(fam.side))
    return G.memo(("polymers", fam, cap), lambda: _build_universe(G, fam, cap))


def _build_universe(G: BipartiteGraph, fam: PolymerFamily, size_cap: int) -> PolymerUniverse:
    """A filter of ``graphs.two_linked_sets`` over the family's side: every set
    it yields is 2-linked and comes with |N(S)| and |[S]|, which decide
    membership.  The walk is pruned by ``top``, the largest |N| that
    ``admits_sizes`` accepts beside each |[S]|: both only grow with S and
    |N| never exceeds the other side, so past it no superset is a polymer."""
    side = fam.side
    admitted = fam.admitted_table(G)
    top = [max((w for w, ok in enumerate(row) if ok), default=-1) for row in admitted]
    out: list[Polymer] = []
    for bits, nbhd, closed in two_linked_sets(G, side, size_cap, top=top):
        if admitted[closed.bit_count()][nbhd.bit_count()]:
            if len(out) >= POLYMER_BUDGET:
                raise CapacityError(
                    f"polymer universe exceeds {POLYMER_BUDGET} members (partial count)"
                )
            out.append(Polymer(side, bits, nbhd))
    out.sort(key=lambda p: p.bits)
    return PolymerUniverse(out)


def incompatibility_masks(universe: Sequence[Polymer]) -> list[int]:
    """mask[i] has bit j set when polymer j is incompatible with polymer i
    (the diagonal is always set).

    Built from one bin per neighbour y, the polymers whose neighbourhood
    holds y: mask[i] is the OR of the bins over N(gamma_i).  Two same-side
    polymers that share a vertex share its neighbours (graphs of degree 0
    are rejected and ``nbhd`` is N(bits)), so sharing a neighbour is exactly
    incompatibility.  Masks over ``MASK_BUDGET`` raise CapacityError before
    any bin is built: a mask is as long as the longest bin it takes, one
    more than the highest index of a polymer holding that neighbour, so the
    need is counted from those indices alone."""
    if len({p.side for p in universe}) > 1:
        raise InvalidInputError("compatibility is defined for same-side polymers")
    nbrs = [list(iter_bits(p.nbhd)) for p in universe]
    top: dict[int, int] = {}
    for i, ys in enumerate(nbrs):
        for y in ys:
            top[y] = i
    need = sum(max(map(top.__getitem__, ys)) + 1 for ys in nbrs)
    if need > MASK_BUDGET:
        mib = need >> 23
        raise CapacityError(f"incompatibility masks of {len(universe)} polymers need {mib} MiB")
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


class PolymerUniverse(tuple):
    """The polymers of one (graph, family, size cap) with what every reader
    takes from them, built once: ``incompat``, ``sizes``, ``holding[v]``
    (the polymers holding vertex v), the size polynomial's cell ``keys`` and,
    on first use, the walk's size masks ``fits``.  ``walks`` keeps, per
    (size budget, polymer mask), what ``xi_size_polynomial`` counted there:
    the number of configurations and their class counts, which no weight
    model enters.  A region is read as the polymer mask ``within``."""

    def __new__(cls, polymers: Iterable[Polymer]) -> PolymerUniverse:
        self = super().__new__(cls, polymers)
        self.incompat = incompatibility_masks(self)
        self.sizes = [p.size for p in self]
        self.all = (1 << len(self)) - 1
        self.holding, reach = {}, 0
        for i, p in enumerate(self):
            reach |= p.nbhd
            bit, rest = 1 << i, p.bits
            while rest:
                low = rest & -rest
                rest ^= low
                v = low.bit_length() - 1
                self.holding[v] = self.holding.get(v, 0) | bit
        # a configuration covers w <= |union of N(gamma)| neighbours, so the
        # cell s * stride + w is a sum of per-polymer keys without carries
        self.stride = reach.bit_count() + 1
        self.keys = [p.size * self.stride + p.nbhd_size for p in self]
        self._fits: list[int] = []
        self.walks: dict[tuple[int, int], tuple[int, tuple[tuple[int, int], ...]]] = {}
        return self

    def within(self, region: int) -> int:
        """The mask of the polymers inside ``region``, its own universe's: both
        membership and 2-linkedness are decided on the set alone."""
        mask = self.all
        for v, held in self.holding.items():
            if not region >> v & 1:
                mask &= ~held
        return mask

    def fits(self, budget: int) -> list[int]:
        """A list whose entry r, for r = 0..budget at least, is the mask of the
        polymers of size at most r.  It is built once per universe, on first
        use, up to the largest polymer size; every later entry is ``all``, so
        a larger budget only lengthens the one list."""
        fits = self._fits
        if not fits:
            fits.extend(_fits_masks(self.sizes, max(self.sizes, default=0)))
        if len(fits) <= budget:
            fits.extend([self.all] * (budget + 1 - len(fits)))
        return fits


def _fits_masks(sizes: Sequence[int], budget: int) -> list[int]:
    """fits[r] for r = 0..budget: the mask of the polymers of size at most r."""
    fits = [0] * (budget + 1)
    for i, size in enumerate(sizes):
        if size <= budget:
            fits[size] |= 1 << i
    for r in range(1, budget + 1):
        fits[r] |= fits[r - 1]
    return fits


def compatible_configs(
    incompat: Sequence[int], firsts: Sequence[int], seconds: Sequence[int], budget: int, over: str,
) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """Every collection of items that pairwise clear ``incompat`` (bit j of
    incompat[i]: i and j clash), as (its ascending indices, the OR of its
    ``firsts``, the OR of its ``seconds``), the empty one first, then depth
    first.  Past ``budget`` collections it raises CapacityError(``over``).
    A stack frame holds a collection, the later items still open to it and
    its two ORs, so a collection costs a few mask operations."""
    if budget < 1:  # the empty collection is the first one met
        raise CapacityError(over)
    everyone = (1 << len(incompat)) - 1
    clear = [everyone & ~clash for clash in incompat]  # nonnegative, so & stays cheap
    count = 1
    yield (), 0, 0
    stack = [((), everyone, 0, 0)]
    while stack:
        chosen, free, first, second = stack[-1]
        if not free:
            stack.pop()
            continue
        low = free & -free
        free ^= low
        stack[-1] = (chosen, free, first, second)
        count += 1
        if count > budget:
            raise CapacityError(over)
        i = low.bit_length() - 1
        chosen += (i,)
        first |= firsts[i]
        second |= seconds[i]
        yield chosen, first, second
        free &= clear[i]
        if free:
            stack.append((chosen, free, first, second))


def _count_cells(
    universe: PolymerUniverse, budget: int, mask: int
) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The configurations of ``mask`` with total size at most ``budget``, in
    ``compatible_configs``' order, counted per class cell s * stride + w:
    their number, and each cell with its count in the order the walk first
    meets it.  A polymer too large for the budget left is masked out before
    it is tried, and each cell is carried as a sum of per-polymer keys, with
    no tuple of indices.  Past ``CONFIG_BUDGET`` configurations it raises."""
    incompat, sizes, keys = universe.incompat, universe.sizes, universe.keys
    max_configs = CONFIG_BUDGET
    over = f"more than {max_configs} polymer configurations"
    if max_configs < 1:  # the empty configuration is the first one met
        raise CapacityError(over)
    fits = universe.fits(budget)
    cells = {0: 1}
    count = 1
    stack = [(fits[budget] & mask, 0, budget)]
    while stack:
        free, cell, room = stack[-1]
        if not free:
            stack.pop()
            continue
        low = free & -free
        free ^= low
        stack[-1] = (free, cell, room)
        count += 1
        if count > max_configs:
            raise CapacityError(over)
        i = low.bit_length() - 1
        cell += keys[i]
        cells[cell] = cells.get(cell, 0) + 1
        room -= sizes[i]
        free &= ~incompat[i] & fits[room]
        if free:
            stack.append((free, cell, room))
    return count, tuple(cells.items())


class SizePolynomial(list):
    """Size-polynomial coefficients c_0, c_1, ... and ``configs``, the number
    of configurations summed into them."""

    configs = 0


def class_counts(
    universe: PolymerUniverse, upto: int | None = None, mask: int = -1,
) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The universe's ``walks`` entry of the configurations of ``mask``
    (default -1: all) with total size at most ``upto`` (default: every
    one): their number, and each class cell s * stride + w with its count,
    walked on first use.  A budget at or past the mask's total size walks
    every configuration and shares one entry."""
    mask &= universe.all
    total = sum(map(universe.sizes.__getitem__, iter_bits(mask)))
    key = (total if upto is None else min(max(upto, 0), total), mask)
    walk = universe.walks.get(key)
    if walk is None:
        walk = universe.walks[key] = _count_cells(universe, key[0], mask)
    return walk


def xi_size_polynomial(
    universe: PolymerUniverse, m: WeightModel, upto: int | None = None, mask: int = -1,
) -> SizePolynomial:
    """Coefficients c_k = total weight of the compatible configurations of
    ``mask`` (default -1: all) with combined polymer size k; c_0 = 1 and
    sum(c) = Xi.  With ``upto``, only c_0..c_upto, from the configurations
    of total size at most ``upto``, as Fractions.

    Compatible polymers have disjoint vertices and disjoint neighbourhoods,
    so a configuration's weight depends only on its class (s, w), its total
    size and total neighbourhood size: the walk only counts configurations
    per class (``class_counts``), and each nonzero class is weighed once, in
    integers over one common denominator.  The counts are kept in the
    universe's ``walks``, so a later call on the same (budget, mask), under
    any weight model, only weighs them."""
    if upto is None:
        upto = sum(map(universe.sizes.__getitem__, iter_bits(mask & universe.all)))
    configs, cells = class_counts(universe, upto, mask)
    stride = universe.stride
    weights = m.class_weights(len(universe.holding), stride - 1)
    nums = [0] * (upto + 1)
    for cell, count in cells:
        s, w = divmod(cell, stride)
        nums[s] += count * weights.numerator(s, w)
    coeffs = SizePolynomial(Fraction(c, weights.denominator) for c in nums)
    coeffs.configs = configs
    return coeffs


def log_series_coefficients(coeffs: Sequence[Fraction], upto: int) -> list[Fraction]:
    """Taylor coefficients a_l of ln(sum c_k z^k) around z=0, l = 0..upto, by
    a_l = c_l - sum_{j<l} (j/l) a_j c_{l-j}, exact for Fraction (or int)
    coefficients.  The cluster expansion's grade-l terms sum to exactly a_l.

    The recurrence runs in integers: with c_k = C_k / L over the common
    denominator L, B_l = l a_l L^l obeys
    B_l = l C_l L^(l-1) - sum_{j<l} B_j C_{l-j} L^(l-j-1)."""
    if not coeffs or coeffs[0] != 1:
        raise InvalidInputError("series log needs c_0 = 1")
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

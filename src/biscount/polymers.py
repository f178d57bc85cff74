"""Polymer models over 2-linked vertex sets.

A polymer lives on one side of the bipartition and is blamed for the
neighborhood it occupies: the unweighted model charges 2^{-|N(gamma)|}, the
hardcore model lambda^{|gamma|} (1+lambda)^{-|N(gamma)|}.  Two polymers are
compatible when their union is not 2-linked, which for same-side sets means
disjoint vertices and disjoint neighborhoods.  The partition function sums
weight products over compatible collections; the log series of its size
polynomial is the log expansion, and clusters give it term by term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
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
        if self.variant == "unweighted":
            return -p.nbhd_size * math.log(2)
        if self.variant == "hardcore":
            return p.size * math.log(self.lam) - p.nbhd_size * math.log(1 + self.lam)
        boost = p.size * (math.log2(self.d) ** 2 / self.d)
        return (boost - p.nbhd_size) * math.log(2)

    def describe(self) -> str:
        if self.variant == "hardcore":
            return f"hardcore(lambda={self.lam})"
        if self.variant == "tilde":
            return f"tilde(d={self.d})"
        return "unweighted"


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
    bins: dict[int, int] = {}
    for i, p in enumerate(universe):
        bit = 1 << i
        for y in iter_bits(p.nbhd):
            bins[y] = bins.get(y, 0) | bit
    masks = []
    for p in universe:
        mask = 0
        for y in iter_bits(p.nbhd):
            mask |= bins[y]
        masks.append(mask)
    return masks


URSELL_CAP = 10  # largest multiset evaluated: O(3^k) time, 2^k memory


def ursell(adj: Sequence[int], cap: int = URSELL_CAP) -> int:
    """Raw Ursell value of an incompatibility graph H on k vertices:
    the alternating sum of (-1)^{|E'|} over spanning connected edge subsets.

    Computed by the deletion recursion: with A(S) = 1 iff H[S] is edgeless,
    C(S) = A(S) - sum over proper S1 containing min(S) of C(S1) * A(S - S1).
    """
    k = len(adj)
    if k == 0:
        raise InvalidInputError("the Ursell function needs at least one vertex")
    if k > cap:
        raise CapacityError(f"Ursell cap {cap} exceeded ({k} vertices)")
    full = (1 << k) - 1
    edgeless = [False] * (full + 1)
    edgeless[0] = True
    for mask in range(1, full + 1):
        v = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << v)
        edgeless[mask] = edgeless[rest] and not (adj[v] & mask)
    conn = [0] * (full + 1)
    for mask in range(1, full + 1):
        rbit = mask & -mask
        rest = mask ^ rbit
        total = 1 if edgeless[mask] else 0
        # proper subsets containing the root: root | sub for sub strictly
        # inside rest
        sub = rest
        while True:
            sub = (sub - 1) & rest
            if sub == rest:
                break
            total -= conn[rbit | sub] * (1 if edgeless[rest ^ sub] else 0)
            if sub == 0:
                break
        conn[mask] = total
    return conn[full]


@dataclass(frozen=True)
class ClusterTerm:
    """One cluster's contribution to ln Xi: a multiset of universe indices,
    its total vertex count, and the signed value phi(H) * prod(w) / prod(m!)."""

    indices: tuple[int, ...]
    size: int
    value: Fraction | float


def _multiset_ursell(
    support: Sequence[int], mult: Sequence[int], incompat: Sequence[int]
) -> int:
    # Expand the multiset into one vertex per copy; copies of one polymer
    # are pairwise incompatible, so H is determined by the support edges.
    owners = []
    for idx, m in zip(support, mult):
        owners.extend([idx] * m)
    k = len(owners)
    adj = [0] * k
    for i in range(k):
        for j in range(i + 1, k):
            if owners[i] == owners[j] or incompat[owners[i]] >> owners[j] & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return ursell(adj, cap=URSELL_CAP)


def _fits_masks(sizes: Sequence[int], budget: int) -> list[int]:
    """fits[r] for r = 0..budget: the mask of the polymers of size at most r."""
    fits = [0] * (budget + 1)
    for i, size in enumerate(sizes):
        if size <= budget:
            fits[size] |= 1 << i
    for r in range(1, budget + 1):
        fits[r] |= fits[r - 1]
    return fits


def _supports_within(
    adj: Sequence[int], root: int, sizes: Sequence[int], budget: int, allowed: int
) -> list[int]:
    """All masks S with root in S, S within ``allowed``, S connected under
    ``adj`` and total size sum(sizes[i] for i in S) <= budget, each once.
    A forbidden-set walk, the growth ``graphs.two_linked_sets`` makes in the
    square graph, here over ``adj`` with the size budget applied at every
    step: a polymer too large for the room a support has left is too large
    for every extension of it too, so it is never tried."""
    fits = _fits_masks(sizes, budget)
    out: list[int] = []

    def rec(s: int, room: int, frontier: int, forbidden: int) -> None:
        out.append(s)
        ext = frontier & fits[room]
        while ext:
            low = ext & -ext
            ext ^= low
            u = low.bit_length() - 1
            forbidden |= low
            grow = adj[u] & allowed & ~forbidden & ~s & ~ext
            rec(s | low, room - sizes[u], ext | grow, forbidden)

    root_bit = 1 << root
    rec(root_bit, budget - sizes[root], adj[root] & allowed & ~root_bit, root_bit)
    return out


def enumerate_clusters(
    universe: Sequence[Polymer],
    ell: int,
    m: WeightModel,
    max_clusters: int = 1 << 22,
) -> Iterator[ClusterTerm]:
    """Stream every cluster of total size <= ell with its signed term.

    Clusters are unordered multisets of polymers whose incompatibility graph
    is connected (copies of one polymer are always mutually incompatible, so
    connectivity is a support property).  Growth is rooted at the lowest
    universe index.  Terms use the symmetrized convention: raw Ursell value
    times the weight product divided by the product of multiplicity
    factorials; their sum over all sizes is ln Xi.  More than URSELL_CAP
    polymers in one cluster raise CapacityError.  A test oracle only:
    ``truncated_log_xi`` takes the series route.
    """
    if ell < 1 or not universe:
        return
    k = len(universe)
    incompat = incompatibility_masks(universe)
    support_adj = [incompat[i] & ~(1 << i) for i in range(k)]
    sizes = [p.size for p in universe]
    exact = m.exact_available
    weights = [m.weight(p) if exact else math.exp(m.log_weight(p)) for p in universe]
    emitted = 0
    for root in range(k):
        if sizes[root] > ell:
            continue
        allowed = ((1 << k) - 1) & ~((1 << root) - 1)
        for support_bits in _supports_within(support_adj, root, sizes, ell, allowed):
            support = list(iter_bits(support_bits))
            mult = [1] * len(support)

            def rec(pos: int, total: int) -> Iterator[ClusterTerm]:
                nonlocal emitted
                if pos == len(support):
                    phi = _multiset_ursell(support, mult, incompat)
                    if phi:
                        val = Fraction(phi) if exact else float(phi)
                        idx_tuple: list[int] = []
                        for idx, mm in zip(support, mult):
                            val *= weights[idx] ** mm
                            val /= factorial(mm)
                            idx_tuple.extend([idx] * mm)
                        emitted += 1
                        if emitted > max_clusters:
                            raise CapacityError(
                                f"more than {max_clusters} clusters at ell={ell}"
                            )
                        yield ClusterTerm(tuple(idx_tuple), total, val)
                    return
                i = support[pos]
                mm = 1
                while total + sizes[i] * mm <= ell:
                    mult[pos] = mm
                    yield from rec(pos + 1, total + sizes[i] * mm)
                    mm += 1
                mult[pos] = 1

            yield from rec(0, 0)


CONFIG_BUDGET = 1 << 22  # compatible configurations one walk may visit


def iter_compatible_configs(
    universe: Sequence[Polymer], max_configs: int = CONFIG_BUDGET, max_size: int | None = None
) -> Iterator[tuple[int, ...]]:
    """Every collection of pairwise-compatible polymers as a tuple of
    ascending universe indices; the empty collection comes first.  With
    ``max_size``, only those of total size at most ``max_size``: a polymer
    too large for the budget left is masked out before it is tried."""
    k = len(universe)
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
    Exact models give Fractions, the tilde model floats."""
    sizes = [p.size for p in universe]
    exact = m.exact_available
    weights = [m.weight(p) if exact else math.exp(m.log_weight(p)) for p in universe]
    one = Fraction(1) if exact else 1.0
    coeffs = SizePolynomial([one * 0] * ((sum(sizes) if upto is None else upto) + 1))
    for walked, config in enumerate(iter_compatible_configs(universe, max_configs, upto), 1):
        w = one
        s = 0
        for i in config:
            w *= weights[i]
            s += sizes[i]
        coeffs[s] += w
    coeffs.configs = walked
    return coeffs


def log_series_coefficients(coeffs: Sequence[Fraction], upto: int) -> list[Fraction]:
    """Taylor coefficients a_l of ln(sum c_k z^k) around z=0, l = 0..upto, by
    a_l = c_l - sum_{j<l} (j/l) a_j c_{l-j}: exact for Fraction (or int)
    coefficients, in floats for float ones.  The cluster expansion's grade-l
    terms sum to exactly a_l."""
    if not coeffs or coeffs[0] != 1:
        raise InvalidInputError("series log needs c_0 = 1")
    num = float if isinstance(coeffs[0], float) else Fraction
    c = [num(coeffs[k]) if k < len(coeffs) else num(0) for k in range(upto + 1)]
    a = [num(0)] * (upto + 1)
    for ell in range(1, upto + 1):
        a[ell] = c[ell] - sum((j * a[j] * c[ell - j] for j in range(1, ell)), num(0)) / ell
    return a

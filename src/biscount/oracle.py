"""Exact reference counters, distributions, and samplers.

Everything in this module is arbitrary-precision integer or Fraction
arithmetic; it exists to verify the approximate algorithms, not to compete
with them.  Counts use two independent routes (a one-side subset sweep for
bipartite inputs and a branching recursion for arbitrary graphs) so each can
check the other.
"""

from __future__ import annotations

import functools
import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Iterator

from .errors import CapacityError, InvalidInputError
from .graphs import BipartiteGraph, Graph, iter_bits, neighborhood_bits


@dataclass(frozen=True)
class ExactCount:
    value: int | Fraction


# -- bipartite sweep ----------------------------------------------------------

def _gray_sweep(G: BipartiteGraph, term):
    """Visit every S subseteq X in Gray-code order, keeping |N(S)| incremental.

    ``term(s_size, covered)`` is accumulated over all S; coverage counters per
    Y-vertex make each step O(d).
    """
    n_x = G.n_x
    counts = [0] * G.n_y
    covered = 0
    s_size = 0
    mask = 0
    total = term(0, 0)
    for idx in range(1, 1 << n_x):
        u = (idx & -idx).bit_length() - 1
        if (mask >> u) & 1:
            mask ^= 1 << u
            s_size -= 1
            for y in G.adj_x[u]:
                counts[y] -= 1
                if counts[y] == 0:
                    covered -= 1
        else:
            mask ^= 1 << u
            s_size += 1
            for y in G.adj_x[u]:
                if counts[y] == 0:
                    covered += 1
                counts[y] += 1
        total += term(s_size, covered)
    return total


SWEEP_CAP = 30  # largest X side the subset sweep (and every oracle table) takes
GENERAL_CAP = 40  # most vertices the general branching counter takes
TABLE_CAP = 1 << 21  # most independent sets a distribution table or ExactSampler holds


def check_sweep_side(n_x: int) -> None:
    """Raise CapacityError when an X side of ``n_x`` vertices is past the
    sweep's cap."""
    if n_x > SWEEP_CAP:
        raise CapacityError(f"bipartite sweep capped at nX={SWEEP_CAP}, got {n_x}")


def exact_count_bipartite(G: BipartiteGraph) -> ExactCount:
    """i(G) = sum over S subseteq X of 2^(nY - |N(S)|), exactly."""
    check_sweep_side(G.n_x)
    pow2 = [1 << k for k in range(G.n_y + 1)]
    return ExactCount(_gray_sweep(G, lambda s, cov: pow2[G.n_y - cov]))


def exact_hardcore(G: BipartiteGraph, lam: Fraction) -> ExactCount:
    """Z_G(lam) = sum over S subseteq X of lam^|S| (1+lam)^(nY-|N(S)|).

    Scaled to a common denominator q^(nX+nY) so the sweep accumulates one big
    integer; a single Fraction is formed at the end.
    """
    lam = Fraction(lam)
    if lam <= 0:
        raise InvalidInputError("fugacity must be positive")
    check_sweep_side(G.n_x)
    p, q = lam.numerator, lam.denominator
    top = G.n_x + G.n_y
    pow_p = [p**k for k in range(G.n_x + 1)]
    pow_pq = [(p + q) ** k for k in range(G.n_y + 1)]
    pow_q = [q**k for k in range(top + 1)]

    def term(s: int, cov: int) -> int:
        m = G.n_y - cov
        return pow_p[s] * pow_pq[m] * pow_q[top - s - m]

    scaled = _gray_sweep(G, term)
    return ExactCount(Fraction(scaled, pow_q[top]))


# -- general branching counter ------------------------------------------------

def _count_mask(rows: list[int], mask: int, memo: dict[int, int]) -> int:
    if mask == 0:
        return 1
    cached = memo.get(mask)
    if cached is not None:
        return cached
    # split off the lowest connected component and recurse on the rest
    seed = mask & -mask
    comp = seed
    frontier = seed
    while frontier:
        grow = 0
        for v in iter_bits(frontier):
            grow |= rows[v]
        grow &= mask & ~comp
        comp |= grow
        frontier = grow
    rest = mask & ~comp
    if rest:
        result = _count_mask(rows, comp, memo) * _count_mask(rows, rest, memo)
    else:
        best_v, best_deg = -1, -1
        for v in iter_bits(mask):
            deg = (rows[v] & mask).bit_count()
            if deg > best_deg:
                best_v, best_deg = v, deg
        if best_deg == 0:
            result = 1 << mask.bit_count()
        else:
            without = _count_mask(rows, mask & ~(1 << best_v), memo)
            with_v = _count_mask(rows, mask & ~(rows[best_v] | (1 << best_v)), memo)
            result = without + with_v
    memo[mask] = result
    return result


def exact_count_general(G: Graph) -> ExactCount:
    """Branching recursion i(G) = i(G-v) + i(G-N[v]) on a max-degree vertex."""
    if G.n > GENERAL_CAP:
        raise CapacityError(f"general counter capped at {GENERAL_CAP} vertices, got {G.n}")
    return ExactCount(_count_mask(G.rows, (1 << G.n) - 1, {}))


def count_independent_in(G: Graph, mask: int) -> int:
    """i(G[mask]) for an induced subgraph given as a vertex mask."""
    return _count_mask(G.rows, mask, {})


# -- full distributions and table sampling ------------------------------------

def iter_independent_sets(G: BipartiteGraph) -> Iterator[tuple[int, int]]:
    """All independent sets as (X-mask, Y-mask) pairs, cost O(1) per set."""
    full_y = G.full_mask("Y")
    return _sets_avoiding(full_y & ~neighborhood_bits(G, "X", s) for s in range(1 << G.n_x))


def _sets_avoiding(frees: Iterable[int]) -> Iterator[tuple[int, int]]:
    # the sets (s, t) for the s-th free mask and every t inside it, in the
    # order iter_independent_sets names them
    for s, free in enumerate(frees):
        t = free
        while True:
            yield (s, t)
            if t == 0:
                break
            t = (t - 1) & free


def check_table_sides(n_x: int, n_y: int) -> None:
    """Raise CapacityError when sides of ``n_x`` and ``n_y`` vertices already
    give more independent sets than a table holds: every subset of one side
    is independent, so i(G) >= 2^n_x + 2^n_y - 1."""
    least = (1 << n_x) + (1 << n_y) - 1
    if least > TABLE_CAP:
        raise CapacityError(f"distribution table capped at {TABLE_CAP} sets, need at least {least}")


def _table_keys(G: BipartiteGraph, lam: Fraction) -> tuple[Fraction, list[tuple[int, int]]]:
    """A positive fugacity, and the keys of a distribution table: every
    independent set, in the order of ``iter_independent_sets``.

    A table over TABLE_CAP sets is refused from the side sizes when they
    suffice, else by one pass over X in ascending order, which counts the
    2^(n_y - |N(S)|) sets of each S, with N(S) from N(S minus its lowest
    vertex), and stops once its running total passes the cap (every term is
    positive, so a total named before the last S is a lower bound).  The
    sets are listed from those neighbourhoods only after the count fits, so
    X is swept once and a refused table lists nothing."""
    lam = Fraction(lam)
    if lam <= 0:
        raise InvalidInputError("fugacity must be positive")
    check_table_sides(G.n_x, G.n_y)
    rows = G.row_x
    last = (1 << G.n_x) - 1
    nbhds = [0]
    total = 1 << G.n_y
    for s in range(1, last + 1):
        low = s & -s
        nb = nbhds[s ^ low] | rows[low.bit_length() - 1]
        nbhds.append(nb)
        total += 1 << (G.n_y - nb.bit_count())
        if total > TABLE_CAP:
            need = total if s == last else f"at least {total}"
            raise CapacityError(f"distribution table capped at {TABLE_CAP} sets, need {need}")
    full_y = G.full_mask("Y")
    return lam, list(_sets_avoiding(full_y & ~nb for nb in nbhds))


def exact_distribution(
    G: BipartiteGraph, lam: Fraction = Fraction(1)
) -> dict[tuple[int, int], Fraction]:
    """The measure I -> lam^|I| / Z as an exact table keyed by (X-mask, Y-mask)."""
    lam, keys = _table_keys(G, lam)
    z = exact_hardcore(G, lam).value
    table: dict[tuple[int, int], Fraction] = {}
    for s, t in keys:
        table[(s, t)] = lam ** (s.bit_count() + t.bit_count()) / z
    return table


# uniform draws are 96-bit integers compared against floor(p * 2^96)
# thresholds, so each decision's probability is exact to within 2^-96
DRAW_BITS = 96
DRAW_DEN = 1 << DRAW_BITS


def quantize(fr: Fraction) -> int:
    """floor(fr * 2^96), the integer threshold realizing probability fr."""
    return (fr.numerator << DRAW_BITS) // fr.denominator


class ExactSampler:
    """Draws from the hard-core measure by inversion on the exact table,
    each set with its exact probability to within 2^-96.

    Set i is drawn when t_{i-1} <= r < t_i for a uniform 96-bit r, with
    t_i = floor(c_i 2^96 / total) over the cumulative weights c_i.  At
    lambda = 1 every weight is 1, so c_i = i + 1 and that i is
    ((r + 1) N - 1) >> 96 for N sets: the draw needs no table, and
    ``thresholds`` is built only when it is read."""

    def __init__(self, G: BipartiteGraph, lam: Fraction = Fraction(1), seed: int = 0):
        self._lam, self.keys = _table_keys(G, lam)
        self._top = G.n_x + G.n_y
        self._uniform = self._lam == 1
        self.rng = random.Random(seed)
        self._getrandbits = self.rng.getrandbits

    @functools.cached_property
    def thresholds(self) -> list[int]:
        # lam^|I| = p^|I| q^(top - |I|) / q^top: integer weights over one
        # common denominator, so cumulative / total is the exact probability
        p, q = self._lam.numerator, self._lam.denominator
        top = self._top
        weight = [p**k * q ** (top - k) for k in range(top + 1)]
        # the cumulative weights stream into the thresholds; only the set
        # sizes are held, as shared small ints
        sizes = [s.bit_count() + t.bit_count() for s, t in self.keys]
        total = sum(weight[k] for k in sizes)
        return [(c << DRAW_BITS) // total for c in accumulate(weight[k] for k in sizes)]

    def sample(self) -> tuple[int, int]:
        # key i with probability (thresholds[i] - thresholds[i-1]) / 2^96
        r = self._getrandbits(DRAW_BITS)
        if self._uniform:
            return self.keys[((r + 1) * len(self.keys) - 1) >> DRAW_BITS]
        return self.keys[bisect_left(self.thresholds, r + 1)]

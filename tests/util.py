"""Brute-force reference routines shared across the test modules.

Everything here recomputes quantities from first principles (subset sweeps,
direct definitions, transfer matrices) so the package is always checked
against an independently written route.
"""

import math
import random
import weakref
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import factorial
from typing import Iterator, Sequence

from biscount import (
    BipartiteGraph,
    CapacityError,
    ExpansionParams,
    Graph,
    InvalidInputError,
    SideSet,
    distinct_nonexpanding_closed,
    is_expanding,
    is_small,
    is_two_linked,
    threshold_degree_set,
)
from biscount import general_count
from biscount.expander import DRAW_BITS, DRAW_MASK, LEAD_BITS, _fair_fill_plan, quantize
from biscount.graphs import bits_of, closure_bits, iter_bits, neighborhood_bits, opposite
from biscount.graphs import two_linked_sets as graph_two_linked_sets
from biscount.instances import random_regular, random_shift
from biscount.oracle import DRAW_DEN, count_independent_in
from biscount.cluster_expansion import KPPolymerCheck, KPReport, exact_xi
from biscount.polymers import (
    Polymer,
    PolymerFamily,
    SizePolynomial,
    WeightModel,
    _fits_masks,
    enumerate_polymers,
    incompatibility_masks,
    iter_compatible_configs,
)

P1 = ExpansionParams(c1=1.0)
P100 = ExpansionParams()


def qualifying_buckets(G: BipartiteGraph, side: str, params: ExpansionParams):
    """Ground truth for the container enumeration: every closed 2-linked
    non-expanding set, bucketed under each (member vertex, size) pair."""
    n = G.side_size(side)
    buckets: dict[tuple[int, int], set[int]] = {}
    for bits in range(1, 1 << n):
        if closure_bits(G, side, bits) != bits:
            continue
        s = SideSet(side, bits)
        if not is_two_linked(G, s):
            continue
        if is_expanding(G, s, params):
            continue
        a = bits.bit_count()
        for v in iter_bits(bits):
            buckets.setdefault((v, a), set()).add(bits)
    return buckets


def closed_two_linked_sets(G: BipartiteGraph, side: str) -> list[SideSet]:
    n = G.side_size(side)
    out = []
    for bits in range(1, 1 << n):
        s = SideSet(side, bits)
        if closure_bits(G, side, bits) == bits and is_two_linked(G, s):
            out.append(s)
    return out


def two_linked_sets(G: BipartiteGraph, side: str) -> list[SideSet]:
    n = G.side_size(side)
    return [
        SideSet(side, bits)
        for bits in range(1, 1 << n)
        if is_two_linked(G, SideSet(side, bits))
    ]


def closure_candidates(G: BipartiteGraph, side: str) -> list[tuple[tuple[int, int], ...]]:
    """Per vertex u, the pairs (1 << v, row of v) for u itself and its
    square-graph neighbours: the only vertices that can join [S] when u
    joins S, as a vertex that newly fits inside N(S) has a neighbour in
    N(u)."""
    rows = G.rows(side)
    return [
        tuple((1 << v, rows[v]) for v in iter_bits(square | 1 << u))
        for u, square in enumerate(G.square_rows(side))
    ]


def reference_two_linked_sets(
    G: BipartiteGraph, side: str, size_cap: int, top: Sequence[int] | None = None,
) -> Iterator[tuple[int, int, int]]:
    """The 2-linked walk written the direct way: each child re-tests every
    closure candidate of the added vertex, every child is pushed, and the
    ``top`` bound is applied when a set is popped.  ``graphs.two_linked_sets``
    must yield the same (S, N(S), [S]) sequence in the same order."""
    n = G.side_size(side)
    cap = min(size_cap, n)
    if cap < 1:
        return
    rows = G.rows(side)
    square = G.square_rows(side)
    gains = closure_candidates(G, side)
    for r in range(n):
        forbidden = (2 << r) - 1
        nbhd = rows[r]
        closed = 0
        for bit, row in gains[r]:
            if not row & ~nbhd:
                closed |= bit
        stack = [(1 << r, 1, nbhd, closed, square[r] & ~forbidden, forbidden)]
        while stack:
            s, size, nbhd, closed, frontier, forbidden = stack.pop()
            if top is not None and nbhd.bit_count() > top[closed.bit_count()]:
                continue
            yield s, nbhd, closed
            if size == cap:
                continue
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                u = low.bit_length() - 1
                forbidden |= low
                wider = nbhd | rows[u]
                grown = closed
                if wider != nbhd:
                    for bit, row in gains[u]:
                        if not row & ~wider:
                            grown |= bit
                stack.append((
                    s | low,
                    size + 1,
                    wider,
                    grown,
                    frontier | (square[u] & ~forbidden),
                    forbidden,
                ))


def random_instances(count: int, seed: int, max_side: int = 12):
    """A reproducible mix of random regular bipartite graphs, sides 2..max_side."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(2, max_side)
        d = rng.randint(2, min(4, n))
        if (n * d) % 2:
            d += 1 if d < n else -1  # the configuration model needs n*d even
        builder = random_regular if rng.random() < 0.7 else random_shift
        out.append(builder(n, d, seed=rng.randrange(1 << 30)))
    return out


def tv(p: dict, q: dict) -> Fraction:
    """Total variation distance between two finitely supported measures."""
    keys = set(p) | set(q)
    total = Fraction(0)
    for k in keys:
        total += abs(Fraction(p.get(k, 0)) - Fraction(q.get(k, 0)))
    return total / 2


def cycle_transfer(m: int, lam: Fraction) -> Fraction:
    """Z of the hard-core model on the m-cycle via the 2x2 transfer matrix."""
    lam = Fraction(lam)

    def mul(a, b):
        return (
            (
                a[0][0] * b[0][0] + a[0][1] * b[1][0],
                a[0][0] * b[0][1] + a[0][1] * b[1][1],
            ),
            (
                a[1][0] * b[0][0] + a[1][1] * b[1][0],
                a[1][0] * b[0][1] + a[1][1] * b[1][1],
            ),
        )

    t = ((Fraction(1), Fraction(1)), (lam, Fraction(0)))
    acc = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    e = m
    base = t
    while e:
        if e & 1:
            acc = mul(acc, base)
        base = mul(base, base)
        e >>= 1
    return acc[0][0] + acc[1][1]


def general_circulant(n: int, offsets) -> Graph:
    """Circulant graph on n vertices; regular whenever the offsets are
    distinct mod n and none is its own negation."""
    edges = set()
    for v in range(n):
        for o in offsets:
            edges.add((min(v, (v + o) % n), max(v, (v + o) % n)))
    return Graph.from_edges(n, sorted(edges))


def brute_i_general(G: Graph) -> int:
    return sum(1 for mask in range(1 << G.n) if G.is_independent(mask))


def greedy_independent(G: Graph, rng: random.Random) -> int:
    """A random maximal independent set, for sampling certificate inputs."""
    order = list(range(G.n))
    rng.shuffle(order)
    chosen = 0
    blocked = 0
    for v in order:
        if not (blocked >> v) & 1:
            chosen |= 1 << v
            blocked |= G.rows[v] | 1 << v
    return chosen


def brute_polymer_sets(
    G: BipartiteGraph, side: str, params: ExpansionParams, membership: str
) -> list[int]:
    """All polymer bit masks of one side by direct subset filtering."""
    n = G.side_size(side)
    out = []
    for bits in range(1, 1 << n):
        s = SideSet(side, bits)
        if not is_two_linked(G, s):
            continue
        if membership == "expanding" and is_expanding(G, s, params):
            out.append(bits)
        elif membership == "small" and is_small(G, s):
            out.append(bits)
    return out


def brute_compatible_collections(
    G: BipartiteGraph, side: str, params: ExpansionParams, membership: str
) -> list[frozenset]:
    """Every pairwise-compatible polymer collection as a frozenset of masks.

    Compatibility is recomputed from scratch: two polymers are compatible
    when they are disjoint and their union is not 2-linked.
    """
    pool = brute_polymer_sets(G, side, params, membership)
    k = len(pool)
    ok = [[False] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            disjoint = not pool[i] & pool[j]
            unlinked = not is_two_linked(G, SideSet(side, pool[i] | pool[j]))
            ok[i][j] = ok[j][i] = disjoint and unlinked
    out = []

    def rec(start, chosen):
        out.append(frozenset(pool[i] for i in chosen))
        for i in range(start, k):
            if all(ok[j][i] for j in chosen):
                rec(i + 1, chosen + [i])

    rec(0, [])
    return out


def subsets(mask: int):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def nu_formula(
    G: BipartiteGraph,
    params: ExpansionParams,
    lam: Fraction | None,
    membership: str,
) -> dict[tuple[int, int], Fraction]:
    """The two-step measure from first principles, keyed by (X mask, Y mask).

    Side chosen proportionally to its polymer partition function, defect
    collection by its Gibbs weight, free side filled vertex-wise at rate
    lambda/(1+lambda) (1/2 in the unweighted case).
    """
    lam_f = Fraction(1) if lam is None else Fraction(lam)
    fill = lam_f / (1 + lam_f)

    def side_data(side):
        weight: dict[int, Fraction] = {}
        for coll in brute_compatible_collections(G, side, params, membership):
            bits = 0
            w = Fraction(1)
            for gamma in coll:
                nb = neighborhood_bits(G, side, gamma).bit_count()
                w *= lam_f ** gamma.bit_count() / (1 + lam_f) ** nb
                bits |= gamma
            weight[bits] = weight.get(bits, Fraction(0)) + w
        return weight, sum(weight.values())

    wx, xi_x = side_data("X")
    wy, xi_y = side_data("Y")
    out: dict[tuple[int, int], Fraction] = {}
    for side, table, xi in (("X", wx, xi_x), ("Y", wy, xi_y)):
        p_side = xi / (xi_x + xi_y)
        for bits, w in table.items():
            free = G.full_mask(opposite(side)) & ~neighborhood_bits(G, side, bits)
            nf = free.bit_count()
            p_config = p_side * w / xi
            for sub in subsets(free):
                k = sub.bit_count()
                p = p_config * fill**k * (1 - fill) ** (nf - k)
                key = (bits, sub) if side == "X" else (sub, bits)
                out[key] = out.get(key, Fraction(0)) + p
    return out


def induced_table_distribution(G: BipartiteGraph, tables):
    """Exact law of the table-mode sampler, derived only from the quantized
    thresholds and the per-vertex fill draws it makes."""
    out: dict[tuple[int, int], Fraction] = {}
    p_x = Fraction(tables.side_threshold, DRAW_DEN)
    if tables.fill_num == Fraction(1, 2):
        p_in = Fraction(1, 2)  # fair coin, drawn exactly
    else:
        p_in = Fraction(quantize(tables.fill_num), DRAW_DEN)
    for table, p_side in ((tables.x, p_x), (tables.y, 1 - p_x)):
        prev = 0
        for i, bits in enumerate(table.config_bits):
            p_config = Fraction(table.thresholds[i] - prev, DRAW_DEN)
            prev = table.thresholds[i]
            free = G.full_mask(opposite(table.side)) & ~neighborhood_bits(
                G, table.side, bits
            )
            nf = free.bit_count()
            for sub in subsets(free):
                k = sub.bit_count()
                p = p_side * p_config * p_in**k * (1 - p_in) ** (nf - k)
                key = (bits, sub) if table.side == "X" else (sub, bits)
                out[key] = out.get(key, Fraction(0)) + p
    return out


def reference_tables(
    G: BipartiteGraph, params: ExpansionParams, lam: Fraction | None, membership: str
):
    """The table sampler's inputs built in Fractions, one configuration at a
    time: the side threshold and, per side, (config masks, thresholds, Xi)."""
    m = WeightModel.unweighted() if lam is None else WeightModel.hardcore(lam)
    sides = {}
    for side in ("X", "Y"):
        fam = PolymerFamily(membership, side, params)
        universe = enumerate_polymers(G, fam, G.side_size(side))
        weights = [m.weight(p) for p in universe]
        bits_list, cum = [], []
        acc = Fraction(0)
        for config in iter_compatible_configs(universe):
            w = Fraction(1)
            bits = 0
            for i in config:
                w *= weights[i]
                bits |= universe[i].bits
            acc += w
            bits_list.append(bits)
            cum.append(acc)
        sides[side] = (bits_list, [quantize(c / acc) for c in cum], acc)
    xi_x, xi_y = sides["X"][2], sides["Y"][2]
    return quantize(xi_x / (xi_x + xi_y)), sides


def reference_table_draws(
    G: BipartiteGraph,
    params: ExpansionParams,
    lam: Fraction | None,
    membership: str,
    seed: int,
    samples: int,
) -> list[tuple[int, int]]:
    """Table-mode draws recomputed per draw from the Fraction tables: the
    configuration's free side from its neighbourhood, then each free vertex
    filled in ascending order by a fair bit or a 96-bit threshold draw."""
    side_threshold, sides = reference_tables(G, params, lam, membership)
    rng = random.Random(seed)
    out = []
    for _ in range(samples):
        side = "X" if rng.getrandbits(DRAW_BITS) < side_threshold else "Y"
        bits_list, thresholds, _ = sides[side]
        bits = bits_list[bisect_left(thresholds, rng.getrandbits(DRAW_BITS) + 1)]
        out.append(reference_fill(G, side, bits, lam, rng))
    return out


def free_mask_table_draws(tables, rng: random.Random, samples: int) -> list[tuple[int, int]]:
    """Table-mode draws from the package's ``SamplerTables`` by a second
    loop: the configuration found by ``bisect_left(thresholds, r + 1)``,
    its free side's fill plan kept per free mask, and a lambda != 1 fill
    walking the free mask's bits on every draw.  It reads the generator as
    ``expander._table_draws`` does."""
    getrandbits = rng.getrandbits
    side_threshold = tables.side_threshold
    row_x, row_y = ((t.thresholds, t.config_bits, t.free_bits) for t in (tables.x, tables.y))
    fair = tables.fill_num == Fraction(1, 2)
    fill_threshold = quantize(tables.fill_num)
    plans = {}
    out = []
    lead = getrandbits(LEAD_BITS)
    for _ in range(samples):
        on_x = lead & DRAW_MASK < side_threshold
        thresholds, config_bits, free_bits = row_x if on_x else row_y
        i = bisect_left(thresholds, (lead >> DRAW_BITS) + 1)
        bits, free = config_bits[i], free_bits[i]
        if fair:
            plan = plans.get(free)
            if plan is None:
                plan = plans[free] = _fair_fill_plan(free)
            nbits, tops, mult, shift, window, more = plan
            words = getrandbits(nbits + LEAD_BITS)
            fill = (words & tops) * mult >> shift & window
            for first, tops, mult, shift, window in more:
                fill |= (words >> first & tops) * mult >> shift & window
            lead = words >> nbits
        else:
            fill = 0
            while free:
                low = free & -free
                free ^= low
                if getrandbits(DRAW_BITS) < fill_threshold:
                    fill |= low
            lead = getrandbits(LEAD_BITS)
        out.append((bits, fill) if on_x else (fill, bits))
    return out


def reference_fill(
    G: BipartiteGraph, side: str, bits: int, lam: Fraction | None, rng: random.Random
) -> tuple[int, int]:
    """The (X-mask, Y-mask) draw of defect ``bits`` on ``side``: its free side
    from its neighbourhood, each free vertex filled in ascending order by a
    fair bit (lambda = 1) or a 96-bit threshold draw."""
    fill_num = Fraction(1, 2) if lam is None else Fraction(lam) / (1 + Fraction(lam))
    free = G.full_mask(opposite(side)) & ~neighborhood_bits(G, side, bits)
    fill = 0
    for v in iter_bits(free):
        if fill_num == Fraction(1, 2):
            if rng.getrandbits(1):
                fill |= 1 << v
        elif rng.getrandbits(DRAW_BITS) < quantize(fill_num):
            fill |= 1 << v
    return (bits, fill) if side == "X" else (fill, bits)


def reference_sequential_draws(
    G: BipartiteGraph,
    params: ExpansionParams,
    lam: Fraction | None,
    seed: int,
    samples: int,
) -> list[tuple[int, int]]:
    """Exact sequential-mode draws with every peeling weight, sum, identity
    check and threshold in Fractions, one vertex step at a time: the side by
    Xi^X / (Xi^X + Xi^Y); then at each surviving vertex v, v removed or one
    polymer of the region holding v chosen (and N^2 of it removed), by
    thresholds on the running sums Xi(region - v), + w(gamma) Xi(region -
    N^2(gamma)), ... over Xi(region), the last outcome when the draw passes
    them all; then the fill.  The unweighted model peels the expanding
    family, the hard-core model the small one."""
    membership = "expanding" if lam is None else "small"
    m = WeightModel.unweighted() if lam is None else WeightModel.hardcore(lam)
    universes = {
        side: enumerate_polymers(G, PolymerFamily(membership, side, params), G.side_size(side))
        for side in ("X", "Y")
    }
    cache: dict[tuple[str, int], Fraction] = {}

    def xi(side: str, region: int) -> Fraction:
        universe = universes[side]
        mask = sum(1 << i for i, p in enumerate(universe) if p.bits & ~region == 0)
        if (side, mask) not in cache:
            cache[side, mask] = exact_xi(universe, m, mask)
        return cache[side, mask]

    def defect(side: str) -> int:
        region, chosen = G.full_mask(side), 0
        for v in range(G.side_size(side)):
            if not region >> v & 1:
                continue
            xi_r, xi_without = xi(side, region), xi(side, region & ~(1 << v))
            branches = []
            for p in universes[side]:
                if p.bits >> v & 1 and p.bits & ~region == 0:
                    blocked = neighborhood_bits(G, opposite(side), p.nbhd) & region
                    branches.append((p.bits, blocked, m.weight(p) * xi(side, region & ~blocked)))
            assert xi_r == xi_without + sum(mass for _, _, mass in branches)
            u = rng.getrandbits(DRAW_BITS)
            outcomes = [(0, 1 << v, xi_without)] + branches
            acc = Fraction(0)
            for bits, blocked, mass in outcomes:
                acc += mass
                if u < quantize(acc / xi_r):
                    break
            chosen |= bits
            region &= ~blocked
        return chosen

    xi_x, xi_y = xi("X", G.full_mask("X")), xi("Y", G.full_mask("Y"))
    side_threshold = quantize(xi_x / (xi_x + xi_y))
    rng = random.Random(seed)
    out = []
    for _ in range(samples):
        side = "X" if rng.getrandbits(DRAW_BITS) < side_threshold else "Y"
        out.append(reference_fill(G, side, defect(side), lam, rng))
    return out


def reference_d_member(G: BipartiteGraph, A: SideSet, bits: int) -> bool:
    """Whether the nonempty B = ``bits`` subseteq A is counted by D(A), with
    its neighbourhood and 2-linkedness recomputed."""
    if neighborhood_bits(G, A.side, bits) != neighborhood_bits(G, A.side, A.bits):
        return False
    return is_two_linked(G, SideSet(A.side, bits))


def reference_exhaustive_D(G: BipartiteGraph, A: SideSet) -> int:
    """D(A) by the direct scan: every nonempty B subseteq A, by size, built
    from its vertices."""
    verts = A.vertices()
    count = 0
    for r in range(1, len(verts) + 1):
        for combo in combinations(verts, r):
            bits = 0
            for v in combo:
                bits |= 1 << v
            count += reference_d_member(G, A, bits)
    return count


def reference_verify_kp(universe, m: WeightModel, kp) -> KPReport:
    """The convergence check summed one incompatible pair at a time."""
    incompat = incompatibility_masks(universe)
    boosted = [math.exp(m.log_weight(p) + kp.f(p) + kp.g(p)) for p in universe]
    checks = []
    for i, p in enumerate(universe):
        lhs = 0.0
        for j in iter_bits(incompat[i]):
            lhs += boosted[j]
        rhs = kp.f(p)
        checks.append(KPPolymerCheck(p.bits, p.size, p.nbhd_size, lhs, rhs, lhs <= rhs))
    return KPReport(tuple(checks), all(c.passed for c in checks))


def reference_size_polynomial(universe, m: WeightModel, upto: int | None = None):
    """The size polynomial weighed one configuration at a time: a product of
    per-polymer Fractions added at its size."""
    sizes = [p.size for p in universe]
    weights = [m.weight(p) for p in universe]
    coeffs = SizePolynomial([Fraction(0)] * ((sum(sizes) if upto is None else upto) + 1))
    for config in iter_compatible_configs(universe, max_size=upto):
        w = Fraction(1)
        for i in config:
            w *= weights[i]
        coeffs[sum(sizes[i] for i in config)] += w
        coeffs.configs += 1
    return coeffs


def reference_log_series(coeffs, upto: int) -> list[Fraction]:
    """a_l = c_l - sum_{j<l} (j/l) a_j c_{l-j} in Fractions throughout."""
    c = [Fraction(coeffs[k]) if k < len(coeffs) else Fraction(0) for k in range(upto + 1)]
    a = [Fraction(0)] * (upto + 1)
    for ell in range(1, upto + 1):
        a[ell] = c[ell] - sum((j * a[j] * c[ell - j] for j in range(1, ell)), Fraction(0)) / ell
    return a


# -- Ursell clusters: the independent route to ln Xi(ell) ----------------------
#
# The package evaluates ln Xi(ell) only as the truncated log series of the size
# polynomial; these routines sum the cluster expansion term by term, so the
# tests can hold the two routes equal grade by grade.

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
    value: Fraction


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
    weights = [m.weight(p) for p in universe]
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
                        val = Fraction(phi)
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


# -- degree-greedy peeling certificates: a census against the oracle -----------
#
# Every independent set of size >= T maps to a short 0/1 trace, and the
# preimages of a trace are exactly the independent sets of the surviving
# region.  No count or sample reads the decomposition; the tests check that
# it reproduces the oracle and that its regions obey the lemma's bound.


class MalformedCertificateError(InvalidInputError):
    """A certificate bit string cannot be replayed on the given graph."""


@dataclass(frozen=True)
class Certificate:
    """0/1 trace of the degree-greedy peeling of an independent set.

    Each step examines the max-degree vertex of the surviving region (ties
    broken by ``ordering``, ascending index when None); a 1 means the vertex
    was in the set (its closed neighborhood is removed), a 0 means it was
    not (the vertex alone is removed).  The trace stops once ``t_target``
    ones have been recorded.  The ordering is carried so replay is exact.
    """

    steps: tuple[int, ...]
    t_target: int
    ordering: tuple[int, ...] | None = None

    @property
    def ones(self) -> int:
        return sum(self.steps)


def _peel_pick(rows: Sequence[int], region: int, ordering: Sequence[int]) -> int:
    best = -1
    best_deg = -1
    for v in ordering:
        if not region >> v & 1:
            continue
        deg = (rows[v] & region).bit_count()
        if deg > best_deg:
            best_deg = deg
            best = v
    return best


def compute_certificate(
    G: Graph, members: int, t_target: int, ordering: Sequence[int] | None = None
) -> Certificate:
    """Trace the peeling of an independent set until t_target ones appear."""
    if not G.is_independent(members):
        raise InvalidInputError("certificates are defined for independent sets")
    if members.bit_count() < t_target:
        raise InvalidInputError(
            f"need at least {t_target} members, got {members.bit_count()}"
        )
    if t_target < 0:
        raise InvalidInputError("t_target must be nonnegative")
    order = tuple(ordering) if ordering is not None else tuple(range(G.n))
    region = (1 << G.n) - 1
    steps: list[int] = []
    t = 0
    while t < t_target:
        v = _peel_pick(G.rows, region, order)
        if v < 0:
            raise InvalidInputError("region exhausted before reaching t_target")
        if members >> v & 1:
            steps.append(1)
            region &= ~(G.rows[v] | 1 << v)
            t += 1
        else:
            steps.append(0)
            region &= ~(1 << v)
    return Certificate(tuple(steps), t_target, order if ordering is not None else None)


def certificate_region(G: Graph, cert: Certificate) -> tuple[int, int]:
    """Replay a certificate; returns (surviving region, forced members).

    Raises MalformedCertificateError when the trace is not one the peeling
    could have produced: a step taken on an empty region, more steps after
    the one-count is already met, or too few ones overall.
    """
    order = cert.ordering if cert.ordering is not None else tuple(range(G.n))
    region = (1 << G.n) - 1
    forced = 0
    t = 0
    for i, bit in enumerate(cert.steps):
        if t >= cert.t_target:
            raise MalformedCertificateError(f"step {i} occurs after {cert.t_target} ones")
        if region == 0:
            raise MalformedCertificateError(f"step {i} taken on an empty region")
        v = _peel_pick(G.rows, region, order)
        if bit:
            forced |= 1 << v
            region &= ~(G.rows[v] | 1 << v)
            t += 1
        else:
            region &= ~(1 << v)
    if t != cert.t_target:
        raise MalformedCertificateError(
            f"trace ends with {t} ones, expected {cert.t_target}"
        )
    return region, forced


def enumerate_certificates(
    G: Graph,
    t_target: int,
    ordering: Sequence[int] | None = None,
    max_certificates: int = 1 << 20,
) -> list[Certificate]:
    """Every trace the peeling can produce for sets with >= t_target members.

    DFS over the 0/1 decisions; a branch dies when the region empties before
    the one-count is met.  Regions of distinct certificates are produced by
    replay, and the preimages of distinct certificates are disjoint.
    """
    order = tuple(ordering) if ordering is not None else tuple(range(G.n))
    stored = order if ordering is not None else None
    out: list[Certificate] = []

    def walk(region: int, t: int, steps: list[int]) -> None:
        if t == t_target:
            out.append(Certificate(tuple(steps), t_target, stored))
            return
        if region == 0:
            return
        if len(out) >= max_certificates:
            raise CapacityError(f"more than {max_certificates} certificates")
        v = _peel_pick(G.rows, region, order)
        steps.append(0)
        walk(region & ~(1 << v), t, steps)
        steps.pop()
        steps.append(1)
        walk(region & ~(G.rows[v] | 1 << v), t + 1, steps)
        steps.pop()

    walk((1 << G.n) - 1, 0, [])
    return out


def count_below(G: Graph, t_target: int) -> int:
    """Number of independent sets with fewer than t_target members."""
    total = 0
    for k in range(t_target):
        for combo in combinations(range(G.n), k):
            if G.is_independent(bits_of(combo)):
                total += 1
    return total


def count_via_certificates(
    G: Graph, t_target: int, ordering: Sequence[int] | None = None
) -> int:
    """i(G) assembled as (sets below the threshold) + (per-certificate region
    counts by the oracle).  Matches the direct count exactly; used to
    validate the certificate decomposition."""
    total = count_below(G, t_target)
    for cert in enumerate_certificates(G, t_target, ordering):
        region, _ = certificate_region(G, cert)
        total += count_independent_in(G, region)
    return total


# -- the mirrored graph: a Y-side route as the X-side route of the mirror -------


def mirrored(G: BipartiteGraph) -> BipartiteGraph:
    """G with its sides swapped: the X side of the mirror is G's Y side, so
    the package's X-side container route run on it is G's Y-side route."""
    return BipartiteGraph(G.n_y, G.n_x, G.d, G.row_y, G.row_x)


# -- container families, one at a time ---------------------------------------
#
# No count keeps a family: `general_count._region_weights` folds each family
# into its region as `general_count._families_over` lists it.  These wrap
# that walk, family by family, as the reference the fold is held to.


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
            general_count._check_container_set(G, s, params)
            nb = neighborhood_bits(G, s.side, s.bits)
            if nb & seen_nbhd:
                raise InvalidInputError("family neighborhoods overlap")
            seen_nbhd |= nb
        # d-regularity gives |N(A_i)| >= d, so disjointness caps the length
        if self.sets and len(self.sets) * G.d > G.side_size(self.sets[0].side):
            raise InvalidInputError("family too large for disjoint neighborhoods")


def enumerate_families(
    G: BipartiteGraph, params: ExpansionParams = ExpansionParams()
) -> Iterator[NonExpandingFamily]:
    """All families over the distinct non-expanding closed sets of X, the
    empty family first, then in the order of the package's family walk."""
    pool = distinct_nonexpanding_closed(G, params)
    for members, _, _ in general_count._families_over(G, pool):
        yield NonExpandingFamily(tuple(pool[i] for i in members))


def family_region(G: BipartiteGraph, union_bits: int) -> int:
    """The polymer ground set left to a family: X minus the second
    neighborhood of the family union."""
    full = G.full_mask("X")
    if not union_bits:
        return full
    nb = neighborhood_bits(G, "X", union_bits)
    return full & ~neighborhood_bits(G, "Y", nb)


def reference_region_weights(
    G: BipartiteGraph, params: ExpansionParams
) -> dict[int, tuple[int, int]]:
    """{region: (W(R), families)} summed family by family: each family's
    prod D(A) from the subset scan, times 2^(n_y - |N(union)|)."""
    out: dict[int, tuple[int, int]] = {}
    D = {A: reference_exhaustive_D(G, A) for A in distinct_nonexpanding_closed(G, params)}
    for fam in enumerate_families(G, params):
        union = fam.union_bits
        weight = 2 ** (G.n_y - neighborhood_bits(G, "X", union).bit_count())
        for A in fam.sets:
            weight *= D[A]
        region = family_region(G, union)
        total, count = out.get(region, (0, 0))
        out[region] = (total + weight, count + 1)
    return out


# -- reconstruction witnesses: the anchored container route ---------------------
#
# An essential subset F of N(A) reconstructs a closed non-expanding set A from
# F and a few extra neighbourhood vertices.  No count or sample reads this
# route: the pool `containers.distinct_nonexpanding_closed` walks the side
# instead, and is far faster at desk-scale degrees.  The tests hold the two
# routes, and brute force, to the same sets.

CANDIDATE_BUDGET = 1 << 22  # (F, extras) candidates the reconstruction route may try

_KEPT_WALKS: "weakref.WeakKeyDictionary[BipartiteGraph, dict]" = weakref.WeakKeyDictionary()


def _sets_through(G: BipartiteGraph, side: str, cap: int) -> list[list[tuple[int, int, int]]]:
    """Per vertex v of ``side``, the masks (S, N(S), [S]) of every 2-linked S
    with |S| <= cap that contains v, in walk order.  One min-rooted
    ``graphs.two_linked_sets`` walk per (graph object, side, cap), split by
    member and kept as long as the graph object lives."""
    n = G.side_size(side)
    key = (side, min(cap, n))
    kept = _KEPT_WALKS.setdefault(G, {})
    if key not in kept:
        through: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
        for found in graph_two_linked_sets(G, side, cap):
            for v in iter_bits(found[0]):
                through[v].append(found)
        kept[key] = through
    return kept[key]


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
    through = _sets_through(G, side, essential_size_cap(G.d, w))[v]
    other = opposite(side)
    return [SideSet(other, bits) for bits in sorted({nbhd for _, nbhd, _ in through})]


def enumerate_expanding(
    G: BipartiteGraph,
    v: int,
    a: int,
    w: int,
    params: ExpansionParams = ExpansionParams(),
    side: str = "X",
) -> list[SideSet]:
    """G(v, a, w): expanding 2-linked sets containing v with closure size a
    and neighborhood size w.  Enumerated directly; used as ground truth for
    the container counting bounds."""
    if not params.expands(G.d, w, a):
        return []
    # |S| <= |[S]|, so every set with |[S]| = a lies within the cap a
    return [
        SideSet(side, bits)
        for bits, nbhd, closed in sorted(_sets_through(G, side, a)[v])
        if closed.bit_count() == a and nbhd.bit_count() == w
    ]


def enumerate_nonexpanding_closed(
    G: BipartiteGraph,
    v: int,
    a: int,
    params: ExpansionParams = ExpansionParams(),
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

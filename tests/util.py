"""Brute-force reference routines shared across the test modules.

Everything here recomputes quantities from first principles (subset sweeps,
direct definitions, transfer matrices) so the package is always checked
against an independently written route.
"""

import math
import random
from bisect import bisect_left
from fractions import Fraction
from itertools import combinations

from biscount import (
    BipartiteGraph,
    ExpansionParams,
    Graph,
    SideSet,
    is_expanding,
    is_small,
    is_two_linked,
)
from biscount.expander import DRAW_BITS, DRAW_DEN, quantize
from biscount.graphs import closure_bits, iter_bits, neighborhood_bits, opposite
from biscount.instances import random_regular, random_shift
from biscount.cluster_expansion import KPPolymerCheck, KPReport
from biscount.polymers import (
    PolymerFamily,
    SizePolynomial,
    WeightModel,
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
    fill_num = Fraction(1, 2) if lam is None else Fraction(lam) / (1 + Fraction(lam))
    fair = fill_num == Fraction(1, 2)
    fill_threshold = quantize(fill_num)
    rng = random.Random(seed)
    out = []
    for _ in range(samples):
        side = "X" if rng.getrandbits(DRAW_BITS) < side_threshold else "Y"
        bits_list, thresholds, _ = sides[side]
        bits = bits_list[bisect_left(thresholds, rng.getrandbits(DRAW_BITS) + 1)]
        free = G.full_mask(opposite(side)) & ~neighborhood_bits(G, side, bits)
        fill = 0
        for v in iter_bits(free):
            if fair:
                if rng.getrandbits(1):
                    fill |= 1 << v
            elif rng.getrandbits(DRAW_BITS) < fill_threshold:
                fill |= 1 << v
        out.append((bits, fill) if side == "X" else (fill, bits))
    return out


def reference_exhaustive_D(G: BipartiteGraph, A: SideSet) -> int:
    """D(A) by the direct scan: every nonempty B subseteq A, by size, built
    from its vertices, with its neighbourhood and 2-linkedness recomputed."""
    target = neighborhood_bits(G, A.side, A.bits)
    verts = A.vertices()
    count = 0
    for r in range(1, len(verts) + 1):
        for combo in combinations(verts, r):
            bits = 0
            for v in combo:
                bits |= 1 << v
            if neighborhood_bits(G, A.side, bits) != target:
                continue
            if is_two_linked(G, SideSet(A.side, bits)):
                count += 1
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
    per-polymer Fractions (floats for the tilde model) added at its size."""
    sizes = [p.size for p in universe]
    exact = m.exact_available
    weights = [m.weight(p) if exact else math.exp(m.log_weight(p)) for p in universe]
    one = Fraction(1) if exact else 1.0
    coeffs = SizePolynomial([one * 0] * ((sum(sizes) if upto is None else upto) + 1))
    for config in iter_compatible_configs(universe, max_size=upto):
        w = one
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

"""Polymer universes, compatibility, Ursell values, cluster terms.

The defining correctness property of this layer: exponentiating the cluster
sum reproduces the directly enumerated polymer partition function.
"""

import itertools
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import biscount
from biscount import general_count, polymers
from biscount import (
    CapacityError,
    ExpansionParams,
    InvalidInputError,
    are_compatible,
    enumerate_polymers,
    exact_xi,
    log_series_coefficients,
    sampler_tables,
    xi_size_polynomial,
)
from biscount.graphs import (
    SideSet,
    is_two_linked,
    iter_bits,
    neighborhood_bits,
)
from biscount.containers import distinct_nonexpanding_closed
from biscount.instances import complete_bipartite, even_cycle, hypercube, random_shift
from biscount.polymers import (
    Polymer,
    PolymerFamily,
    PolymerUniverse,
    WeightModel,
    incompatibility_masks,
)

from util import (
    P1,
    P100,
    _supports_within,
    brute_compatible_collections,
    brute_polymer_sets,
    enumerate_clusters,
    iter_compatible_configs,
    pool_universe,
    random_instances,
    ursell,
)


def universe_cases():
    cases = []
    for G in [even_cycle(6), even_cycle(8), complete_bipartite(2), hypercube(3)]:
        for params in (P1, P100):
            for membership in ("expanding", "small"):
                cases.append((G, params, membership))
    for G in random_instances(4, seed=61, max_side=6):
        cases.append((G, P1, "expanding"))
        cases.append((G, P100, "small"))
    return cases


@pytest.fixture(scope="module")
def q5():
    return hypercube(5)


def test_enumerate_polymers_matches_subset_filter():
    for G, params, membership in universe_cases():
        for side in ("X", "Y"):
            fam = PolymerFamily(membership, side, params)
            got = [p.bits for p in enumerate_polymers(G, fam, G.side_size(side))]
            assert got == sorted(brute_polymer_sets(G, side, params, membership))


def test_polymer_fields(c8):
    fam = PolymerFamily("expanding", "X", P1)
    for p in enumerate_polymers(c8, fam, 4):
        assert p.size == p.bits.bit_count()
        assert p.nbhd == neighborhood_bits(c8, "X", p.bits)
        assert p.nbhd_size == p.nbhd.bit_count()
        assert p.as_side_set() == SideSet("X", p.bits)


def test_size_cap_restricts_universe(c8):
    fam = PolymerFamily("expanding", "X", P1)
    small = enumerate_polymers(c8, fam, 1)
    assert all(p.size <= 1 for p in small)
    assert len(small) == 4


def test_enumerate_polymers_capacity(monkeypatch):
    # fresh graph objects: a universe kept in a graph's memo is not rebuilt
    fam = PolymerFamily("expanding", "X", P1)
    monkeypatch.setattr(polymers, "POLYMER_BUDGET", 3)
    with pytest.raises(CapacityError, match="^polymer universe exceeds 3 members"):
        enumerate_polymers(even_cycle(8), fam, 4)
    # the budget is on the whole universe, however the walk is pruned
    monkeypatch.setattr(polymers, "POLYMER_BUDGET", 1452)
    assert len(enumerate_polymers(hypercube(5), fam, 16)) == 1452
    monkeypatch.setattr(polymers, "POLYMER_BUDGET", 1451)
    with pytest.raises(CapacityError, match="^polymer universe exceeds 1451 members"):
        enumerate_polymers(hypercube(5), fam, 16)


def test_kept_universe_keeps_its_polymer_budget(monkeypatch):
    # the universe is kept in the graph's memo by (family, cap), a cap past
    # the side counting as the side; it was built under the budget in force,
    # so it is returned as kept while a fresh build under a lower budget raises
    G = hypercube(4)
    fam = PolymerFamily("expanding", "X", P1)
    universe = enumerate_polymers(G, fam, 8)
    assert len(universe) == 32
    assert enumerate_polymers(G, fam, 99) is universe
    monkeypatch.setattr(polymers, "POLYMER_BUDGET", 31)
    assert enumerate_polymers(G, fam, 8) is universe
    with pytest.raises(CapacityError) as info:
        enumerate_polymers(hypercube(4), fam, 8)
    assert str(info.value) == "polymer universe exceeds 31 members (partial count)"


def test_kept_walk_keeps_its_configuration_budget(monkeypatch):
    # a walk's class counts are kept on the universe per (budget, mask) and
    # shared by every weight model; a kept walk is read back under a lower
    # configuration budget while a fresh walk raises
    fam = PolymerFamily("expanding", "X", P1)
    uni = enumerate_polymers(hypercube(4), fam, 8)
    full = xi_size_polynomial(uni, WeightModel.unweighted())
    assert len(uni.walks) == 1
    hardcore = xi_size_polynomial(uni, WeightModel.hardcore(Fraction(1, 2)))
    assert len(uni.walks) == 1
    assert hardcore == xi_size_polynomial(
        enumerate_polymers(hypercube(4), fam, 8), WeightModel.hardcore(Fraction(1, 2))
    )
    budget = full.configs - 1
    monkeypatch.setattr(polymers, "CONFIG_BUDGET", budget)
    assert xi_size_polynomial(uni, WeightModel.unweighted()) == full
    fresh_uni = enumerate_polymers(hypercube(4), fam, 8)
    with pytest.raises(CapacityError) as info:
        xi_size_polynomial(fresh_uni, WeightModel.unweighted())
    assert str(info.value) == f"more than {budget} polymer configurations"
    monkeypatch.undo()
    # a budget at or past the total size walks everything: one kept entry
    wide = xi_size_polynomial(uni, WeightModel.unweighted(), upto=99)
    assert wide[: len(full)] == full
    assert len(uni.walks) == 1


@pytest.mark.parametrize("membership", ["expanding", "small"])
def test_enumerate_polymers_q5_matches_subset_filter(q5, membership):
    # all 2^16 subsets of Q5's X side; the walk prunes where no superset
    # can be admitted, so a wrong prune would drop polymers here
    fam = PolymerFamily(membership, "X", P1)
    got = [p.bits for p in enumerate_polymers(q5, fam, 16)]
    assert got == brute_polymer_sets(q5, "X", P1, membership)


def test_enumerate_polymers_shift_graphs_match_subset_filter():
    for n in (10, 12):
        for d in (3, 4):
            G = random_shift(n, d, seed=n * 10 + d)
            for side in ("X", "Y"):
                cases = [("small", P1)] + [
                    ("expanding", ExpansionParams(c1=c1)) for c1 in (0.5, 1.0, 2.0, 100.0)
                ]
                for membership, params in cases:
                    want = brute_polymer_sets(G, side, params, membership)
                    fam = PolymerFamily(membership, side, params)
                    for cap in (n, 3):
                        got = [p.bits for p in enumerate_polymers(G, fam, cap)]
                        assert got == [b for b in want if b.bit_count() <= cap]


def test_enumerate_polymers_nothing_expands_at_large_c1(q5):
    # the threshold exceeds |N(S)| - |[S]| for every set, so each root is
    # pruned at once
    for side in ("X", "Y"):
        fam = PolymerFamily("expanding", side, ExpansionParams(c1=1e6))
        assert enumerate_polymers(q5, fam, 16) == ()


def test_are_compatible_symmetric_and_matches_definition():
    for G, params, membership in universe_cases()[:12]:
        fam = PolymerFamily(membership, "X", params)
        uni = enumerate_polymers(G, fam, G.side_size("X"))
        for g1, g2 in itertools.combinations(uni, 2):
            c12 = are_compatible(g1, g2)
            assert c12 == are_compatible(g2, g1)
            # definition route: compatible iff the union is not 2-linked
            union_two_linked = bool(g1.bits & g2.bits) or is_two_linked(
                G, SideSet("X", g1.bits | g2.bits)
            )
            assert c12 == (not union_two_linked)


def test_incompatibility_masks_match_pairwise_recompute(c8, q5):
    q4_small = enumerate_polymers(hypercube(4), PolymerFamily("small", "X", P1), 8)
    assert len(q4_small) == 72
    universes = [
        enumerate_polymers(c8, PolymerFamily("expanding", "X", P1), 4),
        q4_small,
        enumerate_polymers(q5, PolymerFamily("expanding", "Y", P1), 16),
    ]
    for G in random_instances(12, seed=83, max_side=10):
        for side in ("X", "Y"):
            for membership in ("expanding", "small"):
                fam = PolymerFamily(membership, side, P1)
                universes.append(enumerate_polymers(G, fam, G.side_size(side)))
    for uni in universes:
        masks = incompatibility_masks(uni)
        assert len(masks) == len(uni)
        for i, g1 in enumerate(uni):
            assert masks[i] >> i & 1, "diagonal is always incompatible"
            for j, g2 in enumerate(uni):
                if i != j:
                    assert bool(masks[i] >> j & 1) == (not are_compatible(g1, g2))


def test_oversized_universe_raises_capacity_error_not_memory_error():
    # Q6's X universe at ell = 5 holds 144,568 polymers, whose masks would
    # take about 2.5 GiB: the budget refuses them before any is built, well
    # inside a 2 GiB address space
    code = (
        "import resource, biscount\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "try:\n"
        "    biscount.count_expander(biscount.hypercube(6), 0.2,"
        " biscount.ExpansionParams(c1=1), force_method='expander-CE')\n"
        "except biscount.CapacityError as exc:\n"
        "    print('CapacityError', exc)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(biscount.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    ))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("CapacityError incompatibility masks of 144568 polymers")


def test_mask_budget_refuses_before_any_bin_is_built(monkeypatch):
    # 2^18 polymers that all hold neighbours 0-7: every mask is as long as
    # the universe, 2^36 bits in all.  Building the bins first, one 2^18-bit
    # int OR-ed into per polymer and neighbour, took about 12 s before the
    # refusal; the need is counted from each neighbour's highest holder
    universe = [Polymer("X", 1, 0xFF)] * (1 << 18)
    start = time.perf_counter()
    refusal = "^incompatibility masks of 262144 polymers need 8192 MiB$"
    with pytest.raises(CapacityError, match=refusal):
        incompatibility_masks(universe)
    assert time.perf_counter() - start < 2.0
    # the need is the masks' total length: k polymers on one neighbour take
    # k bits each, so k^2 bits fit a budget of k^2 and not one less
    small = [Polymer("X", 1, 1)] * 5
    monkeypatch.setattr(polymers, "MASK_BUDGET", 25)
    assert incompatibility_masks(small) == [0b11111] * 5
    monkeypatch.setattr(polymers, "MASK_BUDGET", 24)
    with pytest.raises(CapacityError, match="of 5 polymers"):
        incompatibility_masks(small)


def test_mixed_side_universe_is_rejected():
    # X- and Y-side bit indices name different vertices, so neither the masks
    # nor Xi of a mixed universe mean anything
    mixed = [Polymer("X", 1, 1), Polymer("Y", 1, 1)]
    with pytest.raises(InvalidInputError):
        incompatibility_masks(mixed)
    with pytest.raises(InvalidInputError):
        PolymerUniverse(mixed)


def brute_ursell(adj):
    k = len(adj)
    edges = [(i, j) for i in range(k) for j in range(i + 1, k) if adj[i] >> j & 1]
    total = 0
    for picks in itertools.product((0, 1), repeat=len(edges)):
        chosen = [e for e, keep in zip(edges, picks) if keep]
        parent = list(range(k))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for a, b in chosen:
            parent[find(a)] = find(b)
        if len({find(v) for v in range(k)}) == 1:
            total += (-1) ** len(chosen)
    return total


def test_ursell_small_graphs_match_brute():
    rng = random.Random(5)
    assert ursell([0]) == 1
    for k in range(2, 7):
        for _ in range(6):
            adj = [0] * k
            for i in range(k):
                for j in range(i + 1, k):
                    if rng.random() < 0.6:
                        adj[i] |= 1 << j
                        adj[j] |= 1 << i
            assert ursell(adj) == brute_ursell(adj)


def test_ursell_trees_and_complete_graphs():
    # any tree on k vertices gives (-1)^(k-1); K_m gives (-1)^(m-1) (m-1)!
    for k in range(2, 7):
        path = [0] * k
        for i in range(k - 1):
            path[i] |= 1 << (i + 1)
            path[i + 1] |= 1 << i
        assert ursell(path) == (-1) ** (k - 1)
        star = [0] * k
        for i in range(1, k):
            star[0] |= 1 << i
            star[i] |= 1
        assert ursell(star) == (-1) ** (k - 1)
    for m in range(1, 7):
        comp = [((1 << m) - 1) & ~(1 << i) for i in range(m)]
        assert ursell(comp) == (-1) ** (m - 1) * math.factorial(m - 1)


def test_ursell_disconnected_is_zero_and_caps():
    assert ursell([0, 0]) == 0
    with pytest.raises(InvalidInputError):
        ursell([])
    with pytest.raises(CapacityError):
        ursell([0] * 11, cap=10)


def test_iter_compatible_configs_matches_brute(c8, q3):
    for G, params, membership in [(c8, P1, "expanding"), (q3, P1, "expanding"), (c8, P100, "small")]:
        fam = PolymerFamily(membership, "X", params)
        uni = enumerate_polymers(G, fam, G.side_size("X"))
        configs = list(iter_compatible_configs(uni))
        assert configs[0] == ()
        for cfg in configs:
            assert list(cfg) == sorted(cfg)
            for i, j in itertools.combinations(cfg, 2):
                assert are_compatible(uni[i], uni[j])
        got = {frozenset(uni[i].bits for i in cfg) for cfg in configs}
        want = set(brute_compatible_collections(G, "X", params, membership))
        assert got == want
        assert len(configs) == len(want)


@pytest.mark.parametrize("build,side", [
    (lambda: even_cycle(16), "X"), (lambda: hypercube(4), "Y"),
    (lambda: random_shift(10, 3, 7), "X"), (lambda: random_shift(12, 4, 3), "Y"),
], ids=["C16", "Q4", "shift(10,3,7)", "shift(12,4,3)"])
def test_cell_counts_match_the_configuration_walk(build, side):
    # the explicit-stack cell count meets the configurations
    # iter_compatible_configs yields, in the same order, under every size
    # budget and on region masks
    G = build()
    uni = enumerate_polymers(G, PolymerFamily("expanding", side, P1), 8)
    rng = random.Random(5)
    masks = [uni.all] + [rng.getrandbits(len(uni)) for _ in range(3)]
    for budget in (0, 1, 3, 6, sum(uni.sizes)):
        for mask in masks:
            cells: dict[int, int] = {}
            for config in iter_compatible_configs(uni, budget, mask):
                cell = sum(uni.keys[i] for i in config)
                cells[cell] = cells.get(cell, 0) + 1
            want = (sum(cells.values()), tuple(cells.items()))
            assert polymers._count_cells(uni, budget, mask) == want


def test_cell_count_capacity(monkeypatch):
    # the cell count refuses at the configuration the walk refuses at
    uni = enumerate_polymers(even_cycle(16), PolymerFamily("expanding", "X", P1), 8)
    total = polymers._count_cells(uni, 8, uni.all)[0]
    for budget in (0, 1, total - 1):
        monkeypatch.setattr(polymers, "CONFIG_BUDGET", budget)
        with pytest.raises(CapacityError, match=f"^more than {budget} polymer configurations$"):
            polymers._count_cells(uni, 8, uni.all)
        with pytest.raises(CapacityError, match=f"^more than {budget} polymer configurations$"):
            list(iter_compatible_configs(uni, 8, uni.all))
    monkeypatch.setattr(polymers, "CONFIG_BUDGET", total)
    assert polymers._count_cells(uni, 8, uni.all)[0] == total


def test_sampler_tables_config_capacity(monkeypatch):
    # a side's table lists its 11 configurations under CONFIG_BUDGET
    monkeypatch.setattr(polymers, "CONFIG_BUDGET", 5)
    with pytest.raises(CapacityError, match="^more than 5 polymer configurations$"):
        sampler_tables(even_cycle(8), P1)
    monkeypatch.setattr(polymers, "CONFIG_BUDGET", 11)
    assert len(sampler_tables(even_cycle(8), P1).x.config_bits) == 11


def shared_walk(universe, budget=None, over="over budget"):
    """``polymers.compatible_configs`` over a universe's clash masks, with
    each polymer's vertices and neighbourhood as the two per-item masks."""
    return polymers.compatible_configs(
        universe.incompat, [p.bits for p in universe], [p.nbhd for p in universe],
        polymers.CONFIG_BUDGET if budget is None else budget, over,
    )


def assert_shared_walk_is_the_reference(universe):
    listed = list(shared_walk(universe))
    assert [config for config, _, _ in listed] == list(iter_compatible_configs(universe))
    for config, bits, nbhd in listed:
        want_bits = want_nbhd = 0
        for i in config:
            want_bits |= universe[i].bits
            want_nbhd |= universe[i].nbhd
        assert (bits, nbhd) == (want_bits, want_nbhd)
    return listed


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    n=st.sampled_from([8, 10, 12]),
    d=st.sampled_from([3, 4, 5]),
    seed=st.integers(0, 1 << 16),
)
def test_shared_walk_lists_the_reference_configurations(n, d, seed):
    # the explicit-stack walk yields the recursive walk's configurations in
    # its order, on both families' universes and on the container pools,
    # where it is also the family listing with its two neighbourhoods
    G = random_shift(n, d, seed)
    for side in ("X", "Y"):
        for membership in ("expanding", "small"):
            assert_shared_walk_is_the_reference(
                enumerate_polymers(G, PolymerFamily(membership, side, P1), n)
            )
    for params in (P1, P100):
        listed = assert_shared_walk_is_the_reference(pool_universe(G, params))
        families = list(general_count._families_over(G, distinct_nonexpanding_closed(G, params)))
        assert [members for members, _, _ in families] == [c for c, _, _ in listed]
        for (_, _, nbhd), (_, used, blocked) in zip(listed, families):
            assert used == nbhd
            assert blocked == neighborhood_bits(G, "Y", used)


def test_shared_walk_refuses_past_its_budget():
    # the walk yields exactly ``budget`` configurations, then raises its
    # message before the next one; the empty configuration counts
    uni = enumerate_polymers(even_cycle(16), PolymerFamily("expanding", "X", P1), 8)
    total = len(list(iter_compatible_configs(uni)))
    for budget in (0, 1, 2, total - 1):
        got = []
        with pytest.raises(CapacityError, match="^no more$"):
            for item in shared_walk(uni, budget, "no more"):
                got.append(item)
        assert len(got) == budget
    assert len(list(shared_walk(uni, total))) == total
    # no item on an empty list: the empty configuration alone
    assert list(polymers.compatible_configs([], [], [], 1, "no more")) == [((), 0, 0)]


def test_size_budgeted_walk_is_the_filtered_full_walk(c8, q3):
    # pruning on the size budget keeps exactly the small configurations, in
    # the same order as the unbounded walk
    for G in (c8, q3, hypercube(4)):
        for membership in ("expanding", "small"):
            uni = enumerate_polymers(G, PolymerFamily(membership, "X", P1), 4)
            sizes = [p.size for p in uni]
            full = list(iter_compatible_configs(uni))
            for budget in range(0, 7):
                want = [c for c in full if sum(sizes[i] for i in c) <= budget]
                assert list(iter_compatible_configs(uni, max_size=budget)) == want


def test_budgeted_size_polynomial_is_a_prefix(c8, q3):
    for G, lam in [(c8, None), (q3, None), (c8, Fraction(1, 2))]:
        membership = "expanding" if lam is None else "small"
        m = WeightModel.unweighted() if lam is None else WeightModel.hardcore(lam)
        uni = enumerate_polymers(G, PolymerFamily(membership, "X", P1), G.side_size("X"))
        full = xi_size_polynomial(uni, m)
        for upto in range(0, 5):
            part = xi_size_polynomial(uni, m, upto=upto)
            assert len(part) == upto + 1
            assert part == (full + [Fraction(0)] * upto)[: upto + 1]
            assert part.configs <= full.configs


def test_cluster_ursell_cap_is_a_budget(c8):
    # eleven copies of one single-vertex polymer exceed the Ursell cap of 10
    uni = enumerate_polymers(c8, PolymerFamily("expanding", "X", P1), 4)
    assert uni[0].size == 1
    with pytest.raises(CapacityError):
        list(enumerate_clusters(uni, 11, WeightModel.unweighted()))


def test_xi_size_polynomial_against_brute(c8, q3):
    for G, lam in [(c8, None), (q3, None), (c8, Fraction(1, 2))]:
        membership = "expanding" if lam is None else "small"
        m = WeightModel.unweighted() if lam is None else WeightModel.hardcore(lam)
        fam = PolymerFamily(membership, "X", P1)
        uni = enumerate_polymers(G, fam, G.side_size("X"))
        coeffs = xi_size_polynomial(uni, m)
        lam_f = Fraction(1) if lam is None else lam
        want: dict[int, Fraction] = {}
        for coll in brute_compatible_collections(G, "X", P1, membership):
            w = Fraction(1)
            size = 0
            for bits in coll:
                nb = neighborhood_bits(G, "X", bits).bit_count()
                w *= lam_f ** bits.bit_count() / (1 + lam_f) ** nb
                size += bits.bit_count()
            want[size] = want.get(size, Fraction(0)) + w
        for k, c in enumerate(coeffs):
            assert c == want.get(k, Fraction(0))


def test_frozen_c8_size_polynomial(c8):
    fam = PolymerFamily("expanding", "X", P1)
    uni = enumerate_polymers(c8, fam, 4)
    coeffs = xi_size_polynomial(uni, WeightModel.unweighted())
    assert coeffs[:3] == [Fraction(1), Fraction(1), Fraction(5, 8)]
    assert all(c == 0 for c in coeffs[3:])
    assert sum(coeffs) == Fraction(21, 8)


def test_log_series_coefficients_closed_form():
    # f = 1 + z has log coefficients (-1)^(k-1)/k
    got = log_series_coefficients([Fraction(1), Fraction(1)], 8)
    for k in range(1, 9):
        assert got[k] == Fraction((-1) ** (k - 1), k)


def test_cluster_grade_sums_equal_log_series(c8, q3):
    # grade-by-grade identity between the cluster sum and the formal log of
    # the size polynomial, in exact arithmetic
    for G, lam in [(c8, None), (q3, None), (c8, Fraction(1, 2))]:
        membership = "expanding" if lam is None else "small"
        m = WeightModel.unweighted() if lam is None else WeightModel.hardcore(lam)
        fam = PolymerFamily(membership, "X", P1)
        uni = enumerate_polymers(G, fam, G.side_size("X"))
        coeffs = xi_size_polynomial(uni, m)
        logc = log_series_coefficients(coeffs, 6)
        grades: dict[int, Fraction] = {}
        for t in enumerate_clusters(uni, 6, m):
            grades[t.size] = grades.get(t.size, Fraction(0)) + t.value
        for k in range(1, 7):
            assert grades.get(k, Fraction(0)) == logc[k]


def test_cluster_sum_converges_to_direct_enumeration():
    # the convention pin: exp(sum of all cluster terms) = Xi.  Grade sums are
    # matched exactly against the log series above; here the series partial
    # sums are driven into a 1e-9 window around ln Xi from the direct
    # enumeration, on every universe at hand with at most 12 polymers.
    m = WeightModel.unweighted()
    checked = 0
    for G in [even_cycle(6), even_cycle(8), hypercube(3), complete_bipartite(2)]:
        fam = PolymerFamily("expanding", "X", P1)
        uni = enumerate_polymers(G, fam, G.side_size("X"))
        if len(uni) > 12:
            continue
        xi = Fraction(1)
        for coll in brute_compatible_collections(G, "X", P1, "expanding"):
            if not coll:
                continue
            w = Fraction(1)
            for bits in coll:
                w *= m.weight(Polymer("X", bits, neighborhood_bits(G, "X", bits)))
            xi += w
        target = math.log(xi)
        coeffs = xi_size_polynomial(uni, m)
        logc = log_series_coefficients(coeffs, 100)
        partial = 0.0
        hit = False
        for k in range(1, 101):
            partial += float(logc[k])
            if abs(partial - target) <= 1e-9:
                hit = True
                break
        assert hit, f"series did not reach ln Xi within 1e-9 by ell=100 ({G.fingerprint()})"
        checked += 1
    assert checked >= 4


def test_weight_models():
    p = Polymer("X", 0b11, 0b111)
    assert WeightModel.unweighted().weight(p) == Fraction(1, 8)
    hc = WeightModel.hardcore(Fraction(1, 2))
    assert hc.weight(p) == Fraction(1, 4) / Fraction(27, 8)
    with pytest.raises(InvalidInputError):
        WeightModel("tilde")
    with pytest.raises(InvalidInputError):
        WeightModel.hardcore(Fraction(0))
    with pytest.raises(InvalidInputError):
        WeightModel("nonsense")


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_weight_model_carries_what_lambda_decides(seed):
    # lambda is a Fraction on both constructors, 1 unweighted, and the model
    # carries its polymer family and fill rate lambda/(1+lambda)
    unweighted, one = WeightModel.unweighted(), WeightModel.hardcore(1)
    half = WeightModel.hardcore(Fraction(1, 2))
    carried = [(type(m.lam), m.lam, m.membership, m.fill) for m in (unweighted, one, half)]
    assert carried == [
        (Fraction, 1, "expanding", Fraction(1, 2)),
        (Fraction, 1, "small", Fraction(1, 2)),
        (Fraction, Fraction(1, 2), "small", Fraction(1, 3)),
    ]
    # at lambda = 1 the hard-core model weighs as the unweighted one, the log
    # weight bit for bit: s ln 1 - w ln 2 is -w ln 2 exactly
    G = random_shift(8, 3, seed)
    universe = enumerate_polymers(G, PolymerFamily("small", "X", P1), G.n_x)
    assert len(universe) > 0
    for p in universe:
        assert one.weight(p) == unweighted.weight(p) == Fraction(1, 1 << p.nbhd_size)
        assert one.log_weight(p).hex() == unweighted.log_weight(p).hex()
    a, b = one.class_weights(G.n_x, G.n_y), unweighted.class_weights(G.n_x, G.n_y)
    assert a.denominator == b.denominator
    cells = [(s, w) for s in range(G.n_x + 1) for w in range(G.n_y + 1)]
    assert [a.numerator(s, w) for s, w in cells] == [b.numerator(s, w) for s, w in cells]


def test_polymer_family_rejects_unknown_membership(c8):
    fam = PolymerFamily("neither", "X", P1)
    with pytest.raises(InvalidInputError):
        fam.admits(c8, 0b1)


def test_budgeted_support_growth_matches_filtered_growth():
    # size-pruned growth gives exactly the connected supports that hold the
    # root, lie in ``allowed`` and fit the size budget, each once
    def connected(adj, s):
        seen = frontier = s & -s
        while frontier:
            grow = 0
            for v in iter_bits(frontier):
                grow |= adj[v] & s & ~seen
            seen |= grow
            frontier = grow
        return seen == s

    rng = random.Random(2024)
    for _ in range(40):
        k = rng.randint(1, 12)
        adj = [0] * k
        for i in range(k):
            for j in range(i + 1, k):
                if rng.random() < 0.35:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        sizes = [rng.randint(1, 4) for _ in range(k)]
        budget = rng.randint(1, 10)
        root = rng.randrange(k)
        if sizes[root] > budget:
            continue
        allowed = ((1 << k) - 1) & ~((1 << root) - 1)
        got = _supports_within(adj, root, sizes, budget, allowed)
        assert len(got) == len(set(got))
        want = {
            s for s in range(1 << k)
            if s >> root & 1 and not s & ~allowed and connected(adj, s)
            and sum(sizes[i] for i in iter_bits(s)) <= budget
        }
        assert set(got) == want

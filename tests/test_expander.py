"""Two-sided expander counting, the weighted variant, and the samplers."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import biscount.expander
import biscount.polymers
import util
from biscount.cluster_expansion import exact_xi
from biscount.errors import CapacityError, InvalidInputError
from biscount.expander import (
    ApproxCount,
    HardCoreParams,
    _fair_fill_plan,
    count_expander,
    count_hardcore_expander,
    epsilon_zero,
    exact_mu_hat,
    polymer_census,
    quantize,
    sample_expander,
    sample_hardcore_expander,
    sampler_tables,
    sampler_tv_bound,
)
from biscount.graphs import (
    X_SIDE,
    Y_SIDE,
    BipartiteGraph,
    SideSwap,
    dump_graph,
    is_side_swap,
    iter_bits,
    load_graph,
    neighborhood_bits,
    opposite,
)
from biscount.instances import (
    complete_bipartite,
    even_cycle,
    even_torus,
    hypercube,
    random_regular,
    random_shift,
)
from biscount.oracle import DRAW_DEN, exact_count_bipartite
from biscount.polymers import PolymerFamily, WeightModel, enumerate_polymers
from util import P1, P100, fair_fill


def full_universe(G, membership, side, params):
    return enumerate_polymers(G, PolymerFamily(membership, side, params), G.side_size(side))


def brute_census(G, params, membership):
    """in_x / in_y / both / total recomputed by direct mask enumeration."""
    admitted = {}
    for side in (X_SIDE, Y_SIDE):
        fam = set(util.brute_polymer_sets(G, side, params, membership))
        n = G.side_size(side)
        ok = [True] * (1 << n)
        for s in range(1, 1 << n):
            ok[s] = all(c in fam for c in side_components(G, side, s))
        admitted[side] = ok

    counts = {"in_x": 0, "in_y": 0, "both": 0, "total": 0}
    for s in range(1 << G.n_x):
        free = G.full_mask(Y_SIDE) & ~neighborhood_bits(G, X_SIDE, s)
        for t in util.subsets(free):
            counts["total"] += 1
            x_ok = admitted[X_SIDE][s]
            y_ok = admitted[Y_SIDE][t]
            counts["in_x"] += x_ok
            counts["in_y"] += y_ok
            counts["both"] += x_ok and y_ok
    return counts


def side_components(G, side, bits):
    """2-linked components of a one-side mask, by BFS over shared neighbors."""
    comps = []
    rest = bits
    while rest:
        seed = rest & -rest
        comp = seed
        frontier = seed
        while frontier:
            nbhd = neighborhood_bits(G, side, frontier)
            grown = 0
            for v in range(G.side_size(side)):
                vb = 1 << v
                if rest & vb and not comp & vb:
                    if neighborhood_bits(G, side, vb) & nbhd:
                        grown |= vb
            comp |= grown
            frontier = grown
        comps.append(comp)
        rest &= ~comp
    return comps


CENSUS_CASES = [
    ("c8", P1, (42, 42, 37, 47)),
    ("c8", P100, (16, 16, 1, 47)),
    ("q3", P1, (24, 24, 13, 35)),
]


@pytest.mark.parametrize("name,params,expected", CENSUS_CASES)
def test_census_frozen_anchors(name, params, expected, request):
    G = request.getfixturevalue(name)
    cen = polymer_census(G, params, "expanding")
    assert (cen.in_x, cen.in_y, cen.both, cen.total) == expected


@pytest.mark.parametrize("name", ["c8", "q3", "k22"])
@pytest.mark.parametrize("params", [P1, P100])
@pytest.mark.parametrize("membership", ["expanding", "small"])
def test_census_matches_brute(name, params, membership, request):
    G = request.getfixturevalue(name)
    cen = polymer_census(G, params, membership)
    ref = brute_census(G, params, membership)
    assert (cen.in_x, cen.in_y, cen.both, cen.total) == (
        ref["in_x"], ref["in_y"], ref["both"], ref["total"]
    )
    assert cen.total == exact_count_bipartite(G).value
    # inclusion-exclusion: sets captured by at least one side
    assert cen.in_x + cen.in_y - cen.both <= cen.total


@pytest.mark.parametrize("params", [P1, P100])
@pytest.mark.parametrize("membership", ["expanding", "small"])
def test_unweighted_identity_two_to_n_xi(params, membership, request):
    """2^n Xi^X equals the number of independent sets whose X components
    all lie in the polymer family, as an exact integer."""
    for name in ("c8", "q3", "k22"):
        G = request.getfixturevalue(name)
        cen = polymer_census(G, params, membership)
        for side, target in ((X_SIDE, cen.in_x), (Y_SIDE, cen.in_y)):
            xi = exact_xi(full_universe(G, membership, side, params), WeightModel.unweighted())
            value = (1 << G.side_size(side)) * xi
            assert value.denominator == 1
            assert value == target


@settings(max_examples=20, deadline=None, derandomize=True)
@given(n=st.sampled_from([6, 8]), seed=st.integers(0, 1 << 16))
def test_census_identities_on_random_shifts(n, seed):
    """The census identities beyond the frozen graphs: |I_X| = 2^n Xi^X and
    |I_Y| = 2^n Xi^Y exactly, the total is i(G), and the sets captured by
    at least one side are among them."""
    G = random_shift(n, 3, seed)
    total = exact_count_bipartite(G).value
    for params in (P1, P100):
        for membership in ("expanding", "small"):
            cen = polymer_census(G, params, membership)
            for side, target in ((X_SIDE, cen.in_x), (Y_SIDE, cen.in_y)):
                xi = exact_xi(full_universe(G, membership, side, params), WeightModel.unweighted())
                assert (1 << G.side_size(side)) * xi == target
            assert cen.total == total
            assert cen.in_x + cen.in_y - cen.both <= cen.total


@pytest.mark.parametrize("lam", [Fraction(1, 2), Fraction(1), Fraction(2)])
@pytest.mark.parametrize("membership", ["expanding", "small"])
def test_weighted_identity(lam, membership, request):
    """(1+lambda)^n Xi^X(lambda) equals the restricted partition function
    sum over captured sets, as an exact rational."""
    for name in ("c8", "q3"):
        G = request.getfixturevalue(name)
        fam_masks = set(util.brute_polymer_sets(G, X_SIDE, P1, membership))
        z_captured = Fraction(0)
        for s in range(1 << G.n_x):
            if any(c not in fam_masks for c in side_components(G, X_SIDE, s)):
                continue
            free = G.full_mask(Y_SIDE) & ~neighborhood_bits(G, X_SIDE, s)
            z_captured += lam ** s.bit_count() * (1 + lam) ** free.bit_count()
        xi = exact_xi(full_universe(G, membership, X_SIDE, P1), WeightModel.hardcore(lam))
        assert (1 + lam) ** G.n_y * xi == z_captured


def test_census_capacity_cap():
    with pytest.raises(CapacityError):
        polymer_census(even_cycle(42), P1)


def test_count_expander_auto_brute(c8):
    out = count_expander(c8, 0.1)
    assert out.method == "brute"
    assert out.exact_value == 47
    assert out.flags == ("exact",)
    assert math.isclose(out.log_value, math.log(47))
    assert out.kp_status is None
    assert not out.certified
    assert math.isclose(out.notes["epsilon_zero"], 2.0 ** (-4 / 120))


def test_count_expander_forced_reports_honest_flags(c8):
    out = count_expander(c8, 0.1, P1, force_method="expander-CE")
    assert out.method == "expander-CE"
    assert "kp-failed-at-cap" in out.flags
    assert "uncertified (small-n regime)" in out.flags
    assert not out.certified
    assert out.kp_status == "failed-at-cap"
    assert len(out.side_breakdown) == 2
    for term in out.side_breakdown:
        assert term.ell >= 1
        assert term.config_count > 0
    # two-sided estimate targets |I_X| + |I_Y| = 84, not i(G)
    assert math.log(40) < out.log_value < math.log(200)


def test_count_expander_empty_family_is_exact_truncation():
    G = complete_bipartite(4)
    out = count_expander(G, 0.3, force_method="expander-CE")
    # both families are empty, so truncation is exact: 2^4 (1 + 1) = 32
    assert math.isclose(out.log_value, math.log(32), rel_tol=1e-12)
    assert "kp-failed-at-cap" not in out.flags
    assert out.kp_status == "verified-to-cap"
    # small-n cutoff still withholds certification at this size
    assert "uncertified (small-n regime)" in out.flags


def test_count_expander_validation(c8):
    with pytest.raises(InvalidInputError):
        count_expander(c8, 0.0)
    with pytest.raises(InvalidInputError):
        count_expander(c8, 1.0)
    with pytest.raises(InvalidInputError):
        count_expander(c8, 0.5, force_method="nonsense")


def test_unknown_force_method_rejected_by_both_counters(c8):
    with pytest.raises(InvalidInputError, match="unknown method 'bogus'"):
        count_expander(c8, 0.2, P1, force_method="bogus")
    hp = HardCoreParams(lam=Fraction(1, 2))
    with pytest.raises(InvalidInputError, match="unknown method 'bogus'"):
        count_hardcore_expander(c8, hp, 0.2, P1, force_method="bogus")


def test_epsilon_zero_and_tv_bound():
    assert math.isclose(epsilon_zero(4, 2), 2.0 ** (-4 / 120))
    big = epsilon_zero(10_000, 16)
    assert big < 1e-20
    assert math.isclose(sampler_tv_bound(4, 2, 0.1), 0.1 + 2 * 2.0 ** (-4 / 120))
    with pytest.raises(InvalidInputError):
        epsilon_zero(0, 2)
    with pytest.raises(InvalidInputError):
        epsilon_zero(4, 1)


def test_kp_status_empty_breakdown():
    out = ApproxCount(log_value=0.0, rel_error_bound=0.1, method="brute")
    assert out.kp_status is None


# -- hard-core ------------------------------------------------------------------


def test_hardcore_params_validation():
    with pytest.raises(InvalidInputError):
        HardCoreParams(lam=Fraction(0))
    with pytest.raises(InvalidInputError):
        HardCoreParams(lam=Fraction(1), alpha=Fraction(3, 2))
    hp = HardCoreParams(lam=Fraction(1))
    assert hp.alpha == Fraction(1, 2)


def test_hardcore_beta_anchor():
    hp = HardCoreParams(lam=Fraction(1))
    assert hp.beta(16) == Fraction(1, 23)


def test_condition_flags_unmet_at_desk_scale():
    flags = HardCoreParams(lam=Fraction(1)).condition_flags(16)
    assert set(flags) == {
        "lambda-above-threshold",
        "beta-hypothesis",
        "alpha-beta-hypothesis",
    }
    assert not any(flags.values())


def test_count_hardcore_brute_anchor(c8):
    hp = HardCoreParams(lam=Fraction(2))
    out = count_hardcore_expander(c8, hp, 0.2, force_method="brute")
    assert out.exact_value == 257
    assert out.flags == ("exact",)
    assert math.isclose(out.log_value, math.log(257))


def test_count_hardcore_expander_flags(c8):
    hp = HardCoreParams(lam=Fraction(1))
    out = count_hardcore_expander(c8, hp, 0.4, P1)
    assert out.method == "expander-CE"
    # at d = 2 the fugacity clears its threshold but the beta hypotheses fail
    unmet = {f for f in out.flags if f.startswith("hypothesis-unmet:")}
    assert unmet == {
        "hypothesis-unmet:beta-hypothesis",
        "hypothesis-unmet:alpha-beta-hypothesis",
    }
    assert out.notes["conditions"]["lambda-above-threshold"]
    assert not out.certified
    assert 0.0 < out.notes["beta"] < 1.0


def test_count_hardcore_lambda_one_matches_unweighted_value(c8):
    hp = HardCoreParams(lam=Fraction(1))
    weighted = count_hardcore_expander(c8, hp, 0.4, P1)
    unweighted = count_expander(c8, 0.1, P1, force_method="expander-CE")
    # same ell is not guaranteed, so compare through the exact identity:
    # (1+1)^n Xi_small == 2^n Xi_expanding when the families coincide
    xi_small = exact_xi(full_universe(c8, "small", X_SIDE, P1), WeightModel.hardcore(Fraction(1)))
    xi_exp = exact_xi(full_universe(c8, "expanding", X_SIDE, P1), WeightModel.unweighted())
    assert xi_small == xi_exp
    assert weighted.rel_error_bound == 0.4
    assert unweighted.rel_error_bound == 0.1


# -- samplers -------------------------------------------------------------------


def assert_valid_pairs(G, pairs):
    for xb, yb in pairs:
        assert xb & ~G.full_mask(X_SIDE) == 0
        assert yb & ~G.full_mask(Y_SIDE) == 0
        assert neighborhood_bits(G, X_SIDE, xb) & yb == 0


def test_sampler_tables_structure(c8):
    tables = sampler_tables(c8, P1)
    for table in (tables.x, tables.y):
        assert list(table.thresholds) == sorted(table.thresholds)
        assert table.thresholds[-1] == DRAW_DEN
        assert Fraction(table.cumulative[-1], table.denominator) == table.xi
        assert table.config_bits[0] == 0  # empty defect first
        assert table.free_bits[0] == c8.full_mask(opposite(table.side))
    # symmetric sides split evenly
    assert tables.side_threshold == DRAW_DEN // 2
    assert tables.fill_num == Fraction(1, 2)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    n=st.sampled_from([8, 10]),
    seed=st.integers(0, 1 << 16),
    lam=st.sampled_from([None, Fraction(1, 2), Fraction(1)]),
)
def test_integer_tables_match_fraction_reference(n, seed, lam):
    """Integer-weighted tables give the Fraction route's thresholds, Xi and
    free sides, and their draws are the per-draw reference loop's."""
    G = random_shift(n, 3, seed)
    membership = "expanding" if lam is None else "small"
    m = WeightModel.unweighted() if lam is None else WeightModel.hardcore(lam)
    tables = sampler_tables(G, P1, lam=lam)
    side_threshold, ref = util.reference_tables(G, P1, lam, membership)
    assert tables.side_threshold == side_threshold
    for table in (tables.x, tables.y):
        bits_ref, thresholds_ref, _ = ref[table.side]
        assert list(table.config_bits) == bits_ref
        assert list(table.thresholds) == thresholds_ref
        assert table.xi == exact_xi(full_universe(G, membership, table.side, P1), m)
        full = G.full_mask(opposite(table.side))
        for bits, free in zip(table.config_bits, table.free_bits):
            assert free == full & ~neighborhood_bits(G, table.side, bits)
    if lam is None:
        draws = sample_expander(G, 0.2, P1, seed=seed, samples=200)
    else:
        draws = sample_hardcore_expander(G, HardCoreParams(lam), 0.2, P1, seed=seed, samples=200)
    assert draws == util.reference_table_draws(G, P1, lam, membership, seed, 200)


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(
    n=st.sampled_from([8, 10]),
    seed=st.integers(0, 1 << 16),
    lam=st.sampled_from([None, Fraction(1, 2), Fraction(1), Fraction(2)]),
    draw_seed=st.integers(0, 1 << 16),
)
def test_integer_peeling_matches_fraction_reference(n, seed, lam, draw_seed):
    """Exact sequential draws peel on integer numerators over one common
    denominator; every draw is the one the Fraction loop makes."""
    G = random_shift(n, 3, seed)
    if lam is None:
        draws = sample_expander(G, 0.2, P1, seed=draw_seed, samples=8, mode="sequential")
    else:
        draws = sample_hardcore_expander(
            G, HardCoreParams(lam), 0.2, P1, seed=draw_seed, samples=8, mode="sequential"
        )
    assert draws == util.reference_sequential_draws(G, P1, lam, draw_seed, 8)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(free=st.sets(st.integers(0, 99), max_size=100), seed=st.integers(0, 1 << 30))
@example(free=set(range(100)), seed=1)
@example(free=set(), seed=2)
def test_fair_fill_reads_what_per_vertex_bits_read(free, seed):
    # one getrandbits(32 f) call gives the fill and leaves the generator
    # where f ascending getrandbits(1) calls do, across several windows
    mask = sum(1 << v for v in free)
    batched, looped = Random(seed), Random(seed)
    fill = fair_fill(_fair_fill_plan(mask), batched.getrandbits)
    want = sum(1 << v for v in sorted(free) if looped.getrandbits(1))
    assert fill == want
    assert batched.getstate() == looped.getstate()


@pytest.mark.parametrize("build, want", [
    (lambda: random_shift(16, 4, 1), 13.281679152852403),
    (lambda: random_shift(20, 6, 1), 15.181945919729229),
    (lambda: hypercube(5), 12.719059117045111),
], ids=["shift(16,4,1)", "shift(20,6,1)", "Q5"])
def test_forced_count_at_scale_pinned(build, want):
    """Forced two-sided counts on universes of thousands of polymers keep
    their values, and the convergence check still fails at the cap on both
    sides."""
    out = count_expander(build(), 0.2, P1, force_method="expander-CE")
    assert out.log_value == pytest.approx(want, rel=1e-12, abs=0)
    assert [t.kp_status for t in out.side_breakdown] == ["failed-at-cap"] * 2


def test_table_sampler_law_matches_mu_hat(c8):
    """The exact law induced by the quantized tables is within 1e-9 of the
    two-step measure in total variation."""
    tables = sampler_tables(c8, P1)
    induced = util.induced_table_distribution(c8, tables)
    mu_hat = exact_mu_hat(c8, P1)
    assert sum(mu_hat.values()) == 1
    assert util.tv(induced, mu_hat) <= Fraction(1, 10**9)


# each fugacity with the polymer family its sampler expands over
@pytest.mark.parametrize("lam,membership", [
    (None, "expanding"),
    (Fraction(1, 2), "small"),
], ids=["None-expanding", "lam2-small"])
def test_mu_hat_matches_first_principles(lam, membership, request):
    for name in ("c8", "q3"):
        G = request.getfixturevalue(name)
        mine = exact_mu_hat(G, P1, lam=lam)
        ref = util.nu_formula(G, P1, lam, membership)
        assert util.tv(mine, ref) == 0


def test_hardcore_lambda_one_table_law_equals_unweighted(c8):
    """At lambda = 1 the weighted sampler induces exactly the unweighted
    sampler's law on C8, where its small-set family is the expanding one."""
    for side in (X_SIDE, Y_SIDE):
        small = full_universe(c8, "small", side, P1)
        assert len(small) > 0
        assert small == full_universe(c8, "expanding", side, P1)
    weighted = sampler_tables(c8, P1, lam=Fraction(1))
    plain = sampler_tables(c8, P1)
    d_w = util.induced_table_distribution(c8, weighted)
    d_p = util.induced_table_distribution(c8, plain)
    assert util.tv(d_w, d_p) == 0


def test_table_sampler_empirical(c8):
    draws = sample_expander(c8, 0.2, P1, seed=7, samples=20000)
    assert_valid_pairs(c8, draws)
    freq = {}
    for pair in draws:
        freq[pair] = freq.get(pair, 0) + 1
    emp = {k: Fraction(v, len(draws)) for k, v in freq.items()}
    assert util.tv(emp, exact_mu_hat(c8, P1)) <= Fraction(1, 20)


def test_table_sampler_reproducible(c8):
    a = sample_expander(c8, 0.2, P1, seed=11, samples=50)
    b = sample_expander(c8, 0.2, P1, seed=11, samples=50)
    c = sample_expander(c8, 0.2, P1, seed=12, samples=50)
    assert a == b
    assert a != c


def test_sequential_sampler_matches_table_law(c8):
    draws = sample_expander(c8, 0.2, P1, seed=3, samples=1200, mode="sequential")
    assert_valid_pairs(c8, draws)
    freq = {}
    for pair in draws:
        freq[pair] = freq.get(pair, 0) + 1
    emp = {k: Fraction(v, len(draws)) for k, v in freq.items()}
    assert util.tv(emp, exact_mu_hat(c8, P1)) <= Fraction(1, 10)


# 20 sequential draws at seed 3 (epsilon 0.2, c1 = 1), pinned so that how
# the region partition functions are obtained cannot move a draw; at
# lambda = 1 the fill is fair and, on these cycles, the small family's
# draws are the unweighted ones
SEQUENTIAL_DRAWS = {
    ("c8", None): [
        (8, 3), (14, 0), (1, 2), (9, 2), (12, 1), (0, 10), (9, 0), (13, 0), (2, 12),
        (2, 0), (0, 11), (5, 0), (12, 0), (1, 6), (3, 4), (0, 4), (0, 11), (6, 0), (8, 2),
        (8, 2),
    ],
    ("c8", Fraction(1, 2)): [
        (0, 1), (0, 9), (1, 0), (0, 0), (8, 2), (0, 4), (3, 4), (0, 12), (0, 2), (0, 13),
        (1, 0), (0, 0), (0, 4), (0, 5), (5, 0), (6, 8), (0, 8), (1, 2), (10, 0), (0, 1),
    ],
    ("c12", None): [
        (16, 7), (29, 0), (0, 20), (2, 52), (8, 17), (11, 16), (12, 33), (0, 36), (1, 22),
        (8, 48), (8, 19), (24, 3), (0, 45), (14, 32), (32, 5), (16, 36), (53, 0), (18, 4),
        (35, 0), (8, 50),
    ],
    ("c12", Fraction(1, 2)): [
        (0, 3), (0, 18), (24, 32), (33, 0), (0, 11), (34, 4), (50, 0), (3, 24), (6, 8),
        (24, 32), (0, 60), (1, 10), (2, 12), (16, 4), (8, 18), (1, 22), (32, 2), (0, 32),
        (41, 2), (0, 33),
    ],
    ("c8", Fraction(1)): [
        (8, 3), (14, 0), (1, 2), (9, 2), (12, 1), (0, 10), (9, 0), (13, 0), (2, 12),
        (2, 0), (0, 11), (5, 0), (12, 0), (1, 6), (3, 4), (0, 4), (0, 11), (6, 0), (8, 2),
        (8, 2),
    ],
    ("c12", Fraction(1)): [
        (16, 7), (29, 0), (0, 20), (2, 52), (8, 17), (11, 16), (12, 33), (0, 36), (1, 22),
        (8, 48), (8, 19), (24, 3), (0, 45), (14, 32), (32, 5), (16, 36), (53, 0), (18, 4),
        (35, 0), (8, 50),
    ],
}


def _sequential_id(name, lam):
    # lambda = 1/2 keeps the bare "hardcore" id it had before lambda = 1 joined
    if lam is None:
        return f"{name}-unweighted-exact"
    return f"{name}-hardcore-exact" if lam == Fraction(1, 2) else f"{name}-hardcore-{lam}-exact"


@pytest.mark.parametrize(
    "name,lam", list(SEQUENTIAL_DRAWS), ids=[_sequential_id(*key) for key in SEQUENTIAL_DRAWS]
)
def test_sequential_draws_pinned(name, lam):
    G = even_cycle(int(name[1:]))
    if lam is None:
        draws = sample_expander(G, 0.2, P1, seed=3, samples=20, mode="sequential")
    else:
        draws = sample_hardcore_expander(
            G, HardCoreParams(lam), 0.2, P1, seed=3, samples=20, mode="sequential"
        )
    assert draws == SEQUENTIAL_DRAWS[name, lam]


# 30 table-mode draws at seed 3 (epsilon 0.2, c1 = 1) on C8, pinned so that
# how the draw loop is organised cannot move a draw; at lambda = 1 the fill
# is fair and the small family's tables give the unweighted draws
TABLE_DRAWS = {
    None: [
        (4, 9), (3, 0), (1, 6), (0, 10), (4, 1), (13, 0), (4, 8), (6, 8), (0, 0), (1, 6),
        (1, 2), (8, 2), (12, 1), (0, 15), (8, 3), (0, 14), (1, 2), (8, 0), (1, 4), (8, 2),
        (10, 0), (8, 1), (0, 8), (0, 12), (8, 2), (12, 1), (0, 12), (0, 6), (10, 0), (3, 0),
    ],
    Fraction(1, 2): [
        (0, 8), (0, 5), (0, 5), (8, 0), (2, 4), (0, 0), (0, 1), (6, 0), (8, 0), (13, 0),
        (0, 0), (4, 1), (0, 12), (11, 0), (0, 0), (6, 0), (0, 2), (0, 1), (0, 15), (0, 1),
        (0, 11), (0, 6), (4, 8), (9, 0), (8, 0), (9, 0), (0, 12), (4, 0), (12, 0), (3, 4),
    ],
    Fraction(1): [
        (4, 9), (3, 0), (1, 6), (0, 10), (4, 1), (13, 0), (4, 8), (6, 8), (0, 0), (1, 6),
        (1, 2), (8, 2), (12, 1), (0, 15), (8, 3), (0, 14), (1, 2), (8, 0), (1, 4), (8, 2),
        (10, 0), (8, 1), (0, 8), (0, 12), (8, 2), (12, 1), (0, 12), (0, 6), (10, 0), (3, 0),
    ],
}


@pytest.mark.parametrize(
    "lam", list(TABLE_DRAWS), ids=["unweighted", "hardcore-1/2", "hardcore-1"]
)
def test_table_draws_pinned(c8, lam):
    if lam is None:
        draws = sample_expander(c8, 0.2, P1, seed=3, samples=30)
    else:
        draws = sample_hardcore_expander(c8, HardCoreParams(lam), 0.2, P1, seed=3, samples=30)
    assert draws == TABLE_DRAWS[lam]


@pytest.mark.parametrize(
    "G",
    [even_cycle(12), hypercube(4), random_shift(10, 3, 1), random_shift(10, 3, 2),
     random_regular(8, 3, 1)],
    ids=["C12", "Q4", "shift(10,3,1)", "shift(10,3,2)", "rr(8,3,1)"],
)
@pytest.mark.parametrize(
    "lam", [None, Fraction(1, 2), Fraction(3, 7), Fraction(2)],
    ids=["unweighted", "1/2", "3/7", "2"],
)
def test_table_draws_match_the_free_mask_loop(G, lam):
    # one draw record per configuration, made on its first draw, gives the
    # draws of the loop that keeps fill plans per free mask and bisects on
    # r + 1; rr(8,3,1) claims no side swap, so both sides are built
    tables = sampler_tables(G, P1, lam=lam)
    for seed in (1, 7, 11):
        if lam is None:
            draws = sample_expander(G, 0.2, P1, seed=seed, samples=2000)
        else:
            draws = sample_hardcore_expander(G, HardCoreParams(lam), 0.2, P1, seed=seed, samples=2000)
        assert draws == util.free_mask_table_draws(tables, Random(seed), 2000)


@pytest.mark.parametrize(
    "G,builds",
    [(even_cycle(8), 1), (hypercube(4), 1), (random_regular(8, 3, 1), 2)],
    ids=["C8", "Q4", "rr(8,3,1)"],
)
def test_forced_count_builds_masks_once_per_side_universe(G, builds, monkeypatch):
    # the convergence check and the configuration walk read the masks the
    # side's universe was built with; every module binding the builder is
    # watched.  C8 and Q4 carry a verified side swap, so Y's universe is
    # never built; the random graph has no claim and builds both
    real = biscount.polymers.incompatibility_masks
    built = []

    def recording(universe):
        built.append(len(universe))
        return real(universe)

    for name, module in list(sys.modules.items()):
        if name.startswith("biscount") and getattr(module, "incompatibility_masks", None) is real:
            monkeypatch.setattr(module, "incompatibility_masks", recording)
    out = count_expander(G, 0.2, P1, force_method="expander-CE")
    assert len(built) == builds
    assert [t.config_count > 0 for t in out.side_breakdown] == [True, True]


def test_sequential_xi_taken_once_per_sub_universe(monkeypatch):
    # Xi depends on a region only through the polymers inside it, so a run
    # takes it once per distinct polymer mask; the side choice reads each
    # whole side's Xi from the same memo the peeling uses (an empty mask
    # names no side, so those are left out)
    real = biscount.expander.exact_xi
    seen = []

    def recording(universe, m, mask):
        if mask:
            seen.append(tuple((universe[i].side, universe[i].bits) for i in iter_bits(mask)))
        return real(universe, m, mask)

    monkeypatch.setattr(biscount.expander, "exact_xi", recording)
    draws = sample_expander(even_cycle(12), 0.2, P1, seed=3, samples=50, mode="sequential")
    assert len(draws) == 50
    assert len(seen) == len(set(seen))


def test_sequential_samplers_past_24_polymers():
    # Q4 has 32 expanding polymers a side; exact Xi is bounded by the
    # configurations walked, not by the polymer count
    G = hypercube(4)
    assert len(full_universe(G, "expanding", X_SIDE, P1)) == 32
    draws = sample_expander(G, 0.2, P1, seed=1, samples=10, mode="sequential")
    assert len(draws) == 10
    assert_valid_pairs(G, draws)
    hp = HardCoreParams(lam=Fraction(1, 2))
    draws = sample_hardcore_expander(G, hp, 0.2, P1, seed=1, samples=10, mode="sequential")
    assert len(draws) == 10
    assert_valid_pairs(G, draws)


@pytest.mark.parametrize(
    "G",
    [BipartiteGraph.from_edges(3, 3, [(0, 0), (1, 1), (2, 2)]), complete_bipartite(1)],
    ids=["matching3", "k11"],
)
def test_exact_sequential_sampler_at_degree_one(G):
    # the samplers never truncate, so they need no ell: at d = 1, where
    # choose_ell is undefined, sequential draws lie in the support of the
    # exact two-step measure, as table mode's do
    support = exact_mu_hat(G, P1)
    for mode in ("sequential", "table"):
        draws = sample_expander(G, 0.2, P1, seed=4, samples=40, mode=mode)
        assert len(draws) == 40 and set(draws) <= set(support)


def test_hardcore_sampler_empirical(c8):
    hp = HardCoreParams(lam=Fraction(1, 2))
    draws = sample_hardcore_expander(c8, hp, 0.2, P1, seed=5, samples=20000)
    assert_valid_pairs(c8, draws)
    freq = {}
    for pair in draws:
        freq[pair] = freq.get(pair, 0) + 1
    emp = {k: Fraction(v, len(draws)) for k, v in freq.items()}
    ref = exact_mu_hat(c8, P1, lam=Fraction(1, 2))
    assert util.tv(emp, ref) <= Fraction(1, 20)


def test_sampler_validation(c8):
    with pytest.raises(InvalidInputError):
        sample_expander(c8, 0.2, P1, samples=0)
    with pytest.raises(InvalidInputError):
        sample_expander(c8, 1.5, P1)
    with pytest.raises(InvalidInputError):
        sample_expander(c8, 0.2, P1, mode="warp")


def test_sequential_peeling_identity_survives_optimized_mode(c8, monkeypatch):
    # the identity is an explicit check, not an assert that python -O strips:
    # a partition function that disagrees with its peeling must raise
    real = biscount.expander.exact_xi

    def off_by_one_through_vertex_0(universe, m, mask):
        # the first peeling step's region is the only one still holding
        # vertex 0's polymers
        xi = real(universe, m, mask)
        return xi + 1 if mask & universe.holding[0] else xi

    monkeypatch.setattr(biscount.expander, "exact_xi", off_by_one_through_vertex_0)
    with pytest.raises(RuntimeError, match="peeling identity"):
        sample_expander(c8, 0.2, P1, seed=0, samples=1, mode="sequential")


def test_peeling_identity_raises_under_python_optimize():
    # python -O strips assert statements; the identity check must still
    # stop a draw whose partition functions disagree with its peeling
    script = (
        "import sys\n"
        "import biscount.expander as ex\n"
        "from biscount import ExpansionParams\n"
        "from biscount.instances import even_cycle\n"
        "real = ex.exact_xi\n"
        "def off_by_one_through_vertex_0(universe, m, mask):\n"
        "    xi = real(universe, m, mask)\n"
        "    return xi + 1 if mask & universe.holding[0] else xi\n"
        "ex.exact_xi = off_by_one_through_vertex_0\n"
        "print('optimize', sys.flags.optimize, __debug__)\n"
        "try:\n"
        "    ex.sample_expander(even_cycle(8), 0.2, ExpansionParams(c1=1.0), seed=0,\n"
        "                       samples=1, mode='sequential')\n"
        "except RuntimeError as exc:\n"
        "    print('raised', exc)\n"
    )
    src = str(Path(biscount.expander.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "optimize 1 False"
    assert lines[1].startswith("raised peeling identity broken at vertex 0 of side ")


# -- side swap -------------------------------------------------------------------


def _forced_outputs(G):
    """log value, flags and side terms of the forced count and of the
    hard-core count at lambda = 1/2 and 1, with each report's side swap."""
    outs = [count_expander(G, 0.2, P1, force_method="expander-CE")]
    outs += [
        count_hardcore_expander(G, HardCoreParams(lam), 0.2, P1, force_method="expander-CE")
        for lam in (Fraction(1, 2), Fraction(1))
    ]
    return (
        [(o.log_value, o.flags, o.side_breakdown) for o in outs],
        [o.notes["side_swap"] for o in outs],
    )


def _claimless(G):
    G.claimed_swap = None
    return G


def _assert_swap_changes_nothing(build):
    G = build()
    assert is_side_swap(G, G.claimed_swap)
    with_swap, names = _forced_outputs(G)
    both_sides, no_names = _forced_outputs(_claimless(build()))
    assert with_swap == both_sides
    assert names == [G.claimed_swap.name] * 3
    assert no_names == [None] * 3


SWAP_GRAPHS = {
    **{f"C{m}": (lambda m=m: even_cycle(m)) for m in (8, 10, 12, 14, 16)},
    "Q3": lambda: hypercube(3),
    "Q4": lambda: hypercube(4),
    "K33": lambda: complete_bipartite(3),
    "K44": lambda: complete_bipartite(4),
    "torus[4,4]": lambda: even_torus([4, 4]),
    "torus[4,6]": lambda: even_torus([4, 6]),
}


@pytest.mark.parametrize("build", list(SWAP_GRAPHS.values()), ids=list(SWAP_GRAPHS))
def test_side_swap_gives_the_two_sided_outputs(build):
    _assert_swap_changes_nothing(build)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(n=st.sampled_from([8, 10, 12]), d=st.sampled_from([3, 4, 5]), seed=st.integers(0, 1 << 16))
def test_side_swap_gives_the_two_sided_outputs_on_random_shifts(n, d, seed):
    _assert_swap_changes_nothing(lambda: random_shift(n, d, seed))


def _exchanged(swap):
    x_to_y = list(swap.x_to_y)
    x_to_y[0], x_to_y[1] = x_to_y[1], x_to_y[0]
    return SideSwap("exchanged", tuple(x_to_y), swap.y_to_x)


def _identity(G):
    return SideSwap("identity", tuple(range(G.n_x)), tuple(range(G.n_y)))


def _not_a_permutation(G):
    return SideSwap("constant", (0,) * G.n_x, tuple(range(G.n_y)))


@pytest.mark.parametrize(
    "build,claim",
    [
        (lambda: even_cycle(12), lambda G: _exchanged(G.claimed_swap)),
        (lambda: random_regular(8, 3, 1), _identity),
        (lambda: even_cycle(12), _not_a_permutation),
    ],
    ids=["C12-exchanged", "rr(8,3,1)-identity", "C12-not-a-permutation"],
)
def test_false_side_swap_is_refused_and_both_sides_run(build, claim, monkeypatch):
    real = biscount.expander._side_estimate
    sides = []

    def recording(G, fam, m, kp, ell):
        sides.append(fam.side)
        return real(G, fam, m, kp, ell)

    monkeypatch.setattr(biscount.expander, "_side_estimate", recording)
    G = build()
    G.claimed_swap = claim(G)
    assert not is_side_swap(G, G.claimed_swap)
    refused, names = _forced_outputs(G)
    assert sides == [X_SIDE, Y_SIDE] * 3
    assert names == [None] * 3
    assert refused == _forced_outputs(_claimless(build()))[0]


def test_side_swap_is_checked_once_per_graph_object(monkeypatch):
    real = biscount.expander.is_side_swap
    checked = []

    def recording(G, swap):
        checked.append(G)
        return real(G, swap)

    monkeypatch.setattr(biscount.expander, "is_side_swap", recording)
    G = even_cycle(10)
    _forced_outputs(G)
    count_expander(G, 0.2, P1, force_method="expander-CE")
    assert checked == [G]
    H = even_cycle(10)
    _forced_outputs(H)
    assert checked == [G, H]


def test_loaded_graph_carries_no_claim_and_counts_both_sides():
    G = hypercube(3)
    H = load_graph(dump_graph(G))
    assert H.claimed_swap is None
    loaded, names = _forced_outputs(H)
    assert names == [None] * 3
    assert loaded == _forced_outputs(G)[0]


# -- side swap in the sampler tables -------------------------------------------


LAMBDAS = [None, Fraction(1, 2), Fraction(1), Fraction(2)]


def _tables_and_mu_hat(G, lam):
    """The sampler tables and, where its pairs number in the tens of
    thousands at most, the exact two-step measure.  Q5's measure lists
    millions of pairs; it is a function of the tables, which are compared."""
    tables = sampler_tables(G, P1, lam)
    return tables, (exact_mu_hat(G, P1, lam) if G.n_x <= 12 else None)


def _assert_swapped_tables_are_two_sided(build, lam):
    G = build()
    assert is_side_swap(G, G.claimed_swap)
    # SideTable equality is every field's: bits, free sides, cumulative
    # weights, denominator, thresholds and Xi
    assert _tables_and_mu_hat(G, lam) == _tables_and_mu_hat(_claimless(build()), lam)


@pytest.mark.parametrize("lam", [None, Fraction(1, 2), Fraction(2)],
                         ids=["unweighted", "lam=1/2", "lam=2"])
@pytest.mark.parametrize("build", [
    lambda: even_cycle(8), lambda: even_cycle(12), lambda: hypercube(3),
    lambda: random_shift(8, 3, 1), lambda: random_regular(8, 3, 1),
], ids=["C8", "C12", "Q3", "shift(8,3,1)", "rr(8,3,1)"])
def test_sampler_tables_are_the_reference_tables_field_by_field(build, lam):
    # each side's table, swapped or walked, against the configurations the
    # recursive walk lists, weighed one polymer at a time in Fractions
    G = build()
    membership = "expanding" if lam is None else "small"
    m = WeightModel.unweighted() if lam is None else WeightModel.hardcore(lam)
    tables = sampler_tables(G, P1, lam=lam)
    side_threshold, ref = util.reference_tables(G, P1, lam, membership)
    assert tables.side_threshold == side_threshold
    assert tables.fill_num == (Fraction(1, 2) if lam is None else lam / (1 + lam))
    for table in (tables.x, tables.y):
        bits_ref, thresholds_ref, xi_ref = ref[table.side]
        universe = full_universe(G, membership, table.side, P1)
        configs = list(util.iter_compatible_configs(universe))
        full = G.full_mask(opposite(table.side))
        free_ref, weights_ref = [], []
        for config in configs:
            nbhd, weight = 0, Fraction(1)
            for i in config:
                nbhd |= universe[i].nbhd
                weight *= m.weight(universe[i])
            free_ref.append(full & ~nbhd)
            weights_ref.append(weight)
        assert table.config_bits == tuple(bits_ref)
        assert table.free_bits == tuple(free_ref)
        assert [table.config_weight(i) for i in range(len(configs))] == weights_ref
        assert table.thresholds == tuple(thresholds_ref)
        assert table.xi == xi_ref == Fraction(table.cumulative[-1], table.denominator)


@pytest.mark.parametrize("lam", LAMBDAS, ids=["unweighted", "lam=1/2", "lam=1", "lam=2"])
@pytest.mark.parametrize(
    "build", list({**SWAP_GRAPHS, "Q5": lambda: hypercube(5)}.values()),
    ids=list(SWAP_GRAPHS) + ["Q5"],
)
def test_swapped_sampler_tables_are_the_two_sided_build(build, lam):
    _assert_swapped_tables_are_two_sided(build, lam)


@settings(max_examples=16, deadline=None, derandomize=True, database=None)
@given(
    n=st.sampled_from([8, 10, 12]),
    d=st.sampled_from([3, 4, 5]),
    seed=st.integers(0, 1 << 16),
    lam=st.sampled_from(LAMBDAS),
)
def test_swapped_sampler_tables_are_the_two_sided_build_on_random_shifts(n, d, seed, lam):
    _assert_swapped_tables_are_two_sided(lambda: random_shift(n, d, seed), lam)


def _recorded_memo_keys(G):
    """G with its memo wrapped so that every key asked for is recorded."""
    real, keys = G.memo, []

    def recording(key, build):
        keys.append(key)
        return real(key, build)

    G.memo = recording
    return G, keys


def _polymer_sides(keys):
    return {key[1].side for key in keys if key[0] == "polymers"}


@pytest.mark.parametrize("lam", [None, Fraction(1, 2)], ids=["unweighted", "lam=1/2"])
def test_swapped_sampler_tables_build_no_y_universe(lam):
    G, keys = _recorded_memo_keys(hypercube(4))
    if lam is None:
        sample_expander(G, 0.2, P1, seed=1, samples=5)
    else:
        sample_hardcore_expander(G, HardCoreParams(lam), 0.2, P1, seed=1, samples=5)
    assert _polymer_sides(keys) == {X_SIDE}


@pytest.mark.parametrize(
    "build,claim",
    [
        (lambda: even_cycle(12), lambda G: _exchanged(G.claimed_swap)),
        (lambda: random_regular(8, 3, 1), _identity),
    ],
    ids=["C12-exchanged", "rr(8,3,1)-identity"],
)
@pytest.mark.parametrize("lam", [None, Fraction(1, 2)], ids=["unweighted", "lam=1/2"])
def test_false_side_swap_builds_both_sampler_tables(build, claim, lam):
    G, keys = _recorded_memo_keys(build())
    G.claimed_swap = claim(G)
    assert not is_side_swap(G, G.claimed_swap)
    refused = _tables_and_mu_hat(G, lam)
    assert _polymer_sides(keys) == {X_SIDE, Y_SIDE}
    assert refused == _tables_and_mu_hat(_claimless(build()), lam)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(a=st.integers(0, 12), b=st.integers(0, 12), seed=st.integers(0, 1 << 30))
def test_getrandbits_fills_words_from_the_low_end(a, b, seed):
    # the fair fill and the table draws' fused reads rest on this: one read
    # of a + b bits, both multiples of 32, is a read of a bits below a read
    # of b bits, and leaves the generator where the two reads do
    a, b = 32 * a, 32 * b
    one, two = Random(seed), Random(seed)
    assert one.getrandbits(a + b) == two.getrandbits(a) | two.getrandbits(b) << a
    assert one.getstate() == two.getstate()


def test_empty_universe_is_not_certified():
    # at the default c1 = 100 the expanding family of torus [8,32] is empty,
    # and n = 128 is past the small-n regime: the convergence condition holds
    # vacuously and the count is the bare 2^(n+1), about 14.9 nats below i(G)
    out = count_expander(even_torus([8, 32]), 0.5)
    assert out.method == "expander-CE"
    assert [t.config_count for t in out.side_breakdown] == [1, 1]
    assert out.kp_status == "verified-to-cap"
    assert out.flags == ("uncertified (empty universe)",)
    assert not out.certified

"""Two-sided expander counting, the weighted variant, and the samplers."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import biscount.expander
import util
from biscount.cluster_expansion import exact_xi
from biscount.errors import CapacityError, InvalidInputError
from biscount.expander import (
    DRAW_DEN,
    ApproxCount,
    HardCoreParams,
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
from biscount.graphs import X_SIDE, Y_SIDE, neighborhood_bits, opposite
from biscount.instances import complete_bipartite, even_cycle, hypercube, random_shift
from biscount.oracle import exact_count_bipartite
from biscount.polymers import PolymerFamily, WeightModel, enumerate_polymers
from util import P1, P100


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
    assert tables.table(X_SIDE) is tables.x
    assert tables.table(Y_SIDE) is tables.y


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
    tables = sampler_tables(G, P1, lam=lam, membership=membership)
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


@pytest.mark.parametrize("lam,membership", [
    (None, "expanding"),
    (None, "small"),
    (Fraction(1, 2), "small"),
    (Fraction(2), "expanding"),
])
def test_mu_hat_matches_first_principles(lam, membership, request):
    for name in ("c8", "q3"):
        G = request.getfixturevalue(name)
        mine = exact_mu_hat(G, P1, lam=lam, membership=membership)
        ref = util.nu_formula(G, P1, lam, membership)
        assert util.tv(mine, ref) == 0


def test_hardcore_lambda_one_table_law_equals_unweighted(c8):
    """At lambda = 1 the weighted sampler over a family induces exactly the
    unweighted sampler's law over the same family."""
    weighted = sampler_tables(c8, P1, lam=Fraction(1), membership="small")
    plain = sampler_tables(c8, P1, membership="small")
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
# the region partition functions are obtained cannot move a draw; the float
# route (use_exact_xi=False) peels through truncated expansions instead
SEQUENTIAL_DRAWS = {
    ("c8", None, True): [
        (8, 3), (14, 0), (1, 2), (9, 2), (12, 1), (0, 10), (9, 0), (13, 0), (2, 12),
        (2, 0), (0, 11), (5, 0), (12, 0), (1, 6), (3, 4), (0, 4), (0, 11), (6, 0), (8, 2),
        (8, 2),
    ],
    ("c8", None, False): [
        (8, 3), (14, 0), (1, 2), (9, 2), (12, 1), (0, 10), (9, 0), (13, 0), (2, 12),
        (2, 0), (0, 11), (5, 0), (12, 0), (1, 6), (3, 4), (0, 4), (0, 11), (6, 0), (8, 2),
        (8, 2),
    ],
    ("c8", Fraction(1, 2), True): [
        (0, 1), (0, 9), (1, 0), (0, 0), (8, 2), (0, 4), (3, 4), (0, 12), (0, 2), (0, 13),
        (1, 0), (0, 0), (0, 4), (0, 5), (5, 0), (6, 8), (0, 8), (1, 2), (10, 0), (0, 1),
    ],
    ("c8", Fraction(1, 2), False): [
        (0, 3), (0, 1), (1, 0), (0, 0), (8, 2), (0, 4), (3, 4), (0, 12), (0, 2), (0, 13),
        (1, 0), (0, 0), (0, 4), (0, 5), (5, 0), (0, 1), (6, 0), (0, 10), (1, 2), (10, 0),
    ],
    ("c12", None, True): [
        (16, 7), (29, 0), (0, 20), (2, 52), (8, 17), (11, 16), (12, 33), (0, 36), (1, 22),
        (8, 48), (8, 19), (24, 3), (0, 45), (14, 32), (32, 5), (16, 36), (53, 0), (18, 4),
        (35, 0), (8, 50),
    ],
    ("c12", None, False): [
        (48, 3), (24, 35), (25, 2), (24, 32), (24, 33), (17, 4), (35, 8), (6, 32), (4, 24),
        (41, 0), (4, 49), (35, 0), (32, 5), (16, 36), (53, 0), (18, 4), (35, 0), (8, 50),
        (12, 33), (0, 52),
    ],
    ("c12", Fraction(1, 2), True): [
        (0, 3), (0, 18), (24, 32), (33, 0), (0, 11), (34, 4), (50, 0), (3, 24), (6, 8),
        (24, 32), (0, 60), (1, 10), (2, 12), (16, 4), (8, 18), (1, 22), (32, 2), (0, 32),
        (41, 2), (0, 33),
    ],
    ("c12", Fraction(1, 2), False): [
        (0, 3), (0, 18), (24, 32), (33, 0), (0, 11), (34, 4), (50, 0), (3, 24), (6, 8),
        (24, 32), (0, 60), (0, 22), (34, 0), (5, 8), (16, 32), (16, 36), (32, 2), (0, 32),
        (41, 2), (0, 33),
    ],
}


@pytest.mark.parametrize(
    "name,lam,exact",
    list(SEQUENTIAL_DRAWS),
    ids=[f"{name}-{'unweighted' if lam is None else 'hardcore'}-{'exact' if exact else 'float'}"
         for name, lam, exact in SEQUENTIAL_DRAWS],
)
def test_sequential_draws_pinned(name, lam, exact):
    G = even_cycle(int(name[1:]))
    if lam is None:
        draws = sample_expander(
            G, 0.2, P1, seed=3, samples=20, mode="sequential", use_exact_xi=exact
        )
    else:
        draws = sample_hardcore_expander(
            G, HardCoreParams(lam), 0.2, P1, seed=3, samples=20, mode="sequential",
            use_exact_xi=exact,
        )
    assert draws == SEQUENTIAL_DRAWS[name, lam, exact]


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


def test_sequential_xi_taken_once_per_sub_universe(monkeypatch):
    # Xi depends on a region only through the polymers inside it, so a run
    # takes it once per distinct restricted universe; the side choice reads
    # each whole side's Xi from the same memo the peeling uses (an empty
    # universe names no side, so those are left out)
    real = biscount.expander.exact_xi
    seen = []

    def recording(universe, m):
        if universe:
            seen.append(tuple((p.side, p.bits) for p in universe))
        return real(universe, m)

    monkeypatch.setattr(biscount.expander, "exact_xi", recording)
    draws = sample_expander(even_cycle(12), 0.2, P1, seed=3, samples=50, mode="sequential")
    assert len(draws) == 50
    assert len(seen) == len(set(seen))


def test_float_sequential_log_xi_taken_once_per_sub_universe(monkeypatch):
    # the float route keeps ln Xi(ell) in the per-side memo, and the side
    # choice reads each whole side from it rather than taking it again
    real = biscount.expander.truncated_log_xi
    seen = []

    def recording(universe, *args, **kwargs):
        if universe:
            seen.append(tuple((p.side, p.bits) for p in universe))
        return real(universe, *args, **kwargs)

    monkeypatch.setattr(biscount.expander, "truncated_log_xi", recording)
    draws = sample_expander(
        even_cycle(12), 0.2, P1, seed=3, samples=50, mode="sequential", use_exact_xi=False
    )
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


def test_hardcore_sampler_empirical(c8):
    hp = HardCoreParams(lam=Fraction(1, 2))
    draws = sample_hardcore_expander(c8, hp, 0.2, P1, seed=5, samples=20000)
    assert_valid_pairs(c8, draws)
    freq = {}
    for pair in draws:
        freq[pair] = freq.get(pair, 0) + 1
    emp = {k: Fraction(v, len(draws)) for k, v in freq.items()}
    ref = exact_mu_hat(c8, P1, lam=Fraction(1, 2), membership="small")
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

    def off_by_one_through_vertex_0(universe, m):
        # the first peeling step's region is the only one still holding
        # vertex 0's polymers
        xi = real(universe, m)
        return xi + 1 if any(p.bits & 1 for p in universe) else xi

    monkeypatch.setattr(biscount.expander, "exact_xi", off_by_one_through_vertex_0)
    with pytest.raises(RuntimeError, match="peeling identity"):
        sample_expander(c8, 0.2, P1, seed=0, samples=1, mode="sequential")

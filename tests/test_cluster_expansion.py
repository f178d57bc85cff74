"""Truncated cluster expansion: convergence checks, bounds, exact references."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from biscount import (
    CapacityError,
    InvalidInputError,
    beta_weight,
    choose_ell,
    exact_log_xi,
    exact_xi,
    kp_hardcore,
    kp_unweighted,
    tail_mass,
    truncated_log_xi,
    truncation_bound,
    verify_kp,
)
from biscount import polymers
from biscount.cluster_expansion import KPFunctions
from biscount.instances import complete_bipartite, even_cycle, hypercube, random_shift
from biscount.polymers import (
    PolymerFamily,
    PolymerUniverse,
    WeightModel,
    enumerate_polymers,
    iter_compatible_configs,
    log_series_coefficients,
    xi_size_polynomial,
)
from biscount.graphs import iter_bits

import util
from util import P1, brute_polymer_sets, enumerate_clusters, random_instances


def test_beta_weight_frozen_anchor():
    b = beta_weight(Fraction(1), 16, Fraction(1, 2))
    assert b == Fraction(1, 23)
    assert isinstance(b, Fraction)


def test_beta_weight_float_fallback_and_validation():
    b = beta_weight(Fraction(1, 3), 5, Fraction(1, 2))
    assert isinstance(b, float) and 0 < b < 1
    with pytest.raises(InvalidInputError):
        beta_weight(Fraction(0), 16, Fraction(1, 2))
    with pytest.raises(InvalidInputError):
        beta_weight(Fraction(1), 1, Fraction(1, 2))


def test_kp_function_shapes():
    kp = kp_unweighted(4)
    q = math.log2(4) ** 2 / 4
    from biscount.polymers import Polymer

    p = Polymer("X", 0b11, 0b111)
    assert kp.f(p) == pytest.approx(math.log(2) * q * 2)
    assert kp.g(p) == pytest.approx(2 * math.log(2) * q * 3)
    hp = kp_hardcore(16, Fraction(1), Fraction(1, 2))
    rate = float(Fraction(1, 2)) * math.log(2) * float(Fraction(1, 23)) / 8.0
    assert hp.f(p) == pytest.approx(rate * 2)
    assert hp.g(p) == pytest.approx(rate * 3)


def test_choose_ell_monotone_and_validated():
    ells = [choose_ell(64, 4, eps) for eps in (0.5, 0.1, 0.01)]
    assert ells == sorted(ells)
    assert choose_ell(64, 4, 0.1, model="hardcore") <= choose_ell(64, 4, 0.1)
    with pytest.raises(InvalidInputError):
        choose_ell(0, 4, 0.1)
    with pytest.raises(InvalidInputError):
        choose_ell(8, 4, 0.0)
    with pytest.raises(InvalidInputError):
        choose_ell(8, 4, 0.1, model="nonsense")


def test_truncation_bound_decreasing_in_ell():
    vals = [truncation_bound(16, 4, ell, "unweighted") for ell in range(1, 9)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    # the hardcore rate is 250x steeper; keep the exponent in double range
    vals = [truncation_bound(16, 1024, ell, "hardcore") for ell in range(1, 7)]
    assert all(a > b > 0.0 for a, b in zip(vals, vals[1:]))


def test_certified_bound_decreasing_in_ell(c8):
    fam = PolymerFamily("expanding", "X", P1)
    m = WeightModel.unweighted()
    uni = enumerate_polymers(c8, fam, 4)
    bounds = [truncated_log_xi(uni, m, ell, 4, c8.d).certified_bound for ell in range(1, 7)]
    assert all(a > b for a, b in zip(bounds, bounds[1:]))


def test_verify_kp_fails_at_desk_scale(c8):
    fam = PolymerFamily("expanding", "X", P1)
    uni = enumerate_polymers(c8, fam, 4)
    report = verify_kp(uni, WeightModel.unweighted(), kp_unweighted(c8.d))
    assert not report.all_pass
    assert len(report.checks) == 8
    assert all(not c.passed for c in report.checks)
    for c in report.checks:
        assert c.lhs > c.rhs


def test_verify_kp_vacuous_pass_on_empty_universe():
    G = complete_bipartite(4)
    fam = PolymerFamily("expanding", "X", P1)
    uni = enumerate_polymers(G, fam, 4)
    report = verify_kp(uni, WeightModel.unweighted(), kp_unweighted(G.d))
    assert report.all_pass
    assert report.checks == ()


def test_exact_xi_frozen_anchor(c8):
    fam = PolymerFamily("expanding", "X", P1)
    xi = exact_xi(enumerate_polymers(c8, fam, 4), WeightModel.unweighted())
    assert xi == Fraction(21, 8)
    assert exact_log_xi(c8, fam, WeightModel.unweighted()) == pytest.approx(
        math.log(21 / 8), abs=1e-12
    )


def test_exact_xi_capacity(monkeypatch):
    # the one budget on exact Xi is the configuration walk's: a universe
    # with more compatible configurations than it allows raises
    monkeypatch.setattr(polymers, "CONFIG_BUDGET", 3)
    fam = PolymerFamily("expanding", "X", P1)
    with pytest.raises(CapacityError, match="more than 3 polymer configurations"):
        exact_xi(enumerate_polymers(even_cycle(8), fam, 4), WeightModel.unweighted())


def test_truncated_log_xi_matches_series_partial_sums(c8):
    # cross-route check: the streamed cluster sum at ell agrees with the
    # formal log series of the size polynomial summed to the same grade
    fam = PolymerFamily("expanding", "X", P1)
    m = WeightModel.unweighted()
    uni = enumerate_polymers(c8, fam, 4)
    logc = log_series_coefficients(xi_size_polynomial(uni, m), 8)
    partial = 0.0
    for ell in range(1, 9):
        partial += float(logc[ell])
        est = truncated_log_xi(uni, m, ell, 4, c8.d)
        assert est.log_value == pytest.approx(partial, abs=1e-12)
        assert est.ell_used == ell
        assert est.model == "unweighted"


@pytest.mark.xfail(
    strict=True,
    reason="truncating at ell = total universe size leaves a measured log gap"
    " of 5.0e-2 (C6) and 4.4e-3 (hypercube side 4), far above 1e-9; the"
    " guarantee needs the convergence condition, which fails at desk scale",
)
def test_truncated_at_universe_total_size_reaches_1e9():
    m = WeightModel.unweighted()
    for G in [even_cycle(6), hypercube(3), complete_bipartite(3)]:
        fam = PolymerFamily("expanding", "X", P1)
        uni = enumerate_polymers(G, fam, G.side_size("X"))
        ell_max = sum(p.size for p in uni)
        exact = exact_log_xi(G, fam, m) if uni else 0.0
        got = truncated_log_xi(uni, m, ell_max, G.n_x, G.d).log_value if ell_max else 0.0
        assert abs(got - exact) <= 1e-9


def test_error_within_bound_wherever_kp_passes():
    # at desk scale the convergence condition only passes on empty universes;
    # the truncation error is then exactly zero and every certified bound holds
    m = WeightModel.unweighted()
    passed = 0
    for G in [complete_bipartite(2), complete_bipartite(3), complete_bipartite(4)]:
        for side in ("X", "Y"):
            fam = PolymerFamily("expanding", side, P1)
            n = G.side_size(side)
            uni = enumerate_polymers(G, fam, n)
            if not verify_kp(uni, m, kp_unweighted(G.d)).all_pass:
                continue
            exact = exact_log_xi(G, fam, m)
            for ell in range(1, n + 1):
                est = truncated_log_xi(uni, m, ell, n, G.d)
                assert abs(est.log_value - exact) <= est.certified_bound
            passed += 1
    assert passed >= 6


def test_restriction_gives_subuniverse_and_smaller_xi(q3, c8):
    # a region's polymer mask over the side's universe at any size cap
    # selects exactly the brute-force polymer list inside the region up to
    # that cap, and the list filter of the universe; the size polynomial of
    # the mask is that of the filtered universe, and the unweighted
    # partition function can only shrink with it
    m = WeightModel.unweighted()
    for G in [c8, q3] + random_instances(4, seed=77, max_side=6):
        fam = PolymerFamily("expanding", "X", P1)
        n = G.side_size("X")
        brute = brute_polymer_sets(G, "X", P1, "expanding")
        full = enumerate_polymers(G, fam, n)
        xi_full = exact_xi(full, m)
        for cap in range(1, n + 1):
            uni = enumerate_polymers(G, fam, cap)
            for region in range(1 << n):
                got = [uni[i].bits for i in iter_bits(uni.within(region))]
                want = [b for b in brute if not b & ~region and b.bit_count() <= cap]
                assert got == want
                assert got == [p.bits for p in uni if not p.bits & ~region]
        for region in range(1 << n):
            part = xi_size_polynomial(full, m, mask=full.within(region))
            ref = xi_size_polynomial(PolymerUniverse(p for p in full if not p.bits & ~region), m)
            assert (part, part.configs) == (ref, ref.configs)
            assert exact_xi(full, m, full.within(region)) == sum(part) <= xi_full


def test_tail_mass_frozen_anchors(c8):
    fam = PolymerFamily("expanding", "X", P1)
    m = WeightModel.unweighted()
    heavy = tail_mass(c8, fam, m, delta=0.5)
    assert heavy.probability == Fraction(5, 21)
    assert heavy.threshold == 2
    assert heavy.paper_bound >= 0.0
    gone = tail_mass(c8, fam, m, delta=0.6)
    assert gone.probability == 0
    with pytest.raises(InvalidInputError):
        tail_mass(c8, fam, m, delta=-0.1)


def test_tail_mass_past_24_polymers():
    # Q4's 32 polymers a side: the size polynomial against a direct sum of
    # configuration weights by total size
    G = hypercube(4)
    fam = PolymerFamily("expanding", "X", P1)
    m = WeightModel.unweighted()
    universe = enumerate_polymers(G, fam, G.n_x)
    assert len(universe) == 32
    heavy = tail_mass(G, fam, m, delta=0.25)
    xi = total = Fraction(0)
    for config in iter_compatible_configs(universe):
        w = math.prod((m.weight(universe[i]) for i in config), start=Fraction(1))
        xi += w
        if sum(universe[i].size for i in config) >= heavy.threshold:
            total += w
    assert heavy.threshold == 2
    assert 0 < heavy.probability == total / xi < 1
    assert tail_mass(G, fam, m, delta=0).probability == 1


# -- the series route against the cluster route ---------------------------------

ROUTE_MODELS = [
    ("expanding", WeightModel.unweighted()),
    ("small", WeightModel.hardcore(Fraction(1, 2))),
]
# the cluster route prunes supports by total size while growing them, so its
# cost follows the cluster count: at ell = 6 about 2 s on a 56-polymer
# shift(8,3) universe and 6-8 s on the 165-285 polymers of a shift(10,3)
# side; the cap keeps each property-test example to a few seconds
CLUSTER_ORACLE_POLYMERS = 32


def _assert_routes_agree(G, membership, m, ell_max=6):
    # exact agreement grade by grade: the Ursell cluster sum up to size ell
    # equals the truncated log series of the size polynomial, and
    # truncated_log_xi is that Fraction rounded once
    fam = PolymerFamily(membership, "X", P1)
    uni = enumerate_polymers(G, fam, min(ell_max, G.side_size("X")))
    grades = [Fraction(0)] * (ell_max + 1)
    for t in enumerate_clusters(uni, ell_max, m):
        grades[t.size] += t.value
    for ell in range(1, ell_max + 1):
        coeffs = xi_size_polynomial(uni, m, upto=ell)
        series = sum(log_series_coefficients(coeffs, ell)[1:])
        assert series == sum(grades[1 : ell + 1])
        est = truncated_log_xi(uni, m, ell, G.n_x, G.d)
        assert est.log_value == float(series)
        assert est.config_count == coeffs.configs


@pytest.mark.parametrize(
    "G,model,ell_max",
    [
        (even_cycle(8), 0, 6), (even_cycle(8), 1, 6),
        (even_cycle(12), 0, 6), (even_cycle(12), 1, 6),
        (hypercube(3), 0, 6), (hypercube(3), 1, 6),
        (hypercube(4), 0, 6),
        # 72 small polymers: 44k clusters at ell = 6, about 2 s
        (hypercube(4), 1, 6),
    ],
    ids=["c8-unweighted", "c8-hardcore", "c12-unweighted", "c12-hardcore",
         "q3-unweighted", "q3-hardcore", "q4-unweighted", "q4-hardcore"],
)
def test_series_route_equals_cluster_route(G, model, ell_max):
    membership, m = ROUTE_MODELS[model]
    _assert_routes_agree(G, membership, m, ell_max)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(n=st.sampled_from([8, 10]), seed=st.integers(0, 1 << 16))
def test_series_route_equals_cluster_route_on_random_shifts(n, seed):
    G = random_shift(n, 3, seed)
    checked = 0
    for membership, m in ROUTE_MODELS:
        fam = PolymerFamily(membership, "X", P1)
        if len(enumerate_polymers(G, fam, 6)) <= CLUSTER_ORACLE_POLYMERS:
            _assert_routes_agree(G, membership, m)
            checked += 1
    assume(checked)


def test_budgeted_walk_config_count_and_cap(monkeypatch):
    fam = PolymerFamily("expanding", "X", P1)
    m = WeightModel.unweighted()
    G = even_cycle(8)
    uni = enumerate_polymers(G, fam, 4)
    est = truncated_log_xi(uni, m, 8, 4, G.d)
    # every configuration of C8's X side has total size <= 2 (the frozen
    # size polynomial), so ell = 8 walks all of them
    assert est.config_count == len(list(iter_compatible_configs(uni)))
    # the walk is kept on the universe, so the budget is tried on a fresh one
    monkeypatch.setattr(polymers, "CONFIG_BUDGET", est.config_count)
    coeffs = xi_size_polynomial(enumerate_polymers(even_cycle(8), fam, 4), m, upto=8)
    assert coeffs.configs == est.config_count
    assert est.log_value == float(sum(log_series_coefficients(coeffs, 8)[1:]))
    monkeypatch.setattr(polymers, "CONFIG_BUDGET", est.config_count - 1)
    with pytest.raises(CapacityError, match=f"^more than {est.config_count - 1} polymer"):
        xi_size_polynomial(enumerate_polymers(even_cycle(8), fam, 4), m, upto=8)


def model_setup(model, d):
    """Weight model, polymer family and convergence functions by name:
    unweighted over expanding polymers, hard-core at lambda = 1/2 over small
    ones."""
    if model == "hardcore":
        lam = Fraction(1, 2)
        return WeightModel.hardcore(lam), "small", kp_hardcore(d, lam, Fraction(1, 2))
    return WeightModel.unweighted(), "expanding", kp_unweighted(d)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    n=st.sampled_from([8, 10]),
    seed=st.integers(0, 1 << 16),
    model=st.sampled_from(["unweighted", "hardcore"]),
)
def test_class_arithmetic_matches_per_polymer_references(n, seed, model):
    """The class-aggregated size polynomial, integer log series and grouped
    convergence check give the per-configuration and pairwise routes'
    values: equal Fractions, and convergence sums within 1e-12."""
    G = random_shift(n, 3, seed)
    m, membership, kp = model_setup(model, G.d)
    ell = 6
    for side in ("X", "Y"):
        uni = enumerate_polymers(G, PolymerFamily(membership, side, P1), n)
        for upto in (None, ell):
            got = xi_size_polynomial(uni, m, upto=upto)
            want = util.reference_size_polynomial(uni, m, upto=upto)
            assert got.configs == want.configs
            assert all(isinstance(c, Fraction) for c in got)
            assert got == want
        coeffs = xi_size_polynomial(uni, m, upto=ell)
        assert log_series_coefficients(coeffs, ell) == util.reference_log_series(coeffs, ell)
        assert_kp_matches_pairwise(uni, m, kp)
        # the model's own rates fail everywhere at desk scale; g = -f keeps
        # the boosted weights bounded while f grows, so these probes pass
        # some polymers, fail others, and the verdicts are compared on both
        for rate in (0.25, 0.5, 1.0):
            assert_kp_matches_pairwise(uni, m, KPFunctions(rate, -rate, "probe"))


def assert_kp_matches_pairwise(uni, m, kp):
    """Every KPReport field of the grouped check equals the pairwise
    route's, lhs within a relative 1e-12 (the two sum in different orders)."""
    report = verify_kp(uni, m, kp)
    ref = util.reference_verify_kp(uni, m, kp)
    assert (report.all_pass, report.truncated_universe) == (ref.all_pass, ref.truncated_universe)
    assert len(report.checks) == len(ref.checks)
    for c, r in zip(report.checks, ref.checks):
        assert (c.bits, c.size, c.nbhd_size, c.rhs, c.passed) == (
            r.bits, r.size, r.nbhd_size, r.rhs, r.passed
        )
        assert c.lhs == pytest.approx(r.lhs, rel=1e-12, abs=0)


@pytest.mark.parametrize("name", ["C8", "Q4", "Q5"])
@pytest.mark.parametrize("model", ["unweighted", "hardcore"])
def test_grouped_kp_matches_pairwise_on_named_graphs(name, model):
    # the universes count_expander checks at epsilon = 0.2 (ell for 0.05)
    G = {"C8": lambda: even_cycle(8), "Q4": lambda: hypercube(4), "Q5": lambda: hypercube(5)}[name]()
    m, membership, kp = model_setup(model, G.d)
    ell = choose_ell(G.n_x, G.d, 0.05, model=model)
    uni = enumerate_polymers(G, PolymerFamily(membership, "X", P1), min(ell, G.n_x))
    assert uni
    assert_kp_matches_pairwise(uni, m, kp)


@pytest.mark.parametrize(
    "make",
    [lambda: even_cycle(8), lambda: even_cycle(12), lambda: hypercube(3), lambda: hypercube(4),
     lambda: random_shift(8, 3, 1)],
    ids=["C8", "C12", "Q3", "Q4", "shift(8,3)"],
)
@pytest.mark.parametrize(
    "lam", [None, Fraction(1, 2), Fraction(1), Fraction(3, 7), Fraction(2)],
    ids=["unweighted", "1/2", "1", "3/7", "2"],
)
def test_exact_xi_is_the_sum_of_the_size_polynomial_on_every_region(make, lam):
    # Xi summed as one integer over the class cells equals the sum of the
    # size polynomial's coefficients; the polynomial walks a second graph
    # object, so the two read independently kept walks
    m = WeightModel.unweighted() if lam is None else WeightModel.hardcore(lam)
    membership = "expanding" if lam is None else "small"
    G, H = make(), make()
    for side in ("X", "Y"):
        fam = PolymerFamily(membership, side, P1)
        n = G.side_size(side)
        full, twin = enumerate_polymers(G, fam, n), enumerate_polymers(H, fam, n)
        for region in range(1 << n):
            xi = exact_xi(full, m, full.within(region))
            assert isinstance(xi, Fraction)
            assert xi == sum(xi_size_polynomial(twin, m, mask=twin.within(region)))

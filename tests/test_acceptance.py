"""Acceptance suite: one check per advertised criterion.

Each test prints a single ``ACCEPTANCE NN PASS/FAIL`` line with the measured
quantities, visible even under captured pytest output.  Two criteria are
asymptotic statements that do not hold at desk scale; they are implemented
faithfully and marked as expected failures with the measurements in the
reason string, printing ``FAIL (expected)`` instead of being forced green.
"""

import math
import time
from fractions import Fraction

import pytest
import util
from biscount.cluster_expansion import (
    beta_weight,
    exact_xi,
    kp_unweighted,
    truncated_log_xi,
    verify_kp,
)
from biscount.expander import (
    exact_mu_hat,
    polymer_census,
    sample_expander,
    sampler_tables,
    sampler_tv_bound,
)
from biscount.general_count import assemble_exact, estimate_D, exhaustive_D
from biscount.graphs import (
    X_SIDE,
    Y_SIDE,
    SideSet,
    iter_bits,
    neighborhood_bits,
)
from biscount.instances import (
    complete_bipartite,
    even_cycle,
    even_torus,
    hypercube,
)
from biscount.oracle import (
    exact_count_bipartite,
    exact_count_general,
    exact_distribution,
    exact_hardcore,
)
from biscount.polymers import PolymerFamily, WeightModel, enumerate_polymers
from util import (
    P1,
    P100,
    count_via_certificates,
    enumerate_essential_candidates,
    enumerate_nonexpanding_closed,
    is_essential_subset,
)


def announce(capsys, line):
    with capsys.disabled():
        print(f"\n{line}")


def named_catalog():
    return [
        even_cycle(6),
        even_cycle(8),
        even_cycle(12),
        even_cycle(16),
        even_cycle(20),
        complete_bipartite(2),
        complete_bipartite(3),
        complete_bipartite(4),
        hypercube(3),
        hypercube(4),
        even_torus([4, 4]),
    ]


def test_criterion_01_oracle_anchors_and_agreement(capsys):
    start = time.perf_counter()
    assert exact_count_bipartite(complete_bipartite(2)).value == 7
    assert exact_count_bipartite(even_cycle(8)).value == 47
    assert exact_count_bipartite(hypercube(3)).value == 35
    assert exact_hardcore(complete_bipartite(2), Fraction(1, 2)).value == Fraction(7, 2)
    checked = 0
    for G in util.random_instances(100, seed=11, max_side=12):
        assert exact_count_bipartite(G).value == exact_count_general(G.to_general()).value
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 100
    assert elapsed < 5.0
    announce(capsys, "ACCEPTANCE 01 PASS: anchors 7/47/35 and Z=7/2 exact; "
             f"two oracles agree on {checked} random instances in {elapsed:.2f}s (< 5s)")


def test_criterion_02_polymer_identity_and_census(capsys):
    unweighted = WeightModel.unweighted()
    cases = named_catalog() + util.random_instances(10, seed=22, max_side=10)
    covered = skipped = 0
    for i, G in enumerate(cases):
        params = P1 if i % 2 == 0 else P100
        fams = {
            side: PolymerFamily("expanding", side, params) for side in (X_SIDE, Y_SIDE)
        }
        universes = {
            side: enumerate_polymers(G, fams[side], G.side_size(side)) for side in fams
        }
        if max(len(u) for u in universes.values()) > 24:
            skipped += 1
            continue
        cen = polymer_census(G, params)
        for side, target in ((X_SIDE, cen.in_x), (Y_SIDE, cen.in_y)):
            value = (1 << G.side_size(side)) * exact_xi(universes[side], unweighted)
            assert value.denominator == 1 and value == target
        assert cen.in_x + cen.in_y - cen.both <= cen.total
        assert cen.total == exact_count_bipartite(G).value
        covered += 1
    c8 = polymer_census(even_cycle(8), P1)
    assert (c8.in_x, c8.in_y, c8.both, c8.total) == (42, 42, 37, 47)
    assert c8.in_x + c8.in_y - c8.both == 47
    announce(capsys, "ACCEPTANCE 02 PASS: 2^n Xi = |I_X| exact on "
             f"{covered} instance/parameter combos (<= 24 polymers per side; "
             f"{skipped} above the scope cap); census 47 = 42+42-37 on the 8-cycle")


def test_criterion_03_convergence_where_kp_passes(capsys):
    unweighted = WeightModel.unweighted()
    passing = total = 0
    for G in named_catalog():
        for params in (P1, P100):
            for side in (X_SIDE, Y_SIDE):
                total += 1
                fam = PolymerFamily("expanding", side, params)
                n = G.side_size(side)
                universe = enumerate_polymers(G, fam, n)
                if not verify_kp(universe, unweighted, kp_unweighted(G.d)).all_pass:
                    continue
                passing += 1
                exact = float(math.log(float(exact_xi(universe, unweighted))))
                ell_max = max(1, sum(p.size for p in universe))
                for ell in range(1, ell_max + 1):
                    est = truncated_log_xi(universe, unweighted, ell, n, G.d)
                    err = abs(est.log_value - exact)
                    assert err <= est.certified_bound
                    if ell == ell_max:
                        assert err <= 1e-9
    assert passing > 0
    announce(capsys, f"ACCEPTANCE 03 PASS: on the {passing}/{total} side/parameter "
             "combos where the convergence condition verifies to cap (all with "
             "empty polymer universes at this scale), truncation error is 0 at "
             "the full universe size (<= 1e-9) and within the certified bound "
             "at every intermediate order")


@pytest.mark.xfail(
    strict=True,
    reason="truncation at order 8 on the 8-cycle reaches ln(21/8) only to "
    "4.12e-03, far from the 1e-06 target; the series needs order ~65 for "
    "1e-09 at this size, so the clause is an asymptotic statement",
)
def test_criterion_03_c8_anchor_by_ell_8(capsys):
    G = even_cycle(8)
    universe = enumerate_polymers(G, PolymerFamily("expanding", X_SIDE, P1), G.n_x)
    est = truncated_log_xi(universe, WeightModel.unweighted(), 8, G.n_x, G.d)
    err = abs(est.log_value - math.log(21 / 8))
    announce(capsys, f"ACCEPTANCE 03 FAIL (expected): |ln Xi(8) - ln(21/8)| "
             f"= {err:.2e} > 1e-06 on the 8-cycle")
    assert err <= 1e-6


def test_criterion_04_container_completeness(capsys):
    checked_va = 0
    for i, G in enumerate(util.random_instances(100, seed=2024, max_side=12)):
        params = P1 if i % 2 == 0 else P100
        buckets = util.qualifying_buckets(G, X_SIDE, params)
        n = G.n_x
        for v in range(n):
            for a in range(1, n + 1):
                got = {
                    s.bits for s in enumerate_nonexpanding_closed(G, v, a, params)
                }
                assert got == buckets.get((v, a), set())
                checked_va += 1

    catalog = [
        even_cycle(8), complete_bipartite(2), complete_bipartite(3),
        hypercube(3), even_cycle(12), even_torus([4, 4]),
    ] + util.random_instances(4, seed=501, max_side=10)
    essential_checks = 0
    for G in catalog:
        for side in (X_SIDE, Y_SIDE):
            for A in util.two_linked_sets(G, side):
                w = neighborhood_bits(G, side, A.bits).bit_count()
                for v in iter_bits(A.bits):
                    cands = enumerate_essential_candidates(G, v, w, side=side)
                    assert any(is_essential_subset(G, F, A) for F in cands)
                    essential_checks += 1
    announce(capsys, "ACCEPTANCE 04 PASS: closed non-expanding enumeration matches "
             f"brute force on {checked_va} (v,a) cells over 100 random instances; "
             f"essential-subset guarantee held in all {essential_checks} checks")


def test_criterion_05_certificate_identity_and_region_bound(capsys):
    import random as _random

    count = 0
    for B in util.random_instances(50, seed=55, max_side=10):
        G = B.to_general()
        assert G.n <= 20
        truth = exact_count_general(G).value
        for t in (0, 1, 2):
            assert count_via_certificates(G, t) == truth
        count += 1

    from util import certificate_region, compute_certificate

    rng = _random.Random(97)
    bound_runs = 0
    for G, d in [
        (util.general_circulant(20, [1, 2, 3, 4]), 8),
        (util.general_circulant(18, [1, 2, 4, 5]), 8),
        (util.general_circulant(20, list(range(1, 9))), 16),
        (util.general_circulant(17, list(range(1, 9))), 16),
    ]:
        limit = G.n / 2 + 4 * G.n * math.log(d) / d
        for t in (0, 1, 2):
            for _ in range(20):
                members = util.greedy_independent(G, rng)
                if members.bit_count() < t:
                    continue
                cert = compute_certificate(G, members, t)
                region, _ = certificate_region(G, cert)
                assert region.bit_count() <= limit
                bound_runs += 1
    announce(capsys, f"ACCEPTANCE 05 PASS: peeling identity exact on {count} random "
             "regular instances (<= 20 vertices, T in 0..2); region bound "
             f"n/2 + 4n ln(d)/d held on {bound_runs} runs at d in {{8, 16}} "
             "(bound exceeds n at these degrees, so it cannot bind)")


def test_criterion_06_exact_assembly_identity(capsys):
    cases = named_catalog() + util.random_instances(10, seed=606, max_side=10)
    for i, G in enumerate(cases):
        params = P1 if i % 2 == 0 else P100
        assert assemble_exact(G, params) == exact_count_bipartite(G).value
    assert assemble_exact(even_cycle(8), P1) == 47
    assert assemble_exact(complete_bipartite(2), P1) == 7
    announce(capsys, f"ACCEPTANCE 06 PASS: exact family assembly equals the oracle "
             f"on all {len(cases)} instances (2n <= 20), including 8-cycle -> 47 "
             "and K22 -> 7")


def test_criterion_07_mc_d_estimator(capsys):
    G = even_cycle(8)
    A = SideSet(X_SIDE, 0b1111)
    truth = exhaustive_D(G, A)
    assert truth == 5
    good = 0
    runs = 1000
    for seed in range(runs):
        est = estimate_D(G, A, 0.1, 0.05, seed=seed, params=P1)
        if abs(est.value - truth) <= 0.1 * truth:
            good += 1
    assert good >= 0.95 * runs
    announce(capsys, f"ACCEPTANCE 07 PASS: D estimator within 10% of {truth} in "
             f"{good}/{runs} seeded runs (>= 950 required)")


def test_criterion_08_sampler_fidelity(capsys):
    G = even_cycle(8)
    tables = sampler_tables(G, P1)
    induced = util.induced_table_distribution(G, tables)
    reference = util.nu_formula(G, P1, None, "expanding")
    tv_quant = util.tv(induced, reference)
    assert tv_quant <= Fraction(1, 10**9)

    draws = sample_expander(G, 0.1, P1, seed=13, samples=100_000)
    freq = {}
    for pair in draws:
        freq[pair] = freq.get(pair, 0) + 1
    emp = {k: Fraction(v, len(draws)) for k, v in freq.items()}
    mu_hat = exact_mu_hat(G, P1)
    tv_emp = float(util.tv(emp, mu_hat))
    assert tv_emp <= 0.02

    tv_uniform = float(util.tv(mu_hat, exact_distribution(G)))
    bound = sampler_tv_bound(G.n_x, G.d, 0.1)
    announce(capsys, "ACCEPTANCE 08 PASS: sampler law within "
             f"{float(tv_quant):.1e} of the formula measure (<= 1e-9); empirical "
             f"TV {tv_emp:.4f} from 1e5 samples (<= 0.02); distance to the "
             f"uniform measure {tv_uniform:.4f} reported alongside the asymptotic "
             f"bound {bound:.3f} (not asserted: bound exceeds 1 at this size)")


HYPERCUBE_COUNTS = {2: 7, 3: 35, 4: 743, 5: 254475}
TARGET = 2 * math.sqrt(math.e)


def hypercube_gaps():
    gaps = []
    for d in (2, 3, 4, 5):
        count = exact_count_bipartite(hypercube(d)).value
        assert count == HYPERCUBE_COUNTS[d]
        ratio = count / 2 ** (2 ** (d - 1))
        gaps.append(abs(ratio - TARGET))
    return gaps


def test_criterion_09_hypercube_counts_and_small_d_trend(capsys):
    gaps = hypercube_gaps()
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[3] > gaps[2]  # the 5-cube overshoots the limit constant
    announce(capsys, "ACCEPTANCE 09 (companion) PASS: counts 7/35/743/254475 "
             "exact; gaps to 2*sqrt(e) shrink through d=4 "
             f"({', '.join(f'{g:.4f}' for g in gaps)}), d=5 overshoots")


@pytest.mark.xfail(
    strict=True,
    reason="the 5-cube ratio 254475/2^16 = 3.8829 overshoots 2 sqrt(e) = 3.2974, "
    "so the gap sequence 1.5474, 1.1099, 0.3951, 0.5855 is not monotone; the "
    "asymptotic approach is not yet visible by d = 5",
)
def test_criterion_09_monotone_approach(capsys):
    gaps = hypercube_gaps()
    announce(capsys, "ACCEPTANCE 09 FAIL (expected): gaps to 2*sqrt(e) are "
             f"{', '.join(f'{g:.4f}' for g in gaps)}; d=5 moves away again")
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_criterion_10_beta_anchor(capsys):
    beta = beta_weight(Fraction(1), 16, Fraction(1, 2))
    assert beta == Fraction(1, 23)
    announce(capsys, "ACCEPTANCE 10 PASS: beta(1) at d=16, alpha=1/2 equals 1/23 "
             "exactly in rational mode")

"""Container machinery: essential subsets, generating pairs, the closed
non-expanding enumeration, and peeling certificates."""

import math
import random

import pytest

from biscount import (
    InvalidInputError,
    compute_certificate,
    count_via_certificates,
    distinct_nonexpanding_closed,
    enumerate_certificates,
    enumerate_essential_candidates,
    enumerate_expanding,
    enumerate_nonexpanding_closed,
    essential_size_cap,
    greedy_cover,
    is_essential_subset,
    is_expanding,
    is_two_linked,
    small_generator,
    threshold_degree_set,
)
from biscount.containers import certificate_region, count_below
from biscount.errors import MalformedCertificateError
from biscount.graphs import (
    SideSet,
    closure_bits,
    iter_bits,
    neighborhood_bits,
    opposite,
)
from biscount.instances import complete_bipartite, even_cycle, hypercube, random_regular
from biscount.oracle import count_independent_in, exact_count_general

from util import (
    P1,
    P100,
    general_circulant,
    greedy_independent,
    qualifying_buckets,
    random_instances,
    two_linked_sets,
)


def small_instances():
    return [
        even_cycle(8),
        complete_bipartite(2),
        complete_bipartite(3),
        hypercube(3),
    ] + random_instances(5, seed=211, max_side=7)


# -- covers and essential subsets ---------------------------------------------


def test_greedy_cover_covers_and_meets_bound():
    rng = random.Random(13)
    for _ in range(40):
        nq = rng.randint(1, 12)
        target = (1 << nq) - 1
        covers = []
        while True:
            covers = [rng.randrange(1, 1 << nq) for _ in range(rng.randint(1, 10))]
            union = 0
            for c in covers:
                union |= c
            if union & target == target:
                break
        chosen = greedy_cover(covers, target)
        covered = 0
        for q in iter_bits(chosen):
            covered |= covers[q]
        assert covered & target == target
        a = min((sum(1 for c in covers if c >> e & 1) for e in range(nq)))
        b = max(c.bit_count() for c in covers)
        # Lovasz-Stein: candidate-count / min-multiplicity times (1 + ln b)
        assert chosen.bit_count() <= (len(covers) / a) * (1 + math.log(b)) + 1e-9


def test_greedy_cover_deterministic_and_validated():
    covers = [0b011, 0b110, 0b101]
    assert greedy_cover(covers, 0b111) == greedy_cover(covers, 0b111)
    assert greedy_cover(covers, 0) == 0
    with pytest.raises(InvalidInputError):
        greedy_cover([0b01], 0b10)


def test_greedy_cover_complete_bipartite_incidence():
    # in K_{d,d} incidence any single row covers everything
    for d in (2, 3, 5):
        covers = [(1 << d) - 1] * d
        chosen = greedy_cover(covers, (1 << d) - 1)
        assert chosen.bit_count() == 1


def test_threshold_degree_set_matches_brute():
    for G in small_instances():
        for side in ("X", "Y"):
            for A in two_linked_sets(G, side)[:40]:
                closed = closure_bits(G, side, A.bits)
                nb = neighborhood_bits(G, side, A.bits)
                for s in (1, (G.d + 1) // 2, G.d):
                    got = threshold_degree_set(G, A, s)
                    assert got.side == opposite(side)
                    want = 0
                    for u in iter_bits(nb):
                        if (G.rows(opposite(side))[u] & closed).bit_count() >= s:
                            want |= 1 << u
                    assert got.bits == want


def test_is_essential_subset_definition(c8):
    A = SideSet("X", 0b0011)
    w = SideSet("Y", neighborhood_bits(c8, "X", A.bits))
    assert is_essential_subset(c8, w, A)  # the full neighborhood always works
    with pytest.raises(InvalidInputError):
        is_essential_subset(c8, SideSet("X", 0b1), A)


def test_essential_candidate_guarantee():
    # for every 2-linked A and every member v, some enumerated candidate is
    # an essential subset of A
    for G in small_instances():
        for side in ("X", "Y"):
            for A in two_linked_sets(G, side):
                w = neighborhood_bits(G, side, A.bits).bit_count()
                for v in iter_bits(A.bits):
                    cands = enumerate_essential_candidates(G, v, w, side=side)
                    assert any(is_essential_subset(G, F, A) for F in cands), (
                        G.fingerprint(),
                        side,
                        bin(A.bits),
                        v,
                    )


def test_essential_size_cap_formula():
    assert essential_size_cap(8, 8) == math.ceil((8 / 8) * 4 * math.log(8))
    assert essential_size_cap(2, 6) == math.ceil((6 / 2) * (4 + 2 * math.log(2)))
    assert essential_size_cap(1, 5) == 5


# -- generating pairs ----------------------------------------------------------


def test_small_generator_contract():
    for G in small_instances():
        d = G.d
        for side in ("X", "Y"):
            for A in two_linked_sets(G, side):
                a_closed = closure_bits(G, side, A.bits)
                a = a_closed.bit_count()
                w = neighborhood_bits(G, side, A.bits).bit_count()
                anchor = (A.bits & -A.bits).bit_length() - 1
                for p in (P1, P100):
                    a1, a2 = small_generator(G, A, p)
                    assert a1.bits >> anchor & 1
                    assert a1.bits & ~a2.bits == 0
                    assert a2.bits & ~a_closed == 0
                    if A.bits == a_closed:
                        assert a1.bits & ~A.bits == 0
                    assert is_two_linked(G, a1) and is_two_linked(G, a2)
                    assert a1.size <= 2 * (a / d) * math.log(d) + 2 * w / d + 1e-9
                    assert a2.size <= a1.size + 2 * (w - a) + 1e-9
                    f = SideSet(opposite(side), neighborhood_bits(G, side, a1.bits))
                    assert is_essential_subset(G, f, A)
                    assert neighborhood_bits(G, side, a2.bits) == neighborhood_bits(
                        G, side, A.bits
                    )


def test_small_generator_singleton_and_errors(c8):
    a1, a2 = small_generator(c8, SideSet("X", 0b1), P1)
    assert a1.bits == a2.bits == 0b1
    with pytest.raises(InvalidInputError):
        small_generator(c8, SideSet("X", 0), P1)
    with pytest.raises(InvalidInputError):
        small_generator(c8, SideSet("X", 0b101), P1)  # not 2-linked


# -- the container enumerations -----------------------------------------------


def test_enumerate_expanding_matches_brute(c8, q3):
    for G in [c8, q3] + random_instances(3, seed=301, max_side=6):
        n = G.side_size("X")
        full = []
        for bits in range(1, 1 << n):
            s = SideSet("X", bits)
            if is_two_linked(G, s) and is_expanding(G, s, P1):
                full.append(bits)
        for v in range(n):
            for a in range(1, n + 1):
                for w in range(1, G.side_size("Y") + 1):
                    got = {s.bits for s in enumerate_expanding(G, v, a, w, P1)}
                    want = {
                        bits
                        for bits in full
                        if bits >> v & 1
                        and closure_bits(G, "X", bits).bit_count() == a
                        and neighborhood_bits(G, "X", bits).bit_count() == w
                    }
                    assert got == want


def test_enumerate_nonexpanding_closed_sound_and_complete():
    for G in small_instances():
        for params in (P1, P100):
            for side in ("X", "Y"):
                buckets = qualifying_buckets(G, side, params)
                n = G.side_size(side)
                for v in range(n):
                    for a in range(1, n + 1):
                        got = {
                            s.bits
                            for s in enumerate_nonexpanding_closed(
                                G, v, a, params, side=side
                            )
                        }
                        assert got == buckets.get((v, a), set())


def test_enumerate_nonexpanding_closed_q5_window_past_the_expansion_gap():
    # on Q5 at c1 = 1 the rule rejects |N| < a / (1 - c1 log2^2(d) / (2d)),
    # 13 beside a = 6, and all 60 sets of size 6 at anchor 0 have |N| = 13,
    # past a(1 + c1 log2^2(d) / d) = 12.47
    G = hypercube(5)
    want = {
        s.bits for s in distinct_nonexpanding_closed(G, P1) if s.bits & 1 and s.size == 6
    }
    assert len(want) == 60
    assert {s.bits for s in enumerate_nonexpanding_closed(G, 0, 6, P1)} == want


def test_distinct_nonexpanding_closed_frozen_anchors(c8):
    pool1 = distinct_nonexpanding_closed(c8, P1)
    assert [s.bits for s in pool1] == [0b1111]
    pool100 = distinct_nonexpanding_closed(c8, P100)
    assert len(pool100) == 9
    singles = [s for s in pool100 if s.size == 1]
    pairs = [s for s in pool100 if s.size == 2]
    assert len(singles) == 4 and len(pairs) == 4
    assert {s.bits for s in pool100} >= {0b1111}


def test_distinct_matches_union_over_anchors(q3):
    for G in [q3] + random_instances(3, seed=313, max_side=6):
        for params in (P1, P100):
            n = G.side_size("X")
            union = set()
            for v in range(n):
                for a in range(1, n + 1):
                    union |= {
                        s.bits for s in enumerate_nonexpanding_closed(G, v, a, params)
                    }
            got = {s.bits for s in distinct_nonexpanding_closed(G, params)}
            assert got == union


# -- certificates --------------------------------------------------------------


def general_cases():
    return [
        complete_bipartite(2).to_general(),
        even_cycle(8).to_general(),
        hypercube(3).to_general(),
        even_cycle(16).to_general(),
        random_regular(8, 3, seed=19).to_general(),
    ]


def test_certificate_bijection_exhaustive():
    # the map I -> (certificate, I restricted to the surviving region) is a
    # bijection from {independent, |I| >= T} onto certificate/region pairs
    for G in general_cases():
        assert G.n <= 16
        independents = [m for m in range(1 << G.n) if G.is_independent(m)]
        for t in (0, 1, 2, 3):
            eligible = [m for m in independents if m.bit_count() >= t]
            seen = {}
            for members in eligible:
                cert = compute_certificate(G, members, t)
                region, forced = certificate_region(G, cert)
                assert forced & ~members == 0
                assert (members & ~forced) & ~region == 0
                key = (cert, members & region)
                assert key not in seen
                seen[key] = members
            # inverse direction: every (certificate, region-independent set)
            # reconstructs a distinct eligible set with the same trace
            total = 0
            for cert in enumerate_certificates(G, t):
                region, forced = certificate_region(G, cert)
                for j in range(1 << G.n):
                    if j & ~region:
                        continue
                    if not G.is_independent(j):
                        continue
                    members = forced | j
                    assert G.is_independent(members)
                    assert members.bit_count() >= t
                    assert compute_certificate(G, members, t) == cert
                    total += 1
            assert total == len(eligible)


def test_count_via_certificates_matches_oracle():
    for G in general_cases():
        want = exact_count_general(G).value
        for t in (0, 1, 2, 3):
            assert count_via_certificates(G, t) == want


def test_count_below_matches_brute():
    G = even_cycle(8).to_general()
    for t in (0, 1, 2, 3):
        want = sum(
            1 for m in range(1 << G.n) if G.is_independent(m) and m.bit_count() < t
        )
        assert count_below(G, t) == want


def test_certificate_census_frozen_anchors():
    G = even_cycle(8).to_general()
    rows = []
    for t in (0, 1, 2):
        certs = enumerate_certificates(G, t)
        rows.append((t, len(certs), count_below(G, t)))
    assert rows == [(0, 1, 0), (1, 8, 1), (2, 20, 9)]


def test_certificate_region_bound_high_degree():
    # |region| <= n/2 + 4 n ln(d) / d, checked verbatim on 8- and 16-regular
    # circulants (the bound is loose at this scale but must hold on all runs)
    rng = random.Random(97)
    cases = [
        (general_circulant(20, [1, 2, 3, 4]), 8),
        (general_circulant(18, [1, 2, 4, 5]), 8),
        (general_circulant(20, [1, 2, 3, 4, 5, 6, 7, 8]), 16),
        (general_circulant(17, [1, 2, 3, 4, 5, 6, 7, 8]), 16),
    ]
    for G, d in cases:
        assert G.is_regular() and G.rows[0].bit_count() == d
        limit = G.n / 2 + 4 * G.n * math.log(d) / d
        for t in (0, 1, 2):
            for _ in range(20):
                members = greedy_independent(G, rng)
                if members.bit_count() < t:
                    continue
                cert = compute_certificate(G, members, t)
                region, _ = certificate_region(G, cert)
                assert region.bit_count() <= limit


def test_certificates_respect_custom_ordering():
    G = even_cycle(8).to_general()
    order = tuple(reversed(range(G.n)))
    members = next(m for m in range(1 << G.n) if G.is_independent(m) and m.bit_count() >= 2)
    cert = compute_certificate(G, members, 2, ordering=order)
    assert cert.ordering == order
    region, forced = certificate_region(G, cert)
    assert forced & ~members == 0


def test_malformed_certificates_raise():
    from biscount.containers import Certificate

    G = even_cycle(8).to_general()
    with pytest.raises(MalformedCertificateError):
        certificate_region(G, Certificate((0, 0), 1))  # too few ones
    with pytest.raises(MalformedCertificateError):
        certificate_region(G, Certificate((1, 0), 1))  # step after the quota
    with pytest.raises(InvalidInputError):
        compute_certificate(G, 0b1 | 1 << 4, 1)  # adjacent pair


def test_compute_certificate_validates_member_count():
    G = complete_bipartite(2).to_general()
    with pytest.raises(InvalidInputError):
        compute_certificate(G, 0b1, 2)

"""Seeded generators for the bipartite d-regular test instances.

All generators return :class:`~biscount.graphs.BipartiteGraph` with a
canonical vertex labelling, so the same parameters (and seed, where one
applies) reproduce a byte-identical edge list.  Every generator but
``random_regular`` also claims a side swap it knows of (``claimed_swap``),
which the expander counters verify before they use it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import product

from .errors import CapacityError, InvalidInputError
from .graphs import MAX_SIDE, BipartiteGraph, SideSwap, check_side_size


def _negation(n: int) -> SideSwap:
    # u -> -u mod n on both sides: a side swap of every bipartite circulant
    neg = tuple(-u % n for u in range(n))
    return SideSwap("u -> -u mod n", neg, neg)


def even_cycle(m: int) -> BipartiteGraph:
    """The cycle C_m, m even and >= 4, labelled x0 y0 x1 y1 ... around the cycle.

    So x_i is adjacent to y_i and to y_{i-1 mod m/2}.  Claims the side swap
    x_u -> y_{-u}, y_v -> x_{-v} (indices mod m/2).
    """
    if m < 4 or m % 2:
        raise InvalidInputError("cycle length must be even and at least 4")
    n = m // 2
    check_side_size(n)
    edges = []
    for i in range(n):
        edges.append((i, i))
        edges.append((i, (i - 1) % n))
    G = BipartiteGraph.from_edges(n, n, edges, d=2)
    G.claimed_swap = _negation(n)
    return G


def complete_bipartite(d: int) -> BipartiteGraph:
    """K_{d,d}; claims the identity side swap x_u -> y_u, y_v -> x_v."""
    if d < 1:
        raise InvalidInputError("complete bipartite block needs d >= 1")
    check_side_size(d)
    edges = [(u, v) for u in range(d) for v in range(d)]
    G = BipartiteGraph.from_edges(d, d, edges, d=d)
    G.claimed_swap = SideSwap("identity", tuple(range(d)), tuple(range(d)))
    return G


def hypercube(d: int) -> BipartiteGraph:
    """The d-dimensional hypercube; X is the even-parity class.

    Vertices within a class are indexed by increasing binary value.  Claims
    the side swap v -> v xor 1, which flips the parity.
    """
    if d < 1:
        raise InvalidInputError("hypercube dimension must be >= 1")
    if d - 1 >= MAX_SIDE.bit_length():  # 2^(d-1) > MAX_SIDE
        raise CapacityError(
            f"hypercube({d}) has 2^{d - 1} vertices a side, over graphs.MAX_SIDE = {MAX_SIDE}"
        )
    evens = [v for v in range(1 << d) if v.bit_count() % 2 == 0]
    odds = [v for v in range(1 << d) if v.bit_count() % 2 == 1]
    xi = {v: i for i, v in enumerate(evens)}
    yi = {v: i for i, v in enumerate(odds)}
    edges = []
    for v in evens:
        for k in range(d):
            edges.append((xi[v], yi[v ^ (1 << k)]))
    G = BipartiteGraph.from_edges(len(evens), len(odds), edges, d=d)
    G.claimed_swap = SideSwap(
        "v -> v xor 1", tuple(yi[v ^ 1] for v in evens), tuple(xi[v ^ 1] for v in odds)
    )
    return G


def even_torus(dims: list[int]) -> BipartiteGraph:
    """A product of cycles with even side lengths (each >= 4); degree 2*len(dims).

    The bipartition is by coordinate-sum parity, indices lexicographic per side.
    Claims the side swap of a unit step along axis 0, which flips the parity.
    """
    if not dims:
        raise InvalidInputError("torus needs at least one dimension")
    for L in dims:
        if L < 4 or L % 2:
            raise InvalidInputError("torus side lengths must be even and at least 4")
    check_side_size(math.prod(dims) // 2)
    verts = list(product(*[range(L) for L in dims]))
    evens = [v for v in verts if sum(v) % 2 == 0]
    odds = [v for v in verts if sum(v) % 2 == 1]
    xi = {v: i for i, v in enumerate(evens)}
    yi = {v: i for i, v in enumerate(odds)}
    edges = []
    for v in evens:
        for axis, L in enumerate(dims):
            for step in (1, -1):
                w = list(v)
                w[axis] = (w[axis] + step) % L
                edges.append((xi[v], yi[tuple(w)]))
    G = BipartiteGraph.from_edges(len(evens), len(odds), edges, d=2 * len(dims))

    def step(v: tuple[int, ...]) -> tuple[int, ...]:
        return ((v[0] + 1) % dims[0],) + v[1:]

    G.claimed_swap = SideSwap(
        "unit step along axis 0",
        tuple(yi[step(v)] for v in evens), tuple(xi[step(v)] for v in odds),
    )
    return G


STUB_BUDGET = 1 << 21  # stub positions the configuration model may shuffle in all


def random_regular(n: int, d: int, seed: int) -> BipartiteGraph:
    """Configuration model with full-restart rejection until simple.

    Requires n*d even and d <= n.  Restart rejection keeps the distribution
    uniform over simple outcomes but is only viable for small d; the stub
    budget turns hopeless parameter choices into a capacity error.
    """
    if d < 1 or d > n:
        raise InvalidInputError("need 1 <= d <= n")
    if (n * d) % 2:
        raise InvalidInputError("n*d must be even")
    check_side_size(n)
    if n * d > STUB_BUDGET:
        raise CapacityError(
            f"configuration model needs {n * d} stubs, over instances.STUB_BUDGET = {STUB_BUDGET}"
        )
    attempts = STUB_BUDGET // (n * d)
    rng = random.Random(seed)
    stubs = [u for u in range(n) for _ in range(d)]
    for _ in range(attempts):
        y_stubs = stubs[:]
        rng.shuffle(y_stubs)
        seen = set()
        ok = True
        for u, v in zip(stubs, y_stubs):
            if (u, v) in seen:
                ok = False
                break
            seen.add((u, v))
        if ok:
            return BipartiteGraph.from_edges(n, n, sorted(seen), d=d)
    raise CapacityError(
        f"configuration model failed to produce a simple graph in {attempts} attempts"
    )


def random_shift(n: int, d: int, seed: int) -> BipartiteGraph:
    """Random bipartite circulant: x_u ~ y_{(u+s) mod n} for d seeded shifts.

    Always simple and d-regular, so it covers degrees where restart rejection
    of the configuration model is hopeless.  Claims the side swap
    x_u -> y_{-u}, y_v -> x_{-v} (indices mod n).
    """
    if d < 1 or d > n:
        raise InvalidInputError("need 1 <= d <= n")
    check_side_size(n)
    rng = random.Random(seed)
    shifts = rng.sample(range(n), d)
    edges = [(u, (u + s) % n) for u in range(n) for s in shifts]
    G = BipartiteGraph.from_edges(n, n, sorted(edges), d=d)
    G.claimed_swap = _negation(n)
    return G


@dataclass(frozen=True)
class InstanceSpec:
    """A reproducible description of a generated instance."""

    kind: str
    params: dict = field(default_factory=dict)

    def label(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.kind}({inner})"


_GENERATORS = {
    "cycle": lambda p: even_cycle(p["m"]),
    "complete": lambda p: complete_bipartite(p["d"]),
    "hypercube": lambda p: hypercube(p["d"]),
    "torus": lambda p: even_torus(list(p["dims"])),
    "random": lambda p: random_regular(p["n"], p["d"], p["seed"]),
    "shift": lambda p: random_shift(p["n"], p["d"], p["seed"]),
}


def generate(spec: InstanceSpec) -> BipartiteGraph:
    try:
        builder = _GENERATORS[spec.kind]
    except KeyError:
        raise InvalidInputError(f"unknown instance kind {spec.kind!r}")
    try:
        return builder(spec.params)
    except KeyError as missing:
        raise InvalidInputError(f"instance kind {spec.kind!r} missing parameter {missing}")

"""The three benchmark workloads: their instances, their ops and the oracle
checks on every op's output.

Only names exported by the ``biscount`` package are used.  Every workload
sets ``c1=1`` and, where a counter takes one, ``force_method`` explicitly, and
passes no ``workers=`` argument, so the default path users run is measured.
Each instance seed and op seed is drawn from the workload seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

import biscount as bc

EXPANDER_EPS = 0.2
GENERAL_EPS = 0.05
GENERAL_DELTA = 0.05
SAMPLE_EPS = 0.2
HALF = Fraction(1, 2)
CHI2_P = 1e-6
# the default polymer cap of the exact-ratio sampler and count_general_exact
XI_CAP = 24


@dataclass
class Op:
    """One call into biscount.  ``kind`` selects the output check; ``draws``
    is the number of draws a sampler op must return."""

    label: str
    kind: str
    graph: str
    run: Callable[[], Any]
    lam: Fraction | None = None
    draws: int = 0
    chi2: bool = False


@dataclass
class Workload:
    name: str
    graphs: dict[str, bc.BipartiteGraph]
    ops: list[Op] = field(default_factory=list)


def _params() -> bc.ExpansionParams:
    return bc.ExpansionParams(c1=1.0)


def _shift8d3(rng: random.Random) -> bc.BipartiteGraph:
    """A shift(8,3) graph drawn from ``rng`` among those whose expanding
    polymer universe fits XI_CAP on both sides.  About 3 in 10 draws have 56
    polymers per side instead: there the exact-ratio sampler and
    count_general_exact raise CapacityError and count_expander takes 30-35 s,
    so those graphs are a known limit, not part of the workloads."""
    p = _params()
    while True:
        G = bc.random_shift(8, 3, rng.randrange(1 << 30))
        if all(len(bc.enumerate_polymers(G, bc.PolymerFamily("expanding", side, p), 8))
               <= XI_CAP for side in ("X", "Y")):
            return G


def _expander_count(seed: int) -> Workload:
    rng = random.Random(seed)
    graphs = {
        "C8": bc.even_cycle(8),
        "C12": bc.even_cycle(12),
        "C14": bc.even_cycle(14),
        "Q3": bc.hypercube(3),
        "Q4": bc.hypercube(4),
        "K33": bc.complete_bipartite(3),
        "K44": bc.complete_bipartite(4),
        "shift8d3": _shift8d3(rng),
        "shift8d4": bc.random_shift(8, 4, rng.randrange(1 << 30)),
    }
    w = Workload("expander-count", graphs)
    p = _params()
    for name, G in graphs.items():
        w.ops.append(Op(
            f"{name}/count_expander", "approx", name,
            lambda G=G: bc.count_expander(G, EXPANDER_EPS, p, force_method="expander-CE"),
        ))
        for lam in (HALF, Fraction(1)):
            hp = bc.HardCoreParams(lam)
            w.ops.append(Op(
                f"{name}/count_hardcore_expander(lam={lam})", "approx", name,
                lambda G=G, hp=hp: bc.count_hardcore_expander(
                    G, hp, EXPANDER_EPS, p, force_method="expander-CE"
                ),
                lam=lam,
            ))
    return w


def _general_count(seed: int) -> Workload:
    rng = random.Random(seed)
    graphs = {
        "C8": bc.even_cycle(8),
        "C12": bc.even_cycle(12),
        "Q4": bc.hypercube(4),
        "C16": bc.even_cycle(16),
        "shift8d3": _shift8d3(rng),
    }
    w = Workload("general-count", graphs)
    p = _params()
    # the same graph under two seeds, so seed-independent work shows twice
    for name in ("C8", "C12", "Q4"):
        for _ in range(2):
            s = rng.randrange(1 << 30)
            w.ops.append(Op(
                f"{name}/count_general(seed={s})", "approx", name,
                lambda G=graphs[name], s=s: bc.count_general(
                    G, GENERAL_EPS, GENERAL_DELTA, seed=s, params=p
                ),
            ))
    for name in ("C8", "C12", "C16", "shift8d3"):
        w.ops.append(Op(
            f"{name}/count_general_exact", "exact", name,
            lambda G=graphs[name]: bc.count_general_exact(G, p),
        ))
    return w


def _sample(seed: int) -> Workload:
    rng = random.Random(seed)
    graphs = {
        "C8": bc.even_cycle(8),
        "C12": bc.even_cycle(12),
        "C16": bc.even_cycle(16),
        "Q4": bc.hypercube(4),
        "Q5": bc.hypercube(5),
        "shift8d3": _shift8d3(rng),
        "shift10d3": bc.random_shift(10, 3, rng.randrange(1 << 30)),
        "shift12d3": bc.random_shift(12, 3, rng.randrange(1 << 30)),
    }
    w = Workload("sample", graphs)
    p = _params()

    def table(name: str, n: int, kind: str, chi2: bool = False) -> None:
        s = rng.randrange(1 << 30)
        w.ops.append(Op(
            f"{name}/sample_expander(table, {n})", kind, name,
            lambda G=graphs[name], s=s: bc.sample_expander(
                G, SAMPLE_EPS, p, seed=s, samples=n, mode="table"
            ),
            draws=n, chi2=chi2,
        ))

    def sequential(name: str, lam: Fraction | None) -> None:
        s = rng.randrange(1 << 30)
        G = graphs[name]
        if lam is None:
            label = f"{name}/sample_expander(sequential, 50)"
            run = lambda: bc.sample_expander(  # noqa: E731
                G, SAMPLE_EPS, p, seed=s, samples=50, mode="sequential"
            )
        else:
            label = f"{name}/sample_hardcore_expander(sequential, 50, lam={lam})"
            hp = bc.HardCoreParams(lam)
            run = lambda: bc.sample_hardcore_expander(  # noqa: E731
                G, hp, SAMPLE_EPS, p, seed=s, samples=50, mode="sequential"
            )
        w.ops.append(Op(label, "sequential", name, run, lam=lam, draws=50))

    # read-heavy: cheap tables, the draws dominate
    table("C12", 20000, "table", chi2=True)
    table("Q4", 20000, "table")
    table("shift10d3", 20000, "table")
    table("shift12d3", 20000, "table")
    s = rng.randrange(1 << 30)
    hp = bc.HardCoreParams(HALF)
    w.ops.append(Op(
        "C12/sample_hardcore_expander(table, 20000, lam=1/2)", "table", "C12",
        lambda G=graphs["C12"], s=s: bc.sample_hardcore_expander(
            G, hp, SAMPLE_EPS, p, seed=s, samples=20000, mode="table"
        ),
        lam=HALF, draws=20000, chi2=True,
    ))
    # build-heavy: the Q5 table build dominates
    table("Q5", 100, "table-build")
    # sequential peeling through exact partition-function ratios
    for name in ("C8", "C12", "C16", "shift8d3"):
        sequential(name, None)
    for name in ("C8", "C12"):
        sequential(name, HALF)
    # the oracle sampler as a yardstick
    s = rng.randrange(1 << 30)

    def exact_draws(G=graphs["shift12d3"], s=s) -> list[tuple[int, int]]:
        sampler = bc.ExactSampler(G, seed=s)
        return [sampler.sample() for _ in range(20000)]

    w.ops.append(Op("shift12d3/ExactSampler(20000)", "exact-sampler", "shift12d3",
                    exact_draws, draws=20000))
    return w


_WORKLOADS = {
    "expander-count": _expander_count,
    "general-count": _general_count,
    "sample": _sample,
}


def build(name: str, seed: int) -> Workload:
    return _WORKLOADS[name](seed)


# -- checks -----------------------------------------------------------------------


def _log_pos(v: int | Fraction) -> float:
    """Natural log of a positive integer or Fraction, safe beyond float range."""
    v = Fraction(v)

    def log_int(k: int) -> float:
        shift = max(0, k.bit_length() - 60)
        return math.log(k >> shift) + shift * math.log(2)

    return log_int(v.numerator) - log_int(v.denominator)


def _chi2_sf(x: float, dof: int) -> float:
    """P(chi2_dof >= x): the regularized upper incomplete gamma Q(dof/2, x/2),
    written out so the benchmark needs nothing beyond biscount's numpy."""
    a, z = dof / 2.0, x / 2.0
    if z <= 0:
        return 1.0
    log_pre = a * math.log(z) - z - math.lgamma(a)
    if z < a + 1.0:
        term = total = 1.0 / a
        k = a
        while term > total * 1e-15:
            k += 1.0
            term *= z / k
            total += term
        return max(0.0, 1.0 - math.exp(log_pre) * total)
    # Lentz continued fraction for Q
    tiny = 1e-300
    b = z + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    i = 1
    while True:
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = tiny if abs(d) < tiny else d
        c = b + an / c
        c = tiny if abs(c) < tiny else c
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
        i += 1
    return math.exp(log_pre) * h


def chi2_pvalue(draws: list[tuple[int, int]], probs: dict[tuple[int, int], Fraction]) -> float:
    """Goodness of fit of the draws to an exact measure.  Cells expected
    below 5 draws are pooled; a draw outside the support gives p = 0."""
    n = len(draws)
    observed: dict[tuple[int, int], int] = {}
    for key in draws:
        if key not in probs:
            return 0.0
        observed[key] = observed.get(key, 0) + 1
    stat = 0.0
    cells = 0
    pooled_e = 0.0
    pooled_o = 0
    for key, pr in probs.items():
        e = float(pr) * n
        o = observed.get(key, 0)
        if e < 5.0:
            pooled_e += e
            pooled_o += o
            continue
        stat += (o - e) ** 2 / e
        cells += 1
    if pooled_e > 0.0:
        stat += (pooled_o - pooled_e) ** 2 / pooled_e
        cells += 1
    return _chi2_sf(stat, max(1, cells - 1))


def _independent(G: bc.BipartiteGraph, draw: tuple[int, int]) -> bool:
    x_bits, y_bits = draw
    if x_bits >> G.n_x or y_bits >> G.n_y:
        return False
    rows = G.rows("X")
    while x_bits:
        low = x_bits & -x_bits
        if rows[low.bit_length() - 1] & y_bits:
            return False
        x_bits ^= low
    return True


class Checker:
    """Checks op outputs against the exact oracle, computing each reference
    once per (graph, fugacity).  Runs outside every timer."""

    def __init__(self, workload: Workload):
        self.w = workload
        self.p = _params()
        self.truth: dict[tuple[str, Fraction | None], int | Fraction] = {}

    def _truth(self, graph: str, lam: Fraction | None) -> int | Fraction:
        key = (graph, lam)
        if key not in self.truth:
            G = self.w.graphs[graph]
            if lam is None:
                self.truth[key] = bc.exact_count_bipartite(G).value
            else:
                self.truth[key] = bc.exact_hardcore(G, lam).value
        return self.truth[key]

    def check(self, op: Op, out: Any) -> tuple[str | None, float | None, bool]:
        """(error, realized relative error, bound missed) for one output;
        error is None when the output passes."""
        G = self.w.graphs[op.graph]
        if op.kind == "exact":
            truth = self._truth(op.graph, None)
            if out.exact_value != truth:
                return f"exact value {out.exact_value} != oracle {truth}", None, False
            return None, None, False
        if op.kind == "approx":
            if not math.isfinite(out.log_value):
                return f"non-finite log estimate {out.log_value}", None, False
            truth = self._truth(op.graph, op.lam)
            rel = abs(math.expm1(out.log_value - _log_pos(truth)))
            return None, rel, rel > out.rel_error_bound
        if len(out) != op.draws:
            return f"{len(out)} draws returned, {op.draws} asked", None, False
        for draw in out:
            if not _independent(G, draw):
                return f"draw {draw} is not an independent set", None, False
        if op.chi2:
            probs = bc.exact_mu_hat(G, self.p, lam=op.lam)
            pval = chi2_pvalue(out, probs)
            if pval < CHI2_P:
                return f"chi-square p = {pval:.3g} < {CHI2_P} against exact_mu_hat", None, False
        return None, None, False

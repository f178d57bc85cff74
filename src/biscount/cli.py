"""Command-line entry point.

Every run emits a schema-versioned JSON document containing the fully
resolved configuration (so a run can be replayed bit-for-bit), the result
in natural-log space with a decimal rendering when it fits, and timing.
Exit codes: 0 success, 2 invalid input, 3 capacity exceeded, 4 internal
(with its traceback on stderr).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import traceback
from fractions import Fraction
from typing import Callable

from .cluster_expansion import (
    kp_hardcore,
    kp_unweighted,
    verify_kp,
)
from .errors import CapacityError, InvalidInputError
from .expander import (
    METHOD_ORACLE,
    ApproxCount,
    HardCoreParams,
    _exact_result,
    count_expander,
    count_hardcore_expander,
    sample_expander,
    sample_hardcore_expander,
)
from .general_count import count_general, count_general_exact
from .graphs import (
    BipartiteGraph,
    ExpansionParams,
    check_alpha_expander,
    check_expander_sides,
    dump_graph,
    iter_bits,
    load_graph,
    read_header,
)
from .instances import InstanceSpec, generate
from .oracle import (
    ExactSampler,
    check_sweep_side,
    check_table_sides,
    exact_count_bipartite,
    exact_hardcore,
)
from .polymers import PolymerFamily, WeightModel, enumerate_polymers

SCHEMA = 1
DECIMAL_DIGIT_CAP = 4000

# The inputs each mode reads, by subcommand; MODE_FLAG names the flag that
# picks the mode, and the first mode listed is its default.  A given flag the
# mode does not read is invalid input, and the report's config echoes exactly
# the inputs it read.
MODE_FLAG = {"count": "mode", "sample": "mode", "verify-kp": "model"}
READS: dict[str, dict[str, tuple[str, ...]]] = {
    "count": {
        "oracle": ("lambda",),
        "expander": ("epsilon", "c1", "force_method"),
        "hardcore": ("lambda", "alpha", "epsilon", "c1", "force_method"),
        "general": ("epsilon", "c1"),
        "general-exact": ("c1",),
    },
    "sample": {
        "oracle": ("lambda", "seed", "samples"),
        "expander": ("epsilon", "c1", "seed", "samples", "sampler"),
        "hardcore": ("lambda", "epsilon", "c1", "seed", "samples", "sampler"),
    },
    "verify-kp": {
        "unweighted": ("family", "side", "cap", "c1"),
        "hardcore": ("family", "side", "cap", "c1", "lambda", "alpha"),
    },
}


def _check_sampler_table(n_x: int, n_y: int) -> None:
    check_sweep_side(n_x)
    check_table_sides(n_x, n_y)


# The side sizes a count or sample mode refuses from a file's header: the
# oracle sweeps one side, and its sampler also tables every set.
HEADER_CHECKS: dict[tuple[str, str], Callable[[int, int], None]] = {
    ("count", "oracle"): lambda n_x, n_y: check_sweep_side(n_x),
    ("sample", "oracle"): _check_sampler_table,
}
# The value of an input that is not given.  --lambda has none: oracle mode
# then counts unweighted, and the hardcore modes require it.
DEFAULTS = {
    "lambda": None,
    "alpha": "1/2",
    "epsilon": 0.1,
    "c1": 100.0,
    "seed": 0,
    "force_method": None,
    "samples": 1,
    "sampler": "table",
    "family": "expanding",
    "side": "X",
    "cap": 6,
}
# argparse settings of the input flags beyond their name; each defaults to
# None, so a given flag is told from an absent one
FLAG_ARGS = {
    "lambda": {"help": "fugacity as p/q or a decimal, read exactly; required by hardcore"},
    "alpha": {"help": "expansion ratio as p/q or a decimal, read exactly"},
    "epsilon": {"type": float},
    "c1": {"type": float},
    "seed": {"type": int},
    "force_method": {"choices": ["brute", "expander-CE"]},
    "samples": {"type": int},
    "sampler": {"choices": ["table", "sequential"]},
    "family": {"choices": ["expanding", "small"]},
    "side": {"choices": ["X", "Y"]},
    "cap": {"type": int},
}


def _parse_fraction(name: str, text: str) -> Fraction:
    """A rational like 1/2, or a decimal like 0.3 or 1e-3, read exactly."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInputError(f"bad {name} {text!r}: {exc}")


def _parse_lambda(text: str) -> Fraction:
    lam = _parse_fraction("lambda", text)
    if lam <= 0:
        raise InvalidInputError("lambda must be positive")
    return lam


def _parse_alpha(text: str) -> Fraction:
    a = _parse_fraction("alpha", text)
    if not 0 < a <= 1:
        raise InvalidInputError("alpha must lie in (0, 1]")
    return a


def _listing(items: list[str]) -> str:
    return " and ".join(filter(None, [", ".join(items[:-1]), items[-1]]))


def _readers(subcommand: str, name: str) -> list[str]:
    """The modes of a subcommand that read an input."""
    return [mode for mode, reads in READS[subcommand].items() if name in reads]


def _inputs(args: argparse.Namespace) -> dict:
    """The mode and the inputs it reads, with defaults filled in and lambda
    and alpha parsed: the part of ``config`` that is not the graph.  A given
    flag that the mode does not read is invalid input."""
    key = MODE_FLAG[args.subcommand]
    mode = getattr(args, key)
    for name in DEFAULTS:
        readers = _readers(args.subcommand, name)
        if readers and mode not in readers and getattr(args, name) is not None:
            flag = "--" + name.replace("_", "-")
            raise InvalidInputError(
                f"{flag} applies to --{key} {_listing(readers)}, not {mode}; drop {flag}"
            )
    cfg = {key: mode}
    for name in READS[args.subcommand][mode]:
        value = getattr(args, name)
        cfg[name] = DEFAULTS[name] if value is None else value
    if cfg.get("lambda") is not None:
        cfg["lambda"] = _parse_lambda(cfg["lambda"])
    elif mode == "hardcore":
        raise InvalidInputError(f"--{key} hardcore requires --lambda")
    if "alpha" in cfg:
        cfg["alpha"] = _parse_alpha(cfg["alpha"])
    return cfg


def _read_graph(path: str, check: Callable[[int, int], None] | None = None) -> BipartiteGraph:
    """The graph in ``path``; ``check``, when given, sees the header's side
    sizes (n_x, n_y) and can refuse the file before any edge is read."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            if check is not None:
                check(*read_header(fh)[:2])
                fh.seek(0)
            return load_graph(fh.read())
    except OSError as exc:
        raise InvalidInputError(f"cannot read graph file {path!r}: {exc}")


def _decimal_rendering(result: ApproxCount) -> str | None:
    """Exact decimal when available and small enough, scientific otherwise."""
    if result.exact_value is not None:
        v = result.exact_value
        if isinstance(v, Fraction) and v.denominator != 1:
            if len(str(v.numerator)) + len(str(v.denominator)) <= DECIMAL_DIGIT_CAP:
                return str(v)
            return None
        v = int(v)
        text = str(v)
        return text if len(text) <= DECIMAL_DIGIT_CAP else None
    log10 = result.log_value / math.log(10)
    exponent = math.floor(log10)
    mantissa = 10.0 ** (log10 - exponent)
    return f"{mantissa:.6f}e{exponent:+d}"


def _side_json(result: ApproxCount) -> list[dict]:
    return [
        {
            "side": t.side,
            "log_xi": t.log_xi,
            "ell": t.ell,
            "kp_status": t.kp_status,
            "config_count": t.config_count,
            "certified_bound": t.certified_bound,
        }
        for t in result.side_breakdown
    ]


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(_jsonable(payload), indent=2, sort_keys=True)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _count_payload(result: ApproxCount) -> dict:
    return {
        "log_value": result.log_value,
        "decimal": _decimal_rendering(result),
        "rel_error_bound": result.rel_error_bound,
        "method": result.method,
        "kp_status": result.kp_status,
        "certified": result.certified,
        "flags": list(result.flags),
        "exact": result.exact_value is not None,
        "side_breakdown": _side_json(result),
        "notes": _jsonable(result.notes),
    }


def _set_json(x_bits: int, y_bits: int) -> dict:
    return {"x": list(iter_bits(x_bits)), "y": list(iter_bits(y_bits))}


# -- subcommands -----------------------------------------------------------------


def _cmd_gen(args: argparse.Namespace) -> int:
    params: dict = {}
    if args.kind == "cycle":
        params["m"] = args.m
    elif args.kind in ("complete", "hypercube"):
        params["d"] = args.d
    elif args.kind == "torus":
        params["dims"] = tuple(args.dims)
    else:
        params.update({"n": args.side, "d": args.d, "seed": args.seed})
    spec = InstanceSpec(args.kind, params)
    G = generate(spec)
    text = f"c {spec.label()}\n" + dump_graph(G)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _report(
    args: argparse.Namespace, G: BipartiteGraph, cfg: dict, result: dict, elapsed: float
) -> int:
    """Emit a run's report: its ``config`` is the graph and the inputs its
    mode read, and its ``seed`` the seed the mode read, or None."""
    config = {
        "subcommand": args.subcommand,
        "graph": args.graph,
        "fingerprint": G.fingerprint(),
        "n_x": G.n_x,
        "n_y": G.n_y,
        "d": G.d,
        **cfg,
    }
    seed = cfg.get("seed")
    _emit(
        {"schema": SCHEMA, "config": config, "result": result, "seed": seed, "timing_s": elapsed},
        args.out,
    )
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    cfg = _inputs(args)
    G = _read_graph(args.graph, HEADER_CHECKS.get(("count", args.mode)))
    start = time.perf_counter()
    if args.mode == "oracle":
        lam = cfg["lambda"]
        exact = exact_count_bipartite(G) if lam is None else exact_hardcore(G, lam)
        result = _exact_result(exact.value, METHOD_ORACLE)
    else:
        p = ExpansionParams(c1=cfg["c1"])
        if args.mode == "expander":
            result = count_expander(G, cfg["epsilon"], p, force_method=cfg["force_method"])
        elif args.mode == "hardcore":
            hp = HardCoreParams(cfg["lambda"], cfg["alpha"])
            result = count_hardcore_expander(
                G, hp, cfg["epsilon"], p, force_method=cfg["force_method"]
            )
        elif args.mode == "general":
            result = count_general(G, cfg["epsilon"], params=p)
        else:
            result = count_general_exact(G, p)
    return _report(args, G, cfg, _count_payload(result), time.perf_counter() - start)


def _cmd_sample(args: argparse.Namespace) -> int:
    cfg = _inputs(args)
    if cfg["samples"] < 1:
        raise InvalidInputError("--samples must be at least 1")
    G = _read_graph(args.graph, HEADER_CHECKS.get(("sample", args.mode)))
    start = time.perf_counter()
    if args.mode == "oracle":
        oracle = ExactSampler(G, cfg["lambda"] or Fraction(1), seed=cfg["seed"])
        draws = [oracle.sample() for _ in range(cfg["samples"])]
    elif args.mode == "expander":
        draws = sample_expander(
            G, cfg["epsilon"], ExpansionParams(c1=cfg["c1"]),
            seed=cfg["seed"], samples=cfg["samples"], mode=cfg["sampler"],
        )
    else:
        draws = sample_hardcore_expander(
            G, HardCoreParams(cfg["lambda"]), cfg["epsilon"], ExpansionParams(c1=cfg["c1"]),
            seed=cfg["seed"], samples=cfg["samples"], mode=cfg["sampler"],
        )
    elapsed = time.perf_counter() - start
    return _report(args, G, cfg, {"samples": [_set_json(x, y) for x, y in draws]}, elapsed)


def _cmd_verify_kp(args: argparse.Namespace) -> int:
    cfg = _inputs(args)
    if cfg["cap"] < 1:
        raise InvalidInputError("--cap must be at least 1")
    G = _read_graph(args.graph)
    if args.model == "hardcore":
        m = WeightModel.hardcore(cfg["lambda"])
        kp = kp_hardcore(G.d, cfg["lambda"], cfg["alpha"])
    else:
        m = WeightModel.unweighted()
        kp = kp_unweighted(G.d)
    start = time.perf_counter()
    fam = PolymerFamily(cfg["family"], cfg["side"], ExpansionParams(c1=cfg["c1"]))
    report = verify_kp(enumerate_polymers(G, fam, cfg["cap"]), m, kp)
    elapsed = time.perf_counter() - start
    result = {
        "all_pass": report.all_pass,
        "status": "verified-to-cap" if report.all_pass else "failed-at-cap",
        "polymers_checked": len(report.checks),
        "failures": sum(not c.passed for c in report.checks),
        "worst": max(
            ({"bits": c.bits, "lhs": c.lhs, "rhs": c.rhs} for c in report.checks),
            key=lambda c: c["lhs"] - c["rhs"],
            default=None,
        ),
        "truncated_universe": report.truncated_universe,
    }
    return _report(args, G, cfg, result, elapsed)


def _cmd_check_expander(args: argparse.Namespace) -> int:
    G = _read_graph(args.graph, check_expander_sides)
    alpha = _parse_alpha(args.alpha)
    start = time.perf_counter()
    verdict = check_alpha_expander(G, alpha)
    elapsed = time.perf_counter() - start
    witness = None
    if verdict.witness is not None:
        w = verdict.witness
        witness = {"side": w.side, "vertices": w.vertices()}
    _emit(
        {
            "schema": SCHEMA,
            "config": {
                "subcommand": "check-expander",
                "graph": args.graph,
                "alpha": str(alpha),
                "fingerprint": G.fingerprint(),
            },
            "result": {
                "status": verdict.status,
                "alpha": str(alpha),
                "witness": witness,
            },
            "seed": None,
            "timing_s": elapsed,
        },
        args.out,
    )
    return 0


# -- argument wiring ---------------------------------------------------------------


def _add_inputs(sp: argparse.ArgumentParser, subcommand: str) -> None:
    """--graph, --out, the mode flag and the input flags its modes read."""
    key = MODE_FLAG[subcommand]
    modes = list(READS[subcommand])
    sp.add_argument(f"--{key}", default=modes[0], choices=modes)
    sp.add_argument("--graph", required=True, help="graph file in the p bis format")
    for name in DEFAULTS:
        readers = _readers(subcommand, name)
        if readers:
            kwargs = {"default": None, **FLAG_ARGS[name]}
            note = f"read by --{key} {_listing(readers)}; default {DEFAULTS[name]}"
            kwargs["help"] = f"{kwargs['help']}; {note}" if "help" in kwargs else note
            sp.add_argument("--" + name.replace("_", "-"), dest=name, **kwargs)
    sp.add_argument("--out", default=None, help="write the JSON result here")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="biscount")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    gen = sub.add_parser("gen", help="generate an instance")
    gen.add_argument("--kind", required=True,
                     choices=["cycle", "complete", "hypercube", "torus", "random", "shift"])
    gen.add_argument("--m", type=int, default=8)
    gen.add_argument("--d", type=int, default=3)
    gen.add_argument("--side", type=int, default=8)
    gen.add_argument("--dims", type=int, nargs="+", default=[4, 4])
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default=None)
    gen.set_defaults(func=_cmd_gen)

    for name, func, text in (
        ("count", _cmd_count, "count independent sets"),
        ("sample", _cmd_sample, "draw independent sets"),
        ("verify-kp", _cmd_verify_kp, "check the convergence condition"),
    ):
        sp = sub.add_parser(name, help=text)
        _add_inputs(sp, name)
        sp.set_defaults(func=func)

    chk = sub.add_parser("check-expander", help="verify the alpha-expansion property")
    chk.add_argument("--graph", required=True)
    chk.add_argument("--alpha", default="1/2")
    chk.add_argument("--out", default=None)
    chk.set_defaults(func=_cmd_check_expander)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except InvalidInputError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity exceeded: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

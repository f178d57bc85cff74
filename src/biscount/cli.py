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

from .cluster_expansion import (
    kp_hardcore,
    kp_unweighted,
    verify_kp,
)
from .containers import count_below, count_via_certificates, enumerate_certificates
from .errors import CapacityError, InvalidInputError
from .expander import (
    ApproxCount,
    HardCoreParams,
    _log_exact,
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
    dump_graph,
    iter_bits,
    load_graph,
)
from .instances import InstanceSpec, generate
from .oracle import (
    ExactSampler,
    exact_count_bipartite,
    exact_count_general,
    exact_hardcore,
)
from .polymers import PolymerFamily, WeightModel, enumerate_polymers

SCHEMA = 1
DECIMAL_DIGIT_CAP = 4000


def _parse_lambda(text: str, allow_float: bool) -> Fraction:
    if "/" in text or text.lstrip("+-").isdigit():
        try:
            lam = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInputError(f"bad rational {text!r}: {exc}")
    elif allow_float:
        try:
            lam = Fraction(str(float(text)))
        except ValueError as exc:
            raise InvalidInputError(f"bad float {text!r}: {exc}")
    else:
        raise InvalidInputError(
            f"lambda must be a rational like 1/2 (got {text!r}); "
            "pass --float-lambda to accept floats"
        )
    if lam <= 0:
        raise InvalidInputError("lambda must be positive")
    return lam


def _parse_alpha(text: str) -> Fraction:
    try:
        a = Fraction(text) if "/" in text or text.lstrip("+-").isdigit() else Fraction(str(float(text)))
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInputError(f"bad alpha {text!r}: {exc}")
    if not 0 < a <= 1:
        raise InvalidInputError("alpha must lie in (0, 1]")
    return a


def _read_graph(path: str) -> BipartiteGraph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
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


def _resolved_config(args: argparse.Namespace, G: BipartiteGraph, extra: dict) -> dict:
    base = {
        "subcommand": args.subcommand,
        "graph": getattr(args, "graph", None),
        "fingerprint": G.fingerprint(),
        "n_x": G.n_x,
        "n_y": G.n_y,
        "d": G.d,
    }
    base.update(extra)
    return base


def _cmd_count(args: argparse.Namespace) -> int:
    G = _read_graph(args.graph)
    p = ExpansionParams(c1=args.c1)
    lam = _parse_lambda(args.lam, args.float_lambda) if args.lam else None
    alpha = _parse_alpha(args.alpha)
    start = time.perf_counter()

    if args.mode == "oracle":
        if lam is not None:
            exact = exact_hardcore(G, lam)
        else:
            exact = exact_count_bipartite(G)
        result = ApproxCount(
            log_value=_log_exact(exact.value),
            rel_error_bound=min(args.epsilon, 0.999),
            method="oracle",
            flags=("exact",),
            exact_value=exact.value,
        )
    elif args.mode == "expander":
        result = count_expander(G, args.epsilon, p, force_method=args.force_method)
    elif args.mode == "hardcore":
        if lam is None:
            raise InvalidInputError("--mode hardcore requires --lambda")
        hp = HardCoreParams(lam, alpha)
        result = count_hardcore_expander(G, hp, args.epsilon, p, force_method=args.force_method)
    elif args.mode == "general":
        result = count_general(G, args.epsilon, args.delta, args.seed, p)
    elif args.mode == "general-exact":
        result = count_general_exact(G, p)
    else:
        raise InvalidInputError(f"unknown count mode {args.mode!r}")

    elapsed = time.perf_counter() - start
    config = _resolved_config(
        args,
        G,
        {
            "mode": args.mode,
            "epsilon": args.epsilon,
            "delta": args.delta,
            "lambda": str(lam) if lam is not None else None,
            "alpha": str(alpha),
            "c1": args.c1,
            "seed": args.seed,
            "force_method": args.force_method,
        },
    )
    _emit(
        {
            "schema": SCHEMA,
            "config": config,
            "result": _count_payload(result),
            "seed": args.seed,
            "timing_s": elapsed,
        },
        args.out,
    )
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    G = _read_graph(args.graph)
    p = ExpansionParams(c1=args.c1)
    lam = _parse_lambda(args.lam, args.float_lambda) if args.lam else None
    start = time.perf_counter()
    if args.mode == "oracle":
        sampler = ExactSampler(G, lam if lam is not None else Fraction(1), seed=args.seed)
        draws = [sampler.sample() for _ in range(args.samples)]
    elif args.mode == "expander":
        draws = sample_expander(
            G, args.epsilon, p, seed=args.seed, samples=args.samples, mode=args.sampler
        )
    elif args.mode == "hardcore":
        if lam is None:
            raise InvalidInputError("--mode hardcore requires --lambda")
        draws = sample_hardcore_expander(
            G,
            HardCoreParams(lam, _parse_alpha(args.alpha)),
            args.epsilon,
            p,
            seed=args.seed,
            samples=args.samples,
            mode=args.sampler,
        )
    else:
        raise InvalidInputError(f"unknown sample mode {args.mode!r}")
    elapsed = time.perf_counter() - start
    config = _resolved_config(
        args,
        G,
        {
            "mode": args.mode,
            "sampler": args.sampler,
            "samples": args.samples,
            "epsilon": args.epsilon,
            "lambda": str(lam) if lam is not None else None,
            "c1": args.c1,
            "seed": args.seed,
        },
    )
    _emit(
        {
            "schema": SCHEMA,
            "config": config,
            "result": {"samples": [_set_json(x, y) for x, y in draws]},
            "seed": args.seed,
            "timing_s": elapsed,
        },
        args.out,
    )
    return 0


def _cmd_verify_kp(args: argparse.Namespace) -> int:
    G = _read_graph(args.graph)
    p = ExpansionParams(c1=args.c1)
    lam = _parse_lambda(args.lam, args.float_lambda) if args.lam else None
    alpha = _parse_alpha(args.alpha)
    if args.model == "hardcore":
        if lam is None:
            raise InvalidInputError("--model hardcore requires --lambda")
        m = WeightModel.hardcore(lam)
        kp = kp_hardcore(G.d, lam, alpha)
    else:
        m = WeightModel.unweighted()
        kp = kp_unweighted(G.d)
    start = time.perf_counter()
    fam = PolymerFamily(args.family, args.side, p)
    report = verify_kp(enumerate_polymers(G, fam, args.cap), m, kp)
    elapsed = time.perf_counter() - start
    failures = [c for c in report.checks if not c.passed]
    config = _resolved_config(
        args,
        G,
        {
            "family": args.family,
            "side": args.side,
            "model": args.model,
            "lambda": str(lam) if lam is not None else None,
            "alpha": str(alpha),
            "c1": args.c1,
            "cap": args.cap,
        },
    )
    _emit(
        {
            "schema": SCHEMA,
            "config": config,
            "result": {
                "all_pass": report.all_pass,
                "status": "verified-to-cap" if report.all_pass else "failed-at-cap",
                "polymers_checked": len(report.checks),
                "failures": len(failures),
                "worst": max(
                    ({"bits": c.bits, "lhs": c.lhs, "rhs": c.rhs} for c in report.checks),
                    key=lambda c: c["lhs"] - c["rhs"],
                    default=None,
                ),
                "truncated_universe": report.truncated_universe,
            },
            "seed": None,
            "timing_s": elapsed,
        },
        args.out,
    )
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    G = _read_graph(args.graph).to_general()
    start = time.perf_counter()
    exact = exact_count_general(G).value
    rows = []
    for t in range(args.t_max + 1):
        certs = list(enumerate_certificates(G, t))
        below = count_below(G, t)
        total = count_via_certificates(G, t)
        rows.append(
            {
                "t": t,
                "certificates": len(certs),
                "below": below,
                "total": total,
                "matches_oracle": total == exact,
            }
        )
    elapsed = time.perf_counter() - start
    _emit(
        {
            "schema": SCHEMA,
            "config": {"subcommand": "certify", "graph": args.graph, "t_max": args.t_max},
            "result": {"exact": exact, "census": rows},
            "seed": None,
            "timing_s": elapsed,
        },
        args.out,
    )
    return 0


def _cmd_check_expander(args: argparse.Namespace) -> int:
    G = _read_graph(args.graph)
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


def _add_common(sp: argparse.ArgumentParser, with_seed: bool = True) -> None:
    sp.add_argument("--graph", required=True, help="graph file in the p bis format")
    sp.add_argument("--epsilon", type=float, default=0.1)
    sp.add_argument("--delta", type=float, default=0.05)
    sp.add_argument("--lambda", dest="lam", default=None, help="fugacity as p/q")
    sp.add_argument("--float-lambda", action="store_true")
    sp.add_argument("--alpha", default="1/2")
    sp.add_argument("--c1", type=float, default=100.0)
    if with_seed:
        sp.add_argument("--seed", type=int, default=0)
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

    count = sub.add_parser("count", help="count independent sets")
    count.add_argument("--mode", default="oracle",
                       choices=["oracle", "expander", "hardcore", "general", "general-exact"])
    count.add_argument("--force-method", default=None, choices=["brute", "expander-CE"])
    _add_common(count)
    count.set_defaults(func=_cmd_count)

    sample = sub.add_parser("sample", help="draw independent sets")
    sample.add_argument("--mode", default="oracle", choices=["oracle", "expander", "hardcore"])
    sample.add_argument("--samples", type=int, default=1)
    sample.add_argument("--sampler", default="table", choices=["table", "sequential"])
    _add_common(sample)
    sample.set_defaults(func=_cmd_sample)

    vkp = sub.add_parser("verify-kp", help="check the convergence condition")
    vkp.add_argument("--family", default="expanding", choices=["expanding", "small"])
    vkp.add_argument("--side", default="X", choices=["X", "Y"])
    vkp.add_argument("--model", default="unweighted", choices=["unweighted", "hardcore"])
    vkp.add_argument("--cap", type=int, default=6)
    _add_common(vkp, with_seed=False)
    vkp.set_defaults(func=_cmd_verify_kp)

    certify = sub.add_parser("certify", help="certificate census against the oracle")
    certify.add_argument("--graph", required=True)
    certify.add_argument("--t-max", type=int, default=2)
    certify.add_argument("--out", default=None)
    certify.set_defaults(func=_cmd_certify)

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

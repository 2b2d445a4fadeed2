"""Command-line entry point: one binary, one subcommand per analysis.

Every run emits a single report envelope {"version", "cmd", "config",
"timestamp", "payload"} as JSON (or an aligned text rendering). Sweeps emit
one envelope per line (JSONL). Payloads are deterministic for fixed inputs
and seed; only the timestamp varies.

Exit codes: 0 success, 1 computation error, 2 usage/parse error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from typing import List, Optional, Sequence

from . import __version__
from .backend import BACKEND_NAME
from .curves import CurveSpec, critical_locus, verify_identity
from .dynsys import (
    DEFAULT_STATE_BUDGET,
    DynamicalSystem,
    collatz_orbit,
    euler_discretize,
    orbit_decomposition,
    parity_bijection_check,
)
from .errors import ParseError, RefuseChar2, WildcyclesError
from .fields import QQ, PrimeField
from .groebner import (
    INFINITE,
    buchberger,
    milnor_number,
    quotient_dimension,
    standard_monomials,
    tame_wild_split,
)
from .inertia import QuotientModule, inertia_membership
from .poly import MonomialOrder, MPoly, default_var_names, poly_parse, reduce_mod_p
from .weyl import weyl_parse

import os

ENV_BUDGET = "WILDCYCLES_STATE_BUDGET"


def _envelope(cmd: str, config: dict, payload) -> dict:
    return {
        "version": __version__,
        "cmd": cmd,
        "config": config,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "payload": payload,
    }


def _emit(env: dict, fmt: str):
    if fmt == "json":
        print(json.dumps(env, sort_keys=True, separators=(",", ":")))
    else:
        print(f"# {env['cmd']} (version {env['version']})")
        _emit_text(env["payload"], indent="")


def _emit_text(value, indent: str):
    if isinstance(value, dict):
        width = max((len(str(k)) for k in value), default=0)
        for k, v in value.items():
            if isinstance(v, (dict, list)) and v and not _is_flat(v):
                print(f"{indent}{k}:")
                _emit_text(v, indent + "  ")
            else:
                print(f"{indent}{str(k):<{width}}  {_flat(v)}")
    elif isinstance(value, list):
        for v in value:
            if isinstance(v, (dict, list)) and v and not _is_flat(v):
                print(f"{indent}-")
                _emit_text(v, indent + "  ")
            else:
                print(f"{indent}- {_flat(v)}")
    else:
        print(f"{indent}{_flat(value)}")


def _is_flat(v) -> bool:
    if isinstance(v, list):
        return all(not isinstance(x, (dict, list)) for x in v)
    return False


def _flat(v) -> str:
    if isinstance(v, list):
        return "[" + ", ".join(str(x) for x in v) + "]"
    return str(v)


def _vars_arg(text: str) -> List[str]:
    names = [v.strip() for v in text.split(",") if v.strip()]
    if len(set(names)) < len(names):
        raise ValueError(f"--vars repeats a name: {text!r}")
    return names


def _dim_json(d):
    return "infinite" if d == INFINITE else int(d)


def _infer_vars(texts: Sequence[str], explicit: Optional[str]) -> List[str]:
    if explicit:
        return _vars_arg(explicit)
    joined = " ".join(texts)
    names = []
    for candidate in ("x", "y", "z"):
        if candidate in joined:
            names.append(candidate)
    return names or ["x"]


def _read_config_file(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParseError(f"config line without '=': {line!r}", 0)
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="wildcycles",
        description="Computational probes: Weyl operators in char p, Milnor "
        "numbers with tame/wild splits, inertia tests, curve slice counts, "
        "finite dynamics and Collatz orbits.",
    )
    top.add_argument("--config", help="key=value file pre-populating flags")
    sub = top.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--seed", type=int, default=0, help="RNG seed (echoed in reports)")
        p.add_argument(
            "--budget",
            type=int,
            default=int(os.environ.get(ENV_BUDGET, DEFAULT_STATE_BUDGET)),
            help="state budget for exhaustive enumeration",
        )

    p = sub.add_parser("milnor", help="tame/wild vanishing-cycle split of f at p")
    p.add_argument("--f", required=True)
    p.add_argument("--p", required=True, type=int)
    p.add_argument("--vars")
    common(p)

    p = sub.add_parser("groebner", help="reduced Groebner basis and quotient data")
    p.add_argument("--gens", required=True, help="semicolon-separated polynomials")
    p.add_argument("--order", choices=("grevlex", "lex"), default="grevlex")
    p.add_argument("--p", type=int, help="prime modulus (default: rationals)")
    p.add_argument("--vars")
    common(p)

    p = sub.add_parser("inertia", help="differential-inertia membership report")
    p.add_argument("--p", required=True, type=int)
    p.add_argument("--module", required=True, help="truncation monomial, e.g. x^4")
    p.add_argument("--op", required=True, help="operator text, e.g. d1")
    p.add_argument("--level", required=True, type=int)
    p.add_argument("--element", help="optional witness element for value checks")
    common(p)

    p = sub.add_parser("weyl-apply", help="apply an operator to a polynomial")
    p.add_argument("--op", required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--p", type=int, help="prime modulus (default: rationals)")
    p.add_argument("--vars")
    common(p)

    p = sub.add_parser("orbits", help="orbit decomposition of an Euler-discretized system")
    p.add_argument("--p", required=True, type=int)
    p.add_argument("--system", required=True, help="semicolon-separated components")
    p.add_argument("--h", type=int, default=1, help="Euler step")
    p.add_argument("--mode", choices=("vector-field", "self-map"), default="vector-field")
    p.add_argument("--vars")
    common(p)

    p = sub.add_parser("collatz", help="Collatz orbit with cycle detection")
    p.add_argument("--start", required=True, type=int)
    p.add_argument("--variant", choices=("paper", "accelerated"), default="paper")
    p.add_argument("--step-budget", type=int, default=10**4)
    common(p)

    p = sub.add_parser("collatz-bijection", help="parity-vector bijection mod 2^k")
    p.add_argument("--k", required=True, type=int)
    common(p)

    p = sub.add_parser("curve-count", help="slice counts and the point-count identity")
    p.add_argument("--p", required=True, type=int)
    p.add_argument("--a", required=True, type=int)
    p.add_argument("--b", required=True, type=int)
    common(p)

    p = sub.add_parser("curve-sweep", help="identity sweep over primes and random (a,b)")
    p.add_argument("--pmax", type=int, default=101)
    p.add_argument("--samples", type=int, default=20)
    common(p)

    p = sub.add_parser(
        "theorem1-probe",
        help="EXPLORATORY side-by-side of Milnor data and periodic points",
    )
    p.add_argument("--f", required=True)
    p.add_argument("--p", required=True, type=int)
    p.add_argument("--h", type=int, default=1)
    p.add_argument("--vars")
    common(p)

    return top


def _config_dict(args: argparse.Namespace) -> dict:
    skip = {"cmd", "config"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


# -- subcommand bodies ----------------------------------------------------


def _cmd_milnor(args) -> dict:
    names = _infer_vars([args.f], args.vars)
    f = poly_parse(args.f, names, QQ)
    return tame_wild_split(f, args.p).to_json()


def _cmd_groebner(args) -> dict:
    domain = PrimeField(args.p) if args.p else QQ
    texts = [t for t in args.gens.split(";") if t.strip()]
    names = _infer_vars(texts, args.vars)
    gens = [poly_parse(t, names, domain) for t in texts]
    order = MonomialOrder(args.order)
    G = buchberger(gens, order)
    sm = standard_monomials(G)
    payload = {
        "basis": [g.to_str(names) for g in G],
        "order": args.order,
        "quotient_dimension": _dim_json(quotient_dimension(G)),
    }
    if sm is not None:
        payload["standard_monomials"] = [
            MPoly.monomial(len(names), domain, e).to_str(names) for e in sm
        ]
    return payload


def _parse_module_spec(text: str, p: int) -> QuotientModule:
    """F_p[x]/(x^m) from the monomial `x^m` with m >= 1, or `x`."""
    f = poly_parse(text, ["x"], QQ)
    m = f.total_degree()
    if m < 1 or f != MPoly.monomial(1, QQ, (m,)):
        raise ParseError(f"--module must be a monomial x^m with m >= 1, not {text!r}", 0)
    return QuotientModule(p, m, nvars=1)


def _cmd_inertia(args) -> dict:
    M = _parse_module_spec(args.module, args.p)
    fp = M.field
    names = default_var_names(M.nvars)
    D = weyl_parse(args.op, names, fp).drop_zero_order()
    element = poly_parse(args.element, names, fp) if args.element else None
    report = inertia_membership(D, args.level, M, element=element)
    payload = report.to_json()
    payload["p"] = args.p
    payload["module_dimension"] = M.dimension
    return payload


def _cmd_weyl_apply(args) -> dict:
    domain = PrimeField(args.p) if args.p else QQ
    names = _infer_vars([args.op, args.f], args.vars)
    P = weyl_parse(args.op, names, domain)
    f = poly_parse(args.f, names, domain)
    result = P.apply(f)
    return {
        "operator": P.to_str(names),
        "f": f.to_str(names),
        "result": result.to_str(names),
        "result_json": result.to_json(names),
    }


def _parse_system(args) -> DynamicalSystem:
    fp = PrimeField(args.p)
    texts = [t for t in args.system.split(";") if t.strip()]
    names = _infer_vars(texts, args.vars)
    if len(names) != len(texts):
        source = "--vars names" if args.vars else "--system uses"
        raise ValueError(f"{source} {len(names)} variables for {len(texts)} components")
    comps = tuple(poly_parse(t, names, fp) for t in texts)
    return DynamicalSystem(p=args.p, n=len(texts), components=comps, mode=args.mode)


def _cmd_orbits(args) -> dict:
    sys_ = _parse_system(args)
    if sys_.mode == "vector-field":
        F = euler_discretize(sys_, args.h)
    else:
        from .dynsys import as_self_map

        F = as_self_map(sys_)
    dec = orbit_decomposition(F, budget=args.budget)
    payload = dec.to_json()
    payload["h"] = args.h
    payload["mode"] = sys_.mode
    return payload


def _cmd_collatz(args) -> dict:
    return collatz_orbit(args.start, args.variant, args.step_budget).to_json()


def _cmd_collatz_bijection(args) -> dict:
    return {"k": args.k, "bijection": parity_bijection_check(args.k)}


def _cmd_curve_count(args) -> dict:
    return verify_identity(CurveSpec(args.p, args.a, args.b)).to_json()


def _sweep_cases(pmax: int, samples: int, seed: int):
    from .fields import is_prime

    rng = random.Random(seed)
    for p in range(2, pmax + 1):
        if not is_prime(p):
            continue
        for _ in range(samples):
            a = rng.randrange(1, p) if p > 2 else 1
            b = rng.randrange(0, p)
            yield CurveSpec(p, a, b)


def _cmd_curve_sweep(args, fmt: str) -> int:
    total = holds = nonsingular = hasse_ok = 0
    lines = []
    for spec in _sweep_cases(args.pmax, args.samples, args.seed):
        rep = verify_identity(spec)
        total += 1
        holds += rep.identity_holds
        if not rep.singular:
            nonsingular += 1
            hasse_ok += bool(rep.hasse_ok)
        if fmt == "json":
            env = _envelope("curve-sweep", {"pmax": args.pmax, "samples": args.samples, "seed": args.seed}, rep.to_json())
            print(json.dumps(env, sort_keys=True, separators=(",", ":")))
        else:
            lines.append(
                f"{spec.p:>5} {spec.a:>5} {spec.b:>5} {rep.naive_count:>6} "
                f"{rep.slice_sum_plus_one:>6} {'ok' if rep.identity_holds else 'FAIL':>5} "
                f"{'sing' if rep.singular else ('hasse-ok' if rep.hasse_ok else 'HASSE-FAIL'):>10}"
            )
    if fmt == "text":
        print(f"{'p':>5} {'a':>5} {'b':>5} {'naive':>6} {'slice':>6} {'ident':>5} {'status':>10}")
        for line in lines:
            print(line)
        print(
            f"# {total} cases, identity holds on {holds}, "
            f"{nonsingular} nonsingular (Hasse ok on {hasse_ok})"
        )
    return 0 if holds == total else 1


def _cmd_theorem1_probe(args) -> dict:
    if args.p == 2:
        raise RefuseChar2("the probe assumes characteristic distinct from 2")
    names = _infer_vars([args.f], args.vars)
    f = poly_parse(args.f, names, QQ)
    rf = f * f  # r(t) = t^2 composed with f
    dim_q = milnor_number(rf)
    dim_p = milnor_number(reduce_mod_p(rf, args.p))
    fp = PrimeField(args.p)
    f_p = reduce_mod_p(f, args.p)
    gradient = tuple(f_p.derivative(i) for i in range(f_p.nvars))
    sys_ = DynamicalSystem(p=args.p, n=f_p.nvars, components=gradient)
    F = euler_discretize(sys_, args.h)
    dec = orbit_decomposition(F, budget=args.budget)
    locus = critical_locus(f_p, args.p, budget=args.budget)
    return {
        "note": "EXPLORATORY: no equality is asserted between these quantities",
        "f": f.to_str(names),
        "r_of_f": rf.to_str(names),
        "p": args.p,
        "h": args.h,
        "milnor_r_of_f_char0": _dim_json(dim_q),
        "milnor_r_of_f_charp": _dim_json(dim_p),
        "gradient_system": [g.to_str(names) for g in gradient],
        "periodic_point_count": dec.periodic_count,
        "cycle_lengths": dec.cycle_lengths,
        "critical_locus_charp": [list(pt) for pt in locus],
    }


_HANDLERS = {
    "milnor": _cmd_milnor,
    "groebner": _cmd_groebner,
    "inertia": _cmd_inertia,
    "weyl-apply": _cmd_weyl_apply,
    "orbits": _cmd_orbits,
    "collatz": _cmd_collatz,
    "collatz-bijection": _cmd_collatz_bijection,
    "curve-count": _cmd_curve_count,
    "theorem1-probe": _cmd_theorem1_probe,
}


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    # a config file pre-populates flags; explicit flags win
    if "--config" in argv:
        at = argv.index("--config")
        try:
            path = argv[at + 1]
        except IndexError:
            parser.error("--config needs a path")
        try:
            defaults = _read_config_file(path)
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 2
        extra = []
        for key, value in defaults.items():
            flag = f"--{key}"
            if flag not in argv:
                extra.extend([flag, value])
        argv = argv[:at] + argv[at + 2 :] + extra
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.cmd == "curve-sweep":
            return _cmd_curve_sweep(args, args.format)
        payload = _HANDLERS[args.cmd](args)
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WildcyclesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    config = _config_dict(args)
    config["backend"] = BACKEND_NAME
    _emit(_envelope(args.cmd, config, payload), args.format)
    return 0


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()

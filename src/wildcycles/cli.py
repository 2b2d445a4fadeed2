"""Command-line entry point: one binary, one subcommand per analysis.

Every run emits a single report envelope {"version", "cmd", "config",
"timestamp", "payload"} as JSON (or an aligned text rendering). Sweeps emit
one envelope per line (JSONL). Payloads are deterministic for fixed inputs
and seed; only the timestamp varies.

Exit codes: 0 success, 1 computation error, 2 usage/parse error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
import time
from typing import List, Optional, Sequence

from . import __version__
from .backend import BACKEND_NAME
from .curves import CurveSpec, check_enumeration_budget, critical_locus, verify_identity
from .dynsys import (
    DEFAULT_STATE_BUDGET,
    DynamicalSystem,
    as_self_map,
    collatz_orbit,
    euler_discretize,
    orbit_decomposition,
    parity_bijection_check,
)
from .errors import ParseError, RefuseChar2, WildcyclesError, ZeroOrderTerm
from .fields import QQ, PrimeField, is_prime
from .groebner import (
    buchberger,
    dimension_json,
    milnor_number,
    quotient_dimension,
    standard_monomials,
    tame_wild_split,
)
from .inertia import QuotientModule, inertia_membership
from .poly import MonomialOrder, MPoly, default_var_names, infer_var_names, poly_parse, reduce_mod_p
from .weyl import weyl_parse

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


def _var_names(args, polys: Sequence[str], operators: Sequence[str] = ()) -> List[str]:
    """The names given by --vars, else those the texts use."""
    if not args.vars:
        return infer_var_names(polys, operators)
    names = [v.strip() for v in args.vars.split(",") if v.strip()]
    if len(set(names)) < len(names):
        raise ValueError(f"--vars repeats a name: {args.vars!r}")
    return names


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise ValueError, which run
    prints as one error line, instead of printing argparse's usage block
    and exiting. Subparsers are made of the same class."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument tree, built once per process; treat it as read-only."""
    top = _Parser(
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
    p.add_argument("--h", type=int, default=1, help="Euler step (vector-field mode)")
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
    names = _var_names(args, [args.f])
    f = poly_parse(args.f, names, QQ)
    return {"f": f.to_str(names), **tame_wild_split(f, args.p).to_json()}


def _cmd_groebner(args) -> dict:
    domain = PrimeField(args.p) if args.p else QQ
    texts = [t for t in args.gens.split(";") if t.strip()]
    names = _var_names(args, texts)
    gens = [poly_parse(t, names, domain) for t in texts]
    order = MonomialOrder(args.order)
    G = buchberger(gens, order)
    sm = standard_monomials(G)
    payload = {
        "basis": [g.to_str(names) for g in G],
        "order": args.order,
        "quotient_dimension": dimension_json(quotient_dimension(G)),
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
    D = weyl_parse(args.op, names, fp)
    element = poly_parse(args.element, names, fp) if args.element else None
    report = inertia_membership(D, args.level, M, element=element)
    payload = report.to_json()
    payload["p"] = args.p
    payload["module_dimension"] = M.dimension
    return payload


def _cmd_weyl_apply(args) -> dict:
    domain = PrimeField(args.p) if args.p else QQ
    names = _var_names(args, [args.f], [args.op])
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
    names = _var_names(args, texts)
    if len(names) != len(texts):
        source = "--vars names" if args.vars else "--system uses"
        raise ValueError(f"{source} {len(names)} variables for {len(texts)} components")
    comps = tuple(poly_parse(t, names, fp) for t in texts)
    return DynamicalSystem(p=args.p, n=len(texts), components=comps, mode=args.mode)


def _cmd_orbits(args) -> dict:
    sys_ = _parse_system(args)
    vector_field = sys_.mode == "vector-field"
    F = euler_discretize(sys_, args.h) if vector_field else as_self_map(sys_)
    payload = orbit_decomposition(F, budget=args.budget).to_json()
    if vector_field:
        payload["h"] = args.h
    payload["mode"] = sys_.mode
    return payload


def _cmd_collatz(args) -> dict:
    return collatz_orbit(args.start, args.variant, args.step_budget).to_json()


def _cmd_collatz_bijection(args) -> dict:
    return {"k": args.k, "bijection": parity_bijection_check(args.k)}


def _cmd_curve_count(args) -> dict:
    return verify_identity(CurveSpec(args.p, args.a, args.b), budget=args.budget).to_json()


def _sweep_cases(pmax: int, samples: int, seed: int):
    rng = random.Random(seed)
    for p in range(2, pmax + 1):
        if not is_prime(p):
            continue
        for _ in range(samples):
            a = rng.randrange(1, p) if p > 2 else 1
            b = rng.randrange(0, p)
            yield CurveSpec(p, a, b)


def _cmd_curve_sweep(args, fmt: str) -> int:
    # refused before the first case, so that no partial sweep is printed
    check_enumeration_budget(args.pmax, args.budget)
    total = holds = nonsingular = hasse_ok = 0
    lines = []
    for spec in _sweep_cases(args.pmax, args.samples, args.seed):
        rep = verify_identity(spec, budget=args.budget)
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
    names = _var_names(args, [args.f])
    f = poly_parse(args.f, names, QQ)
    f_p = reduce_mod_p(f, args.p)
    gradient = tuple(f_p.derivative(i) for i in range(f_p.nvars))
    sys_ = DynamicalSystem(p=args.p, n=f_p.nvars, components=gradient)
    F = euler_discretize(sys_, args.h)
    rf = f * f  # r(t) = t^2 composed with f
    dim_q = milnor_number(rf)
    dim_p = milnor_number(reduce_mod_p(rf, args.p))
    dec = orbit_decomposition(F, budget=args.budget)
    locus = critical_locus(f_p, args.p, budget=args.budget)
    return {
        "note": "EXPLORATORY: no equality is asserted between these quantities",
        "f": f.to_str(names),
        "r_of_f": rf.to_str(names),
        "p": args.p,
        "h": args.h,
        "milnor_r_of_f_char0": dimension_json(dim_q),
        "milnor_r_of_f_charp": dimension_json(dim_p),
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


def _with_config(argv: List[str]) -> List[str]:
    """argv with the key=value lines of its --config file appended as flags;
    explicit flags win."""
    if "--config" not in argv:
        return argv
    at = argv.index("--config")
    if at + 1 == len(argv):
        raise ValueError("--config needs a path")
    try:
        with open(argv[at + 1]) as fh:
            lines = [line.strip() for line in fh]
    except OSError as exc:
        raise ValueError(f"cannot read config: {exc}") from None
    defaults = {}
    for line in lines:
        if line and not line.startswith("#"):
            if "=" not in line:
                raise ValueError(f"config line without '=': {line!r}")
            key, value = line.split("=", 1)
            defaults[f"--{key.strip()}"] = value.strip()
    given = {token.split("=", 1)[0] for token in argv}
    extra = [part for flag, value in defaults.items() if flag not in given for part in (flag, value)]
    return argv[:at] + argv[at + 2 :] + extra


# flags whose value is polynomial or operator text, which may begin with "-"
TEXT_FLAGS = ("--f", "--gens", "--op", "--system", "--element")


def _join_text_values(argv: List[str]) -> List[str]:
    """argv with each text flag and the token after it joined as flag=value,
    so that argparse does not read a value such as -x^2 as an option."""
    out = []
    for token in argv:
        if out and out[-1] in TEXT_FLAGS:
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def run(argv: Optional[Sequence[str]] = None) -> int:
    try:
        argv = _join_text_values(_with_config(list(sys.argv[1:] if argv is None else argv)))
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # --help
            return int(exc.code or 0)
        if args.budget is None:
            budget = os.environ.get(ENV_BUDGET, str(DEFAULT_STATE_BUDGET))
            try:
                args.budget = int(budget)
            except ValueError:
                raise ValueError(f"{ENV_BUDGET} is not an integer: {budget!r}") from None
        if args.cmd == "curve-sweep":
            return _cmd_curve_sweep(args, args.format)
        payload = _HANDLERS[args.cmd](args)
    except (ParseError, ZeroOrderTerm, ValueError) as exc:
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

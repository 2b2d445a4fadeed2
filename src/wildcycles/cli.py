"""Command-line entry point: one binary, one subcommand per analysis.

Every run emits a single report envelope {"version", "cmd", "config",
"timestamp", "payload"} as JSON (or an aligned text rendering). Sweeps emit
one envelope per line (JSONL). Payloads are deterministic for fixed inputs
and seed; only the timestamp varies.

Every flag takes exactly one value: `--flag value` or `--flag=value`, the
value read as given whatever it begins with, so `--f -x^2` is the text
-x^2. The last of a repeated flag wins. `--config FILE`, anywhere in argv,
names key=value lines that fill the flags argv leaves unset. `-h`/`--help`
prints the usage line of `COMMANDS`, the table of every flag.

Exit codes: 0 success, 1 computation error, 2 usage/parse error.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import sys
import time
from types import SimpleNamespace
from typing import List, Optional, Sequence

from . import __version__
from .backend import BACKEND_NAME
from .curves import CurveSpec, check_enumeration_budget, critical_locus, verify_identity
from .dynsys import (
    DynamicalSystem,
    SelfMap,
    collatz_orbit,
    euler_discretize,
    orbit_decomposition,
    parity_bijection_check,
)
from .errors import DEFAULT_STATE_BUDGET, ParseError, RefuseChar2, StateBudgetExceeded, WildcyclesError, ZeroOrderTerm
from .fields import QQ, PrimeField, is_prime
from .groebner import (
    INFINITE,
    buchberger,
    dimension_json,
    milnor_number,
    standard_monomials,
    tame_wild_split,
)
from .inertia import QuotientModule, inertia_membership
from .poly import MonomialOrder, MPoly, default_var_names, infer_var_names, poly_parse, power_factors, reduce_mod_p
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
    if not names:
        raise ValueError(f"--vars names no variable: {args.vars!r}")
    if len(set(names)) < len(names):
        raise ValueError(f"--vars repeats a name: {args.vars!r}")
    return names


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
    sm = standard_monomials(G, args.budget)
    payload = {
        "basis": [g.to_str(names) for g in G],
        "order": args.order,
        "quotient_dimension": dimension_json(INFINITE if sm is None else len(sm)),
    }
    if sm is not None:
        payload["standard_monomials"] = ["*".join(power_factors(names, e)) or "1" for e in sm]
    return payload


_PLAIN_MODULE = re.compile(r"\s*x\s*(?:\^\s*(\d+)\s*)?")


def _module_order(text: str) -> int:
    """m of F_p[x]/(x^m) from the monomial `x^m` with m >= 1, or `x`. Text
    spelled just so, with spaces and digits as the parser's tokens take
    them, is read by one match; any other goes through the parser over QQ,
    which also takes `x^2*x` and gives the errors."""
    plain = _PLAIN_MODULE.fullmatch(text)
    if plain and int(plain[1] or 1) >= 1:
        return int(plain[1] or 1)
    f = poly_parse(text, ["x"], QQ)
    m = f.total_degree()
    if m < 1 or f != MPoly.monomial(1, QQ, (m,)):
        raise ParseError(f"--module must be a monomial x^m with m >= 1, not {text!r}", 0)
    return m


def _cmd_inertia(args) -> dict:
    m = _module_order(args.module)
    # the module has dimension m, and the report one row per level: both
    # are refused before the basis is built
    if m > args.budget:
        raise StateBudgetExceeded(f"module dimension {m} exceeds budget {args.budget}")
    if args.level > args.budget:
        raise StateBudgetExceeded(f"level {args.level} exceeds budget {args.budget}")
    M = QuotientModule(args.p, m)
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
    F = euler_discretize(sys_, args.h) if vector_field else SelfMap(sys_.p, sys_.n, sys_.components)
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
    if not samples:
        return
    rng = random.Random(seed)
    for p in range(2, pmax + 1):
        if not is_prime(p):
            continue
        for _ in range(samples):
            a = rng.randrange(1, p) if p > 2 else 1
            b = rng.randrange(0, p)
            yield CurveSpec(p, a, b)


def _cmd_curve_sweep(args) -> int:
    # either would sweep no curve and still exit 0
    if args.samples < 0:
        raise ValueError(f"curve-sweep: --samples must be at least 0, not {args.samples}")
    if args.pmax < 2:
        raise ValueError(f"curve-sweep: --pmax must be at least 2, not {args.pmax}")
    # refused before the first case, so that no partial sweep is printed: the
    # least prime of the sweep past what the budget and the kernels allow,
    # if there is one, is the first curve that verify_identity would refuse
    allowed = min(math.isqrt(args.budget), sys.maxunicode)
    refused = next(filter(is_prime, range(allowed + 1, args.pmax + 1)), None)
    if refused is not None:
        check_enumeration_budget(refused, args.budget)
    total = holds = nonsingular = hasse_ok = 0
    lines = []
    for spec in _sweep_cases(args.pmax, args.samples, args.seed):
        rep = verify_identity(spec, budget=args.budget)
        total += 1
        holds += rep.identity_holds
        if not rep.singular:
            nonsingular += 1
            hasse_ok += bool(rep.hasse_ok)
        if args.format == "json":
            _emit(_envelope("curve-sweep", vars(args), rep.to_json()), "json")
        else:
            lines.append(
                f"{spec.p:>5} {spec.a:>5} {spec.b:>5} {rep.naive_count:>6} "
                f"{rep.slice_sum_plus_one:>6} {'ok' if rep.identity_holds else 'FAIL':>5} "
                f"{'sing' if rep.singular else ('hasse-ok' if rep.hasse_ok else 'HASSE-FAIL'):>10}"
            )
    if args.format == "text":
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


COMMON = {"format": (("json", "text"), "json"), "seed": (int, 0), "budget": (int, None)}

# subcommand: (help line, {flag: (kind, default)}, handler). A kind is int,
# str or a tuple of choices; a default of ... marks a required flag. The
# handler returns the payload; curve-sweep's prints and returns its exit code.
COMMANDS = {
    "milnor": (
        "tame/wild vanishing-cycle split of f at p",
        {"f": (str, ...), "p": (int, ...), "vars": (str, None)},
        _cmd_milnor,
    ),
    "groebner": (
        "reduced Groebner basis and quotient data",
        {"gens": (str, ...), "order": (("grevlex", "lex"), "grevlex"), "p": (int, None), "vars": (str, None)},
        _cmd_groebner,
    ),
    "inertia": (
        "differential-inertia membership report",
        {"p": (int, ...), "module": (str, ...), "op": (str, ...), "level": (int, ...), "element": (str, None)},
        _cmd_inertia,
    ),
    "weyl-apply": (
        "apply an operator to a polynomial",
        {"op": (str, ...), "f": (str, ...), "p": (int, None), "vars": (str, None)},
        _cmd_weyl_apply,
    ),
    "orbits": (
        "orbit decomposition of an Euler-discretized system",
        {
            "p": (int, ...),
            "system": (str, ...),
            "h": (int, 1),
            "mode": (("vector-field", "self-map"), "vector-field"),
            "vars": (str, None),
        },
        _cmd_orbits,
    ),
    "collatz": (
        "Collatz orbit with cycle detection",
        {"start": (int, ...), "variant": (("paper", "accelerated"), "paper"), "step-budget": (int, 10**4)},
        _cmd_collatz,
    ),
    "collatz-bijection": ("parity-vector bijection mod 2^k", {"k": (int, ...)}, _cmd_collatz_bijection),
    "curve-count": (
        "slice counts and the point-count identity",
        {"p": (int, ...), "a": (int, ...), "b": (int, ...)},
        _cmd_curve_count,
    ),
    "curve-sweep": (
        "identity sweep over primes and random (a,b)",
        {"pmax": (int, 101), "samples": (int, 20)},
        _cmd_curve_sweep,
    ),
    "theorem1-probe": (
        "EXPLORATORY side-by-side of Milnor data and periodic points",
        {"f": (str, ...), "p": (int, ...), "h": (int, 1), "vars": (str, None)},
        _cmd_theorem1_probe,
    ),
}


def build_parser(cmd: str) -> dict:
    """The flags of `cmd`, its own then the common ones: {flag: (kind, default)}."""
    return {**COMMANDS[cmd][1], **COMMON}


def _usage(cmd: Optional[str]) -> str:
    if cmd is None:
        width = max(map(len, COMMANDS))
        lines = [f"  {name:<{width}}  {entry[0]}" for name, entry in COMMANDS.items()]
        return "usage: wildcycles <cmd> [--config FILE] [--flag value ...]\n\n" + "\n".join(lines)
    words = ["[--config FILE]"]
    for flag, (kind, default) in build_parser(cmd).items():
        word = f"--{flag} " + ("|".join(kind) if isinstance(kind, tuple) else kind.__name__.upper())
        words.append(word if default is ... else f"[{word}]")
    return f"usage: wildcycles {cmd} {' '.join(words)}\n\n{COMMANDS[cmd][0]}"


def _read_config(path: str) -> dict:
    """The key=value lines of a --config file; blank and # lines are skipped."""
    try:
        with open(path) as fh:
            lines = [line.strip() for line in fh]
    except OSError as exc:
        raise ValueError(f"cannot read config: {exc}") from None
    values = {}
    for line in lines:
        if line and not line.startswith("#"):
            if "=" not in line:
                raise ValueError(f"config line without '=': {line!r}")
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


def _parse(argv: Sequence[str]):
    """(cmd, config) for argv, or (cmd, None) when it asks for help. config
    holds every flag of cmd under its name with - as _, each converted to its
    kind or left at its default; the budget falls back to ENV_BUDGET, and a
    negative one is a usage error."""
    cmd, given, path = None, {}, None
    tokens = iter(argv)
    for token in tokens:
        if token in ("-h", "--help"):
            return cmd, None
        name, eq, value = token.partition("=")
        if name == "--config" or (cmd and name.startswith("--")):
            if not eq:
                value = next(tokens, None)
                if value is None:
                    raise ValueError(f"{name} needs a value")
            if name == "--config":
                path = value
            else:
                given[name[2:]] = value
        elif cmd is None and token in COMMANDS:
            cmd = token
        else:
            raise ValueError(f"{cmd}: unexpected argument {token!r}" if cmd else f"unknown command {token!r}")
    if cmd is None:
        raise ValueError(f"no command; choose from {', '.join(COMMANDS)}")
    if path is not None:
        for key, value in _read_config(path).items():
            given.setdefault(key, value)
    flags = build_parser(cmd)
    for key in given:
        if key not in flags:
            raise ValueError(f"{cmd}: unknown flag --{key}")
    config = {}
    for flag, (kind, default) in flags.items():
        value = given.get(flag, default)
        if value is ...:
            raise ValueError(f"{cmd}: --{flag} is required")
        if flag in given and kind is int:
            try:
                value = int(value)
            except ValueError:
                raise ValueError(f"{cmd}: --{flag} takes an integer, not {value!r}") from None
        elif flag in given and kind is not str and value not in kind:
            raise ValueError(f"{cmd}: --{flag} takes one of {', '.join(kind)}, not {value!r}")
        config[flag.replace("-", "_")] = value
    source = f"{cmd}: --budget"
    if config["budget"] is None:
        source, budget = ENV_BUDGET, os.environ.get(ENV_BUDGET, str(DEFAULT_STATE_BUDGET))
        try:
            config["budget"] = int(budget)
        except ValueError:
            raise ValueError(f"{ENV_BUDGET} is not an integer: {budget!r}") from None
    if config["budget"] < 0:
        raise ValueError(f"{source} must be at least 0, not {config['budget']}")
    return cmd, config


def run(argv: Optional[Sequence[str]] = None) -> int:
    try:
        cmd, config = _parse(sys.argv[1:] if argv is None else argv)
        if config is None:
            print(_usage(cmd))
            return 0
        args = SimpleNamespace(**config, backend=BACKEND_NAME)
        payload = COMMANDS[cmd][2](args)
        if cmd == "curve-sweep":
            return payload
    except (ParseError, ZeroOrderTerm, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WildcyclesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(_envelope(cmd, vars(args), payload), args.format)
    return 0


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()

"""Payload identity as a tier-1 check.

`payload_digests.json` maps each README CLI line and each line of FLAG_LINES
to the exit code and the SHA-256 of its payloads: every stdout line of a JSON run parsed, its `payload`
re-serialized compact with sorted keys, the list of them hashed. A text run
hashes stdout as printed. A change that moves a payload must edit the table
on purpose; regenerate it with

    PYTHONPATH=src python tests/test_payload_digests.py --write
"""

import contextlib
import hashlib
import io
import json
import re
import shlex
import sys
from pathlib import Path

import pytest

from wildcycles.cli import run

HERE = Path(__file__).resolve().parent
TABLE = HERE / "payload_digests.json"
README = HERE.parent / "README.md"

# one argv per subcommand that sets its non-default flags
FLAG_LINES = [
    'wildcycles milnor --f "u^2 + v^3" --p 3 --vars u,v --seed 5 --budget 1000',
    'wildcycles milnor --f "x^3 - y^2" --p 3 --format text',
    'wildcycles groebner --gens "x^2 + y; y^2 + x" --order lex --p 7 --vars y,x',
    'wildcycles groebner --gens "x*y - 1; x^2 - 2/3*y" --order lex',
    'wildcycles inertia --p 3 --module x^4 --op "d1^3" --level 3 --element "1 + x^2"',
    # benchmark-sized modules, the kernel dimension counted at every level
    'wildcycles inertia --p 3 --module x^120 --op "x*d1 + 2*x^2*d1^2" --level 2',
    'wildcycles inertia --p 13 --module x^160 --op "5*x^2*d1 + x^3*d1^2 + 7*x^4*d1^3" --level 3',
    # a level past m, where every S_k past the first empty one reads dim M;
    # a column set that p = 2 empties at k = 2; and element checks on a
    # larger module
    'wildcycles inertia --p 3 --module x^7 --op "x*d1^2 + x^2*d1^3" --level 9',
    'wildcycles inertia --p 2 --module x^64 --op "x*d1" --level 4',
    'wildcycles inertia --p 7 --module x^30 --op "x^2*d1 + 3*x*d1^2" --level 4 --element "1 + 2*x^3 + x^9"',
    'wildcycles weyl-apply --op "dy*x + dx" --f "x*y^2" --p 5 --vars x,y',
    'wildcycles weyl-apply --op "x*d1 + 1/2" --f "x^3"',
    'wildcycles weyl-apply --op "x^2*d1^5 + 3*d1^3" --f "x^7 + x^5 + x^3" --p 5',
    'wildcycles weyl-apply --op "x*dx*dy^2 + y^3*dx^2" --f "x^4*y^3 + x*y^2" --p 3 --vars x,y',
    'wildcycles orbits --p 5 --system "y; -x" --h 2 --mode vector-field --vars x,y --budget 100',
    'wildcycles collatz --start 27 --variant accelerated --step-budget 50',
    'wildcycles collatz-bijection --k 6 --format text',
    # the first k whose packed parity lanes are 32 bits wide, and one past it
    'wildcycles collatz-bijection --k 14',
    'wildcycles collatz-bijection --k 16',
    'wildcycles curve-count --p 7 --a 3 --b 0',
    # double roots at x = +-1 on slices 3 and 4; every x critical (mult 3)
    # at p = 3; p = 2; and p - 1 = 2^9 * 15, the longest square-root loop
    'wildcycles curve-count --p 7 --a 1 --b 4',
    'wildcycles curve-count --p 3 --a 1 --b 0',
    'wildcycles curve-count --p 2 --a 1 --b 1',
    'wildcycles curve-count --p 7681 --a 1 --b 7678 --budget 100000000',
    'wildcycles curve-sweep --pmax 23 --samples 3 --seed 5',
    'wildcycles curve-sweep --pmax 13 --samples 2 --seed 1 --format text',
    'wildcycles theorem1-probe --f "x^2 + y^3" --p 3 --h 2 --vars x,y',
    # polynomial and operator text that begins with "-"
    'wildcycles groebner --gens "-x*y" --p 5',
    'wildcycles milnor --f "-x^2" --p 5',
    'wildcycles weyl-apply --op "-d1" --f x --p 5',
    'wildcycles inertia --p 5 --module x^4 --op d1 --element "-x^2" --level 1',
    'wildcycles orbits --p 5 --system "-x"',
    # a fixed point at state 0 beside a 185-cycle, and a longest tail of 338
    'wildcycles orbits --p 31 --system "7*x*y + 15*z; 18*y^2 + 4*x; 26*z^2 + 20*x*y" --mode self-map --vars x,y,z',
    'wildcycles orbits --p 139 --system "122*y^2 + 24*x*y; 73*x^2 + 95*x" --mode vector-field --h 68 --vars x,y',
    # Groebner engine: A_22 (mu = 22), a three-variable germ, cyclic-4 under
    # lex over F_32003 and katsura-3 under grevlex over QQ
    'wildcycles milnor --f "x^23 + y^2" --p 5',
    'wildcycles milnor --f "z^3 + y^3 + y*z + x^2" --p 7',
    'wildcycles groebner --gens "a + b + c + d; a*b + b*c + c*d + d*a; a*b*c + b*c*d + c*d*a + d*a*b; a*b*c*d - 1" --order lex --p 32003',
    'wildcycles groebner --gens "u0 + 2*u1 + 2*u2 + 2*u3 - 1; u0^2 + 2*u1^2 + 2*u2^2 + 2*u3^2 - u0; 2*u0*u1 + 2*u1*u2 + 2*u2*u3 - u1; 2*u0*u2 + u1^2 + 2*u1*u3 - u2"',
]


def readme_lines():
    (block,) = [b for b in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S) if b.startswith("wildcycles ")]
    return block.splitlines()


def digest(line: str) -> dict:
    argv = shlex.split(line)[1:]
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        code = run(argv)
    out = buf.getvalue()
    if "text" in argv:
        data = out
    else:
        payloads = [json.loads(l)["payload"] for l in out.splitlines()]
        data = json.dumps(payloads, sort_keys=True, separators=(",", ":"))
    return {"exit": code, "sha256": hashlib.sha256(data.encode()).hexdigest()}


def all_lines():
    return list(dict.fromkeys(readme_lines() + FLAG_LINES))


def test_every_readme_and_flag_line_is_in_the_table():
    table = json.loads(TABLE.read_text())
    assert set(all_lines()) <= set(table)


@pytest.mark.parametrize("line", sorted(json.loads(TABLE.read_text())))
def test_payload_digest_unchanged(line):
    assert digest(line) == json.loads(TABLE.read_text())[line]


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    table = {line: digest(line) for line in all_lines()}
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {TABLE}")

import json
import random
import re
import time

import pytest

from helpers import random_poly, substring_var_names
from wildcycles.backend import BACKEND_NAME
from wildcycles.cli import COMMANDS, ENV_BUDGET, _module_order, run
from wildcycles.dynsys import DEFAULT_STATE_BUDGET
from wildcycles.errors import ParseError
from wildcycles.fields import QQ
from wildcycles.poly import infer_var_names, poly_parse
from wildcycles.weyl import weyl_parse


def run_lines(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out.strip()
    return code, out


def run_json(capsys, *argv):
    code, out = run_lines(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


def assert_one_line_error(capsys, code, expected):
    captured = capsys.readouterr()
    assert code == expected
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def assert_one_line_usage_error(capsys, code):
    assert_one_line_error(capsys, code, 2)


def strip_timestamp(env):
    env = dict(env)
    env.pop("timestamp", None)
    return env


def test_milnor_known_numbers(capsys):
    env = run_json(capsys, "milnor", "--f", "y^3+x^2+x^3", "--p", "2")
    payload = env["payload"]
    assert payload["char_p_dimension"] == 4
    assert payload["tame"] == 2
    assert payload["wild"] == 2


def test_curve_count(capsys):
    env = run_json(capsys, "curve-count", "--p", "5", "--a", "1", "--b", "1")
    payload = env["payload"]
    assert payload["identity_holds"] is True
    assert payload["naive_count"] == 4


def test_malformed_poly_exit_2(capsys):
    for argv in (
        ["milnor", "--f", "y^3+", "--p", "2"],
        ["milnor", "--f", "1/0*x^2 + y^2", "--p", "5"],
        ["weyl-apply", "--op", "x^-1*d1", "--f", "x^3"],
        ["weyl-apply", "--op", "d1", "--f", "1/0"],
        ["inertia", "--p", "5", "--module", "x^4", "--op", "d1^-1", "--level", "1"],
    ):
        code = run(argv)
        err = capsys.readouterr().err
        assert code == 2, argv
        assert "position" in err


@pytest.mark.parametrize("argv", [
    ["curve-count", "--p", "5", "--a", "0", "--b", "1"],
    ["collatz", "--start", "-3"],
    ["collatz-bijection", "--k", "30"],
    ["groebner", "--gens", "0"],
    ["inertia", "--p", "5", "--module", "x^0", "--op", "d1", "--level", "1"],
    ["inertia", "--p", "5", "--module", "x^y", "--op", "d1", "--level", "1"],
    ["inertia", "--p", "5", "--module", "q^4", "--op", "d1", "--level", "1"],
    ["weyl-apply", "--op", "d1", "--f", "x", "--vars", "x,x"],
    ["inertia", "--p", "5", "--module", "x^4", "--op", "d1", "--level", "-1"],
    ["orbits", "--p", "7", "--system", "x^2;y", "--vars", "x"],
    ["orbits", "--p", "7", "--system", "x^2", "--vars", "x,y"],
    ["orbits", "--p", "7", "--system", "x*y"],
    ["weyl-apply", "--op", "d1", "--f", "dx + x"],
    ["weyl-apply", "--op", "x", "--f", "d1"],
    ["theorem1-probe", "--f", "x^2+y^3", "--p", "5", "--h", "5"],
    ["orbits", "--p", "5", "--system", "x", "--h", "5"],
    ["weyl-apply", "--op", "x*d1^2 + d1*x", "--f", "x^3", "--p", "7"],
    ["inertia", "--p", "3", "--module", "x^5", "--op", "x*d1 + 1", "--level", "2"],
    ["milnor", "--f"],
    ["milnor", "--f", "x^2"],
    ["nope"],
    # prefixes of flags are not flags
    ["curve-sweep", "--samp", "3"],
    ["curve-sweep", "--pm=5"],
    ["collatz", "--start", "3", "--step_budget", "3"],
    ["milnor", "--f", "x^2", "--p", "3", "-p", "3"],
    ["milnor", "--f", "x^2", "--p", "3", "stray"],
    ["--f", "x^2", "milnor", "--p", "3"],
    ["milnor", "--f", "x^2", "--p", "three"],
    ["milnor", "--f", "x^2", "--p", "3", "--format", "xml"],
    [],
    # a negative sample count or no prime up to --pmax would check nothing
    # and still exit 0
    ["curve-sweep", "--samples", "-1"],
    ["curve-sweep", "--samples", "-1", "--format", "text"],
    ["curve-sweep", "--pmax", "1"],
    ["curve-sweep", "--pmax", "-5", "--format", "text"],
    # a negative budget would refuse every table, and a negative step
    # budget would report an orbit it never started as exhausted
    ["orbits", "--p", "5", "--system", "x", "--budget", "-1"],
    ["milnor", "--f", "x^2", "--p", "3", "--budget=-1"],
    ["collatz", "--start", "3", "--step-budget", "-1"],
    # a ring of no variables would make milnor read k/(0), of dimension 1,
    # as infinite
    ["milnor", "--f", "5", "--p", "5", "--vars", ","],
    ["groebner", "--gens", "5", "--vars", " , ,"],
    ["weyl-apply", "--op", "5", "--f", "5", "--vars", ","],
    # a config file that cannot be read
    ["milnor", "--f", "x^2", "--p", "3", "--config", "/nonexistent"],
    # a token where the parser expects a sign or the end
    ["milnor", "--f", "x y", "--p", "5"],
    ["groebner", "--gens", "2 3", "--p", "5"],
])
def test_bad_argument_is_one_line_usage_error(capsys, argv):
    assert_one_line_usage_error(capsys, run(argv))


def test_front_end_failures_are_one_line_usage_errors(tmp_path, monkeypatch, capsys):
    assert_one_line_usage_error(capsys, run(["--config"]))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p = 2\nno equals sign\n")
    assert_one_line_usage_error(capsys, run(["milnor", "--f", "x^2", "--config", str(cfg)]))
    for line in ["samp = 3", "step_budget = 3", "config = other.cfg", "help = 1"]:
        cfg.write_text(f"pmax = 5\n{line}\n")
        assert_one_line_usage_error(capsys, run(["curve-sweep", "--config", str(cfg)]))
    monkeypatch.setenv(ENV_BUDGET, "abc")
    assert_one_line_usage_error(capsys, run(["collatz", "--start", "3"]))
    monkeypatch.setenv(ENV_BUDGET, "-1")
    assert_one_line_usage_error(capsys, run(["orbits", "--p", "5", "--system", "x"]))


def test_unknown_flag_exit_2(capsys):
    assert_one_line_usage_error(capsys, run(["milnor", "--nope", "1"]))
    assert_one_line_usage_error(capsys, run(["milnor", "--nope", "1", "--f", "x", "--p", "3"]))


def test_help_exits_0(capsys):
    assert run(["milnor", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: wildcycles milnor")


@pytest.mark.parametrize("argv", [
    ["curve-count", "--p", "100003", "--a", "1", "--b", "1", "--budget", "10"],
    ["curve-count", "--p", "1114117", "--a", "1", "--b", "1", "--budget", str(10**20)],
    ["curve-sweep", "--pmax", "101", "--samples", "2", "--budget", "10200"],
    ["curve-sweep", "--pmax", "7", "--samples", "1", "--budget", "30"],
    ["curve-sweep", "--pmax", str(10**30), "--samples", "1", "--budget", str(10**40)],
])
def test_curve_commands_refuse_past_the_budget(capsys, argv):
    assert_one_line_error(capsys, run(argv), 1)


def test_curve_sweep_budget_reads_the_primes_it_sweeps(capsys):
    # --pmax 6 sweeps p = 2, 3, 5, and 5^2 = 25 pairs fit a budget of 30
    code, out = run_lines(capsys, "curve-sweep", "--pmax", "6", "--samples", "1", "--budget", "30")
    assert code == 0
    assert [json.loads(l)["payload"]["p"] for l in out.splitlines()] == [2, 3, 5]


def test_curve_sweep_of_no_samples_tests_no_prime(capsys):
    # it tested every p <= --pmax for primality before it swept nothing,
    # which took 3.1 s
    t0 = time.perf_counter()
    argv = ["curve-sweep", "--pmax", "1114116", "--samples", "0", "--budget", str(10**40), "--format", "text"]
    code, out = run_lines(capsys, *argv)
    assert time.perf_counter() - t0 < 0.5
    assert code == 0
    assert out.splitlines()[-1] == "# 0 cases, identity holds on 0, 0 nonsingular (Hasse ok on 0)"


@pytest.mark.parametrize("argv", [
    ["inertia", "--p", "5", "--module", "x^100", "--op", "d1", "--level", "1", "--budget", "10"],
    ["inertia", "--p", "5", "--module", "x^11", "--op", "d1", "--level", "1", "--budget", "10"],
    ["inertia", "--p", "5", "--module", f"x^{10**12}", "--op", "d1", "--level", "1"],
    ["inertia", "--p", "5", "--module", "x^4", "--op", "d1", "--level", "11", "--budget", "10"],
    ["inertia", "--p", "5", "--module", "x^4", "--op", "d1", "--level", str(10**8)],
])
def test_inertia_refuses_past_the_budget(capsys, argv):
    assert_one_line_error(capsys, run(argv), 1)


def test_orbits_refuses_indices_past_32_bits(capsys):
    # 257^4 states fit a budget of 10^20, but their indices pass 2^32
    argv = ["orbits", "--p", "257", "--system", "x;y;z;w", "--mode", "self-map", "--budget", str(10**20)]
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: image indices below 257^4 do not fit 32 bits\n"


@pytest.mark.parametrize("argv", [
    ["orbits", "--p", "65521", "--system", "x;y;z;w", "--mode", "self-map"],
    ["orbits", "--p", "46337", "--system", "x;y;z;w", "--mode", "self-map"],
    ["theorem1-probe", "--f", "x^2 + y^2 + z^2 + w^2", "--p", "65521", "--vars", "x,y,z,w"],
])
def test_tables_past_the_largest_array_are_refused(capsys, argv):
    # 65521^4 and 46337^4 states of 4 bytes pass sys.maxsize bytes, and
    # their indices pass 2^32 first: a CLI table has as many components as
    # variables, so that refusal comes before allocation (the sys.maxsize
    # one is reached from the library, tests/test_poly.py)
    code = run(argv + ["--budget", str(10**20)])
    captured = capsys.readouterr()
    p = argv[2] if argv[0] == "orbits" else argv[4]
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: image indices below {p}^4 do not fit 32 bits\n"


def test_large_primes_are_decided_at_once(capsys):
    # Miller-Rabin takes the largest 20-digit prime at once; past the bound
    # of its bases the modulus is refused
    env = run_json(capsys, "milnor", "--f", "x^2", "--p", "99999999999999999989")
    assert env["payload"]["char_p_dimension"] == 1
    assert_one_line_error(capsys, run(["milnor", "--f", "x^2", "--p", str(10**25 + 13)]), 1)


def test_milnor_counts_a_staircase_of_a_huge_box_from_its_corners(capsys):
    # mu = N + 1 for x^N + x*y^2 + y^3: the staircase is the box below
    # x^N, y^2 with the corner x*y cut, counted without a walk
    env = run_json(capsys, "milnor", "--f", "x^99999999999999999999 + x*y^2 + y^3", "--p", "5")
    pay = env["payload"]
    assert pay["char_0_dimension"] == pay["char_p_dimension"] == pay["tame"] == 10**20
    assert pay["wild"] == 0 and pay["anomaly"] is None


@pytest.mark.parametrize("argv", [
    ["groebner", "--gens", "x^99999999999999999999", "--p", "5"],
    ["groebner", "--gens", "x^3; y^3", "--budget", "8"],
])
def test_groebner_refuses_a_staircase_box_past_the_budget(capsys, argv):
    assert_one_line_error(capsys, run(argv), 1)


def test_inertia_runs_at_the_budget(capsys):
    argv = ["inertia", "--p", "5", "--module", "x^10", "--op", "d1", "--level", "1", "--budget", "10"]
    assert run(argv) == 0
    assert json.loads(capsys.readouterr().out)["payload"]["module_dimension"] == 10


@pytest.mark.parametrize(
    "spaced, joined",
    [
        ("groebner --gens -x*y --p 5", "groebner --gens=-x*y --p 5"),
        ("milnor --f -x^2 --p 5", "milnor --f=-x^2 --p 5"),
        ("weyl-apply --op -d1 --f x --p 5", "weyl-apply --op=-d1 --f x --p 5"),
        (
            "inertia --p 5 --module x^4 --op d1 --element -x^2 --level 1",
            "inertia --p 5 --module x^4 --op d1 --element=-x^2 --level 1",
        ),
        ("orbits --p 5 --system -x", "orbits --p 5 --system=-x"),
        (
            "milnor --f x^3-y^2 --p 3 --vars x,y --seed -4 --budget 99",
            "milnor --f=x^3-y^2 --p=3 --vars=x,y --seed=-4 --budget=99",
        ),
        ("orbits --p 5 --system x^2 --mode self-map", "orbits --p=5 --system=x^2 --mode=self-map"),
        ("collatz --start 27 --step-budget 20", "collatz --start=27 --step-budget=20"),
    ],
)
def test_text_value_may_begin_with_minus(capsys, spaced, joined):
    assert strip_timestamp(run_json(capsys, *spaced.split())) == strip_timestamp(run_json(capsys, *joined.split()))


def test_inertia_subcommand(capsys):
    env = run_json(
        capsys,
        "inertia", "--p", "2", "--module", "x^4",
        "--op", "d1", "--level", "2", "--element", "1+x+x^2+x^3",
    )
    payload = env["payload"]
    assert payload["member"] is False
    assert [c["annihilated"] for c in payload["element_checks"]] == [False, True, True]


def test_weyl_apply(capsys):
    env = run_json(capsys, "weyl-apply", "--op", "d1^3", "--f", "1+x+x^2+x^3")
    assert env["payload"]["result"] == "6"


def test_orbits_subcommand(capsys):
    env = run_json(capsys, "orbits", "--p", "5", "--system", "y^2+x^3+x; y-3", "--h", "1")
    assert env["payload"]["periodic_count"] == 10


def test_orbits_reports_h_only_for_a_vector_field(capsys):
    env = run_json(capsys, "orbits", "--p", "5", "--system", "x^2", "--mode", "self-map", "--h", "0")
    assert "h" not in env["payload"]
    env = run_json(capsys, "orbits", "--p", "5", "--system", "x^2", "--h", "2")
    assert env["payload"]["h"] == 2


def test_collatz_subcommand(capsys):
    env = run_json(capsys, "collatz", "--start", "27", "--variant", "paper")
    assert env["payload"]["cycle"] == [4, 2, 1]
    assert env["payload"]["budget_exhausted"] is False


def test_collatz_bijection_subcommand(capsys):
    env = run_json(capsys, "collatz-bijection", "--k", "8")
    assert env["payload"]["bijection"] is True


def test_groebner_subcommand(capsys):
    env = run_json(capsys, "groebner", "--gens", "x^2-y;y^2", "--order", "grevlex")
    assert env["payload"]["quotient_dimension"] == 4


def test_theorem1_probe_refuses_p2(capsys):
    code = run(["theorem1-probe", "--f", "x^2+y^2", "--p", "2"])
    assert code == 1


def test_theorem1_probe_runs(capsys):
    env = run_json(capsys, "theorem1-probe", "--f", "x^2+y^2", "--p", "5")
    payload = env["payload"]
    assert "EXPLORATORY" in payload["note"]
    assert payload["critical_locus_charp"] == [[0, 0]]
    # (x^2 + y^2)^2 is singular along a curve, so both Milnor numbers are infinite
    assert payload["milnor_r_of_f_char0"] == payload["milnor_r_of_f_charp"] == "infinite"


def test_curve_sweep_deterministic(capsys):
    code1, out1 = run_lines(capsys, "curve-sweep", "--pmax", "13", "--samples", "3", "--seed", "9")
    code2, out2 = run_lines(capsys, "curve-sweep", "--pmax", "13", "--samples", "3", "--seed", "9")
    assert code1 == code2 == 0
    lines1 = [strip_timestamp(json.loads(l)) for l in out1.splitlines()]
    lines2 = [strip_timestamp(json.loads(l)) for l in out2.splitlines()]
    assert lines1 == lines2
    assert all(l["payload"]["identity_holds"] for l in lines1)


def test_payload_determinism(capsys):
    env1 = run_json(capsys, "milnor", "--f", "x^3-y^2", "--p", "3")
    env2 = run_json(capsys, "milnor", "--f", "x^3-y^2", "--p", "3")
    assert strip_timestamp(env1) == strip_timestamp(env2)


def test_text_format(capsys):
    code, out = run_lines(capsys, "milnor", "--f", "x^3-y^2", "--p", "3", "--format", "text")
    assert code == 0
    assert "tame" in out


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("f = y^3+x^2+x^3\np = 2\n")
    env = run_json(capsys, "milnor", "--config", str(cfg))
    assert env["payload"]["wild"] == 2
    # explicit flag beats the file
    env = run_json(capsys, "milnor", "--config", str(cfg), "--p", "7")
    assert env["payload"]["wild"] == 0
    env = run_json(capsys, "milnor", "--config", str(cfg), "--p=7", "--f=-x^2")
    assert (env["payload"]["p"], env["payload"]["f"]) == (7, "-x^2")
    cfg.write_text("# a comment\n\nstart = 27\nstep-budget = 5\nvariant = accelerated\n")
    env = run_json(capsys, "collatz", "--step-budget", "7", "--config", str(cfg))
    assert env["config"] == {**env["config"], "start": 27, "step_budget": 7, "variant": "accelerated"}


def test_every_subcommand_has_help(capsys):
    subs = ["milnor", "groebner", "inertia", "weyl-apply", "orbits", "collatz",
            "collatz-bijection", "curve-count", "curve-sweep", "theorem1-probe"]
    assert list(COMMANDS) == subs
    for name in subs:
        assert run([name, "--help"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: wildcycles {name} ") and COMMANDS[name][0] in out
    assert run(["-h"]) == 0
    out = capsys.readouterr().out
    assert all(name in out for name in subs)


def test_names_outside_x_y_z(capsys):
    env = run_json(capsys, "groebner", "--gens", "a + b; a*b - 1")
    assert env["payload"]["basis"] == ["a + b", "b^2 + 1"]
    env = run_json(capsys, "milnor", "--f", "x1^2 + x2^3", "--p", "3")
    assert env["payload"]["char_0_dimension"] == 2
    assert env["payload"]["f"] == "x2^3 + x1^2"


def test_milnor_reports_f_under_the_given_names(capsys):
    env = run_json(capsys, "milnor", "--f", "u^2 + v^3", "--vars", "u,v", "--p", "5")
    assert env["payload"]["f"] == "v^3 + u^2"


def test_inferred_names_keep_the_substring_rule_where_it_worked():
    """Wherever the former substring rule named variables that parse every
    text, the grammar's names are the same, in the same order."""
    rng = random.Random(73)
    factors = ["d1", "d2", "d3", "dx", "dy", "dz"]
    compared = 0
    for _ in range(600):
        names = sorted(rng.sample(["x", "y", "z"], rng.randrange(1, 4)))
        polys = [random_poly(rng, len(names), QQ).to_str(names) for _ in range(rng.randrange(1, 3))]
        operators = []
        for _ in range(rng.randrange(0, 2)):
            pool = factors + names
            terms = ["*".join(rng.choice(pool) for _ in range(rng.randrange(1, 3))) for _ in range(rng.randrange(1, 3))]
            operators.append(" + ".join(terms))
        oracle = substring_var_names(polys + operators)
        try:
            for t in polys:
                poly_parse(t, oracle, QQ)
            for t in operators:
                weyl_parse(t, oracle, QQ)
        except ParseError:
            continue
        assert infer_var_names(polys, operators) == oracle, (polys, operators)
        compared += 1
    assert compared >= 300


def test_budget_is_read_on_every_run(monkeypatch, capsys):
    argv = ["orbits", "--p", "7", "--system", "x; y"]
    monkeypatch.setenv(ENV_BUDGET, "10")
    assert run(argv) == 1
    monkeypatch.delenv(ENV_BUDGET)
    assert run(argv) == 0
    assert json.loads(capsys.readouterr().out)["config"]["budget"] == DEFAULT_STATE_BUDGET


def test_sweep_envelopes_carry_every_flag(capsys):
    """A value beginning with - on a number flag, in either spelling."""
    spaced = run_lines(capsys, "curve-sweep", "--pmax", "7", "--samples", "2", "--seed", "-3", "--budget", "100")
    joined = run_lines(capsys, "curve-sweep", "--pmax", "7", "--samples", "2", "--seed=-3", "--budget=100")
    assert spaced[0] == joined[0] == 0
    envs = [strip_timestamp(json.loads(l)) for l in spaced[1].splitlines()]
    assert envs == [strip_timestamp(json.loads(l)) for l in joined[1].splitlines()]
    config = {"pmax": 7, "samples": 2, "seed": -3, "budget": 100, "format": "json", "backend": BACKEND_NAME}
    assert len(envs) == 8 and all(e["config"] == config for e in envs)


def test_last_of_a_repeated_flag_wins(capsys):
    env = run_json(capsys, "milnor", "--f", "x^2", "--p", "2", "--f", "y^3+x^2+x^3", "--p", "3")
    assert (env["payload"]["f"], env["config"]["p"]) == ("x^3 + y^3 + x^2", 3)


def test_module_order_reads_what_the_parser_reads():
    # plain x^m is read by one match; every text, plain or not, gives the m
    # or the error of the parse over QQ
    def parsed(text):
        f = poly_parse(text, ["x"], QQ)
        m = f.total_degree()
        if m < 1 or f.terms != {(m,): 1}:
            raise ParseError(f"--module must be a monomial x^m with m >= 1, not {text!r}", 0)
        return m

    texts = ["x", "x^1", "x ^ 7", " x^3 ", "x^3\n", "x^03", "x^0", "x^00", "x^٣", f"x^{10**20}",
             "x^2*x", "1/1*x^4", "x^3 - x^3 + x", "2*x^3", "1", "", "x^", "x^-1", "x3", "X^2", "x^3^2", "x*d1"]
    for text in texts:
        try:
            expected = parsed(text)
        except Exception as exc:  # refused alike: same class, same message
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                _module_order(text)
        else:
            assert _module_order(text) == expected, text

import json

import pytest

from wildcycles.cli import build_parser, run


def run_lines(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out.strip()
    return code, out


def run_json(capsys, *argv):
    code, out = run_lines(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


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
])
def test_bad_argument_is_one_line_usage_error(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_unknown_flag_exit_2(capsys):
    assert run(["milnor", "--nope", "1"]) == 2


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


def test_every_subcommand_has_help(capsys):
    parser = build_parser()
    subs = ["milnor", "groebner", "inertia", "weyl-apply", "orbits", "collatz",
            "collatz-bijection", "curve-count", "curve-sweep", "theorem1-probe"]
    for name in subs:
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([name, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out

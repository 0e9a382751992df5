import json
import re
from fractions import Fraction

import mpmath
import pytest

from kronsec import cli
from kronsec.apolarity import parse_form
from kronsec.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_kron_example(capsys):
    code, out, err = run(capsys, "kron", "[5,1]", "[5,1]", "[4,2]")
    assert code == 0
    assert out == '{"kron":1}\n'


def test_lr_example(capsys):
    code, out, err = run(capsys, "lr", "[1]", "[1]", "[2]")
    assert code == 0
    assert out == '{"lr":1}\n'


def test_curve_bounds_example(capsys):
    code, out, err = run(capsys, "curve-bounds", "--genus", "0", "--degree", "11")
    assert code == 0
    assert out == '{"max_k":6}\n'


def test_curve_bounds_optional_outputs(capsys):
    payload = run_json(capsys, "curve-bounds", "--genus", "1", "--degree", "7", "--twist", "2")
    assert payload == {"h0": 5}
    payload = run_json(capsys, "curve-bounds", "--genus", "1", "--degree", "7", "--k", "3")
    assert payload == {"separates": True}


def test_chartable(capsys):
    payload = run_json(capsys, "chartable", "3")
    assert payload["shapes"] == ["[3]", "[2,1]", "[1,1,1]"]
    assert payload["table"][0] == [1, 1, 1]
    assert payload["class_sizes"] == [2, 3, 1]


def test_chartable_human_is_a_grid(capsys):
    code, out, err = run(capsys, "--human", "chartable", "3")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5  # header, sizes, three rows
    assert "[2,1]" in lines[0]


def test_pieri(capsys):
    payload = run_json(capsys, "pieri", "[1]", "2", "--distinguished")
    assert payload["terms"] == ["[2]", "[1,1]"]
    assert payload["distinguished"] == "[1,1]"


def test_tensor(capsys):
    payload = run_json(capsys, "tensor", "[5,1]", "[5,1]")
    assert payload["terms"] == {"[6]": 1, "[5,1]": 1, "[4,2]": 1, "[4,1,1]": 1}


def test_rep_check_echoes_seed(capsys):
    payload = run_json(capsys, "--seed", "42", "rep-check", "[2,1]")
    assert payload["seed"] == 42
    assert payload["involution"] and payload["braid"] and payload["commutation"]
    assert payload["spherical_identity"]
    assert payload["word_traces_ok"]


def test_secant(capsys):
    payload = run_json(capsys, "secant", "deg=3; coeffs=1,0,0,1", "2")
    assert payload == {"member": True, "kernel_dimension": 1}


def test_sylvester(capsys):
    payload = run_json(capsys, "sylvester", "deg=3; coeffs=1,0,0,1")
    assert payload["rank"] == 2
    assert payload["support_exact"] is True
    points = {(pt["alpha"], pt["beta"]) for pt in payload["support"]}
    assert points == {("1", "0"), ("0", "1")}


@pytest.mark.parametrize("text", [
    # exact (0 : 1) plus three irrational points: the Fraction point used to
    # raise TypeError in the numeric coefficient solve
    "deg=6; coeffs=-1,2,-1,3,2,3,2",
    # twelve points whose moment columns differ in scale by many orders of
    # magnitude: the unscaled solve used to find the matrix singular
    "deg=23; coeffs=0,-8,3,-3,7,-7,2,8,0,-2,-2,8,5,2,9,3,-4,-1,2,0,4,0,7,-6",
    # a generic degree-40 form: the squarefree test of its degree-20
    # annihilator took 22 s in a Euclid over Q
    "deg=40; coeffs=-1,2,7,-9,5,-2,-8,-4,-6,2,6,-2,3,8,-6,9,-2,-9,-3,4,-1,-4,3,-4,-7,-5,5,-5,-5,-9,-9,-3,-3,-4,-4,0,1,-3,8,-3,-4",
])
def test_sylvester_approximate_support_rebuilds_the_form(capsys, text):
    # Rebuilt from the printed digits, so stdout carries enough of them to
    # meet the certificate's own error_bound.
    payload = run_json(capsys, "sylvester", text)
    assert payload["support_exact"] is False
    assert payload["rank"] == len(payload["support"]) == len(payload["coefficients"])
    form = parse_form(text)
    n = form.degree
    with mpmath.workprec(256):
        points = [(_printed(pt["alpha"]), _printed(pt["beta"])) for pt in payload["support"]]
        coeffs = [_printed(c) for c in payload["coefficients"]]
        for j, target in enumerate(form.coeffs):
            rebuilt = sum(
                c * mpmath.binomial(n, j) * alpha ** (n - j) * beta**j
                for (alpha, beta), c in zip(points, coeffs)
            )
            assert abs(rebuilt - _exact(target)) <= 2 * payload["error_bound"]


def _exact(x: Fraction):
    return mpmath.mpf(x.numerator) / x.denominator


def _printed(text: str):
    """A printed exact or approximate value, read without rounding."""
    parts = re.fullmatch(r"\((\S+) ([+-]) (\S+)j\)", text)
    if parts:
        re_part, sign, im_part = parts.groups()
        return mpmath.mpc(_exact(Fraction(re_part)), _exact(Fraction(sign + im_part)))
    return _exact(Fraction(text))


def test_vdm(capsys):
    payload = run_json(capsys, "vdm", '[0, 1, "1/2", "inf"]', "5")
    assert payload == {"rank": 4}


def test_join(capsys):
    payload = run_json(capsys, "join", "deg=4; coeffs=1,0,0,0,0",
                       "deg=4; coeffs=0,0,0,0,1")
    assert payload == {"a": 1, "b": 1, "c": 2, "sum_is_zero": False}


def test_monodromy_word(capsys):
    payload = run_json(capsys, "monodromy", "--n", "3", "--word", "1,2,1")
    assert payload["permutation"] == "(1 3)"
    assert payload["precision_bits"] == 96


def test_monodromy_spherical(capsys):
    payload = run_json(capsys, "monodromy", "--n", "4", "--spherical")
    assert payload["identity"] is True


def test_monodromy_defining(capsys):
    payload = run_json(capsys, "--seed", "3", "monodromy", "--n", "3", "--defining")
    assert payload["group_order"] == 6
    assert payload["decomposition"] == {"[3]": 1, "[2,1]": 1}
    assert payload["seed"] == 3


def test_monodromy_inline_spec(capsys):
    payload = run_json(capsys, "monodromy", "--spec",
                       '{"base": [-1, 0, 1], "segments": ["half_twist(1)"]}')
    assert payload["permutation"] == "(1 2)"


def test_monodromy_defining_needs_two_roots(capsys):
    code, out, err = run(capsys, "monodromy", "--defining", "--n", "1")
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "domain"


def test_monodromy_spec_file(capsys, tmp_path):
    spec = tmp_path / "loop.json"
    spec.write_text('{"base": [-1, 0, 1], "segments": ["half_twist(1)", "half_twist(1)"]}')
    payload = run_json(capsys, "monodromy", "--spec", str(spec))
    assert payload["permutation"] == "()"


def test_monodromy_needs_exactly_one_mode(capsys):
    code, out, err = run(capsys, "monodromy", "--n", "4")
    assert code == 1
    assert json.loads(err)["error"] == "domain"


def test_brion_sweep_stream_shape(capsys):
    code, out, err = run(capsys, "brion-sweep", "4")
    assert code == 0
    lines = out.splitlines()
    records = [json.loads(line) for line in lines[:-1]]
    summary = json.loads(lines[-1])["summary"]
    assert summary["records"] == len(records)
    assert summary["violations"] == 0
    for r in records:
        assert set(r) == {"n", "lambda", "omega", "sigma", "Sigma", "kron", "lr", "verdict"}


def test_brion_sweep_human_summary_tallies_records(capsys):
    code, out, err = run(capsys, "--human", "brion-sweep", "3")
    assert code == 0
    *lines, last = out.splitlines()
    assert lines
    summary = dict(pair.split("=") for pair in last.split())
    verdicts = [dict(pair.split("=", 1) for pair in line.split())["verdict"] for line in lines]
    assert summary == {
        "records": str(len(lines)),
        "vanishing_ok": str(verdicts.count("vanishing-ok")),
        "equality_ok": str(verdicts.count("equality-ok")),
        "no_sigma": str(verdicts.count("no-sigma")),
        "violations": str(verdicts.count("violation")),
    }


def test_brion_sweep_deterministic(capsys):
    code_a, out_a, _ = run(capsys, "brion-sweep", "5")
    code_b, out_b, _ = run(capsys, "brion-sweep", "5")
    assert code_a == code_b == 0
    assert out_a == out_b


def test_brion_sweep_mode_flag(capsys):
    _, both, _ = run(capsys, "brion-sweep", "4")
    _, vanish, _ = run(capsys, "brion-sweep", "4", "--mode", "vanishing")
    _, equal, _ = run(capsys, "brion-sweep", "4", "--mode", "equality")
    n_both = json.loads(both.splitlines()[-1])["summary"]["records"]
    n_vanish = json.loads(vanish.splitlines()[-1])["summary"]["records"]
    n_equal = json.loads(equal.splitlines()[-1])["summary"]["records"]
    assert n_both == n_vanish + n_equal


def test_brion_boundary(capsys):
    code, out, err = run(capsys, "brion-boundary", "2")
    assert code == 0
    lines = out.splitlines()
    assert json.loads(lines[-1])["summary"]["no_sigma"] == 2


def test_output_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "result.json"
    code, out, err = run(capsys, "--output", str(target), "kron", "[2,1]", "[2,1]", "[3]")
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text()) == {"kron": 1}


def test_config_file_flag(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("KRONSEC_CONFIG", raising=False)
    cfg = tmp_path / "kronsec.cfg"
    cfg.write_text("sweep_cap = 2\n")
    code, out, err = run(capsys, "--config", str(cfg), "brion-sweep", "3")
    assert code == 1
    assert json.loads(err)["error"] == "capacity"


@pytest.mark.parametrize("argv", [
    pytest.param(["chartable", "15"], id="chartable-15"),
    pytest.param(["--n-cap", "5", "kron", "[3,3]", "[3,3]", "[6]"], id="kron-over-n-cap"),
    pytest.param(["--n-cap", "5", "tensor", "[3,3]", "[3,3]"], id="tensor-over-n-cap"),
    pytest.param(["--n-cap", "5", "pieri", "[2,1]", "6"], id="pieri-over-n-cap"),
    pytest.param(["--n-cap", "5", "lr", "[3]", "[3]", "[4,2]"], id="lr-over-n-cap"),
    pytest.param(["--n-cap", "3", "rep-check", "[3,1]"], id="rep-check-over-n-cap"),
    pytest.param(["rep-check", "[5,3,2,1]"], id="rep-check-dim-2310"),
    pytest.param(["brion-sweep", "11"], id="brion-sweep-11"),
    pytest.param(["brion-boundary", "11"], id="brion-boundary-11"),
    pytest.param(["--n-cap", "5", "brion-sweep", "6"], id="brion-sweep-over-n-cap"),
    pytest.param(["--n-cap", "5", "brion-boundary", "6"], id="brion-boundary-over-n-cap"),
    pytest.param(["--n-cap", "3", "monodromy", "--defining", "--n", "4"], id="defining-over-n-cap"),
    pytest.param(["--n-cap", "5", "monodromy", "--word", "1", "--n", "6"], id="word-over-n-cap"),
    pytest.param(["--n-cap", "5", "monodromy", "--spherical", "--n", "6"], id="spherical-over-n-cap"),
    pytest.param(["--n-cap", "5", "monodromy", "--spec",
                  '{"base": [720, -1764, 1624, -735, 175, -21, 1], "segments": ["half_twist(1)"]}'],
                 id="spec-over-n-cap"),
])
def test_cap_exceeded_is_a_capacity_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    payload = json.loads(err)
    assert payload["error"] == "capacity"
    assert "exceeds the configured bound" in payload["message"]


def test_unconverged_base_roots_are_a_precision_error(capsys, monkeypatch):
    def no_convergence(*args, **kwargs):
        raise mpmath.libmp.NoConvergence("Didn't converge in maxsteps=200 steps.")

    monkeypatch.setattr(mpmath, "polyroots", no_convergence)
    code, out, err = run(capsys, "monodromy", "--word", "1", "--n", "3")
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "precision"


def test_cap_is_checked_before_the_output_file_opens(capsys, tmp_path):
    target = tmp_path / "records.jsonl"
    code, out, err = run(capsys, "--output", str(target), "brion-sweep", "11")
    assert code == 1
    assert not target.exists()


def test_env_var_overrides_config_path(capsys, tmp_path, monkeypatch):
    loose = tmp_path / "loose.cfg"
    loose.write_text("sweep_cap = 10\n")
    strict = tmp_path / "strict.cfg"
    strict.write_text("sweep_cap = 2\n")
    monkeypatch.setenv("KRONSEC_CONFIG", str(strict))
    code, out, err = run(capsys, "--config", str(loose), "brion-sweep", "3")
    assert code == 1


def test_domain_error_object_and_exit_1(capsys):
    code, out, err = run(capsys, "kron", "[2]", "[1]", "[1]")
    assert code == 1
    payload = json.loads(err)
    assert payload["error"] == "domain"
    assert "same n" in payload["message"]


def test_usage_error_exits_1_not_2(capsys):
    code, out, err = run(capsys, "kron", "[2,1]")  # missing arguments
    assert code == 1
    assert json.loads(err)["error"] == "usage"
    code, out, err = run(capsys, "no-such-command")
    assert code == 1


def test_injected_route_corruption_exits_2(capsys, monkeypatch):
    # Exit 2 is reserved for internal cross-check failures; force one by
    # corrupting the character-theoretic route behind the dual LR check.
    import kronsec.characters as characters

    monkeypatch.setattr(characters, "lr_by_characters", lambda *a: 10**9)
    code, out, err = run(capsys, "lr", "[1]", "[1]", "[2]")
    assert code == 2
    assert json.loads(err)["error"] == "consistency"


def test_injected_corruption_reaches_brion_sweep(capsys, monkeypatch):
    import kronsec.characters as characters

    real = characters.lr_coefficient
    monkeypatch.setattr(characters, "lr_coefficient", lambda *a: real(*a) + 1)
    code, out, err = run(capsys, "brion-sweep", "2")
    assert code == 2


def test_unexpected_exception_is_a_json_internal_error(capsys, monkeypatch):
    def boom(args, cfg, human):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._COMMANDS, "kron", boom)
    code, out, err = run(capsys, "kron", "[2,1]", "[2,1]", "[3]")
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"error": "internal", "message": "RuntimeError: boom"}


def test_base_exceptions_still_propagate(capsys, monkeypatch):
    def interrupted(args, cfg, human):
        raise KeyboardInterrupt

    monkeypatch.setitem(cli._COMMANDS, "kron", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["kron", "[2,1]", "[2,1]", "[3]"])


def test_human_flag_pretty_prints(capsys):
    code, out, err = run(capsys, "--human", "kron", "[2,1]", "[2,1]", "[3]")
    assert code == 0
    assert out == '{\n  "kron": 1\n}\n'

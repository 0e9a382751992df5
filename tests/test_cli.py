import argparse
import hashlib
import inspect
import json
import math
import os
import random
import re
import signal
import sys
from fractions import Fraction
from itertools import dropwhile

import mpmath
import pytest
from conftest import Overtime, oracle_power_sum_coeffs, spread_half_twist, within_seconds

from kronsec import apolarity, cli, intpoly, monodromy, ratmat, seminormal
from kronsec.apolarity import parse_form
from kronsec.cli import main
from kronsec.config import DEFAULT_DIM_CAP, DEFAULT_N_CAP, LOOP_WORK_CAP, WORD_WORK_CAP
from kronsec.errors import (
    CapacityError,
    ConsistencyError,
    DomainError,
    KronsecError,
    PrecisionError,
)
from kronsec.partitions import dimension, format_partition, partitions_of


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


def test_empty_shapes_are_the_trivial_group(capsys):
    assert run(capsys, "kron", "[]", "[]", "[]") == (0, '{"kron":1}\n', "")
    code, out, err = run(capsys, "chartable", "0")
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "domain"


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


def _form_text(coeffs) -> str:
    return f"deg={len(coeffs) - 1}; coeffs=" + ",".join(str(c) for c in coeffs)


def _power_sums(n: int, centre: int, square: int) -> list[int]:
    """Coefficients of the sum of (theta x + y)^n over the roots theta = centre +- sqrt(square)."""
    sums = [2, 2 * centre]  # theta^m summed, by Newton's identity for t^2 - 2 centre t + centre^2 - square
    for _ in range(n - 1):
        sums.append(2 * centre * sums[-1] - (centre * centre - square) * sums[-2])
    return [math.comb(n, j) * sums[n - j] for j in range(n + 1)]


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
    # roots +-2^22 sqrt 2 and 3 * 2^20 + 1 +- 2^22 sqrt(-2): an absolute
    # refinement grid left the error bound below the rounding of the printed
    # digits and a printed disc off its root
    _form_text(_power_sums(3, 0, 2**45)),
    _form_text(_power_sums(6, 3 * 2**20 + 1, -(2**45))),
    # roots +-2^100 sqrt 2 and 3 * 2^100 + 1 +- 2^100 sqrt(-2): printed with
    # the solve's 60 digits, each centre sat 945 radii off its root
    _form_text(_power_sums(3, 0, 2**201)),
    _form_text(_power_sums(6, 3 * 2**100 + 1, -(2**201))),
])
def test_sylvester_approximate_support_rebuilds_the_form(capsys, text):
    # Rebuilt from the printed digits, so stdout carries enough of them to
    # meet the certificate's own error_bound, and each printed disc holds a
    # root of the printed annihilator.
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
    annihilator = parse_form(payload["annihilator"]).coeffs
    with mpmath.workprec(1024):
        # U(t) = a(t, 1) with its leading zeros, the roots at (1 : 0), dropped
        roots = mpmath.polyroots([_exact(c) for c in dropwhile(lambda c: not c, annihilator)],
                                 maxsteps=400, extraprec=1024)
        for (alpha, beta), pt in zip(points, payload["support"]):
            if not pt["exact"]:
                assert min(abs(alpha / beta - r) for r in roots) <= _exact(Fraction(pt["radius"]))


def _exact(x: Fraction):
    return mpmath.mpf(x.numerator) / x.denominator


def _printed(text: str):
    """A printed exact or approximate value, read without rounding."""
    parts = re.fullmatch(r"\((\S+) ([+-]) (\S+)j\)", text)
    if parts:
        re_part, sign, im_part = parts.groups()
        return mpmath.mpc(_exact(Fraction(re_part)), _exact(Fraction(sign + im_part)))
    return _exact(Fraction(text))


def _near_double_root_form(delta: Fraction) -> str:
    """The sum of (theta x + y)^9 over the roots theta of (t^2 - 2)((t - delta)^2 - 2)."""
    def power_sum(m, shift):  # (shift + sqrt 2)^m + (shift - sqrt 2)^m
        return sum(2 * math.comb(m, i) * shift ** (m - i) * 2 ** (i // 2) for i in range(0, m + 1, 2))

    return _form_text([math.comb(9, i) * (power_sum(9 - i, 0) + power_sum(9 - i, delta)) for i in range(10)])


@pytest.mark.parametrize("exponent", [20, 33, 37, 40, 60])
def test_near_double_roots_are_certified_or_a_precision_error(capsys, exponent):
    # Support points sqrt(2) + delta and -sqrt(2) + delta sit delta = 10^-exponent
    # from two others: either four pairwise disjoint discs whose printed values
    # rebuild the form, or a precision error; a singular solve used to escape
    # as an internal error at 10^-37.
    text = _near_double_root_form(Fraction(1, 10**exponent))
    code, out, err = run(capsys, "sylvester", text)
    if code:
        assert (code, json.loads(err)["error"]) == (1, "precision"), err
        return
    payload = json.loads(out)
    assert payload["rank"] == len(payload["support"]) == 4
    form, n = parse_form(text), 9
    with mpmath.workprec(256):
        discs = [(_printed(pt["alpha"]) / _printed(pt["beta"]), Fraction(pt["radius"])) for pt in payload["support"]]
        for i, (z1, r1) in enumerate(discs):
            for z2, r2 in discs[i + 1:]:
                assert abs(z1 - z2) > _exact(r1 + r2)
        points = [(_printed(pt["alpha"]), _printed(pt["beta"])) for pt in payload["support"]]
        coeffs = [_printed(c) for c in payload["coefficients"]]
        for j, target in enumerate(form.coeffs):
            rebuilt = sum(c * mpmath.binomial(n, j) * alpha ** (n - j) * beta**j
                          for (alpha, beta), c in zip(points, coeffs))
            assert abs(rebuilt - _exact(target)) <= 2 * payload["error_bound"]


def test_vdm(capsys):
    payload = run_json(capsys, "vdm", '[0, 1, "1/2", "inf"]', "5")
    assert payload == {"rank": 4}


def test_join(capsys):
    payload = run_json(capsys, "join", "deg=4; coeffs=1,0,0,0,0",
                       "deg=4; coeffs=0,0,0,0,1")
    assert payload == {"a": 1, "b": 1, "c": 2, "sum_is_zero": False}


def test_join_rejects_mismatched_degrees_before_any_rank(capsys, monkeypatch):
    def no_rank(p):
        raise AssertionError(f"ranked {p}")

    monkeypatch.setattr(apolarity, "min_apolar_degree", no_rank)
    code, out, err = run(capsys, "join", "deg=3; coeffs=1,0,0,1", "deg=2; coeffs=1,0,1")
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "domain", "message": "cannot add forms of degrees 3 and 2"}


# The middle catalecticant of this form is [[2^30, 1], [1, 2]], of
# determinant 2^31 - 1: rank 1 mod the package prime, rank 2 over Q.
_UNLUCKY = "deg=2; coeffs=536870912,1,1"
_UNLUCKY_STDOUT = {
    ("sylvester", _UNLUCKY): (
        '{"form":"deg=2; coeffs=536870912,1,1","kernel_degree":2,"rank":2,"member":true,'
        '"annihilator":"deg=2; coeffs=-1/1073741824,1,0","support":[{"alpha":"0","beta":"1",'
        '"exact":true,"radius":null},{"alpha":"1073741824","beta":"1","exact":true,"radius":null}],'
        '"coefficients":["2147483647/2147483648","1/2147483648"],"support_exact":true,'
        '"error_bound":null}\n'),
    ("secant", _UNLUCKY, "1"): '{"member":false,"kernel_dimension":0}\n',
    ("secant", _UNLUCKY, "2"): '{"member":true,"kernel_dimension":2}\n',
    ("join", _UNLUCKY, "deg=2; coeffs=1,0,0"): '{"a":2,"b":1,"c":2,"sum_is_zero":false}\n',
}


@pytest.mark.parametrize("argv", list(_UNLUCKY_STDOUT), ids=lambda argv: " ".join(argv[::2]))
def test_a_prime_that_loses_the_middle_rank_takes_the_exact_route(capsys, monkeypatch, argv):
    assert intpoly.SQUAREFREE_PRIME == 2**31 - 1
    exact_ranks = []
    rank = ratmat.rank
    monkeypatch.setattr(ratmat, "rank", lambda a: exact_ranks.append(a) or rank(a))
    assert run(capsys, *argv) == (0, _UNLUCKY_STDOUT[argv], "")
    assert len(exact_ranks) == 1


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


_MONODROMY_ARGV = {
    "word": ["monodromy", "--word", "1,2,1", "--n", "3"],
    "spherical": ["monodromy", "--spherical", "--n", "4"],
    "defining": ["--seed", "3", "monodromy", "--defining", "--n", "4", "--samples", "2"],
    "spec-circle": ["monodromy", "--spec", '{"base": [-1, 0, 1], "segments": ["circle(0, 1.0)"]}'],
    # The tolerance and precision are printed from what the CLI passed.
    "spec-settings": ["--precision-bits", "128", "monodromy", "--spec",
                      '{"base": [-6, 11, -6, 1], "segments": ["half_twist(2)", "circle(0, 6)"], "tolerance": 1e-20}'],
}
# sha256 of stdout for each command above, fixed when the monodromy output was
# last changed on purpose.
_MONODROMY_STDOUT = {
    "word": "1569e7c1d07bdf3c27d3849aa34aaaac1fe1166ab37b18895b34a6291825dd2f",
    "spherical": "cbcf0646b0244e04f77b19e0ebcb17f2221aa9576ddb718ed442cd2d1c048792",
    "defining": "8c80c35592f5b58e761d66fdccc3daf893e14f66c229c3586f60341dddf12138",
    "spec-circle": "69a5a0d28a3e3223d26eeba512a68c9d0d826542923ce8af325dcfb946cce748",
    "spec-settings": "4e6b5e57a218b07a117ad47753a8097801e5b13a88b9c9e88e4fab8b73562741",
}


@pytest.mark.parametrize("key", _MONODROMY_ARGV)
def test_monodromy_outputs_are_byte_identical(capsys, key):
    code, out, err = run(capsys, *_MONODROMY_ARGV[key])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == _MONODROMY_STDOUT[key]


def test_a_circle_off_its_coefficient_is_refused_before_isolation(capsys, monkeypatch):
    def no_isolation(*args, **kwargs):
        raise AssertionError("base roots were isolated")

    monkeypatch.setattr(monodromy, "_sorted_roots", no_isolation)
    code, out, err = run(capsys, "monodromy", "--spec", '{"base": [1, 0, 1], "segments": ["circle(0, 2.0)"]}')
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "domain"


@pytest.mark.parametrize("e", [4, 7])
def test_a_tight_still_pair_does_not_slow_a_half_twist(capsys, e):
    # z (10^e z - 1)(z - 5)(z - 6): half_twist(3) moves 5 and 6 while the
    # still roots 0 and 10^-e sit 10^-e apart, so the step is that of a
    # generator half-twist.
    base = [0, -30, 30 * 10**e + 11, -(11 * 10**e + 1), 10**e]
    with within_seconds(5):
        payload = run_json(capsys, "monodromy", "--spec", json.dumps({"base": base, "segments": ["half_twist(3)"]}))
    assert (payload["permutation"], payload["steps"], payload["halvings"]) == ("(3 4)", 32, 0)


def test_within_seconds_stops_a_cli_call_and_restores_the_alarm(capsys):
    previous = signal.getsignal(signal.SIGALRM)
    with pytest.raises(Overtime):
        with within_seconds(0.01):
            main(["monodromy", "--spherical", "--n", "12"])
    capsys.readouterr()
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


_EXACT_LOOP = '{"base": [-6, 11, -6, 1], "segments": ["half_twist(2)", "circle(0, 6)"]}'
_EXACT_COMMANDS = {
    "chartable": ["chartable", "6"],
    "kron": ["kron", "[2,1]", "[2,1]", "[3]"],
    "lr": ["lr", "[2,1]", "[1]", "[3,1]"],
    "pieri": ["pieri", "[2,1]", "5", "--distinguished"],
    "tensor": ["tensor", "[2,1]", "[2,1]"],
    "rep-check": ["rep-check", "[3,2]"],
    "brion-sweep": ["brion-sweep", "4"],
    "secant": ["secant", "deg=3; coeffs=1,0,0,1", "2"],
    "vdm": ["vdm", '[0, 1, "1/2", "inf"]', "3"],
    "join": ["join", "deg=3; coeffs=1,0,0,1", "deg=3; coeffs=0,1,0,0"],
    "curve-bounds": ["curve-bounds", "--genus", "2", "--degree", "7", "--k", "2"],
    "sylvester-exact": ["sylvester", "deg=5; coeffs=1,0,0,0,0,1"],
    "word": ["monodromy", "--word", "1,2,1", "--n", "3"],
    "spherical": ["monodromy", "--spherical", "--n", "4"],
    "defining": ["monodromy", "--defining", "--n", "4", "--samples", "2"],
    "spec-integer-roots": ["monodromy", "--spec", _EXACT_LOOP],
}
# Controls: an irrational Sylvester support, and a base whose roots mpmath isolates.
_APPROXIMATE_COMMANDS = {
    "sylvester-approximate": ["sylvester", "deg=6; coeffs=-1,2,-1,3,2,3,2"],
    "spec-isolated": ["monodromy", "--spec", '{"base": [1, 0, 1], "segments": ["half_twist(1)"]}'],
}


def _mpmath_calls(capsys, argv):
    """The names of the functions defined under mpmath's directory that cli.main calls on argv."""
    root = os.path.dirname(mpmath.__file__) + os.sep
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(root):
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        code = main(argv)
    finally:
        sys.setprofile(None)
    assert code == 0, capsys.readouterr().err
    capsys.readouterr()
    return calls


@pytest.mark.parametrize("key", _EXACT_COMMANDS)
def test_exact_commands_call_no_mpmath(capsys, key):
    assert _mpmath_calls(capsys, _EXACT_COMMANDS[key]) == []


@pytest.mark.parametrize("key", _APPROXIMATE_COMMANDS)
def test_the_mpmath_probe_sees_approximate_commands(capsys, key):
    assert _mpmath_calls(capsys, _APPROXIMATE_COMMANDS[key])


@pytest.mark.parametrize("n", [5, 6])
def test_monodromy_spherical_at_53_bits(capsys, n):
    payload = run_json(capsys, "--precision-bits", "53", "monodromy", "--spherical", "--n", str(n))
    assert payload["identity"] is True
    assert payload["precision_bits"] == 53


@pytest.mark.parametrize("tolerance", [None, 1e-40])
def test_a_root_collision_hits_the_step_floor(capsys, tolerance):
    # z^2 + 2z + c with c = -e^(2 pi i t) has the double root -1 at t = 1/2.
    spec = {"base": [-1, 2, 1], "segments": ["circle(0, 1)"]}
    if tolerance is not None:
        spec["tolerance"] = tolerance
    code, out, err = run(capsys, "monodromy", "--spec", json.dumps(spec))
    assert (code, out) == (1, "")
    payload = json.loads(err)
    assert payload["error"] == "precision"
    if tolerance is None:
        assert payload["message"].endswith("root collision suspected")


@pytest.mark.parametrize("seed", [0, 1, 36, 76])
def test_spread_magnitude_half_twists_are_precision_errors_not_consistency(capsys, seed):
    n, roots, i = spread_half_twist(seed)
    base = [[c.real, c.imag] for c in intpoly.from_roots(roots)]
    argv = ["monodromy", "--spec", json.dumps({"base": base, "segments": [f"half_twist({i})"]})]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    payload = json.loads(err)
    assert payload["error"] == "precision"
    assert payload["message"].endswith("precision ran out at 96 bits")
    assert run_json(capsys, "--precision-bits", "192", *argv)["permutation"] == f"({i} {i + 1})"


@pytest.mark.parametrize("spec", [
    pytest.param({"base": [1, -2, 1], "segments": ["half_twist(1)"]}, id="double-root"),
    # Roots 1, 2, 3 are one apart; a tolerance of exactly 1 sits on the boundary.
    pytest.param({"base": [-6, 11, -6, 1], "segments": ["half_twist(1)"], "tolerance": 1.5}, id="gap-below-tolerance"),
])
def test_a_base_gap_within_the_tolerance_is_a_domain_error(capsys, spec):
    code, out, err = run(capsys, "monodromy", "--spec", json.dumps(spec))
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "domain",
                               "message": "base polynomial is not resolvably squarefree at this tolerance"}


def test_a_final_root_off_every_base_root_is_a_consistency_error(capsys, monkeypatch):
    def half_gap_off(coeffs_at, moving, current, *rest):
        # Root 1 ends straight above its base root, at most one grid unit past
        # half the least base gap.
        half = math.isqrt(monodromy._gap_sq(current, range(len(current)))) // 2 + 1
        return [(current[0][0], current[0][1] + half)] + current[1:]

    monkeypatch.setattr(monodromy, "_track_segment", half_gap_off)
    code, out, err = run(capsys, "monodromy", "--spec", '{"base": [-6, 11, -6, 1], "segments": ["half_twist(2)"]}')
    assert (code, out) == (2, "")
    payload = json.loads(err)
    assert payload["error"] == "consistency"
    assert "root tracked from base root 1 ends no nearer than half the least base root gap" in payload["message"]


def _spec(**fields):
    return ["monodromy", "--spec",
            json.dumps({"base": [-1, 0, 1], "segments": ["half_twist(1)"], **fields})]


# The cases whose message is pinned as well as its kind.
_MALFORMED_MESSAGES = {
    ("vdm", "[[1,2,3]]", "2"): "bad node [1, 2, 3]: a pair node is [alpha, beta]",
}


@pytest.mark.parametrize("argv", [
    pytest.param(_spec(base=5), id="spec-base-number"),
    pytest.param(_spec(base=["abc", 0, 1]), id="spec-base-text"),
    pytest.param(_spec(base=[None, 0, 1]), id="spec-base-null"),
    pytest.param(_spec(segments=7), id="spec-segments-number"),
    pytest.param(_spec(tolerance="x"), id="spec-tolerance-text"),
    pytest.param(_spec(tolerance=None), id="spec-tolerance-null"),
    pytest.param(_spec(tolerance=float("nan")), id="spec-tolerance-nan"),
    pytest.param(_spec(tolerance=float("inf")), id="spec-tolerance-inf"),
    pytest.param(_spec(tolerance=10**400), id="spec-tolerance-huge"),
    pytest.param(_spec(base=[10**400, 0, 1]), id="spec-base-huge"),
    pytest.param(["monodromy", "--spec", "{tmp}/five.json"], id="spec-file-not-an-object"),
    pytest.param(_spec(segments=[{"type": "half_twist", "i": 1}]), id="spec-dict-segment"),
    pytest.param(_spec(segments=["circle(0, 1e400)"]), id="spec-circle-huge-radius"),
    pytest.param(_spec(base=[True, 0, 1]), id="spec-base-bool"),
    pytest.param(_spec(base=[[1, False], 0, 1]), id="spec-base-bool-in-pair"),
    pytest.param(_spec(tolerance=True), id="spec-tolerance-bool"),
    pytest.param(["vdm", '["abc"]', "2"], id="vdm-text"),
    pytest.param(["vdm", "[null]", "2"], id="vdm-null"),
    pytest.param(["vdm", "[[1,2,3]]", "2"], id="vdm-triple"),
    pytest.param(["vdm", '[{"a":1}]', "2"], id="vdm-object"),
    pytest.param(["vdm", "[1e400]", "2"], id="vdm-overflow"),
    pytest.param(["vdm", "[NaN]", "2"], id="vdm-nan"),
    pytest.param(["vdm", '["1/0"]', "2"], id="vdm-zero-denominator"),
    pytest.param(["vdm", "[true]", "2"], id="vdm-bool"),
    pytest.param(["vdm", "[[true,1]]", "2"], id="vdm-bool-in-pair"),
    pytest.param(["--output", "{tmp}/missing/x.json", "kron", "[2,1]", "[2,1]", "[3]"],
                 id="output-in-missing-directory"),
])
def test_malformed_literals_are_domain_errors(capsys, tmp_path, argv):
    (tmp_path / "five.json").write_text("5")
    code, out, err = run(capsys, *(a.replace("{tmp}", str(tmp_path)) for a in argv))
    assert (code, out) == (1, "")
    payload = json.loads(err)
    assert payload["error"] == "domain"
    assert payload["message"] == _MALFORMED_MESSAGES.get(tuple(argv), payload["message"])
    assert [f.name for f in tmp_path.iterdir()] == ["five.json"]


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


# sha256 of stdout for each (command, n, --mode), fixed when the stream format
# was last changed on purpose.
_BRION_STREAMS = {
    ("brion-sweep", "7", "vanishing"): "a3effd31847d3b245738424d427d34ca7e98f59e3158b45416b9ae0f9799df40",
    ("brion-sweep", "7", "equality"): "3da969a8214a61772dfb4ccc75e25c926331c3737dd626c6674881dc723b8684",
    ("brion-sweep", "7", "both"): "aa5504eb3d460b470c48637d86bf9bb58e24dbbf2d6d35ed366bb474e785052d",
    ("brion-boundary", "8", "vanishing"): "49002e5be581d2abace77a60852184aa16a8f7c4dd172407f5ff0ab6c8235f7a",
    ("brion-boundary", "8", "equality"): "ac594b3079a13e40dcf19528b535948cf54c4f27c74683ca5405fb94e694ef4d",
    ("brion-boundary", "8", "both"): "2ba09c0489019a47a0a8640f781179cd20483341b8a1790b0dff39b9f9ccd9c4",
}


@pytest.mark.parametrize("key", _BRION_STREAMS, ids="-".join)
def test_brion_streams_are_byte_identical(capsys, key):
    command, n, mode = key
    code, out, err = run(capsys, command, n, "--mode", mode)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == _BRION_STREAMS[key]


def test_brion_boundary(capsys):
    code, out, err = run(capsys, "brion-boundary", "2")
    assert code == 0
    lines = out.splitlines()
    assert json.loads(lines[-1])["summary"]["no_sigma"] == 2


def _product(*factors) -> list[int]:
    """Coefficients of the product of the linear forms a x + b y."""
    coeffs = [1]
    for a, b in factors:
        coeffs = [a * x + b * y for x, y in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


_RANK_15_POINTS = [(1, 0), (0, 1), (1, 1), (-1, 1), (2, 1), (-2, 1), (1, 2), (-1, 2),
                   (3, 1), (-3, 1), (1, 3), (-1, 3), (3, 2), (-3, 2), (2, 3)]
_FORMS_ARGV = {
    "sylvester-rank-15-deg-40": ["sylvester", _form_text(oracle_power_sum_coeffs(
        40, _RANK_15_POINTS, [(-1) ** i * (1 + i % 4) for i in range(15)]))],
    "sylvester-generic-deg-30": ["sylvester", _form_text([(7 * j) % 19 - 9 for j in range(31)])],
    "sylvester-nonsquarefree": ["sylvester", _form_text(_product(*[(1, 2)] * 9, (1, -1), (1, -1)))],
    "join": ["join", "deg=6; coeffs=1,0,0,0,0,0,1", "deg=6; coeffs=1,2,-3,4,5/2,6,7"],
    "secant": ["secant", "deg=7; coeffs=1,1/2,0,3,-2,5/3,0,1", "5"],
    "vdm": ["vdm", '[0, "1/2", "inf", -3, "7/5"]', "4"],
}
# sha256 of stdout for each command above, fixed when the forms output was
# last changed on purpose.
_FORMS_STDOUT = {
    "sylvester-rank-15-deg-40": "a58418672fa98e780a9a18cddd0ea6bf3a4129f32992d64599ee3406d7972ad5",
    "sylvester-generic-deg-30": "d63ddf7e0ca3aafe3d05c1eb49729772fba843280ae113fc9be94c2a745800a1",
    "sylvester-nonsquarefree": "606cd1de779f969aab3f864974830a8efe4acf57d8e5e2ae4b56aa1538b66058",
    "join": "827b7f0b0c904a769fa97a22d8b97dd0aabedac2d119f413c85c7606b29f543f",
    "secant": "fe6a190f52b7010d022074cea291f7a2649a58e561ed03d015fa000d3c5754c5",
    "vdm": "4e2b6bc2cf9efee3d4ac0dc1fa9597840e77ceae8bf21bd52531d0a428feff59",
}


@pytest.mark.parametrize("key", _FORMS_ARGV)
def test_forms_outputs_are_byte_identical(capsys, key):
    code, out, err = run(capsys, *_FORMS_ARGV[key])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == _FORMS_STDOUT[key]


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
    # [2,1] has dimension 2 at n = 3, so a word weighs 6.
    pytest.param(["rep-check", "[2,1]", "--words", str(WORD_WORK_CAP // 6 + 1)], id="words-over-cap"),
    pytest.param(["rep-check", "[3,2,1]", "--words", "100000"], id="words-dim-16"),
    pytest.param(["rep-check", "[7,3,2]", "--words", "100000"], id="words-dim-1925"),
    # At n = 4 a letter weighs 4 * 11 and a sampled word has up to 7 letters.
    pytest.param(["monodromy", "--defining", "--n", "4", "--samples", str(LOOP_WORK_CAP // (4 * 11 * 7) + 1)],
                 id="samples-over-cap"),
    # Past 96 bits the work bound charges bits // 96: 42 at 4096 bits, 10 at 1024.
    pytest.param(["--precision-bits", "4096", "monodromy", "--spherical", "--n", "8"], id="spherical-n8-4096-bits"),
    pytest.param(["--precision-bits", "1024", "monodromy", "--word", ",".join(["1"] * 11), "--n", "14"],
                 id="word-11-letters-n14-1024-bits"),
])
def test_cap_exceeded_is_a_capacity_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    payload = json.loads(err)
    assert payload["error"] == "capacity"
    assert "exceeds the configured bound" in payload["message"]


def _letters(count):
    return ",".join(["1"] * count)


def _half_twists(count):
    return json.dumps({"base": [-1, 0, 1], "segments": ["half_twist(1)"] * count})


def _circles(count):
    """count circles of the constant coefficient 14! of the polynomial with roots 1..14."""
    return json.dumps({"base": monodromy.base_with_integer_roots(14),
                       "segments": ["circle(0, 87178291200)"] * count})


# At n = 2 one letter weighs 2 * (2 + 7) = 18 against LOOP_WORK_CAP.
_AT_WORK_CAP = LOOP_WORK_CAP // 18
# At n = 14 a circle counts as 14 letters of 14 * 21 each.
_CIRCLES_AT_WORK_CAP = LOOP_WORK_CAP // (14 * 14 * 21)


@pytest.mark.parametrize("argv", [
    pytest.param(["monodromy", "--word", _letters(_AT_WORK_CAP + 1), "--n", "2"], id="word"),
    pytest.param(["monodromy", "--spec", _half_twists(_AT_WORK_CAP + 1)], id="spec"),
    pytest.param(["monodromy", "--spec", _circles(_CIRCLES_AT_WORK_CAP + 1)], id="spec-circles"),
    pytest.param(["monodromy", "--defining", "--n", "14", "--samples", "4"], id="defining-n14"),
    pytest.param(["monodromy", "--defining", "--n", "2", "--samples", str(_AT_WORK_CAP)], id="defining-n2"),
])
def test_monodromy_work_bound_is_checked_before_any_tracking(capsys, monkeypatch, tmp_path, argv):
    def no_tracking(*args, **kwargs):
        raise AssertionError("a loop was tracked")

    monkeypatch.setattr(monodromy, "track_roots", no_tracking)
    target = tmp_path / "loop.json"
    code, out, err = run(capsys, "--output", str(target), *argv)
    assert (code, out) == (1, "")
    payload = json.loads(err)
    assert payload["error"] == "capacity"
    assert payload["message"].endswith(f"exceeds the configured bound {LOOP_WORK_CAP}")
    assert not target.exists()


@pytest.mark.parametrize("argv", [
    pytest.param(["monodromy", "--word", _letters(_AT_WORK_CAP), "--n", "2"], id="word"),
    pytest.param(["monodromy", "--spec", _half_twists(_AT_WORK_CAP)], id="spec"),
    pytest.param(["monodromy", "--spec", _circles(_CIRCLES_AT_WORK_CAP)], id="spec-circles"),
    pytest.param(["monodromy", "--defining", "--n", "14"], id="defining-n14-default-samples"),
    pytest.param(["monodromy", "--spherical", "--n", "14"], id="spherical-n14"),
    # 10 * 14 * 21 * (1024 // 96) = 29,400.
    pytest.param(["--precision-bits", "1024", "monodromy", "--word", _letters(10), "--n", "14"],
                 id="word-10-letters-n14-1024-bits"),
])
def test_monodromy_work_bound_admits_up_to_the_bound(capsys, monkeypatch, argv):
    def stop(*args, **kwargs):
        raise DomainError("tracking reached")

    monkeypatch.setattr(monodromy, "track_roots", stop)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "domain", "message": "tracking reached"}


def test_rep_check_caps_the_size_before_the_dimension(capsys, monkeypatch):
    def no_dimension(lam):
        raise AssertionError(f"dimension of over-cap shape {lam} computed")

    monkeypatch.setattr(cli, "dimension", no_dimension)
    code, out, err = run(capsys, "rep-check", "[100000]")
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "capacity",
                               "message": "shape [100000] of size 100000 exceeds the configured bound 14"}


def test_default_words_fit_the_word_work_bound_at_every_admitted_shape(capsys, monkeypatch):
    def stop(lam):
        raise DomainError("build reached")

    monkeypatch.setattr(seminormal, "build_rep", stop)
    admitted = [lam for n in range(1, DEFAULT_N_CAP + 1) for lam in partitions_of(n)
                if dimension(lam) <= DEFAULT_DIM_CAP]
    assert (8, 1, 1, 1, 1, 1, 1) in admitted  # dimension 1716 at n = 14, the most word work
    for lam in admitted:
        code, out, err = run(capsys, "rep-check", format_partition(lam))
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "domain", "message": "build reached"}


@pytest.mark.parametrize("argv", [
    ["rep-check", "[2,1]", "--words", "-2"],
    ["monodromy", "--defining", "--n", "3", "--samples", "-3"],
], ids=["words", "samples"])
def test_negative_sample_count_is_a_domain_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    payload = json.loads(err)
    assert payload["error"] == "domain"
    assert "must be nonnegative" in payload["message"]


@pytest.mark.parametrize("command", ["brion-sweep", "brion-boundary"])
def test_negative_brion_size_is_a_domain_error(capsys, tmp_path, command):
    target = tmp_path / "records.jsonl"
    code, out, err = run(capsys, "--output", str(target), command, "-1")
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "domain", "message": "brion size n must be nonnegative, got -1"}
    assert not target.exists()
    code, out, err = run(capsys, command, "0")
    assert (code, err) == (0, "")
    assert json.loads(out)["summary"]["records"] == 0


def test_precision_bits_are_bounded_above(capsys, tmp_path):
    target = tmp_path / "rank.json"
    code, out, err = run(capsys, "--output", str(target), "--precision-bits", "4097", "vdm", "[0]", "1")
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "domain"
    assert not target.exists()
    assert run_json(capsys, "--precision-bits", "4096", "vdm", "[0]", "1") == {"rank": 1}


def test_unconverged_base_roots_are_a_precision_error(capsys, monkeypatch):
    def no_convergence(*args, **kwargs):
        raise mpmath.libmp.NoConvergence("Didn't converge in maxsteps=200 steps.")

    monkeypatch.setattr(mpmath, "polyroots", no_convergence)
    code, out, err = run(capsys, "monodromy", "--spec", '{"base": [-1, 0, 1], "segments": ["half_twist(1)"]}')
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "precision"


def _huge_support_form() -> str:
    """Rank 8, degree 20, support (2^150 + 7j : 3 + j) with weights j + 1.

    Its annihilator's monic coefficients overflow a float, and Durand-Kerner
    in mpmath.polyroots does not converge on its 150-bit roots.
    """
    points = [(2**150 + 7 * j, 3 + j) for j in range(8)]
    return _form_text(oracle_power_sum_coeffs(20, points, [j + 1 for j in range(8)]))


def test_a_huge_rational_support_is_exact(capsys):
    # Seeds found in a scaled variable t = 2^s u, refined and matched, give
    # every root exactly.
    payload = run_json(capsys, "sylvester", _huge_support_form())
    assert payload["support_exact"] is True
    support = [(int(pt["alpha"]), int(pt["beta"])) for pt in payload["support"]]
    assert dict(zip(support, map(int, payload["coefficients"]))) == {
        (2**150 + 7 * j, 3 + j): j + 1 for j in range(8)}


def test_unconverged_support_roots_are_a_precision_error(capsys, monkeypatch):
    def no_convergence(*args, **kwargs):
        raise mpmath.libmp.NoConvergence("Didn't converge in maxsteps=220 steps.")

    # an irrational support with no float seeds goes to polyroots
    monkeypatch.setattr(intpoly, "aberth_seeds", lambda ints: None)
    monkeypatch.setattr(mpmath, "polyroots", no_convergence)
    code, out, err = run(capsys, "sylvester", "deg=3; coeffs=1,1,0,1")
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "precision"


def test_rational_supports_never_isolate_roots(capsys, monkeypatch):
    def no_isolation(*args, **kwargs):
        raise AssertionError("a support that splits over Q was isolated")

    monkeypatch.setattr(mpmath, "polyroots", no_isolation)
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randrange(5, 21)
        k = rng.randrange(1, (n + 1) // 2 + 1)
        sample = apolarity.sample_rank_k_instance(n, k, seed=rng.randrange(2**32))
        payload = run_json(capsys, "sylvester", apolarity.format_form(sample.form))
        assert payload["support_exact"] is True
        assert {(int(pt["alpha"]), int(pt["beta"])) for pt in payload["support"]} == set(sample.points)


def test_irrational_supports_are_certified_from_float_seeds(capsys, monkeypatch):
    # Generic forms of degree 2 to 32 have supports that do not split over Q;
    # the refined float seeds certify them with no mpmath.polyroots. Each
    # printed certificate rebuilds its form within error_bound, and a disc
    # that could hold a real root prints an imaginary part of exactly 0.
    def no_isolation(*args, **kwargs):
        raise AssertionError("a support was isolated by mpmath.polyroots")

    monkeypatch.setattr(mpmath, "polyroots", no_isolation)
    rng = random.Random(27)
    approximate = on_axis = 0
    for n in range(2, 33):
        text = _form_text([rng.randint(-9, 9) for _ in range(n)] + [rng.randint(1, 9)])
        payload = run_json(capsys, "sylvester", text)
        if payload["support"] is None or payload["support_exact"]:
            continue
        approximate += 1
        form = parse_form(text)
        with mpmath.workprec(256):
            points = [(_printed(pt["alpha"]), _printed(pt["beta"])) for pt in payload["support"]]
            coeffs = [_printed(c) for c in payload["coefficients"]]
            for j, target in enumerate(form.coeffs):
                rebuilt = sum(c * mpmath.binomial(n, j) * alpha ** (n - j) * beta**j
                              for (alpha, beta), c in zip(points, coeffs))
                assert abs(rebuilt - _exact(target)) <= 2 * payload["error_bound"], text
            for (alpha, _), pt in zip(points, payload["support"]):
                if not pt["exact"] and abs(alpha.imag) <= _exact(Fraction(pt["radius"])):
                    assert alpha.imag == 0, text
                    on_axis += 1
    assert approximate >= 25 and on_axis >= 25


@pytest.mark.parametrize("argv", [
    ["--word", "1,2", "--n", "4"],
    ["--spherical", "--n", "4"],
    ["--defining", "--n", "4"],
], ids=["word", "spherical", "defining"])
def test_generator_loops_never_isolate_roots(capsys, monkeypatch, argv):
    def no_isolation(*args, **kwargs):
        raise AssertionError("the base roots 1..n were isolated")

    monkeypatch.setattr(mpmath, "polyroots", no_isolation)
    code, out, err = run(capsys, "monodromy", *argv)
    assert (code, err) == (0, "")
    assert json.loads(out)


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


@pytest.mark.parametrize("error, kind, exit_code", [
    (DomainError, "domain", 1),
    (CapacityError, "capacity", 1),
    (PrecisionError, "precision", 1),
    (ConsistencyError, "consistency", 2),
    (KronsecError, "error", 1),
], ids=lambda v: v.__name__ if isinstance(v, type) else None)
def test_each_error_class_names_its_kind_and_exit_code(capsys, monkeypatch, error, kind, exit_code):
    def raising(args, cfg):
        raise error("stubbed")

    monkeypatch.setitem(cli._COMMANDS, "kron", raising)
    code, out, err = run(capsys, "kron", "[2,1]", "[2,1]", "[3]")
    assert (code, out) == (exit_code, "")
    assert json.loads(err) == {"error": kind, "message": "stubbed"}


def test_every_subcommand_has_one_handler_taking_args_and_cfg():
    subparsers = next(a for a in cli._build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert set(subparsers.choices) == set(cli._COMMANDS)
    for name, handler in cli._COMMANDS.items():
        assert list(inspect.signature(handler).parameters) == ["args", "cfg"], name


def test_unexpected_exception_is_a_json_internal_error(capsys, monkeypatch):
    def boom(args, cfg):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._COMMANDS, "kron", boom)
    code, out, err = run(capsys, "kron", "[2,1]", "[2,1]", "[3]")
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"error": "internal", "message": "RuntimeError: boom"}


def test_base_exceptions_still_propagate(capsys, monkeypatch):
    def interrupted(args, cfg):
        raise KeyboardInterrupt

    monkeypatch.setitem(cli._COMMANDS, "kron", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["kron", "[2,1]", "[2,1]", "[3]"])


def test_human_flag_pretty_prints(capsys):
    code, out, err = run(capsys, "--human", "kron", "[2,1]", "[2,1]", "[3]")
    assert code == 0
    assert out == '{\n  "kron": 1\n}\n'


def test_the_parser_is_built_once_per_process(capsys, monkeypatch):
    real, builds = cli._build_parser, []

    def counting():
        builds.append(1)
        return real()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "_build_parser", counting)
    for argv in (["kron", "[2,1]", "[2,1]", "[3]"], ["vdm", "[0, 1, 2]", "3"], ["kron", "[2,1]"], ["chartable", "3"]):
        run(capsys, *argv)
    assert len(builds) == 1


@pytest.mark.parametrize("first, second, dest, expected", [
    (["--seed", "5", "kron", "[2,1]", "[2,1]", "[3]"], ["kron", "[2,1]", "[2,1]", "[3]"], "seed", None),
    (["pieri", "[2,1]", "2", "--distinguished"], ["pieri", "[2,1]", "2"], "distinguished", False),
    (["rep-check", "[2,1]", "--words", "2"], ["rep-check", "[2,1]"], "words", 5),
], ids=["seed", "distinguished", "words"])
def test_parses_in_one_process_are_independent(capsys, monkeypatch, first, second, dest, expected):
    seen = []
    monkeypatch.setitem(cli._COMMANDS, second[0], lambda args, cfg: seen.append(getattr(args, dest)))
    assert run(capsys, *first)[0] == 0
    assert run(capsys, *second)[0] == 0
    assert seen[0] != expected and seen[1] == expected


def _help_texts(parser) -> dict[str, str]:
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {"": parser.format_help(), **{name: p.format_help() for name, p in subparsers.choices.items()}}


def test_the_shared_parser_helps_like_a_fresh_one(capsys):
    run(capsys, "--seed", "3", "pieri", "[2,1]", "2", "--distinguished")
    run(capsys, "kron", "[2,1]")
    assert _help_texts(cli._the_parser()) == _help_texts(cli._build_parser())


@pytest.mark.parametrize("argv", [["kron", "[2,1]"], ["no-such-command"], ["rep-check", "[2,1]", "--words", "x"]])
def test_a_usage_error_repeats_word_for_word(capsys, argv):
    first = run(capsys, *argv)
    assert first == run(capsys, *argv)
    assert first[:2] == (1, "")
    assert json.loads(first[2])["error"] == "usage"

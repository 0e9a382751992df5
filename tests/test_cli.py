import argparse
import hashlib
import inspect
import json
import math
import os
import random
import re
import signal
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import dropwhile

import mpmath
import pytest
from conftest import Overtime, corrupted, oracle_power_sum_coeffs, spread_half_twist, within_seconds

from kronsec import apolarity, brionlab, cli, intpoly, monodromy, ratmat, seminormal
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
from kronsec.permutations import class_word


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
    # roots +-2^110 sqrt 2: the least-squares solve lost the 2^110 spread
    # within each column and ended in "singular coefficient solve"
    _form_text(_power_sums(3, 0, 2**221)),
])
def test_sylvester_approximate_support_rebuilds_the_form(capsys, text):
    # Rebuilt from the printed digits, so stdout carries enough of them to
    # meet the certificate's own error_bound, and each printed disc holds a
    # root of the printed annihilator.
    payload = run_json(capsys, "sylvester", text)
    assert payload["support_exact"] is False
    assert payload["rank"] == len(payload["support"]) == len(payload["coefficients"])
    _assert_rebuilds_within_bound(payload, parse_form(text).coeffs)
    annihilator = parse_form(payload["annihilator"]).coeffs
    with mpmath.workprec(1024):
        # U(t) = a(t, 1) with its leading zeros, the roots at (1 : 0), dropped
        roots = mpmath.polyroots([_exact(c) for c in dropwhile(lambda c: not c, annihilator)],
                                 maxsteps=400, extraprec=1024)
        for z, radius, exact in _printed_discs(payload):
            if not exact:
                assert min(abs(_exact(z[0]) + 1j * _exact(z[1]) - r) for r in roots) <= _exact(radius)


def _exact(x: Fraction):
    return mpmath.mpf(x.numerator) / x.denominator


def _printed(text: str) -> tuple[Fraction, Fraction]:
    """A printed exact or approximate value, read exactly as a Gaussian rational (re, im)."""
    parts = re.fullmatch(r"\((\S+) ([+-]) (\S+)j\)", text)
    if parts:
        re_part, sign, im_part = parts.groups()
        return Fraction(re_part), Fraction(sign + im_part)
    return Fraction(text), Fraction(0)


def _times(z, w):
    return z[0] * w[0] - z[1] * w[1], z[0] * w[1] + z[1] * w[0]


def _printed_discs(payload) -> list:
    """(alpha / beta, radius, exact) of each printed finite support point, read exactly; an exact point has radius 0."""
    discs = []
    for pt in payload["support"]:
        (a, b), (beta, _) = _printed(pt["alpha"]), _printed(pt["beta"])
        if beta:
            discs.append(((a / beta, b / beta), Fraction(pt["radius"] or 0), pt["exact"]))
    return discs


def _assert_rebuilds_within_bound(payload, coeffs) -> None:
    """The printed support and weights, read exactly, rebuild every coefficient within the printed error_bound."""
    n, bound = len(coeffs) - 1, Fraction(payload["error_bound"])
    rebuilt = [(Fraction(0), Fraction(0))] * (n + 1)
    for pt, c in zip(payload["support"], payload["coefficients"]):
        alpha, beta = _printed(pt["alpha"]), _printed(pt["beta"])
        left = [_printed(c)]  # c alpha^m
        for _ in range(n):
            left.append(_times(left[-1], alpha))
        right = (Fraction(1), Fraction(0))  # beta^j
        for j in range(n + 1):
            x, y = _times(left[n - j], right)
            rebuilt[j] = (rebuilt[j][0] + math.comb(n, j) * x, rebuilt[j][1] + math.comb(n, j) * y)
            right = _times(right, beta)
    for j, ((x, y), target) in enumerate(zip(rebuilt, coeffs)):
        assert (x - target) ** 2 + y * y <= bound * bound, (j, payload["form"])


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
    discs = _printed_discs(payload)
    for i, (z1, r1, _) in enumerate(discs):
        for z2, r2, _ in discs[i + 1:]:
            assert (z1[0] - z2[0]) ** 2 + (z1[1] - z2[1]) ** 2 > (r1 + r2) ** 2
    _assert_rebuilds_within_bound(payload, parse_form(text).coeffs)


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
    "word": "d392ecc4c5d64121f91fb090513632375bf3ed43016061474d95ad8f31240e62",
    "spherical": "fbec72de08de59aa903d8d183314c5bb36335b0e34513a0fe2622250b4dfd213",
    "defining": "8c80c35592f5b58e761d66fdccc3daf893e14f66c229c3586f60341dddf12138",
    "spec-circle": "69a5a0d28a3e3223d26eeba512a68c9d0d826542923ce8af325dcfb946cce748",
    "spec-settings": "a1ff816f5ab14f98d49f9b3e3f1046ecf4331d6e350f97a511670294793ee574",
}


@pytest.mark.parametrize("key", _MONODROMY_ARGV)
def test_monodromy_outputs_are_byte_identical(capsys, key):
    code, out, err = run(capsys, *_MONODROMY_ARGV[key])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == _MONODROMY_STDOUT[key]


def test_a_circle_off_its_coefficient_is_refused_before_isolation(capsys, monkeypatch):
    def no_isolation(*args, **kwargs):
        raise AssertionError("base roots were isolated")

    monkeypatch.setattr(intpoly, "aberth_seeds", no_isolation)
    code, out, err = run(capsys, "monodromy", "--spec", '{"base": [1, 0, 1], "segments": ["circle(0, 2.0)"]}')
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "domain"


@pytest.mark.parametrize("e", [4, 7])
def test_a_tight_still_pair_does_not_slow_a_half_twist(capsys, e):
    # z (10^e z - 1)(z - 5)(z - 6): half_twist(3) moves 5 and 6 while the
    # still roots 0 and 10^-e sit 10^-e apart, so on the continued route the
    # step is that of a generator half-twist. The CLI takes the closed form.
    base = [0, -30, 30 * 10**e + 11, -(11 * 10**e + 1), 10**e]
    with within_seconds(5):
        payload = run_json(capsys, "monodromy", "--spec", json.dumps({"base": base, "segments": ["half_twist(3)"]}))
        loop = monodromy.track_roots(base, [monodromy.HalfTwist(3)], continued=True)
    assert (payload["permutation"], payload["steps"], payload["halvings"]) == ("(3 4)", 0, 0)
    assert (loop.permutation, loop.refinement.steps, loop.refinement.halvings) == ((0, 1, 3, 2), 32, 0)


def test_within_seconds_stops_a_cli_call_and_restores_the_alarm(capsys):
    previous = signal.getsignal(signal.SIGALRM)
    with pytest.raises(Overtime):
        with within_seconds(0.01):
            # Half-twists take no steps; a circle at 4096 bits takes 32 slow ones.
            main(["--precision-bits", "4096", "monodromy", "--spec",
                  '{"base": [-1, 0, 1], "segments": ["circle(0, 1.0)"]}'])
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
    # Not exact, but a base whose roots are isolated runs on the stdlib too.
    "spec-isolated": ["monodromy", "--spec", '{"base": [1, 0, 1], "segments": ["half_twist(1)"]}'],
}
# The control: an irrational Sylvester support.
_APPROXIMATE_COMMANDS = {
    "sylvester-approximate": ["sylvester", "deg=6; coeffs=-1,2,-1,3,2,3,2"],
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
    # On the continued route these run out of precision at 96 bits; the
    # CLI's closed form clears the path and answers at 96 bits as at 192.
    n, roots, i = spread_half_twist(seed)
    base = intpoly.from_roots(roots)
    with pytest.raises(PrecisionError, match="precision ran out at 96 bits$"):
        monodromy.track_roots(base, [monodromy.HalfTwist(i)], continued=True)
    spec = {"base": [[c.real, c.imag] for c in base], "segments": [f"half_twist({i})"]}
    argv = ["monodromy", "--spec", json.dumps(spec)]
    for bits in ("96", "192"):
        assert run_json(capsys, "--precision-bits", bits, *argv)["permutation"] == f"({i} {i + 1})"


def test_a_half_twist_pair_within_the_tolerance_of_itself_is_a_precision_error(capsys):
    # The roots 1 and 2 of z^2 - 3z + 2 are 1 apart, more than the tolerance
    # 0.5, but half_twist(1) brings them within 1/2 of each other.
    def spec(tolerance):
        return json.dumps({"base": [2, -3, 1], "segments": ["half_twist(1)"], "tolerance": tolerance})

    code, out, err = run(capsys, "monodromy", "--spec", spec(0.5))
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "precision", "message": "the path of segment 0 (half_twist(1)) comes within "
                                                                "the tolerance of a root; root collision suspected"}
    assert run_json(capsys, "monodromy", "--spec", spec(0.49))["permutation"] == "(1 2)"


@pytest.mark.parametrize("spec", [
    pytest.param({"base": [1, -2, 1], "segments": ["half_twist(1)"]}, id="double-root"),
    # Gaussian bases with a repeated root, proven so exactly over Z[i]:
    # (z - i)^2, z^2 (z - i), and (z - 1 - i)^2 (z - 2i)(z + 2).
    pytest.param({"base": [-1, [0, -2], 1], "segments": ["half_twist(1)"]}, id="gaussian-double-root"),
    pytest.param({"base": [0, 0, [0, -1], 1], "segments": ["half_twist(1)"]}, id="gaussian-double-root-zero"),
    pytest.param({"base": [8, [-4, 12], [-8, -2], [0, -4], 1], "segments": ["half_twist(1)"]},
                 id="gaussian-double-root-beside-two"),
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
    code, out, err = run(capsys, "monodromy", "--spec", '{"base": [-6, 11, -6, 1], "segments": ["circle(0, 6)"]}')
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


# Past Python's int-to-string limit of 4300 digits, int() and json.loads
# raise ValueError; JSON nested past the recursion limit raises RecursionError.
_DIGITS = "9" * 5000
_NESTED = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("argv", [
    pytest.param(["sylvester", f"deg={_DIGITS}; coeffs=1,0"], id="sylvester-degree"),
    pytest.param(["secant", f"deg={_DIGITS}; coeffs=1,0", "1"], id="secant-degree"),
    pytest.param(["join", f"deg={_DIGITS}; coeffs=1,0", "deg=1; coeffs=1,0"], id="join-degree"),
    pytest.param(["kron", f"[{_DIGITS}]", "[1]", "[1]"], id="kron-part"),
    pytest.param(["lr", "[1]", "[1]", f"[{_DIGITS}]"], id="lr-part"),
    pytest.param(["tensor", f"[{_DIGITS}]", "[1]"], id="tensor-part"),
    pytest.param(["pieri", f"[{_DIGITS}]", "1"], id="pieri-part"),
    pytest.param(["rep-check", f"[{_DIGITS}]"], id="rep-check-part"),
    pytest.param(["vdm", f"[{_DIGITS}]", "2"], id="vdm-node"),
    pytest.param(["vdm", _NESTED, "2"], id="vdm-nested"),
    pytest.param(["monodromy", "--spec", f'{{"base": [{_DIGITS}, 0, 1], "segments": []}}'], id="spec-base"),
    pytest.param(["monodromy", "--spec", f'{{"base": [-1, 0, 1], "segments": [], "tolerance": {_DIGITS}}}'],
                 id="spec-tolerance"),
    pytest.param(["monodromy", "--spec", f'{{"base": {_NESTED}}}'], id="spec-nested"),
])
def test_oversized_literals_are_domain_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "domain"


# An error message quotes the argument it rejects, and a long argument must
# not make a stderr line of its own size: past cli.ERROR_MESSAGE_LIMIT
# characters the message keeps its head and its tail, with the cut counted.
_LETTERED = "x" + _DIGITS
_LONG_PATH = "/".join(["a" * 200] * 25)


@pytest.mark.parametrize("argv, kind, head, tail", [
    pytest.param(["sylvester", f"deg=1; coeffs=1,{_DIGITS}"], "domain",
                 "bad coefficient list in 'deg=1; coeffs=1,999", "to increase the limit", id="sylvester-digits"),
    pytest.param(["sylvester", f"deg=1; coeffs=1,{_LETTERED}"], "domain",
                 "bad coefficient list in 'deg=1; coeffs=1,x999", "999'", id="sylvester-letter"),
    pytest.param(["vdm", json.dumps([[_LETTERED, 1]]), "2"], "domain", "bad node ['x999", "999'", id="vdm-node"),
    pytest.param(["monodromy", "--spec", json.dumps({"base": [-1, 0, 1], "segments": [f"half_twist({_DIGITS})"]})],
                 "domain", "bad segment argument in 'half_twist(999", "to increase the limit", id="spec-half-twist"),
    pytest.param(["monodromy", "--spec", json.dumps({"base": [_LETTERED, 0, 1], "segments": []})],
                 "domain", "bad complex coefficient 'x999", "999'", id="spec-base"),
    pytest.param(["monodromy", "--spec", json.dumps({"base": [-1, 0, 1], "segments": [], "tolerance": _LETTERED})],
                 "domain", "tolerance must be a number, got 'x999", "999'", id="spec-tolerance"),
    pytest.param(["monodromy", "--word", _LETTERED, "--n", "3"], "domain",
                 "word must be comma-separated integers, got 'x999", "999'", id="word"),
    pytest.param(["kron", f"[{_LETTERED}]", "[1]", "[1]"], "domain",
                 "not a partition literal: '[x999", "999]' (expected e.g. [5,1] or [])", id="kron-part"),
    pytest.param(["--config", "{tmp}/digits.cfg", "chartable", "3"], "domain",
                 "config key n_cap needs an integer, got '999", "999'", id="config-line"),
    pytest.param(["--config", f"{{tmp}}/{_LONG_PATH}", "chartable", "3"], "domain",
                 "cannot read config file {tmp}/aaa", "aaa'", id="config-path"),
    pytest.param(["--output", f"{{tmp}}/{_LONG_PATH}", "chartable", "3"], "domain",
                 "cannot open output {tmp}/aaa", "aaa'", id="output-path"),
    pytest.param(["monodromy", "--spec", f"{{tmp}}/{_LONG_PATH}"], "domain",
                 "cannot read loop spec {tmp}/aaa", "aaa'", id="spec-path"),
    pytest.param(["chartable", _LETTERED], "usage", "argument n: invalid int value: 'x999", "999'",
                 id="usage-int"),
    pytest.param([_LETTERED], "usage", "argument command: invalid choice: 'x999", "'brion-boundary')",
                 id="usage-command"),
    pytest.param(["brion-sweep", "3", "--mode", _LETTERED], "usage", "argument --mode: invalid choice: 'x999",
                 "999' (choose from 'vanishing', 'equality', 'both')", id="usage-mode"),
])
def test_an_oversized_argument_makes_a_bounded_error_line(capsys, tmp_path, argv, kind, head, tail):
    (tmp_path / "digits.cfg").write_text(f"n_cap={_DIGITS}\n")
    code, out, err = run(capsys, *(a.replace("{tmp}", str(tmp_path)) for a in argv))
    assert (code, out) == (1, "")
    assert err.endswith("\n") and err.count("\n") == 1 and len(err) < cli.ERROR_MESSAGE_LIMIT + 100
    payload = json.loads(err)
    assert payload["error"] == kind
    message = payload["message"]
    assert message.startswith(head.replace("{tmp}", str(tmp_path))) and message.endswith(tail)
    cut = re.fullmatch(r".{500} \.\.\. \[(\d+) of (\d+) characters cut\] \.\.\. .{500}", message)
    assert cut and int(cut[1]) + cli.ERROR_MESSAGE_LIMIT == int(cut[2]) > 5000


def test_a_message_at_the_limit_is_written_whole(capsys):
    def message(literal):
        return f"not a partition literal: {literal!r} (expected e.g. [5,1] or [])"

    literal = "[" + "x" * (cli.ERROR_MESSAGE_LIMIT - len(message("[]"))) + "]"
    assert len(message(literal)) == cli.ERROR_MESSAGE_LIMIT
    code, out, err = run(capsys, "kron", literal, "[1]", "[1]")
    assert (code, out, json.loads(err)) == (1, "", {"error": "domain", "message": message(literal)})
    longer = message(literal[:-1] + "x]")
    code, out, err = run(capsys, "kron", literal[:-1] + "x]", "[1]", "[1]")
    assert json.loads(err)["message"] == longer[:500] + " ... [1 of 1001 characters cut] ... " + longer[-500:]


def test_monodromy_needs_exactly_one_mode(capsys):
    code, out, err = run(capsys, "monodromy", "--n", "4")
    assert code == 1
    assert json.loads(err)["error"] == "domain"


def test_an_empty_word_has_no_letters(capsys):
    code, out, err = run(capsys, "monodromy", "--word", "", "--n", "3")
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "domain", "message": "word_loop needs at least one letter"}


@pytest.mark.parametrize("word", ["1,,2", "1,2,", ",1", "1, ,2"])
def test_an_empty_word_letter_is_a_domain_error(capsys, word):
    # Empty letters were dropped: "1,,2" and "1,2," answered as "1,2" did.
    code, out, err = run(capsys, "monodromy", "--word", word, "--n", "3")
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "domain", "message": f"word must be comma-separated integers, got {word!r}"}


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
    # The sizes the benchmark runs.
    ("brion-sweep", "10", "vanishing"): "9eef7ce73f3fb457d93b5af50b120ce554e50342fd853c7e915895898bb8fa37",
    ("brion-sweep", "10", "equality"): "0b7307375c5088b1548801b2b98e37381031ca637558318647edef2c80aae730",
    ("brion-sweep", "10", "both"): "c04d13f1ae3cb6a431d462afde92d4580c453c887125620032c3e87b0bfcd0e8",
    ("brion-boundary", "10", "vanishing"): "f25dd420338cb5cb93c0e648da9ef6a9620059d3f6fcf747217163d080a3c7bf",
    ("brion-boundary", "10", "equality"): "54f2a6c9fb1983fc26fdeca5aa4e07e4068f22ffac54fd0867b039bcab4a0c2e",
    ("brion-boundary", "10", "both"): "2ce3554482e41cf2c0a1ba61c41d3bd499ecff8dbf371076a5d2ed439035afe0",
}
# The same for --human, which writes through BrionRecord.to_json.
_BRION_HUMAN_STREAMS = {
    ("brion-sweep", "7"): "68f59d36573317e774c973d570ad07430a1577632204e1313193a204ecf68a36",
}


@pytest.mark.parametrize("key", _BRION_STREAMS, ids="-".join)
def test_brion_streams_are_byte_identical(capsys, key):
    command, n, mode = key
    code, out, err = run(capsys, command, n, "--mode", mode)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == _BRION_STREAMS[key]


@pytest.mark.parametrize("key", _BRION_HUMAN_STREAMS, ids="-".join)
def test_human_brion_streams_are_byte_identical(capsys, key):
    code, out, err = run(capsys, "--human", *key)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == _BRION_HUMAN_STREAMS[key]


def _brion_records():
    """Every record of sweep(8) and boundary_scan(0..9) in each mode, and a violation of each kind."""
    for mode in brionlab.MODES:
        yield from brionlab.sweep(8, mode)
        for n in range(10):
            yield from brionlab.boundary_scan(n, mode)
    # No stream in range has a violation; the template writes any verdict.
    for record in (*brionlab.verify_vanishing(6, (1,), (1,))[:1], *brionlab.verify_equality(6, (1,), (1,))):
        yield replace(record, verdict=brionlab.VIOLATION)


def test_the_record_template_is_compact_to_json():
    texts = cli._ShapeTexts()
    seen = set()
    for record in _brion_records():
        assert cli._record_line(record, texts) == json.dumps(record.to_json(), separators=(",", ":"))
        seen.add(record.verdict)
        seen.update(field for field in ("sigma", "Sigma", "kron", "lr") if getattr(record, field) is None)
        seen.update("empty" for shape in (record.lam, record.omega, record.sigma, record.Sigma) if shape == ())
    assert seen == {"sigma", "Sigma", "kron", "lr", "empty", brionlab.VANISHING_OK,
                    brionlab.EQUALITY_OK, brionlab.NO_SIGMA, brionlab.VIOLATION}


def test_an_output_file_holds_the_bytes_stdout_gets(capsys, tmp_path):
    target = tmp_path / "records.jsonl"
    code, out, err = run(capsys, "--output", str(target), "brion-boundary", "8")
    assert (code, out, err) == (0, "", "")
    code, out, err = run(capsys, "brion-boundary", "8")
    assert (code, err) == (0, "")
    assert target.read_bytes() == out.encode()


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
    "sylvester-generic-deg-30": "74c3eafbdea4dd0b91e91ffcda49329375a2ee3a1624ef99c50567f01ef1bf5f",
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


def test_a_word_at_the_work_bound_answers_within_a_second(capsys):
    # 1,666 half-twists at n = 2, the most the bound admits, in closed form;
    # the continued route took 1.2-3.0 s over them.
    with within_seconds(1):
        payload = run_json(capsys, "monodromy", "--word", _letters(_AT_WORK_CAP), "--n", "2")
    assert payload["permutation"] == ("(1 2)" if _AT_WORK_CAP % 2 else "()")


def test_rep_check_caps_the_size_before_the_dimension(capsys, monkeypatch):
    def no_dimension(lam):
        raise AssertionError(f"dimension of over-cap shape {lam} computed")

    monkeypatch.setattr(cli, "dimension", no_dimension)
    code, out, err = run(capsys, "rep-check", "[100000]")
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "capacity",
                               "message": "shape [100000] of size 100000 exceeds the configured bound 14"}


def _spy_word_trace(monkeypatch) -> list:
    words, trace = [], seminormal.word_trace

    def spy(rep, word):
        words.append(list(word))
        return trace(rep, word)

    monkeypatch.setattr(seminormal, "word_trace", spy)
    return words


def _sampled_words(seed: int, n: int, count: int) -> list:
    rng = random.Random(seed)
    return [[rng.randrange(1, n) for _ in range(rng.randrange(1, 2 * n))] for _ in range(count)]


def test_rep_check_traces_one_class_word_per_cycle_type(capsys, monkeypatch):
    traced = _spy_word_trace(monkeypatch)
    payload = run_json(capsys, "--seed", "5", "rep-check", "[3,2]", "--words", "12")
    assert payload["involution"] and payload["braid"] and payload["commutation"]
    assert payload["word_samples"] == 12 and payload["word_traces_ok"]
    types = dict.fromkeys(seminormal.word_cycle_type(seminormal.build_rep((3, 2)), w)
                          for w in _sampled_words(5, 5, 12))
    assert len(types) < 12
    assert traced == [list(class_word(mu)) for mu in types]


def _corrupt_build(monkeypatch, corrupt) -> None:
    """rep-check builds its representation as corrupt(rep) in place of rep."""
    build = seminormal.build_rep
    monkeypatch.setattr(seminormal, "build_rep", lambda lam: corrupt(build(lam)))


def _s1_as_s3(rep):
    # As in test_check_relations_flags_corrupted_generators: the involution and
    # braid relations still hold, but s_3 s_4 != s_4 s_3.
    return corrupted(rep, 1, *rep.arrays[2])


def _s2_swapped(rep):
    # Swapping 1/d and beta in one two-entry column of s_2 breaks s_2^2 = 1.
    a, o, b = rep.arrays[1]
    c = next(c for c in range(rep.dim) if o[c] != c)
    return corrupted(rep, 2, a={c: b[c]}, b={c: a[c]})


def test_rep_check_traces_the_literal_words_when_a_relation_fails(capsys, monkeypatch):
    # With s_1 replaced by s_3, rho need not factor through S_n, so every
    # sampled word is traced as drawn. (Corrupting a single entry leaves traces
    # that are no integers, an error.)
    _corrupt_build(monkeypatch, _s1_as_s3)
    traced = _spy_word_trace(monkeypatch)
    payload = run_json(capsys, "--seed", "5", "rep-check", "[3,2]", "--words", "12")
    assert (payload["involution"], payload["braid"], payload["commutation"]) == (True, True, False)
    assert payload["word_samples"] == 12 and not payload["word_traces_ok"]
    assert traced == _sampled_words(5, 5, 12)


def _spy_spherical_image(monkeypatch) -> list:
    shapes, image = [], seminormal.spherical_relation_image

    def spy(rep):
        shapes.append(rep.shape)
        return image(rep)

    monkeypatch.setattr(seminormal, "spherical_relation_image", spy)
    return shapes


def test_rep_check_reads_the_spherical_identity_off_the_involution(capsys, monkeypatch):
    multiplied = _spy_spherical_image(monkeypatch)
    for n in range(1, 7):
        for lam in partitions_of(n):
            payload = run_json(capsys, "rep-check", format_partition(lam))
            assert payload["involution"] and payload["spherical_identity"]
    assert multiplied == []


def test_rep_check_multiplies_the_spherical_word_out_when_the_involution_fails(capsys, monkeypatch):
    # --words 0: the traces of this build are no integers.
    _corrupt_build(monkeypatch, _s2_swapped)
    multiplied = _spy_spherical_image(monkeypatch)
    code, out, err = run(capsys, "rep-check", "[3,2]", "--words", "0")
    assert (code, err) == (0, "")
    assert '"involution":false' in out and '"spherical_identity":false' in out
    assert multiplied == [(3, 2)]


def test_rep_check_reads_the_spherical_identity_when_only_commutation_fails(capsys, monkeypatch):
    _corrupt_build(monkeypatch, _s1_as_s3)
    multiplied = _spy_spherical_image(monkeypatch)
    code, out, err = run(capsys, "--seed", "5", "rep-check", "[3,2]")
    assert (code, err) == (0, "")
    assert '"commutation":false' in out and '"spherical_identity":true' in out
    assert multiplied == []


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


def _strict_json(text: str):
    def no_constant(name):
        raise AssertionError(f"{name} is not JSON")

    return json.loads(text, parse_constant=no_constant)


def _far_point_form(scale: int) -> list[int]:
    """scale times the sum of (x + b y)^9 over b = 10^40, 2, -1 and (3x + y)^9: coefficients near scale * 10^360."""
    return [scale * sum(math.comb(9, j) * a ** (9 - j) * b**j for a, b in ((1, 10**40), (1, 2), (1, -1), (3, 1)))
            for j in range(10)]


def test_an_error_bound_past_the_double_range_prints_as_digits(capsys):
    # A bound past the largest double printed as Infinity, which JSON does
    # not have. This form's is near 1.9e309.
    coeffs = _far_point_form(10**6)
    code, out, err = run(capsys, "sylvester", _form_text(coeffs))
    assert (code, err) == (0, "")
    payload = _strict_json(out)
    assert isinstance(payload["error_bound"], str) and Fraction(payload["error_bound"]) > sys.float_info.max
    _assert_rebuilds_within_bound(payload, coeffs)


def test_exact_points_beside_a_far_one_take_their_exact_weights(capsys):
    # The least-squares solve printed the weights of the exact points
    # (-1 : 1), (1 : 2) and (3 : 1) as 1.46e306, -2.45e305 and 2.79e303 and
    # passed its residual check; partial fractions give -1, 1 and 1.
    payload = run_json(capsys, "sylvester", _form_text(_far_point_form(1)))
    assert payload["support_exact"] is False
    weights = {(pt["alpha"], pt["beta"]): _printed(c) for pt, c in zip(payload["support"], payload["coefficients"])
               if pt["exact"]}
    assert weights == {("-1", "1"): (-1, 0), ("1", "2"): (1, 0), ("3", "1"): (1, 0)}
    _assert_rebuilds_within_bound(payload, _far_point_form(1))


def test_a_bound_below_the_double_range_prints_as_digits(capsys):
    # At 1024 bits the certificate of a generic degree-32 form is near
    # 1e-328, where float() gives 0.0.
    text = _form_text([(5 * j) % 17 - 8 for j in range(32)] + [3])
    payload = _strict_json(run(capsys, "--precision-bits", "1024", "sylvester", text)[1])
    bound = payload["error_bound"]
    assert isinstance(bound, str) and 0 < Fraction(bound) < sys.float_info.min
    _assert_rebuilds_within_bound(payload, parse_form(text).coeffs)


def test_no_command_prints_a_non_finite_number(capsys, monkeypatch):
    monkeypatch.setitem(cli._COMMANDS, "secant", lambda args, cfg: {"error_bound": math.inf})
    code, out, err = run(capsys, "secant", "deg=2; coeffs=1,0,1", "1")
    assert (code, out) == (2, "")
    assert _strict_json(err)["error"] == "internal"


@pytest.mark.parametrize("human", [False, True], ids=["compact", "human"])
def test_a_value_json_cannot_write_is_an_internal_error(capsys, monkeypatch, human):
    # A stray Fraction would otherwise print silently as the string "1/3".
    monkeypatch.setitem(cli._COMMANDS, "secant", lambda args, cfg: {"kernel_dimension": Fraction(1, 3)})
    code, out, err = run(capsys, *(["--human"] if human else []), "secant", "deg=2; coeffs=1,0,1", "1")
    assert (code, out) == (2, "")
    assert _strict_json(err)["error"] == "internal"


def test_the_root_zero_beside_a_tiny_root_ends_in_the_coefficient_solve(capsys, monkeypatch):
    # The seeds place the root 0 and its neighbour near 4.5e-41 with no
    # polyroots call. Their weights, near +-2.2e67, cancel, so the error of
    # the tiny root's centre weighs heavily: a typed precision error or a
    # certificate that rebuilds the form, never an internal error.
    def no_isolation(*args, **kwargs):
        raise AssertionError("a support was isolated by mpmath.polyroots")

    monkeypatch.setattr(mpmath, "polyroots", no_isolation)
    text = "deg=8; coeffs=0,200000000000000,8000000000000000,-10000,0,2,0,8000000000000000000000000000,5"
    code, out, err = run(capsys, "sylvester", text)
    if code:
        assert (code, out, json.loads(err)["error"]) == (1, "", "precision"), err
    else:
        _assert_rebuilds_within_bound(json.loads(out), parse_form(text).coeffs)


def test_precision_bits_are_bounded_above(capsys, tmp_path):
    target = tmp_path / "rank.json"
    code, out, err = run(capsys, "--output", str(target), "--precision-bits", "4097", "vdm", "[0]", "1")
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "domain"
    assert not target.exists()
    assert run_json(capsys, "--precision-bits", "4096", "vdm", "[0]", "1") == {"rank": 1}


def test_unconverged_base_roots_are_a_precision_error(capsys, monkeypatch):
    # Seeds that do not settle, and a refinement that fails on every rung.
    for stage in ("aberth_seeds", "newton"):
        with monkeypatch.context() as m:
            m.setattr(intpoly, stage, lambda *args: None)
            code, out, err = run(capsys, "monodromy", "--spec", '{"base": [-1, 0, 1], "segments": ["half_twist(1)"]}')
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "precision", "message": "base roots did not converge"}


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


def _digit_form(digits: int) -> str:
    """A degree-4 form with five random coefficients of `digits` digits; its annihilator has about twice as many."""
    rng = random.Random(3)
    return _form_text([rng.randrange(10 ** (digits - 1), 10**digits) for _ in range(5)])


_NEEDS_DIGIT_LIMIT = pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                     reason="this Python has no int-to-string limit")


@_NEEDS_DIGIT_LIMIT
def test_an_annihilator_past_the_int_to_string_limit_is_a_capacity_error(capsys):
    code, out, err = run(capsys, "sylvester", _digit_form(4000))
    assert (code, out) == (1, "")
    payload = json.loads(err)
    assert payload["error"] == "capacity"
    assert payload["message"].endswith(f"int-to-string limit of {sys.get_int_max_str_digits()}")
    # The control: 2000-digit coefficients give an annihilator within the limit.
    payload = run_json(capsys, "sylvester", _digit_form(2000))
    assert payload["rank"] == 3 and payload["support"] is not None
    assert len(str(payload["annihilator"])) > 4 * 3000


@_NEEDS_DIGIT_LIMIT
@pytest.mark.parametrize("where", ["point", "weight"])
def test_an_exact_point_or_weight_past_the_int_to_string_limit_is_a_capacity_error(capsys, monkeypatch, where):
    huge = Fraction(10 ** (sys.get_int_max_str_digits() + 1), 3)
    point = apolarity.SupportPoint(huge if where == "point" else Fraction(1), Fraction(1), exact=True)
    cert = apolarity.SecantCertificate(rank=1, annihilator=apolarity.form(1, [1, -1]), support=(point,),
                                       coefficients=(huge if where == "weight" else Fraction(1),),
                                       support_exact=True, error_bound=None)
    monkeypatch.setattr(apolarity, "sylvester_decompose", lambda p, precision_bits: cert)
    code, out, err = run(capsys, "sylvester", "deg=1; coeffs=1,1")
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "capacity"


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
        _assert_rebuilds_within_bound(payload, parse_form(text).coeffs)
        for (_, imag), radius, exact in _printed_discs(payload):
            if not exact and abs(imag) <= radius:
                assert imag == 0, text
                on_axis += 1
    assert approximate >= 25 and on_axis >= 25


def _generic_form(n: int) -> str:
    rng = random.Random(n)
    return _form_text([rng.randint(-9, 9) for _ in range(n + 1)])


@pytest.mark.parametrize("text, rank", [
    # An annihilator of degree 26.
    pytest.param(_generic_form(50), 26, id="generic-degree-50"),
    # Annihilator roots 10^-40 and 10^-33 beside 1, 2 and 3.
    pytest.param(_form_text(oracle_power_sum_coeffs(10, [(1, 10**40), (1, 10**33), (1, 1), (2, 1), (3, 1)], [1] * 5)),
                 5, id="tiny-cluster"),
])
def test_supports_past_sixty_sweeps_are_certified_from_float_seeds(capsys, monkeypatch, text, rank):
    # The seeds of both took more than the fixed 60 Aberth sweeps there used
    # to be, and the supports went to mpmath.polyroots.
    def no_isolation(*args, **kwargs):
        raise AssertionError("a support was isolated by mpmath.polyroots")

    monkeypatch.setattr(mpmath, "polyroots", no_isolation)
    payload = run_json(capsys, "sylvester", text)
    assert (payload["rank"], payload["support_exact"]) == (rank, False)
    _assert_rebuilds_within_bound(payload, parse_form(text).coeffs)


def test_a_support_point_past_the_float_range_is_certified_by_the_fallback(capsys, monkeypatch):
    # The annihilator's roots are 0 and one near 2^1100: its seed, scaled
    # back, is past the float range, so there are no seeds and
    # mpmath.polyroots isolates the support, once.
    isolate, isolated = mpmath.polyroots, []
    monkeypatch.setattr(mpmath, "polyroots", lambda *args, **kwargs: isolated.append(1) or isolate(*args, **kwargs))
    text = _form_text(oracle_power_sum_coeffs(2, [(2**1100, 1), (1, 1)], [1, 1]))
    payload = run_json(capsys, "sylvester", text)
    assert isolated == [1]
    assert (payload["rank"], payload["support_exact"]) == (2, False)
    _assert_rebuilds_within_bound(payload, parse_form(text).coeffs)


@pytest.mark.parametrize("points", [
    [(2**1100, 1), (1, 1)],
    [(2**600 + 1, 1), (1, 1), (3, 1)],
], ids=["two-to-the-1100", "two-to-the-600-plus-one"])
def test_a_far_exact_support_point_polyroots_cannot_isolate_is_a_precision_error(capsys, points):
    # Neither the seeds nor the polyroots fallback reach these exact points
    # yet (ROADMAP item 22); the command refuses them typed, never as an
    # internal error, which the first one was when a seed scaled back past
    # the float range raised OverflowError.
    text = _form_text(oracle_power_sum_coeffs(2 * len(points) - 1, points, [1] * len(points)))
    code, out, err = run(capsys, "sylvester", text)
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "precision"


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
    # corrupting the character-theoretic route behind the dual LR check
    # (lr_checked runs the body of each route on the triple it validated).
    import kronsec.characters as characters

    monkeypatch.setattr(characters, "_lr_characters", lambda *a: 10**9)
    code, out, err = run(capsys, "lr", "[1]", "[1]", "[2]")
    assert code == 2
    assert json.loads(err)["error"] == "consistency"


def test_injected_corruption_reaches_brion_sweep(capsys, monkeypatch):
    import kronsec.characters as characters

    real = characters._lr_tableaux
    monkeypatch.setattr(characters, "_lr_tableaux", lambda *a: real(*a) + 1)
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


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv, lines_read", [(["chartable", "3"], 0), (["brion-sweep", "10"], 1)],
                         ids=["closed-before-any-output", "closed-after-one-line"])
def test_a_closed_stdout_is_a_domain_error(argv, lines_read, unbuffered):
    # A reader that closes stdout early, as `| head -1` does: the buffered
    # stream fails at main's flush, the unbuffered one at a write, and
    # neither is an internal error or an "Exception ignored" line at exit.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)), PYTHONUNBUFFERED=unbuffered)
    proc = subprocess.Popen([sys.executable, "-m", "kronsec", *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    for _ in range(lines_read):
        proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err.count("\n") == 1 and json.loads(err)["error"] == "domain"


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

"""numerals prints exact dyadics with the characters mpmath prints: checked against mpmath itself.

Seeded values cover both signs, zero, mantissas of 1 to 600 bits (and
longer ones past 2^3500), decimal exponents on both sides of to_str's switch
between fixed point and e-notation, values past 10^+-100, and values past
2^+-3500, where mpmath reads the digits off the value over a power of ten
found with logarithms.
"""

import random
from fractions import Fraction

import mpmath
from mpmath import libmp

from kronsec import numerals


def _raw(m: int, k: int) -> tuple:
    return int(m < 0), abs(m), k, abs(m).bit_length()


def _dyadic(rng: random.Random, bits: int, exponent: int) -> tuple[int, int]:
    """A signed dyadic of `bits` bits whose value is about 2^exponent."""
    m = rng.getrandbits(bits) | 1 << bits - 1
    return numerals.normal(rng.choice([1, -1]) * m, exponent - bits)


def _digit_count(rng: random.Random) -> int:
    return rng.choice([1, 2, 3, 6, 15, 17, 20, 61, rng.randint(1, 300), rng.randint(240, 700)])


def test_normal_strips_trailing_zeros_as_mpmath_does():
    for m, k in [(12, 3), (-12, 3), (1 << 80, -80), (0, 5), (7, -2)]:
        man, exp = numerals.normal(m, k)
        sign, want_man, want_exp, _ = libmp.from_man_exp(m, k)
        assert (man, exp) == ((-want_man if sign else want_man), want_exp)


def test_to_str_gives_mpmaths_characters():
    rng = random.Random(5201)
    seen = set()
    for _ in range(4000):
        bits = rng.randint(1, 600)
        dps = _digit_count(rng)
        # about 2^exponent: near 1 (the fixed point and e-notation switch at
        # min(-(dps // 3), -5) and dps decimal places), past 10^+-100, past 2^+-3500
        exponent = rng.choice([rng.randint(-3 * dps - 40, 3 * dps + 40), rng.choice([1, -1]) * rng.randint(333, 3400),
                               rng.choice([1, -1]) * rng.randint(3501, 10**6)])
        m, k = _dyadic(rng, bits, exponent)
        text = numerals.to_str(m, k, dps)
        assert text == libmp.to_str(_raw(m, k), dps) == mpmath.nstr(mpmath.mp.make_mpf(_raw(m, k)), dps), (m, k, dps)
        far = abs(k + abs(m).bit_length()) > numerals.FAR_EXPONENT
        seen.add(("far" if far else "e+" if "e+" in text else "e-" if "e-" in text else "fixed", m > 0))
    assert seen == {(kind, sign) for kind in ("far", "e+", "e-", "fixed") for sign in (True, False)}
    assert numerals.to_str(0, 0, 17) == libmp.to_str(libmp.fzero, 17) == "0.0"


def test_long_mantissas_past_2_to_the_3500_give_mpmaths_characters():
    # Past 2^+-3500 mpmath divides by 10^b, b from ln 2 / ln 10: with a long
    # mantissa b is small, 0 and +-1 and +-2 included, or below 334, where
    # 10^b is exact before its rounding.
    rng = random.Random(5202)
    exponents = set()
    for _ in range(400):
        bits = rng.randint(3501, 9000)
        m, k = _dyadic(rng, bits, rng.choice([bits + rng.randint(-8, 8), bits - rng.randint(0, 1200),
                                              -rng.randint(3501, 4000)]))
        dps = rng.choice([6, 17, 61, 300, 1300])
        assert numerals.to_str(m, k, dps) == libmp.to_str(_raw(m, k), dps), (m, k, dps)
        exponents.add(numerals._ten_exponent(k))
    assert {0, 1, 2, -1, -2} <= exponents and any(abs(b) > 333 for b in exponents)


def test_a_rounding_carries_through_runs_of_nines():
    rng = random.Random(5203)
    carried = 0
    for _ in range(600):
        nines = rng.randint(1, 120)
        m, k = numerals.normal((10**nines - rng.randint(1, 3)) * rng.choice([1, -1]), rng.choice([0, -rng.randint(1, 50)]))
        if rng.random() < 0.5:  # 1 - 2^-b is 0.99...9 in decimal
            b = rng.randint(1, 400)
            m, k = rng.choice([1, -1]) * ((1 << b) - 1), -b
        dps = rng.randint(1, 130)
        text = numerals.to_str(m, k, dps)
        assert text == libmp.to_str(_raw(m, k), dps), (m, k, dps)
        carried += "9" not in text
    assert carried > 100
    assert numerals.to_str((1 << 60) - 1, -60, 6) == "1.0"


def test_gaussian_values_print_as_mpmath_prints_an_mpc():
    # negative, zero and positive imaginary parts
    rng = random.Random(5204)
    signs = set()
    for _ in range(2000):
        parts = tuple(rng.choice([(0, 0), _dyadic(rng, rng.randint(1, 300), rng.randint(-500, 500))]) for _ in range(2))
        dps = _digit_count(rng)
        z = mpmath.mp.make_mpc(tuple(_raw(*part) for part in parts))
        text = numerals.nstr(parts, dps)
        assert text == mpmath.nstr(z, dps) == "(" + libmp.mpc_to_str(z._mpc_, dps) + ")", (parts, dps)
        signs.add((parts[1][0] > 0) - (parts[1][0] < 0))
    assert signs == {-1, 0, 1}


def test_decimal_is_the_value_to_str_prints():
    rng = random.Random(5205)
    for _ in range(1000):
        m, k = rng.choice([(0, 0), _dyadic(rng, rng.randint(1, 600), rng.randint(-4000, 4000))])
        dps = _digit_count(rng)
        d, t = numerals.decimal(m, k, dps)
        assert Fraction(d) * Fraction(10) ** t == Fraction(numerals.to_str(m, k, dps)), (m, k, dps)


def test_repr_dps_is_mpmaths():
    assert [numerals.repr_dps(bits) for bits in range(1, 5001)] == [libmp.repr_dps(bits) for bits in range(1, 5001)]


def test_the_logarithms_are_mpmaths_rounded_down():
    # _ten_exponent reads ln 2 and ln 10 on bitlen(|exp|) + 5 bits, as
    # mpmath's mpf_ln2 and mpf_ln10 round them down.
    for prec in range(5, 130):
        ln2, ln10 = numerals._logs(prec)
        assert Fraction(ln2, 1 << prec) == Fraction(*libmp.to_rational(libmp.mpf_ln2(prec))), prec
        assert Fraction(ln10, 1 << prec - 2) == Fraction(*libmp.to_rational(libmp.mpf_ln10(prec))), prec


def test_powers_of_ten_and_quotients_round_as_mpmaths():
    # Past 2^+-3500 the digits hang on 10^b and the quotient by it, each
    # rounded as mpmath's mpf_pow_int and mpf_div round: down, and for the
    # inverse of a negative power, up first.
    rng = random.Random(5206)
    ten = libmp.from_int(10)
    for _ in range(600):
        n = rng.choice([0, 1, 2, -1, -2, rng.randint(3, 333), -rng.randint(3, 333), rng.randint(334, 5000),
                        -rng.randint(334, 5000)])
        prec, up = rng.choice([10, 53, 200, rng.randint(10, 3000)]), n >= 0 and rng.random() < 0.5
        want = libmp.mpf_pow_int(ten, n, prec, libmp.round_up if up else libmp.round_down)
        assert Fraction(*libmp.to_rational(want)) == Fraction(*libmp.to_rational(
            libmp.from_man_exp(*numerals._power_of_ten(n, prec, up)))), (n, prec, up)
        m, k = _dyadic(rng, rng.randint(1, 9000), rng.randint(-5000, 5000))
        m, d = abs(m), abs(_dyadic(rng, rng.randint(1, 3000), 0)[0])
        want = libmp.mpf_div(libmp.from_man_exp(m, k), libmp.from_man_exp(d, -7), prec, libmp.round_down)
        assert Fraction(*libmp.to_rational(want)) == Fraction(*libmp.to_rational(
            libmp.from_man_exp(*numerals._quotient(m, k, d, -7, prec)))), (m, k, d, prec)

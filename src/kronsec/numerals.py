"""Exact dyadic numbers printed as mpmath prints them, by integer arithmetic.

A dyadic is a pair of ints (m, k) meaning m 2^k, normalized as mpmath
normalizes the mantissa and exponent of an mpf: m odd, or m = k = 0 (`normal`).
A Gaussian dyadic is a pair of them, real part first. `nstr` prints either
with the characters mpmath.nstr prints for the mpf or mpc of that value, and
`repr_dps` gives the digits mpmath.libmp.repr_dps gives. The steps follow
mpmath 1.3's libmp.to_str, to_digits_exp and numeral one by one, sizing the
digit counts with the same float expressions, so the digits are the same:
the leading digits of the value rounded toward 0, then rounded half up on
the first digit dropped. Past |exponent + bit length| > 3500 mpmath first
divides by a power of ten 10^b found with logarithms, on a precision of a
few digits more than it prints; that branch is followed too: b from ln 2
and ln 10 rounded down as mpmath's constants are, and 10^b and the quotient
rounded as its binary powering and division round them.
"""

from math import log

# mpmath sizes its fixed-point digits with this float, so these do too.
LOG2_10 = log(10, 2)
# Past 2^3500 or below 2^-3500 the digits are read off the value over 10^b.
FAR_EXPONENT = 3500


def normal(m: int, k: int) -> tuple[int, int]:
    """m 2^k as the normalized dyadic: the mantissa odd, and (0, 0) for 0."""
    if not m:
        return 0, 0
    zeros = (m & -m).bit_length() - 1
    return m >> zeros, k + zeros


def repr_dps(bits: int) -> int:
    """The decimal digits that read back any mantissa of `bits` bits, as mpmath.libmp.repr_dps gives them."""
    dps = max(1, int(round(bits / 3.3219280948873626) - 1))
    return 17 if dps == 15 else dps + 3


def nstr(value, dps: int) -> str:
    """mpmath.nstr(x, dps) of the mpf or mpc x holding `value`, a dyadic or a Gaussian dyadic; dps >= 1."""
    if isinstance(value[0], int):
        return to_str(*value, dps)
    (re_m, re_k), (im_m, im_k) = value
    return f"({to_str(re_m, re_k, dps)} {'-' if im_m < 0 else '+'} {to_str(abs(im_m), im_k, dps)}j)"


def to_str(m: int, k: int, dps: int) -> str:
    """mpmath.libmp.to_str of m 2^k with dps >= 1 digits: fixed point when its exponent is near 0, else with e±."""
    if not m:
        return "0.0"
    digits, exponent = _rounded_digits(abs(m), k, dps)
    split = 1
    if min(-(dps // 3), -5) < exponent < dps:  # the leading digit is near the point
        if exponent < 0:
            digits = "0" * -exponent + digits
        else:
            split = exponent + 1
        exponent = 0
    digits = (digits[:split] + "." + digits[split:]).rstrip("0")
    text = ("-" if m < 0 else "") + digits + ("0" if digits[-1] == "." else "")
    if not exponent:
        return text
    return f"{text}e{'+' if exponent > 0 else ''}{exponent}"


def decimal(m: int, k: int, dps: int) -> tuple[int, int]:
    """(d, t) with d 10^t the value to_str(m, k, dps) prints."""
    if not m:
        return 0, 0
    digits, exponent = _rounded_digits(abs(m), k, dps)
    return (int(digits) if m > 0 else -int(digits)), exponent - len(digits) + 1


def _rounded_digits(man: int, exp: int, dps: int) -> tuple[str, int]:
    """The dps digits to_str prints of man 2^exp > 0, and the decimal exponent of the first.

    to_digits_exp gives more digits, rounded toward 0; the first dps are
    rounded up when the next is 5 or more, and a carry through nines moves
    the exponent.
    """
    digits, exponent = _digits_exp(man, exp, dps + 3)
    if len(digits) > dps and digits[dps] in "56789":
        head = digits[:dps].rstrip("9")
        if head:
            return head[:-1] + str(int(head[-1]) + 1) + "0" * (dps - len(head)), exponent
        return "1" + "0" * (dps - 1), exponent + 1
    return digits[:dps], exponent


def _digits_exp(man: int, exp: int, dps: int) -> tuple[str, int]:
    """mpmath.libmp.to_digits_exp of man 2^exp > 0: its decimal digits rounded toward 0, and the exponent of the first.

    The value goes to a binary fixed point of about dps digits' bits, then
    to a decimal fixed point, each step floored.
    """
    bitprec = int(dps * LOG2_10) + 10
    exponent = 0
    if abs(exp + man.bit_length()) > FAR_EXPONENT:
        exponent = _ten_exponent(exp)
        man, exp = _quotient(man, exp, *_power_of_ten(exponent, bitprec), bitprec)
    fixprec = max(bitprec - exp - man.bit_length(), 0)
    fixdps = int(fixprec / LOG2_10 + 0.5)
    shift = exp + fixprec
    fixed = man << shift if shift >= 0 else man >> -shift
    digits = _numeral(fixed * 10**fixdps >> fixprec, dps)
    return digits, exponent + len(digits) - fixdps - 1


def _numeral(n: int, size: int) -> str:
    """The decimal digits of n >= 0 as mpmath's numeral writes them: halves by divmod from `size` digits up."""
    if not n:
        return "0"
    if size < 250:
        return str(n)
    half = size // 2 + (size & 1)
    high, low = divmod(n, 10**half)
    return _numeral(high, half) + _numeral(low, half).rjust(half, "0")


def _ten_exponent(exp: int) -> int:
    """b = trunc(exp ln 2 / ln 10) with ln 2 and ln 10 rounded down to bitlen(|exp|) + 5 bits, as mpmath takes it.

    mpmath rounds the quotient down to that many bits before truncating; the
    integers all lie on that grid, so the truncation is the same.
    """
    prec = abs(exp).bit_length() + 5
    ln2, ln10 = _logs(prec)  # ln 2 = ln2 2^-prec and ln 10 = ln10 2^-(prec - 2), each on prec bits
    b = abs(exp) * ln2 // (4 * ln10)
    return b if exp >= 0 else -b


def _logs(prec: int) -> tuple[int, int]:
    """floor(ln 2 2^prec) and floor(ln 10 2^(prec - 2)), by atanh series with 64 guard bits.

    ln 2 = 2 atanh(1/3) and ln 10 = 3 ln 2 + 2 atanh(1/9); each term is
    floored, so the sums are low by less than a unit per term, far below
    the guard bits.
    """
    bits = prec + 64

    def atanh_inverse(q: int) -> int:
        total, power, k = 0, (1 << bits) // q, 1
        while power:
            total += power // k
            power //= q * q
            k += 2
        return total

    ln2 = 2 * atanh_inverse(3)
    return ln2 >> 64, (3 * ln2 + 2 * atanh_inverse(9)) >> 66


def _round(man: int, exp: int, prec: int, up: bool = False) -> tuple[int, int]:
    """man 2^exp > 0 cut to prec bits, rounded down (toward 0) or up."""
    drop = man.bit_length() - prec
    if drop <= 0:
        return man, exp
    return (-(-man >> drop) if up else man >> drop), exp + drop


def _quotient(man: int, exp: int, div: int, div_exp: int, prec: int) -> tuple[int, int]:
    """man 2^exp / (div 2^div_exp), both > 0, rounded down to prec bits as mpmath.libmp.mpf_div rounds it."""
    extra = max(prec - man.bit_length() + div.bit_length() + 5, 5)
    return _round((man << extra) // div, exp - div_exp - extra, prec)


def _power_of_ten(n: int, prec: int, up: bool = False) -> tuple[int, int]:
    """10^n on prec bits, rounded down or up (n >= 0), as mpmath.libmp.mpf_pow_int rounds it.

    10 = 5 2^1. A negative n gives 1 over 10^-n, that rounded up on 5 more
    bits, rounded down; a power below 2^1000 is exact before its rounding; a
    larger one is a binary powering that cuts every product to
    prec + 4 bitlen(n) + 4 bits in the direction of the rounding.
    """
    if n == 0:
        return 1, 0
    if n == -1:
        return _quotient(1, 0, 5, 1, prec)
    if n < 0:
        return _quotient(1, 0, *_power_of_ten(-n, prec + 5, True), prec)
    if n <= 2 or 3 * n < 1000:
        return _round(5**n, n, prec, up)
    work = prec + 4 * n.bit_length() + 4
    man, exp, power, power_exp = 5, 1, 1, 0
    while True:
        if n & 1:
            power, power_exp = _round(power * man, power_exp + exp, work, up)
            n -= 1
            if not n:
                return _round(power, power_exp, prec, up)
        man, exp = _round(man * man, 2 * exp, work, up)
        n //= 2

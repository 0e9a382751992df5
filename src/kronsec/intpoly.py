"""The package's one Newton iteration, on Gaussian integers in fixed point.

x + iy is held as the ints (X, Y) with x + iy ~ (X + iY) / 2^bits; sums are
exact and each product is floored back to `bits` fractional bits. It tracks
`monodromy` loop roots and refines `apolarity` Sylvester support points.
`dyadic` is the package's one exact reader of floats and mpmath numbers, and
`fixed` puts a value on the grid from it.
"""

NEWTON_ITERATIONS = 60


def dyadic(x) -> tuple[int, int]:
    """Integers (m, k) with x = m * 2^k exactly, for an int, a float or an mpf.

    An mpf is read off its _mpf_ tuple: converting it outside its working
    precision would round it to 53 bits.
    """
    if isinstance(x, (int, float)):
        num, den = x.as_integer_ratio()
        return num, 1 - den.bit_length()
    sign, man, exp, _ = x._mpf_
    return -man if sign else man, exp


def fixed(z, bits: int) -> tuple[int, int]:
    """floor(2^bits z), part by part, of an int, a float, a complex, an mpf or an mpc."""
    parts = [dyadic(z.real), dyadic(z.imag)]
    return tuple(m << (k + bits) if k + bits >= 0 else m >> -(k + bits) for m, k in parts)


def newton(desc, z, bits: int, step_sq: int):
    """Newton-correct z on the polynomial with descending fixed-point coefficients.

    Horner gives the value u and derivative d together; the step u/d is one
    integer complex division. Returns the corrected root once |step|^2 <
    step_sq, or None at a zero derivative or after NEWTON_ITERATIONS steps.
    """
    zr, zi = z
    (lead_r, lead_i), rest = desc[0], desc[1:]
    for _ in range(NEWTON_ITERATIONS):
        ur, ui, dr, di = lead_r, lead_i, 0, 0
        for cr, ci in rest:
            dr, di = ((dr * zr - di * zi) >> bits) + ur, ((dr * zi + di * zr) >> bits) + ui
            ur, ui = ((ur * zr - ui * zi) >> bits) + cr, ((ur * zi + ui * zr) >> bits) + ci
        den = dr * dr + di * di
        if not den:
            return None
        sr = ((ur * dr + ui * di) << bits) // den
        si = ((ui * dr - ur * di) << bits) // den
        zr, zi = zr - sr, zi - si
        if sr * sr + si * si < step_sq:
            return zr, zi
    return None

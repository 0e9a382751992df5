"""intpoly.isolate: refined seeds, each proven a root of its own, or None."""

from fractions import Fraction

import mpmath

from kronsec import intpoly


def _pairs(ints):
    return [(c, 0) for c in ints]


def test_roots_nearer_than_the_target_are_parted_by_their_radii():
    # 1 and 1 + 2^-195 are a root of (t - 1)(2^195 t - 2^195 - 1) each. Their
    # centres at precision 192 are nearer than 2^(1 - 192), so a bound on the
    # centre gaps refused them; their discs are far smaller than that gap.
    a = 2**195
    pairs = _pairs([a + 1, -2 * a - 1, a])
    with mpmath.workprec(300):
        seeds = [mpmath.mpf(1) + mpmath.mpf(2) ** -250, mpmath.mpf(1) + mpmath.mpf(2) ** -195 - mpmath.mpf(2) ** -250]
    found = intpoly.isolate(pairs, seeds, 192)
    assert found is not None
    first, second = (Fraction(x, 1 << bits) for (x, _), bits, _ in found)
    assert abs(first - 1) < Fraction(1, 2**192) and abs(second - 1 - Fraction(1, a)) < Fraction(1, 2**192)
    assert abs(second - first) < Fraction(2, 2**192)


def test_a_stalled_refinement_is_none(monkeypatch):
    monkeypatch.setattr(intpoly, "newton", lambda *args: None)
    assert intpoly.isolate(_pairs([-2, 0, 1]), [1.4, -1.4], 96) is None


def test_the_triples_come_in_seed_order():
    pairs = _pairs([6, -5, -2, 1])  # (t + 2)(t - 1)(t - 3)
    for seeds in ([3.1, -2.2, 0.9], [0.9, 3.1, -2.2], [-2.2, 0.9, 3.1]):
        found = intpoly.isolate(pairs, seeds, 96)
        assert found == [intpoly.certified_root(pairs, s, 96) for s in seeds]
        assert [round(x / 2**bits) for (x, _), bits, _ in found] == [round(s) for s in seeds]


def test_discs_meet_by_their_own_radii_on_their_own_grids(monkeypatch):
    # The disc about 0 of radius 2^-10 on the grid of 2^-10, and one of
    # radius 2^-11 on the grid of 2^-11: tangent at the centre 3 * 2^-11,
    # which counts as meeting, and apart at 4 * 2^-11.
    for x, apart in ((3, False), (4, True)):
        triples = {0: ((0, 0), 10, (1, 2**20)), 1: ((x, 0), 11, (1, 2**22))}
        monkeypatch.setattr(intpoly, "certified_root", lambda pairs, z, bits: triples[z])
        found = intpoly.isolate([(-1, 0), (0, 0), (1, 0)], [0, 1], 8)
        assert found == ([triples[0], triples[1]] if apart else None)

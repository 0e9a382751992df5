"""One validator per argument kind, and a seeded fuzz over kronsec.__all__.

errors.require_int decides what a valid integer argument is, and
permutations.validate_word (tested through perm_of_word in
test_permutations.py) what a valid word is; partitions go through
partitions.validate_partition. The fuzz calls every exported function with
malformed arguments of each kind and asks that each call return or raise a
KronsecError subclass; where a conftest oracle exists, a returned value is
checked against it.
"""

import itertools
import math
import os
import random
from fractions import Fraction
from math import factorial

import mpmath
import pytest

import kronsec
from conftest import (
    oracle_character_table,
    oracle_partition_count,
    oracle_partitions,
    oracle_syt_count,
    within_seconds,
)
from kronsec import (
    BinaryForm,
    Config,
    CurveContext,
    DomainError,
    KronsecError,
    character_table,
    h0,
    kernel_dimension,
    load_config,
    max_admissible_k,
    parse_form,
    parse_partition,
    track_roots,
    word_loop,
)
from kronsec.apolarity import form, format_form, power_form
from kronsec.characters import mn_value
from kronsec.errors import require_int
from kronsec.monodromy import CoefficientCircle, HalfTwist, base_with_integer_roots
from kronsec.partitions import conjugacy_classes, partitions_of
from kronsec.permutations import perm_of_word


def test_require_int_refuses_all_but_ints_in_range():
    assert require_int("n", 0) == 0
    assert require_int("n", 5, least=1, most=5) == 5
    for value in (True, False, 2.0, 2.5, "3", None):
        with pytest.raises(DomainError, match="n must be an int"):
            require_int("n", value)
    with pytest.raises(DomainError, match="n must be nonnegative, got -1"):
        require_int("n", -1)
    with pytest.raises(DomainError, match="expected n >= 2, got 1"):
        require_int("n", 1, least=2)
    with pytest.raises(DomainError, match=r"k 4 out of range 1\.\.3"):
        require_int("k", 4, least=1, most=3)


# Each of these once returned a number, a permutation, a form or a config, or
# ended in a bare TypeError, AttributeError, ValueError or OverflowError.
PROBES = {
    "kernel_dimension-2.5": lambda: kernel_dimension(form(3, [1, 0, 0, 1]), 2.5),
    "h0-0.5": lambda: h0(CurveContext(1, 5), 0.5),
    "max_admissible_k-genus-0.5": lambda: max_admissible_k(CurveContext(0.5, 5)),
    "config-n_cap-2.5": lambda: Config(n_cap=2.5),
    "half-twist-True": lambda: track_roots([2, -3, 1], [HalfTwist(True)]),
    "perm_of_word-True": lambda: perm_of_word(3, [True]),
    "word_loop-1.5": lambda: word_loop(3, [1.5]),
    "conjugacy_classes-2.5": lambda: conjugacy_classes(2.5),
    "character_table-2.0": lambda: character_table(2.0),
    "base_with_integer_roots-2.5": lambda: base_with_integer_roots(2.5),
    "circle-index-0.0": lambda: track_roots([2, -3, 1], [CoefficientCircle(0.0, 2.0)]),
    "BinaryForm-str": lambda: BinaryForm(3, "abcd"),
    "BinaryForm-list": lambda: BinaryForm(3, [1, 0, 0, 1]),
    "BinaryForm-True": lambda: BinaryForm(2, (True, 0, 1)),
    "BinaryForm-None": lambda: BinaryForm(2, (None, 0, 1)),
    "BinaryForm-nan": lambda: BinaryForm(2, (math.nan, 0, 1)),
    "form-x": lambda: form(3, ["x", 0, 0, 1]),
    "form-True": lambda: form(2, [True, 0, 1]),
    "form-inf": lambda: form(2, [math.inf, 0, 1]),
    "form-None": lambda: form(2, None),
    "power_form-True": lambda: power_form(True, 1, 2),
    "base-int": lambda: track_roots(5, [HalfTwist(1)]),
    "base-True": lambda: track_roots([True, 0, 1], [HalfTwist(1)]),
    "base-str": lambda: track_roots(["a", 0, 1], [HalfTwist(1)]),
    "base-None": lambda: track_roots([None, 0, 1], [HalfTwist(1)]),
    "base-Fraction": lambda: track_roots([Fraction(2), 0, 1], [HalfTwist(1)]),
    "base-nan": lambda: track_roots([math.nan, 0, 1], [HalfTwist(1)]),
    "base-inf": lambda: track_roots([math.inf, 0, 1], [HalfTwist(1)]),
    "base-mpf-inf": lambda: track_roots([mpmath.inf, 0, 1], [HalfTwist(1)]),
    "parse_partition-5": lambda: parse_partition(5),
    "parse_form-5": lambda: parse_form(5),
    # Each argument is checked before the cache is read: an equal key once
    # answered from the cache, and a list ended in its TypeError (unhashable).
    "mn_value-True-after-1": lambda: (mn_value((1,), (1,)), mn_value((1,), (True,))),
    "partitions_of-2.0-after-2": lambda: (partitions_of(2, 2), partitions_of(2.0, 2)),
    "partitions_of-max-3.0-after-3": lambda: (partitions_of(3, 3), partitions_of(3, 3.0)),
    "partitions_of-list": lambda: partitions_of([2]),
    "conjugacy_classes-list": lambda: conjugacy_classes([2]),
}


@pytest.mark.parametrize("probe", PROBES.values(), ids=PROBES.keys())
def test_integer_and_letter_probes_are_domain_errors(probe):
    with within_seconds(2):
        with pytest.raises(DomainError):
            probe()


def test_a_list_shape_answers_as_its_tuple():
    # mn_value's check makes the tuple key of a list; the list once ended in
    # the cache's TypeError (unhashable).
    assert mn_value([2, 1], [3]) == mn_value((2, 1), (3,)) == -1


def test_a_form_stores_fractions_and_prints_as_before():
    half = BinaryForm(3, (0.5, 0, 0, 1))
    assert half.coeffs == (Fraction(1, 2), 0, 0, 1)
    assert all(type(c) is Fraction for c in half.coeffs)
    assert kernel_dimension(half, 1) == 0
    assert format_form(BinaryForm(3, (1, 0, Fraction(-2, 3), 1))) == "deg=3; coeffs=1,0,-2/3,1"
    assert format_form(form(2, [2.5, 0, 1])) == "deg=2; coeffs=5/2,0,1"


def test_a_base_of_finite_mpmath_numbers_is_tracked():
    assert track_roots([mpmath.mpc(2, 0), mpmath.mpf(-3), 1.0], [HalfTwist(1)]).permutation == (1, 0)


def test_load_config_neither_reads_nor_closes_a_descriptor(tmp_path, monkeypatch):
    monkeypatch.delenv("KRONSEC_CONFIG", raising=False)
    (tmp_path / "kronsec.cfg").write_text("n_cap = 9\n", encoding="utf-8")
    fd = os.open(tmp_path / "kronsec.cfg", os.O_RDONLY)
    try:
        with pytest.raises(DomainError, match="config path must be a str"):
            load_config(fd)
        os.fstat(fd)  # still open
    finally:
        os.close(fd)


# --- the fuzz ------------------------------------------------------------------

INTS = [-3, -1, 0, 1, 2, 3, 4, 5, True, False, 2.0, 2.5, "3", None]
PARTITIONS = [(), (1,), (2, 1), (3,), (1, 1, 1), (2, 2), (3, 1), (1, 2), (2, 0, 1), (True,), (2, True),
              (2, 1.0), (2.5,), (3, -1, 1), "21", 2.5, None, [2, 1], (2, "1")]
# format_partition prints any sequence of parts; only valid shapes reach it.
SEQUENCES = [p for p in PARTITIONS if isinstance(p, (tuple, list, str))]
WORDS = [[], [1], [2, 1], [1, 2, 1], [1.5], [True], [0], [9], "12", 2.5, None, (1, 1)]
FORMS = [form(1, [1, 0]), form(2, [1, 0, 1]), form(3, [1, 0, 0, 1]), form(3, [0, 1, -1, 0]),
         form(4, [1, 2, 3, 4, 5])]
COEFFS = [(1, 0, 1), (1, 0), (0, 0, 0), (Fraction(1, 2), 1, 0, 1), (1, 0, 0, 0, 2), "101", (1, True, 1), None,
          (math.nan, 0, 1)]
CONTEXTS = [CurveContext(0, 3), CurveContext(1, 5), CurveContext(3, 2)]
TEXTS = ["[2,1]", "[]", "[1,2]", "[2,0]", "deg=3; coeffs=1,0,0,1", "deg=0; coeffs=1", "deg=2; coeffs=1,2",
         "", "abc", "/nonexistent/kronsec.cfg", 5]
BASES = [[2, -3, 1], [-1, 0, 1], [1, 2, 1], [1], [0, 0], [-6, 11, -6, 1], [True, 0, 1], ["a", 0, 1],
         [Fraction(2), -3, 1], [math.inf, 0, 1]]
SEGMENTS = [[HalfTwist(1)], [HalfTwist(2)], [HalfTwist(True)], [HalfTwist(1.5)], [HalfTwist(0)],
            [CoefficientCircle(0, 2.0)], [CoefficientCircle(0.0, 2.0)], [CoefficientCircle(0, "x")],
            [CoefficientCircle(0, True)], [], ["half_twist(1)"]]
NODES = [[0, 1, "1/2", "inf"], [True], ["abc"], [[1, 2, 3]], [1, 1], [[1, 0], [0, 1]]]
REPS = [kronsec.build_rep(lam) for lam in [(1,), (2, 1), (3, 1)]]
RECORDS = [[], list(kronsec.sweep(2))]
SEEDS = [0, 7, "x", 2.5]

# The kinds of the arguments of every exported function that is not a type of
# error or a record of results.
SIGNATURES = {
    "BinaryForm": (INTS, COEFFS),
    "Config": (INTS, INTS, INTS),
    "CurveContext": (INTS, INTS),
    "attach_first_row": (PARTITIONS, INTS),
    "boundary_scan": (INTS,),
    "build_rep": (PARTITIONS,),
    "catalecticant": (FORMS, INTS),
    "character_table": (INTS,),
    "check_relations": (REPS,),
    "conjugacy_classes": (INTS,),
    "defining_rep_decomposition": (INTS, INTS, SEEDS),
    "dimension": (PARTITIONS,),
    "evaluate_word": (REPS, WORDS),
    "form": (INTS, COEFFS),
    "format_partition": (SEQUENCES,),
    "h0": (CONTEXTS, INTS),
    "has_long_first_row": (PARTITIONS,),
    "join_rank_check": (FORMS, FORMS),
    "kernel_dimension": (FORMS, INTS),
    "kronecker": (PARTITIONS, PARTITIONS, PARTITIONS),
    "load_config": (TEXTS,),
    "lr_by_characters": (PARTITIONS, PARTITIONS, PARTITIONS),
    "lr_checked": (PARTITIONS, PARTITIONS, PARTITIONS),
    "lr_coefficient": (PARTITIONS, PARTITIONS, PARTITIONS),
    "max_admissible_k": (CONTEXTS,),
    "min_apolar_degree": (FORMS,),
    "mn_value": (PARTITIONS, PARTITIONS),
    "parse_form": (TEXTS,),
    "parse_partition": (TEXTS,),
    "partitions_of": (INTS, INTS + [None]),
    "pieri_decompose": (PARTITIONS, INTS),
    "pieri_distinguished": (PARTITIONS, INTS),
    "sample_rank_k_instance": (INTS, INTS, SEEDS),
    "secant_membership": (FORMS, INTS),
    "separates_2k": (CONTEXTS, INTS),
    "spherical_relation_image": (REPS,),
    "spherical_word_check": (INTS,),
    "standard_tableaux": (PARTITIONS,),
    "summarize": (RECORDS,),
    "sweep": (INTS,),
    "sylvester_decompose": (FORMS, [53, 96, 20, 96.0, True]),
    "tensor_decompose": (PARTITIONS, PARTITIONS),
    "track_roots": (BASES, SEGMENTS),
    "vandermonde_rank": (NODES, INTS),
    "verify_equality": (INTS, PARTITIONS, PARTITIONS),
    "verify_vanishing": (INTS, PARTITIONS, PARTITIONS),
    "word_loop": (INTS, WORDS),
    "word_trace": (REPS, WORDS),
}
RECORD_TYPES = {"BrionRecord", "CharacterTable", "JoinRank", "MonodromyLoop", "Partition", "RankSample",
                "SecantCertificate", "SeminormalRep", "SupportPoint"}
CALLS_PER_FUNCTION = 100
# Streams are pulled this far: their checks run on the first pull.
STREAM_PULLS = 20


def _as_int(value):
    """value if it is an int (a bool or a float is not), else None."""
    return value if type(value) is int else None


def _as_partition(value):
    """value as a tuple if it is a partition (positive int parts, weakly decreasing), else None."""
    try:
        parts = tuple(_as_int(p) for p in value)
    except TypeError:
        return None
    if None in parts or any(p <= 0 for p in parts) or list(parts) != sorted(parts, reverse=True):
        return None
    return parts


def _oracle(name, args):
    """What a call that returned must have returned, where an oracle knows; else None.

    Raises AssertionError when the call has no valid answer at all.
    """
    def need(value, valid=True):
        assert value is not None and valid, f"{name}{args!r} returned for an invalid argument"
        return value

    if name == "partitions_of":
        n = need(_as_int(args[0]))
        most = n if args[1] is None else need(_as_int(args[1]))
        return {p for p in oracle_partitions(need(n, n >= 0)) if not p or p[0] <= need(most, most >= 0)}
    if name in ("dimension", "standard_tableaux"):
        return oracle_syt_count(need(_as_partition(args[0])))
    if name == "character_table":
        n = need(_as_int(args[0]))
        return oracle_character_table(need(n, n >= 1))
    if name == "conjugacy_classes":
        n = need(_as_int(args[0]))
        return oracle_partition_count(need(n, n >= 0))
    if name == "mn_value":
        lam, mu = need(_as_partition(args[0])), need(_as_partition(args[1]))
        return oracle_character_table(sum(mu))[need(lam, sum(lam) == sum(mu))][mu]
    return None


def _check(name, args, result):
    expected = _oracle(name, args)
    if expected is None:
        return
    if name == "partitions_of":
        assert set(result) == expected and len(result) == len(expected)
    elif name == "standard_tableaux":
        assert len(result) == expected
    elif name == "character_table":
        assert {lam: dict(zip((c.cycle_type for c in result.classes), row))
                for lam, row in zip(result.irreducibles, result.values)} == expected
    elif name == "conjugacy_classes":
        n = _as_int(args[0])
        assert len(result) == expected and sum(c.cls_size for c in result) == factorial(n)
    else:
        assert result == expected, (name, args)


def test_the_fuzz_covers_every_exported_function():
    exported = {name for name in kronsec.__all__
                if callable(getattr(kronsec, name)) and not (isinstance(getattr(kronsec, name), type)
                                                             and issubclass(getattr(kronsec, name), BaseException))}
    assert set(SIGNATURES) == exported - RECORD_TYPES


def test_the_oracle_refuses_a_return_for_an_invalid_argument():
    with pytest.raises(AssertionError, match="invalid argument"):
        _check("dimension", ((1, 2),), 2)
    with pytest.raises(AssertionError):
        _check("mn_value", ((2, 1), (1, 1, 1)), 3)
    with pytest.raises(AssertionError, match="invalid argument"):
        _check("mn_value", ((2, 1), (True, True, 1.0)), 2)


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_every_exported_function_returns_or_raises_a_package_error(name):
    fn = getattr(kronsec, name)
    rng = random.Random(f"fuzz-{name}")
    choices = list(itertools.product(*SIGNATURES[name]))
    for args in rng.sample(choices, min(CALLS_PER_FUNCTION, len(choices))):
        try:
            with within_seconds(2):
                result = fn(*args)
                if name in ("sweep", "boundary_scan"):
                    result = list(itertools.islice(result, STREAM_PULLS))
        except KronsecError:
            continue
        except Exception as exc:
            pytest.fail(f"{name}{args!r} raised {type(exc).__name__}: {exc}")
        _check(name, args, result)

"""Lint checks with the stdlib only.

No package module or test file imports a name it never uses, no package
module defines a private top-level name it never uses, and every field a
package class declares is read somewhere as an attribute. Every function the
benchmark tracer spans by name exists, every cache the benchmark reads
statistics from stays a functools cache, kronsec.__all__ lists exactly the
names kronsec/__init__.py imports, kronsec/intpoly.py and numerals.py
import only the standard library, no module body in the package imports
mpmath or binds it to a name, kronsec/cli.py imports no arithmetic, one function climbs
intpoly.RUNGS and one calls intpoly.certified_root, one loop evaluates on a
fixed-point grid with an error bound and apolarity.py truncates no product of
its own, the loop tracker's step loop runs on ints, naming no Fraction,
kronecker and tensor_decompose name no character table, characters.py expands
only the tails of classes, apolarity.py takes the lcm of denominators in one
function and cli.py reads JSON in one function.
"""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "kronsec"
# __init__.py imports names to re-export them.
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py") + sorted(TESTS.glob("*.py"))
PACKAGE_MODULES = sorted(PACKAGE.glob("*.py"))
TRACER = TESTS.parent / "perfbench" / "tracing.py"
RUNNER = TESTS.parent / "perfbench" / "run.py"
# Everything that may read a field of a package class.
READERS = PACKAGE_MODULES + sorted(TESTS.glob("*.py")) + sorted((TESTS.parent / "perfbench").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_the_scan_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os, re\nfrom x import y as z\nre.sub(z)\n"
    assert unused_imports(source) == ["os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unused_private_names(source: str) -> list[str]:
    """Top-level _-prefixed functions, classes and assignments the module never reads.

    Dunder names are read by Python itself, so they are not counted.
    """
    tree = ast.parse(source)
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(private - read)


def test_the_scan_finds_a_dead_private_helper():
    source = (
        "_CAP = 3\n_DEAD: int = 4\n"
        "def _used(x):\n    return x\n"
        "def _poly_rem(a, b):\n    return a\n"
        "class _Gone:\n    pass\n"
        "def public():\n    return _used(_CAP)\n"
    )
    assert unused_private_names(source) == ["_DEAD", "_Gone", "_poly_rem"]


@pytest.mark.parametrize("path", PACKAGE_MODULES, ids=lambda p: p.name)
def test_module_has_no_dead_private_helpers(path):
    assert unused_private_names(path.read_text(encoding="utf-8")) == []


def unread_fields(definers: list[str], readers: list[str]) -> list[str]:
    """"Class.field" for each annotated class field no source reads as `obj.field`.

    A field is read when some `ast.Attribute` of that name is loaded, in any
    module: the check is by name, so it cannot tell two classes' fields apart.
    """
    declared = set()
    for source in definers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                declared.update((node.name, stmt.target.id) for stmt in node.body
                                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name))
    read = {node.attr for source in readers for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{cls}.{name}" for cls, name in declared if name not in read)


def test_the_scan_finds_an_unread_field():
    definer = (
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\nclass Loop:\n"
        "    permutation: tuple\n    base: tuple\n    segments: tuple = ()\n"
        "    def notation(self):\n        return str(self.permutation)\n"
        "def reset(loop):\n    loop.segments = ()\n    return Loop(permutation=(), base=())\n"
    )
    # A keyword argument or an assignment to the field is not a read.
    assert unread_fields([definer], [definer]) == ["Loop.base", "Loop.segments"]
    assert unread_fields([definer], [definer, "print(loop.base)"]) == ["Loop.segments"]


def test_every_package_field_is_read():
    definers = [p.read_text(encoding="utf-8") for p in PACKAGE_MODULES]
    assert unread_fields(definers, [p.read_text(encoding="utf-8") for p in READERS]) == []


def spanned_names() -> dict[str, list[str]]:
    """The tracer's SPANNED table, read from its source without importing it."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["SPANNED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no SPANNED table")


def test_every_traced_name_resolves():
    # Tracer.install calls getattr on each name, so a deleted one breaks the traced run.
    missing = [f"{home}.{name}" for home, names in spanned_names().items()
               for name in names if not callable(getattr(importlib.import_module(home), name, None))]
    assert missing == []


def test_benchmark_cache_keys_are_functools_caches():
    # run.py indexes its cache statistics by these names, so --trace 1 needs each to stay a cache.
    keys = set(re.findall(r'caches\.(?:hits|misses|peak)\["([\w.]+)"\]', RUNNER.read_text(encoding="utf-8")))
    assert keys == {"characters.mn_value", "partitions.partitions_of"}
    for key in keys:
        home, name = key.rsplit(".", 1)
        fn = getattr(importlib.import_module(f"kronsec.{home}"), name)
        assert callable(getattr(fn, "cache_info", None)) and callable(getattr(fn, "cache_clear", None)), key


def test_package_all_matches_its_imports():
    import kronsec

    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = {a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom)
                for a in node.names}
    assert sorted(kronsec.__all__) == sorted(imported)


def non_stdlib_imports(source: str) -> list[str]:
    """The top-level names of the imported modules outside sys.stdlib_module_names.

    A relative import counts as one, named by its dots and module: a package
    module may import mpmath.
    """
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("." * node.level + (node.module or "") if node.level else node.module.split(".")[0])
    return sorted(names - sys.stdlib_module_names)


def test_the_scan_finds_an_import_outside_the_stdlib():
    source = (
        "from __future__ import annotations\nimport cmath, mpmath.libmp\n"
        "from math import gcd\nfrom os.path import join\nfrom . import ratmat\n"
        "def roots(c):\n    from mpmath import polyroots\n    return polyroots(c)\n"
    )
    assert non_stdlib_imports(source) == [".", "mpmath"]


@pytest.mark.parametrize("name, package", [
    pytest.param("intpoly.py", False, id="intpoly.py"),
    pytest.param("numerals.py", False, id="numerals.py"),
    pytest.param("monodromy.py", True, id="monodromy.py"),
    pytest.param("cli.py", True, id="cli.py"),
])
def test_intpoly_imports_only_the_stdlib(name, package):
    # apolarity and monodromy share intpoly, so it must load without mpmath
    # or the package. monodromy runs every loop on intpoly, and the CLI
    # prints what the package returns: each may import package modules, but
    # nothing else outside the stdlib.
    imported = non_stdlib_imports((PACKAGE / name).read_text(encoding="utf-8"))
    assert [module for module in imported if not (package and module.startswith("."))] == []


def module_level_mpmath(source: str) -> list[int]:
    """The lines of statements that run at import and import mpmath or bind a name to it, and of `global mpmath`.

    Everything outside a function body runs at import, class bodies
    included. A binding is an assignment to a name of a value that names
    mpmath, as sys.modules["mpmath"] or importlib.import_module("mpmath").
    """
    def names_mpmath(node) -> bool:
        return any(isinstance(n, ast.Name) and n.id == "mpmath" or isinstance(n, ast.Constant) and n.value == "mpmath"
                   for n in ast.walk(node))

    found = []

    def visit(node, at_import):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Global) and "mpmath" in child.names:
                found.append(child.lineno)
            if at_import and (
                    isinstance(child, ast.Import) and any(a.name.split(".")[0] == "mpmath" for a in child.names)
                    or isinstance(child, ast.ImportFrom) and (child.module or "").split(".")[0] == "mpmath"
                    or isinstance(child, (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.NamedExpr))
                    and child.value is not None and names_mpmath(child.value)
                    and any(isinstance(t, ast.Name)
                            for t in (child.targets if isinstance(child, ast.Assign) else [child.target]))):
                found.append(child.lineno)
            visit(child, at_import and not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))

    visit(ast.parse(source), True)
    return sorted(found)


def test_the_scan_finds_every_import_time_use_of_mpmath():
    source = (
        "import os, mpmath.libmp\nfrom mpmath import mpf\ntry:\n    import mpmath as mp\nexcept ImportError:\n"
        "    pass\nmp2 = importlib.import_module('mpmath')\nlazy = sys.modules['mpmath']\nclass A:\n"
        "    import mpmath\ndef f():\n    global mpmath\n    import mpmath\n    x = sys.modules['mpmath']\n"
        "    return mpmath.mpf(1)\ndef g():\n    import mpmath\n    return mpmath\nsys.modules['mpmath'] = lazy\n"
    )
    assert module_level_mpmath(source) == [1, 2, 4, 7, 8, 10, 12]


@pytest.mark.parametrize("path", PACKAGE_MODULES, ids=lambda p: p.name)
def test_no_module_body_imports_mpmath(path):
    # mpmath loads only where a function needs it: importing kronsec leaves
    # it unloaded, and perfbench reads every global of the package modules
    # (hasattr), which would load a module bound to one.
    assert module_level_mpmath(path.read_text(encoding="utf-8")) == []


# The CLI parses, caps, calls the package and writes what it returns; the
# numbers it prints are made and formatted in the package.
CLI_NEVER_IMPORTS = {"mpmath", "intpoly", "math", "fractions", "random"}


def test_the_cli_does_no_arithmetic_of_its_own():
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    names = {name.split(".")[0] for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
             for name in [getattr(node, "module", None) or ""] + [a.name for a in node.names]}
    assert names & CLI_NEVER_IMPORTS == set()


def enclosing_functions(source: str, hit) -> list[str]:
    """The innermost enclosing function, or <module>, of each node for which hit(node) holds."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if hit(node):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def rung_loops(source: str) -> list[str]:
    """The innermost enclosing function of each for loop or comprehension over RUNGS or x.RUNGS."""
    return enclosing_functions(source, lambda node: isinstance(node, (ast.For, ast.comprehension)) and "RUNGS" in (
        getattr(node.iter, "id", None), getattr(node.iter, "attr", None)))


def calls_of(source: str, name: str) -> list[str]:
    """The innermost enclosing function of each call of name or x.name."""
    return enclosing_functions(source, lambda node: isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)))


def test_the_scan_finds_every_rung_loop():
    source = (
        "def refine(z):\n    for extra in RUNGS:\n        z += extra\n"
        "    def inner():\n        return [e for e in intpoly.RUNGS]\n    return z\n"
        "TOTAL = sum(r for r in RUNGS)\nSIZES = len(RUNGS)\n"
    )
    assert rung_loops(source) == ["refine", "inner", "<module>"]


def test_one_function_climbs_the_rungs():
    # Every refined root is accepted by one certificate: a second rung
    # ladder would bring back a second acceptance rule.
    loops = [f"{path.stem}.{where}" for path in PACKAGE_MODULES for where in rung_loops(path.read_text(encoding="utf-8"))]
    assert loops == ["intpoly.certified_root"]


def test_the_scan_finds_every_call():
    source = (
        "def isolate(seeds):\n    return [certified_root(s) for s in seeds]\n"
        "def refine(z):\n    def inner():\n        return intpoly.certified_root(z)\n    return inner\n"
        "FIRST = certified_root(0)\nNAME = certified_root\n"
    )
    assert calls_of(source, "certified_root") == ["isolate", "inner", "<module>"]


def test_one_function_proves_the_roots_complete():
    # Every refined root set is proven complete by one rule: a second caller
    # of certified_root would bring back a second completeness proof.
    calls = [f"{path.stem}.{where}" for path in PACKAGE_MODULES
             for where in calls_of(path.read_text(encoding="utf-8"), "certified_root")]
    assert calls == ["intpoly.isolate"]


def _truncates(node) -> bool:
    """Whether node right-shifts a product: truncates it to a fixed-point grid."""
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.RShift) and any(
        isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mult) for n in ast.walk(node.left))


def _rounds_up(node) -> bool:
    """Whether node is -(x >> k), a shift rounded up, as in -(-e * m >> k)."""
    return isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub) and isinstance(node.operand, ast.BinOp) \
        and isinstance(node.operand.op, ast.RShift)


def truncated_products(source: str) -> list[str]:
    """The innermost enclosing function of each right shift of a product."""
    return enclosing_functions(source, _truncates)


def error_bounded_horners(source: str) -> list[str]:
    """The innermost enclosing function of each loop that truncates products and rounds a shift up.

    Such a loop evaluates on a fixed-point grid and carries a bound on its error.
    """
    return enclosing_functions(source, lambda node: isinstance(node, (ast.For, ast.While)) and any(
        map(_rounds_up, ast.walk(node))) and any(map(_truncates, ast.walk(node))))


def test_the_scan_finds_every_error_bounded_horner():
    source = (
        "def interval_horner(pairs, z, bits):\n    for c in pairs:\n"
        "        x = (x * z >> bits) + c\n        err = -(-err * mag >> bits) + 2\n"
        "def newton(desc, z, bits):\n    for c in desc:\n        u = (u * z >> bits) + c\n"
        "def _centre_weight(numer, z, bits):\n    def inner():\n        while numer:\n"
        "            x = (x * z >> bits) + numer.pop()\n            e = -(-e * m >> bits) + 1\n    return inner\n"
        "CEIL = -(-A // B)\nTOP = abs(X) >> G\n"
    )
    assert error_bounded_horners(source) == ["interval_horner", "inner"]
    assert truncated_products(source) == ["interval_horner", "interval_horner", "newton", "inner", "inner"]


def test_one_function_evaluates_on_the_grid_with_an_error_bound():
    # Every fixed-point evaluation that carries a proven error bound is
    # intpoly.interval_horner, and apolarity truncates no product of its own:
    # a second copy would be a second error analysis to get right.
    found = [f"{path.stem}.{where}" for path in PACKAGE_MODULES
             for where in error_bounded_horners(path.read_text(encoding="utf-8"))]
    assert found == ["intpoly.interval_horner"]
    assert truncated_products((PACKAGE / "apolarity.py").read_text(encoding="utf-8")) == []


def denominator_lcms(source: str) -> list[str]:
    """The innermost enclosing function of each call of lcm or x.lcm whose arguments read a .denominator."""
    return enclosing_functions(source, lambda node: isinstance(node, ast.Call) and "lcm" in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)) and any(
        isinstance(n, ast.Attribute) and n.attr == "denominator" for arg in node.args for n in ast.walk(arg)))


def test_the_scan_finds_every_lcm_of_denominators():
    source = (
        "def _cleared(values):\n    return lcm(*(x.denominator for x in values))\n"
        "def moments(p):\n    scale = math.lcm(*(a.denominator for a in p.coeffs))\n    return scale\n"
        "def order(n):\n    return lcm(*range(1, n + 1))\n"
        "DEN = lcm(*(c.denominator for c in COEFFS))\n"
    )
    assert denominator_lcms(source) == ["_cleared", "moments", "<module>"]


def test_apolarity_clears_denominators_in_one_function():
    # One rule puts rationals over one denominator, so no site clears them its own way.
    assert denominator_lcms((PACKAGE / "apolarity.py").read_text(encoding="utf-8")) == ["_cleared"]


def test_the_scan_finds_every_json_read():
    source = (
        "def _json_arg(text):\n    return json.loads(text)\n"
        "def _cmd_vdm(args):\n    try:\n        return loads(args.nodes)\n    except ValueError:\n        return None\n"
        "def _emit(obj):\n    return json.dumps(obj)\n"
    )
    assert calls_of(source, "loads") == ["_json_arg", "_cmd_vdm"]


def test_the_cli_reads_json_in_one_function():
    # json.loads raises JSONDecodeError, ValueError past the int-to-string
    # limit and RecursionError past the recursion limit: one reader turns
    # them all into a domain error.
    assert calls_of((PACKAGE / "cli.py").read_text(encoding="utf-8"), "loads") == ["_json_arg"]


# The functions of monodromy that run once per tracking step or path point.
STEP_FUNCTIONS = {"_track_segment", "_turn", "coeffs_at"}


def naming_functions(source: str, functions, banned) -> list[str]:
    """The functions called one of `functions`, nested ones included, that name x or y.x anywhere inside, x in `banned`."""
    return sorted(node.name for node in ast.walk(ast.parse(source))
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in functions
                  and any({getattr(n, "id", None), getattr(n, "attr", None)} & banned for n in ast.walk(node)))


def test_the_scan_finds_a_fraction_in_a_step_function():
    source = (
        "from fractions import Fraction\nimport fractions\n"
        "def parse(x):\n    return Fraction(x)\n"
        "def path(q):\n    def coeffs_at(num, den):\n        return fractions.Fraction(num, den)\n"
        "    return coeffs_at\n"
        "def _turn(u: Fraction, bits):\n    return u\n"
        "def _track_segment(h):\n    return h // 2\n"
    )
    assert naming_functions(source, STEP_FUNCTIONS, {"Fraction"}) == ["_turn", "coeffs_at"]


def test_the_step_loop_names_no_fraction():
    # t and h are integer numerators over one power of two; a Fraction in
    # the step loop would bring back its gcd on every step. parse_segment
    # keeps its Fraction: it runs once per segment.
    source = (PACKAGE / "monodromy.py").read_text(encoding="utf-8")
    defined = {node.name for node in ast.walk(ast.parse(source)) if isinstance(node, ast.FunctionDef)}
    assert STEP_FUNCTIONS <= defined
    assert naming_functions(source, STEP_FUNCTIONS, {"Fraction"}) == []


# The seminormal build, word products and relation tests run on ints over one
# denominator D; Fractions appear only at the edge, in evaluate_word and word_trace.
INTEGER_FUNCTIONS = {"build_rep", "_images", "check_relations",
                     "_involution_holds", "_commutation_holds", "_braid_holds"}


def test_the_seminormal_build_and_products_name_no_fraction():
    source = (PACKAGE / "seminormal.py").read_text(encoding="utf-8")
    defined = {node.name for node in ast.walk(ast.parse(source)) if isinstance(node, ast.FunctionDef)}
    assert INTEGER_FUNCTIONS <= defined
    assert naming_functions(source, INTEGER_FUNCTIONS, {"Fraction"}) == []


# kron and tensor read three and two rows of the character table: building
# all of it costs a strip step per shape and class of S_n.
ROW_FUNCTIONS = {"kronecker", "tensor_decompose"}
TABLE_NAMES = {"_table", "character_table"}


def test_the_scan_finds_a_table_in_a_row_function():
    source = (
        "def kronecker(lam, om, sig):\n    return _table(3).row(lam)\n"
        "def tensor_decompose(lam, om):\n    return characters.character_table(3)\n"
        "def chartable(n):\n    return _table(n)\n"
    )
    assert naming_functions(source, ROW_FUNCTIONS, TABLE_NAMES) == ["kronecker", "tensor_decompose"]


def test_kron_and_tensor_build_no_character_table():
    source = (PACKAGE / "characters.py").read_text(encoding="utf-8")
    defined = {node.name for node in ast.walk(ast.parse(source)) if isinstance(node, ast.FunctionDef)}
    assert ROW_FUNCTIONS <= defined
    assert naming_functions(source, ROW_FUNCTIONS, TABLE_NAMES) == []


def full_class_expansions(source: str) -> list[int]:
    """Lines of the `_expansion(...)` calls whose argument is not a tail `x[1:]`."""
    def is_tail(arg):
        return (isinstance(arg, ast.Subscript) and isinstance(arg.slice, ast.Slice)
                and isinstance(arg.slice.lower, ast.Constant) and arg.slice.lower.value == 1
                and arg.slice.upper is None and arg.slice.step is None)

    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_expansion"
            and not (len(node.args) == 1 and not node.keywords and is_tail(node.args[0]))]


def test_the_scan_finds_an_expansion_of_a_full_class():
    source = (
        "def _table(n):\n    return [_expansion(cc.cycle_type) for cc in conjugacy_classes(n)]\n"
        "def mn_value(lam, mu):\n    return _strip(_beads(lam, 3), mu[0], _expansion(mu[1:]))\n"
        "def other(mu):\n    return _expansion(mu[:1]), _expansion(mu[2:]), _expansion(mu[1:], 0)\n"
    )
    assert full_class_expansions(source) == [2, 6, 6, 6]


def test_every_character_value_is_a_strip_step_off_a_tail():
    # Every value is read by _strip off the expansion of a class's tail, so
    # the forward expansion of a whole class is never built.
    source = (PACKAGE / "characters.py").read_text(encoding="utf-8")
    assert "_expansion(mu[1:])" in source
    assert full_class_expansions(source) == []


# The one integer check: errors.require_int decides what a valid int argument is.
VALIDATORS = {"require_int"}


def hand_written_int_checks(source: str) -> list[str]:
    """Functions outside VALIDATORS with an `if` that compares a parameter with an int literal and raises DomainError.

    A parameter is read as a name or as an attribute of one (self.n_cap);
    a comparison of a local or of two arguments is not counted.
    """
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or fn.name in VALIDATORS:
            continue
        params = {a.arg for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs}

        def is_param(x):
            x = x.value if isinstance(x, ast.Attribute) else x
            return isinstance(x, ast.Name) and x.id in params

        def guards(cmp):
            operands = [cmp.left, *cmp.comparators]
            return any(map(is_param, operands)) and any(
                isinstance(x, ast.Constant) and type(x.value) is int for x in operands)

        for branch in (n for n in ast.walk(fn) if isinstance(n, ast.If)):
            raises = any(isinstance(r, ast.Raise) and getattr(getattr(r.exc, "func", None), "id", None) == "DomainError"
                         for stmt in branch.body for r in ast.walk(stmt))
            if raises and any(guards(c) for c in ast.walk(branch.test) if isinstance(c, ast.Compare)):
                found.append(fn.name)
                break
    return found


def test_the_scan_finds_a_hand_written_int_check():
    source = (
        "def require_int(what, value, least=0):\n    if value < 0:\n        raise DomainError(what)\n"
        "def h0(ctx, twist):\n    if twist < 0:\n        raise DomainError(f'twist must be nonnegative, got {twist}')\n"
        "class C:\n    def __post_init__(self):\n        if self.n_cap < 0:\n            raise DomainError('n_cap')\n"
        "def pieri(lam, n):\n    k = size(lam)\n    if n < k:\n        raise DomainError('n >= |lam|')\n"
        "def build(lam):\n    n = size(lam)\n    if n < 1:\n        raise DomainError('empty')\n"
        "def table(n):\n    if n < 1:\n        raise ValueError(n)\n"
    )
    assert hand_written_int_checks(source) == ["h0", "__post_init__"]


def test_integer_arguments_are_checked_by_require_int():
    # A copy of the integer check drifts from it: before the copies went, none
    # of them refused a float or a bool.
    found = [f"{path.stem}.{name}" for path in PACKAGE_MODULES
             for name in hand_written_int_checks(path.read_text(encoding="utf-8"))]
    assert found == []
    assert [path.name for path in PACKAGE_MODULES
            if "must be nonnegative" in path.read_text(encoding="utf-8")] == ["errors.py"]

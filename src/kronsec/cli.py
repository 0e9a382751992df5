"""Command line front end.

Every subcommand prints a single JSON object (or, for the report streams,
JSON Lines) to the configured output. --human switches to an indented or
tabular rendering of the same data. Exit codes: 0 success; on an error, the
kind and exit code its class in errors.py names (1 for usage and domain
errors, 2 for a consistency failure); 2 for any other unexpected exception.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import fields, replace

from . import apolarity, brionlab, characters, curvebounds, monodromy, seminormal
from .config import DEFAULT_DIM_CAP, LOOP_WORK_CAP, WORD_WORK_CAP, Config, load_config
from .errors import CapacityError, DomainError, KronsecError, require_int
from .partitions import dimension, format_partition, parse_partition, size
from .permutations import cycle_notation


class _UsageError(KronsecError):
    kind = "usage"


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as error objects, not exit 2."""

    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="kronsec", description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="path to a key=value config file")
    parser.add_argument("--human", action="store_true", help="indented output instead of compact JSON")
    parser.add_argument("--seed", type=int, help="override the configured random seed")
    parser.add_argument("--precision-bits", type=int, help="bits of root isolation and Sylvester refinement; "
                        "monodromy tracks roots with F = bits + ceil(log2(8 / tolerance)) fractional bits")
    parser.add_argument("--n-cap", type=int, help="largest symmetric group order allowed")
    parser.add_argument("--sweep-cap", type=int, help="largest sweep size allowed")
    parser.add_argument("--output", help="output path, - for stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chartable", help="full character table of one symmetric group")
    p.add_argument("n", type=int)

    p = sub.add_parser("kron", help="one Kronecker coefficient")
    p.add_argument("lam")
    p.add_argument("omega")
    p.add_argument("sigma")

    p = sub.add_parser("lr", help="one Littlewood-Richardson number, dual-route checked")
    p.add_argument("lam")
    p.add_argument("omega")
    p.add_argument("sigma")

    p = sub.add_parser("pieri", help="row-strip decomposition of lambda times a one-row shape")
    p.add_argument("lam")
    p.add_argument("n", type=int, help="size of the one-row factor")
    p.add_argument("--distinguished", action="store_true",
                   help="also report the unique long-first-row constituent")

    p = sub.add_parser("tensor", help="full Kronecker decomposition of a tensor square or product")
    p.add_argument("lam")
    p.add_argument("omega")

    p = sub.add_parser("rep-check", help="seminormal matrices: defining relations and sampled traces")
    p.add_argument("lam")
    p.add_argument("--words", type=int, default=5, help="number of random words to trace")

    p = sub.add_parser("secant", help="catalecticant kernel test for membership at one k")
    p.add_argument("form", help='binary form, e.g. "deg=3; coeffs=1,0,0,1"')
    p.add_argument("k", type=int)

    p = sub.add_parser("sylvester", help="rank certificate for a binary form")
    p.add_argument("form")

    p = sub.add_parser("vdm", help="rank of the moment matrix of given nodes")
    p.add_argument("nodes", help='JSON list, e.g. \'[0, 1, "1/2", "inf"]\'')
    p.add_argument("degree", type=int)

    p = sub.add_parser("join", help="first kernel degrees of two forms and their sum")
    p.add_argument("form1")
    p.add_argument("form2")

    p = sub.add_parser("curve-bounds", help="section counts and separation bounds on a curve")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--twist", type=int, help="report h0 after twisting down by this degree")
    p.add_argument("--k", type=int, help="report whether 2k points are separated")

    p = sub.add_parser("monodromy", help="track one loop, a relation word, or the defining action")
    p.add_argument("--spec", help="loop spec: a JSON file path, or inline JSON starting with {")
    p.add_argument("--n", type=int, help="number of roots for --word/--spherical/--defining")
    p.add_argument("--word", help="comma-separated generator indices, e.g. 1,2,1")
    p.add_argument("--spherical", action="store_true", help="track the full relation word")
    p.add_argument("--defining", action="store_true", help="generators, group order, character split")
    p.add_argument("--samples", type=int, default=monodromy.DEFAULT_SAMPLE_LOOPS,
                   help="random cross-check words for --defining")

    p = sub.add_parser("brion-sweep", help="exhaustive vanishing/equality records up to n_max")
    p.add_argument("n_max", type=int)
    p.add_argument("--mode", choices=brionlab.MODES, default="both")

    p = sub.add_parser("brion-boundary", help="the same records just outside the hypothesis")
    p.add_argument("n", type=int)
    p.add_argument("--mode", choices=brionlab.MODES, default="both")

    return parser


_parser = None


def _the_parser() -> _Parser:
    """The one parser of this process, built on first use (not a functools cache, which perfbench clears)."""
    global _parser
    if _parser is None:
        _parser = _build_parser()
    return _parser


def _merge_config(args) -> Config:
    """The file config with every given global flag on top; each flag's dest is its field."""
    cfg = load_config(args.config)
    return replace(cfg, **{f.name: getattr(args, f.name) for f in fields(Config)
                           if getattr(args, f.name) is not None})


def _require_within(what: str, value: int, cap: int) -> None:
    """The one cap check; each command calls it before it computes or opens output."""
    if value > cap:
        raise CapacityError(f"{what} exceeds the configured bound {cap}")


def _require_loop_work(letters: int, n: int, precision_bits: int) -> None:
    """Tracking `letters` letters over n roots at b bits costs about letters * n * (n + 7) * max(1, b // 96).

    A half-twist is one letter, answered in closed form. A coefficient
    circle Newton-corrects all n roots at every step, so it counts as n
    letters. Past 96 bits each fixed-point product grows with the bits it
    carries.
    """
    _require_within(f"tracking {letters} letters over {n} roots at {precision_bits} bits",
                    letters * n * (n + 7) * max(1, precision_bits // 96), LOOP_WORK_CAP)


@contextmanager
def _sink(cfg: Config):
    if cfg.output in ("-", ""):
        yield sys.stdout
        return
    try:
        fh = open(cfg.output, "w", encoding="utf-8")
    except OSError as exc:
        raise DomainError(f"cannot open output {cfg.output}: {exc}") from None
    with fh:
        yield fh


def _emit(obj: dict, cfg: Config, human: bool) -> None:
    with _sink(cfg) as out:
        if human:
            out.write(json.dumps(obj, indent=2, allow_nan=False) + "\n")
        else:
            out.write(json.dumps(obj, separators=(",", ":"), allow_nan=False) + "\n")


def _cmd_chartable(args, cfg: Config) -> dict | None:
    _require_within(f"character table for n={args.n}", args.n, cfg.n_cap)
    table = characters.character_table(args.n)
    shapes = [format_partition(lam) for lam in table.irreducibles]
    classes = [format_partition(c.cycle_type) for c in table.classes]
    sizes = [c.cls_size for c in table.classes]
    if args.human:
        with _sink(cfg) as out:
            width = max(len(s) for s in shapes + classes) + 2
            out.write(" " * width + "".join(c.rjust(width) for c in classes) + "\n")
            out.write(" " * width + "".join(str(s).rjust(width) for s in sizes) + "\n")
            for lam, row in zip(table.irreducibles, table.values):
                out.write(format_partition(lam).rjust(width)
                          + "".join(str(v).rjust(width) for v in row) + "\n")
        return None
    return {"n": args.n, "classes": classes, "class_sizes": sizes,
            "shapes": shapes, "table": [list(row) for row in table.values]}


def _cmd_kron(args, cfg: Config) -> dict:
    lam = parse_partition(args.lam)
    _require_within(f"Kronecker coefficient for n={size(lam)}", size(lam), cfg.n_cap)
    value = characters.kronecker(lam, parse_partition(args.omega), parse_partition(args.sigma))
    return {"kron": value}


def _cmd_lr(args, cfg: Config) -> dict:
    sigma = parse_partition(args.sigma)
    _require_within(f"LR number for |sigma|={size(sigma)}", size(sigma), cfg.n_cap)
    value = characters.lr_checked(parse_partition(args.lam), parse_partition(args.omega), sigma)
    return {"lr": value}


def _cmd_pieri(args, cfg: Config) -> dict:
    lam = parse_partition(args.lam)
    _require_within(f"pieri decomposition for n={args.n}", args.n, cfg.n_cap)
    # Partitions of one n in reverse-lex order are in descending tuple order.
    terms = sorted(characters.pieri_decompose(lam, args.n), reverse=True)
    obj = {"lambda": format_partition(lam), "n": args.n,
           "terms": [format_partition(mu) for mu in terms]}
    if args.distinguished:
        obj["distinguished"] = format_partition(characters.pieri_distinguished(lam, args.n))
    return obj


def _cmd_tensor(args, cfg: Config) -> dict:
    lam = parse_partition(args.lam)
    omega = parse_partition(args.omega)
    _require_within(f"tensor decomposition for n={size(lam)}", size(lam), cfg.n_cap)
    # tensor_decompose lists the shapes in partitions_of order already.
    decomp = characters.tensor_decompose(lam, omega)
    return {"lambda": format_partition(lam), "omega": format_partition(omega),
            "terms": {format_partition(sig): m for sig, m in decomp.items()}}


def _cmd_rep_check(args, cfg: Config) -> dict:
    lam = parse_partition(args.lam)
    shape = format_partition(lam)
    _require_within(f"shape {shape} of size {size(lam)}", size(lam), cfg.n_cap)
    dim = dimension(lam)  # after the size cap: the hook-length formula takes factorial(n)
    _require_within(f"shape {shape} of dimension {dim}", dim, DEFAULT_DIM_CAP)
    require_int("--words", args.words)
    _require_within(f"--words {args.words} over dimension {dim} at n={size(lam)}",
                    args.words * dim * size(lam), WORD_WORK_CAP)
    return seminormal.rep_check(lam, args.words, cfg.seed)


def _cmd_secant(args, cfg: Config) -> dict:
    p = apolarity.parse_form(args.form)
    dim = apolarity.kernel_dimension(p, args.k)
    return {"member": dim > 0, "kernel_dimension": dim}


def _cmd_sylvester(args, cfg: Config) -> dict:
    return apolarity.sylvester_json(apolarity.parse_form(args.form), cfg.precision_bits)


def _json_arg(text: str, failure: str):
    """The CLI's one JSON reader: json.loads(text), or a DomainError "failure: reason".

    Besides malformed JSON, json.loads raises ValueError for an integer past
    Python's int-to-string limit and RecursionError for nesting past the
    recursion limit; each is a fault of the input.
    """
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise DomainError(f"{failure}: {exc}") from None


def _cmd_vdm(args, cfg: Config) -> dict:
    raw = _json_arg(args.nodes, "nodes must be a JSON list")
    if not isinstance(raw, list):
        raise DomainError("nodes must be a JSON list")
    return {"rank": apolarity.vandermonde_rank(raw, args.degree)}


def _cmd_join(args, cfg: Config) -> dict:
    result = apolarity.join_rank_check(apolarity.parse_form(args.form1),
                                       apolarity.parse_form(args.form2))
    return {"a": result.a, "b": result.b, "c": result.c, "sum_is_zero": result.c == 0}


def _cmd_curve_bounds(args, cfg: Config) -> dict:
    ctx = curvebounds.CurveContext(genus=args.genus, degree=args.degree)
    obj: dict = {}
    if args.twist is not None:
        obj["h0"] = curvebounds.h0(ctx, args.twist)
    if args.k is not None:
        obj["separates"] = curvebounds.separates_2k(ctx, args.k)
    if not obj:
        obj["max_k"] = curvebounds.max_admissible_k(ctx)
    return obj


def _loop_json(loop: monodromy.MonodromyLoop, cfg: Config, tolerance=monodromy.DEFAULT_TOLERANCE) -> dict:
    """The loop's result and the settings it was tracked with, which the CLI passed.

    steps, halvings and min_step count continued steps only: the CLI
    continues circles and answers half-twists in closed form, so a loop of
    half-twists alone reads 0, 0 and its initial step.
    """
    return {
        "permutation": cycle_notation(loop.permutation),
        "zero_based": list(loop.permutation),
        "steps": loop.refinement.steps,
        "halvings": loop.refinement.halvings,
        "initial_step": monodromy.DEFAULT_MAX_STEP,
        "min_step": float(loop.refinement.min_step),
        "tolerance": tolerance,
        "precision_bits": cfg.precision_bits,
    }


def _cmd_monodromy(args, cfg: Config) -> dict:
    chosen = [bool(args.spec), args.word is not None, args.spherical, args.defining]
    if sum(chosen) != 1:
        raise DomainError("pick exactly one of --spec, --word, --spherical, --defining")
    kwargs = {"precision_bits": cfg.precision_bits}
    if args.spec:
        text = args.spec
        if not text.lstrip().startswith("{"):
            try:
                with open(text, encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise DomainError(f"cannot read loop spec {args.spec}: {exc}") from None
        base, segments, tolerance = monodromy.parse_loop_spec(_json_arg(text, "loop spec is not valid JSON"))
        n = len(base) - 1
        _require_within(f"loop base of degree {n}", n, cfg.n_cap)
        letters = sum(n if isinstance(seg, monodromy.CoefficientCircle) else 1 for seg in segments)
        _require_loop_work(letters, n, cfg.precision_bits)
        return _loop_json(monodromy.track_roots(base, segments, tolerance=tolerance, **kwargs), cfg, tolerance)
    if args.n is None:
        raise DomainError("--word, --spherical, and --defining need --n")
    _require_within(f"monodromy on n={args.n} roots", args.n, cfg.n_cap)
    if args.word is not None:
        try:
            # An empty --word has no letters; an empty letter inside a word is malformed.
            word = [int(part) for part in args.word.split(",")] if args.word.strip() else []
        except ValueError:
            raise DomainError(f"word must be comma-separated integers, got {args.word!r}") from None
        _require_loop_work(len(word), args.n, cfg.precision_bits)
        return _loop_json(monodromy.word_loop(args.n, word, **kwargs), cfg)
    if args.spherical:
        _require_loop_work(2 * (args.n - 1), args.n, cfg.precision_bits)
        check = monodromy.spherical_word_check(args.n, **kwargs)
        return {"n": args.n, "identity": check.identity, **_loop_json(check.loop, cfg)}
    require_int("--samples", args.samples)
    # n - 1 generators, then each sampled word has at most 2n - 1 letters.
    _require_loop_work(args.n - 1 + args.samples * (2 * args.n - 1), args.n, cfg.precision_bits)
    report = monodromy.defining_rep_decomposition(args.n, sample_loops=args.samples,
                                                  seed=cfg.seed, **kwargs)
    return {
        "n": args.n,
        "generators": [cycle_notation(p) for p in report.generator_permutations],
        "word_samples": args.samples,
        "word_checks_ok": report.word_checks_ok,
        "group_order": report.group_order,
        "decomposition": {format_partition(lam): m for lam, m in report.decomposition.items()},
        "seed": cfg.seed,
    }


class _ShapeTexts(dict):
    """The quoted JSON text of each shape, formatted on first use; one per stream."""

    def __missing__(self, shape):
        text = self[shape] = f'"{format_partition(shape)}"'
        return text


def _record_line(record: brionlab.BrionRecord, texts: _ShapeTexts) -> str:
    """json.dumps(record.to_json(), separators=(",", ":")), written from one template.

    Keys come in to_json's order. Shape text, ints and verdicts need no
    escaping, so the line is the compact JSON of to_json byte for byte.
    """
    r = record
    sigma = f'"{brionlab.BELOW_THRESHOLD}"' if r.sigma is None else texts[r.sigma]
    big_s = "null" if r.Sigma is None else texts[r.Sigma]
    kron = "null" if r.kron is None else r.kron
    lr = "null" if r.lr is None else r.lr
    return (f'{{"n":{r.n},"lambda":{texts[r.lam]},"omega":{texts[r.omega]},"sigma":{sigma},'
            f'"Sigma":{big_s},"kron":{kron},"lr":{lr},"verdict":"{r.verdict}"}}')


def _human_line(record: brionlab.BrionRecord) -> str:
    obj = record.to_json()
    return " ".join(f"{key}={obj[key]}" for key in obj)


def _stream_records(records, cfg: Config, human: bool) -> None:
    texts = _ShapeTexts()
    with _sink(cfg) as out:

        def written():
            for record in records:
                out.write((_human_line(record) if human else _record_line(record, texts)) + "\n")
                yield record

        # Records are written as they are tallied, never held in a list.
        summary = brionlab.summarize(written())
        if human:
            out.write(" ".join(f"{k}={v}" for k, v in summary.items()) + "\n")
        else:
            out.write(json.dumps({"summary": summary}, separators=(",", ":")) + "\n")


def _cmd_brion_sweep(args, cfg: Config) -> None:
    require_int("brion size n", args.n_max)
    _require_within(f"sweep up to n={args.n_max}", args.n_max, min(cfg.sweep_cap, cfg.n_cap))
    _stream_records(brionlab.sweep(args.n_max, mode=args.mode), cfg, args.human)


def _cmd_brion_boundary(args, cfg: Config) -> None:
    require_int("brion size n", args.n)
    _require_within(f"boundary scan at n={args.n}", args.n, min(cfg.sweep_cap, cfg.n_cap))
    _stream_records(brionlab.boundary_scan(args.n, mode=args.mode), cfg, args.human)


# Each handler returns its JSON object for main to write, or writes a stream
# or grid through _sink itself and returns None.
_COMMANDS = {
    "chartable": _cmd_chartable,
    "kron": _cmd_kron,
    "lr": _cmd_lr,
    "pieri": _cmd_pieri,
    "tensor": _cmd_tensor,
    "rep-check": _cmd_rep_check,
    "secant": _cmd_secant,
    "sylvester": _cmd_sylvester,
    "vdm": _cmd_vdm,
    "join": _cmd_join,
    "curve-bounds": _cmd_curve_bounds,
    "monodromy": _cmd_monodromy,
    "brion-sweep": _cmd_brion_sweep,
    "brion-boundary": _cmd_brion_boundary,
}


# The longest error message written whole. A longer one, most often a message
# that quotes an oversized argument, keeps its first and last
# ERROR_MESSAGE_LIMIT // 2 characters, since the reason often comes last.
ERROR_MESSAGE_LIMIT = 1000


def _error_line(kind: str, message: str) -> None:
    if len(message) > ERROR_MESSAGE_LIMIT:
        keep = ERROR_MESSAGE_LIMIT // 2
        cut = len(message) - 2 * keep
        message = f"{message[:keep]} ... [{cut} of {len(message)} characters cut] ... {message[-keep:]}"
    sys.stderr.write(json.dumps({"error": kind, "message": message},
                                separators=(",", ":")) + "\n")


def _silence_stdout() -> None:
    """Point stdout's file descriptor, where it has one, at os.devnull, so the flush at exit raises nothing."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # a StringIO, or a stream already closed
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    try:
        args = _the_parser().parse_args(argv)
        cfg = _merge_config(args)
        obj = _COMMANDS[args.command](args, cfg)
        if obj is not None:
            _emit(obj, cfg, args.human)
        sys.stdout.flush()  # so that a closed stdout fails here, buffered or not
        return 0
    except BrokenPipeError:  # the reader closed stdout, as `| head` does
        _silence_stdout()
        _error_line(DomainError.kind, "stdout was closed before all the output was written")
        return DomainError.exit_code
    except KronsecError as exc:  # the class names its kind and exit code
        _error_line(exc.kind, str(exc))
        return exc.exit_code
    except Exception as exc:  # the boundary: no traceback reaches the user
        _error_line("internal", f"{type(exc).__name__}: {exc}")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

"""Exact symmetric-group character computations, apolarity rank certificates,
and numeric monodromy tracking, with a harness relating stable Kronecker
coefficients to Littlewood-Richardson numbers."""


def _register_mpmath_unloaded() -> None:
    """Put mpmath in sys.modules unloaded: it executes on its first attribute access.

    The package imports mpmath only inside the functions that use it, so
    importing kronsec loads none of it. This registration, the stdlib
    importlib.util.LazyLoader recipe, serves code that reads
    sys.modules["mpmath"] by name, as perfbench's tracer does, and is to go
    once that code skips unloaded modules.
    """
    import importlib.util
    import sys

    if "mpmath" in sys.modules:
        return
    spec = importlib.util.find_spec("mpmath")
    if spec is None:  # not installed: the functions that need it raise ImportError
        return
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["mpmath"] = module
    spec.loader.exec_module(module)


_register_mpmath_unloaded()
del _register_mpmath_unloaded

from .apolarity import (
    BinaryForm,
    JoinRank,
    RankSample,
    SecantCertificate,
    SupportPoint,
    catalecticant,
    form,
    join_rank_check,
    kernel_dimension,
    min_apolar_degree,
    parse_form,
    sample_rank_k_instance,
    secant_membership,
    sylvester_decompose,
    vandermonde_rank,
)
from .brionlab import (
    BrionRecord,
    boundary_scan,
    summarize,
    sweep,
    verify_equality,
    verify_vanishing,
)
from .characters import (
    CharacterTable,
    character_table,
    kronecker,
    lr_by_characters,
    lr_checked,
    lr_coefficient,
    mn_value,
    pieri_decompose,
    pieri_distinguished,
    tensor_decompose,
)
from .config import Config, load_config
from .curvebounds import CurveContext, h0, max_admissible_k, separates_2k
from .errors import (
    CapacityError,
    ConsistencyError,
    DomainError,
    KronsecError,
    PrecisionError,
)
from .monodromy import (
    MonodromyLoop,
    defining_rep_decomposition,
    spherical_word_check,
    track_roots,
    word_loop,
)
from .partitions import (
    Partition,
    attach_first_row,
    conjugacy_classes,
    dimension,
    format_partition,
    has_long_first_row,
    parse_partition,
    partitions_of,
)
from .seminormal import (
    SeminormalRep,
    build_rep,
    check_relations,
    evaluate_word,
    spherical_relation_image,
    standard_tableaux,
    word_trace,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryForm",
    "BrionRecord",
    "CapacityError",
    "CharacterTable",
    "Config",
    "ConsistencyError",
    "CurveContext",
    "DomainError",
    "JoinRank",
    "KronsecError",
    "MonodromyLoop",
    "Partition",
    "PrecisionError",
    "RankSample",
    "SecantCertificate",
    "SeminormalRep",
    "SupportPoint",
    "attach_first_row",
    "boundary_scan",
    "build_rep",
    "catalecticant",
    "character_table",
    "check_relations",
    "conjugacy_classes",
    "defining_rep_decomposition",
    "dimension",
    "evaluate_word",
    "form",
    "format_partition",
    "h0",
    "has_long_first_row",
    "join_rank_check",
    "kernel_dimension",
    "kronecker",
    "load_config",
    "lr_by_characters",
    "lr_checked",
    "lr_coefficient",
    "max_admissible_k",
    "min_apolar_degree",
    "mn_value",
    "parse_form",
    "parse_partition",
    "partitions_of",
    "pieri_decompose",
    "pieri_distinguished",
    "sample_rank_k_instance",
    "secant_membership",
    "separates_2k",
    "spherical_relation_image",
    "spherical_word_check",
    "standard_tableaux",
    "summarize",
    "sweep",
    "sylvester_decompose",
    "tensor_decompose",
    "track_roots",
    "vandermonde_rank",
    "verify_equality",
    "verify_vanishing",
    "word_loop",
    "word_trace",
]

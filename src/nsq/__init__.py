"""Classification toolkit for normal sequences.

Binary-sequence NPAF algebra, quad codes, the order-512 symmetry group,
the twelve-condition canonical form, exhaustive class enumeration, the
Golay pairs read off the classes, and a verifier for the bundled
reference tables.

The package namespace is lazy: ``import nsq`` loads none of the
submodules, and each public name below imports its home module on first
access (PEP 562), so a caller pays only for the modules it uses.
"""

from importlib import import_module

# The public names, by the submodule that defines each.
_SOURCES = {
    "core": (
        "BaseQuadruple",
        "BinarySeq",
        "NormalQuadruple",
        "NpafTable",
        "SequenceError",
        "alternate",
        "concat",
        "embed_bs",
        "is_base_sequences",
        "is_normal",
        "negate",
        "npaf",
        "npaf_sum",
        "reverse",
        "three_squares_feasible",
    ),
    "equivalence": (
        "CanonicalFormError",
        "Transform",
        "TRANSFORMS",
        "apply",
        "are_equivalent",
        "canonical_violation",
        "canonicalize",
        "is_canonical",
        "is_golay_type",
        "orbit",
    ),
    "golay": (
        "GolayPair",
        "embed",
        "golay_pairs",
        "golay_type_class_count",
        "two_embeddings_equivalent",
    ),
    "group": ("generators", "orbits_match_classes", "realized_order", "verify_relations"),
    "quadcodec": (
        "CodeError",
        "QuadCode",
        "compose_pair",
        "decode_quadruple",
        "decompose_pair",
        "encode_quadruple",
        "format_code",
        "parse_code",
        "symmetry_type",
    ),
    "search": ("ClassRecord", "enumerate_classes", "summarize"),
    "tables": ("diff_against_search", "load_tables", "verify_tables"),
}
_EXPORTS = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})

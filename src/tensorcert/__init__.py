"""Exact certificates for tensor rank over the rationals.

A tensor is presented by a rank-one decomposition: a multiprojective
point set together with weights.  Every computation runs in exact
rational arithmetic, so a PASS in a certificate is a proof, not a
numerical observation.

The names below are resolved on first access (PEP 562), so importing
the package, or ``tensorcert.cli``, loads only the modules a run uses.
"""

__version__ = "0.1.0"

# the modules the package root re-exports from, with their exported names
_EXPORTS = {
    "certify": (
        "ASSERTED", "CLAIM_CACTUS_BOUND", "CLAIM_EXACT_RANK", "CLAIM_IDENTIFIABLE",
        "CLAIM_MINIMAL_RANK", "CLAIM_NON_REDUNDANT", "CLAIM_OBSTRUCTION", "CLAIM_PINNING",
        "CLAIM_SPAN_IDENTITY", "FAIL", "PASS", "bound_cactus_rank", "certify_exact_rank",
        "certify_identifiability", "check_non_redundant", "check_span_intersection_identity",
        "obstruct_alt_decompositions", "pin_projections",
    ),
    "construct": ("augment_decomposition", "derive_seed", "random_decomposition", "survey"),
    "geometry": (
        "MultiPoint", "MultiShape", "PointSet", "assemble_tensor", "factor_projection_sizes",
        "flattening_rank",
    ),
    "kruskal": ("compare_criteria", "kruskal_certificate", "kruskal_rank"),
    "linalg": ("format_rational", "parse_rational"),
    "symmetric": ("comon_certify", "is_exceptional", "symmetric_bounds"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

# Defined here, and re-exported by ``construct``, because the command line
# reads them before it knows whether the command it runs needs ``construct``:
# the default coordinate box of the seeded draws is a parser default, and a
# failed augmentation is an exit code.
DEFAULT_BOX = 9


class AugmentationError(RuntimeError):
    """Raised when the augmentation retry budget runs out."""


__all__ = ["AugmentationError", "DEFAULT_BOX", *_HOME]


def __getattr__(name: str):
    """An exported name, or a submodule, imported on first access."""
    from importlib import import_module

    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value

"""Exact certificates for tensor rank over the rationals.

A tensor is presented by a rank-one decomposition: a multiprojective
point set together with weights.  Every computation runs in exact
rational arithmetic, so a PASS in a certificate is a proof, not a
numerical observation.
"""

from .certify import (
    ASSERTED,
    CLAIM_CACTUS_BOUND,
    CLAIM_EXACT_RANK,
    CLAIM_IDENTIFIABLE,
    CLAIM_MINIMAL_RANK,
    CLAIM_NON_REDUNDANT,
    CLAIM_OBSTRUCTION,
    CLAIM_PINNING,
    CLAIM_SPAN_IDENTITY,
    FAIL,
    PASS,
    BoundReport,
    Certificate,
    Hypothesis,
    InstanceParseError,
    PartitionEntry,
    bound_cactus_rank,
    certificate_from_json,
    certificate_to_json,
    certify_exact_rank,
    certify_identifiability,
    check_non_redundant,
    check_span_intersection_identity,
    obstruct_alt_decompositions,
    pin_projections,
)
from .construct import (
    AugmentationError,
    SurveyReport,
    SurveyRow,
    augment_decomposition,
    derive_seed,
    random_decomposition,
    survey,
)
from .geometry import (
    Cohomology,
    FactorPartition,
    MultiPoint,
    MultiShape,
    PointSet,
    all_partitions,
    assemble_tensor,
    cohomology,
    factor_projection_sizes,
    flattening_rank,
)
from .kruskal import (
    ComparisonRecord,
    KruskalReport,
    compare_criteria,
    kruskal_certificate,
    kruskal_rank,
)
from .linalg import (
    format_rational,
    parse_rational,
)
from .symmetric import (
    SymmetricBounds,
    comon_certify,
    is_exceptional,
    symmetric_bounds,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    # the CLI imports argparse, so it loads only when one of its names is used
    if name in ("load_instance", "run"):
        from . import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ASSERTED",
    "AugmentationError",
    "BoundReport",
    "CLAIM_CACTUS_BOUND",
    "CLAIM_EXACT_RANK",
    "CLAIM_IDENTIFIABLE",
    "CLAIM_MINIMAL_RANK",
    "CLAIM_NON_REDUNDANT",
    "CLAIM_OBSTRUCTION",
    "CLAIM_PINNING",
    "CLAIM_SPAN_IDENTITY",
    "Certificate",
    "Cohomology",
    "ComparisonRecord",
    "FAIL",
    "FactorPartition",
    "Hypothesis",
    "InstanceParseError",
    "KruskalReport",
    "MultiPoint",
    "MultiShape",
    "PASS",
    "PartitionEntry",
    "PointSet",
    "SurveyReport",
    "SurveyRow",
    "SymmetricBounds",
    "all_partitions",
    "assemble_tensor",
    "augment_decomposition",
    "bound_cactus_rank",
    "certificate_from_json",
    "certificate_to_json",
    "certify_exact_rank",
    "certify_identifiability",
    "check_non_redundant",
    "check_span_intersection_identity",
    "cohomology",
    "comon_certify",
    "compare_criteria",
    "derive_seed",
    "factor_projection_sizes",
    "flattening_rank",
    "format_rational",
    "is_exceptional",
    "kruskal_certificate",
    "kruskal_rank",
    "load_instance",
    "obstruct_alt_decompositions",
    "parse_rational",
    "pin_projections",
    "random_decomposition",
    "run",
    "survey",
    "symmetric_bounds",
]

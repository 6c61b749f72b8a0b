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
    bound_cactus_rank,
    certify_exact_rank,
    certify_identifiability,
    check_non_redundant,
    check_span_intersection_identity,
    obstruct_alt_decompositions,
    pin_projections,
)
from .construct import (
    AugmentationError,
    augment_decomposition,
    derive_seed,
    random_decomposition,
    survey,
)
from .geometry import (
    MultiPoint,
    MultiShape,
    PointSet,
    assemble_tensor,
    factor_projection_sizes,
    flattening_rank,
)
from .kruskal import (
    compare_criteria,
    kruskal_certificate,
    kruskal_rank,
)
from .linalg import (
    format_rational,
    parse_rational,
)
from .symmetric import (
    comon_certify,
    is_exceptional,
    symmetric_bounds,
)

__version__ = "0.1.0"

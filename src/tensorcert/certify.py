"""Certificates for rank bounds, exact rank, identifiability and pinning.

Every public operation returns a certificate, the cactus bound inside
the report of its search, as the JSON object it prints: a claim, a list
of named hypotheses that were actually checked, and a conclusion that is
present only when they hold.  A certificate is certified exactly when
its conclusion is not None; a hypothesis is unsatisfied exactly when its
status is FAIL.  Each certifier given weights checks the
non-redundancy of the decomposition itself, in the same leading
hypotheses.  The one hypothesis left unchecked is pinning's
quasi-generality, which the caller asserts and the certificate marks as
asserted.  Witnesses are
plain JSON values (ranks, indices, bounds) so certificates can
be serialized and compared; they never echo coordinates, which keeps
them invariant under rescaling of the input representatives.

A tensor is given by its decomposition, the points S and weights w, as
t = sum_j w_j S_j.  When the evaluation rows S_j are independent the
coefficients of t over them are unique, so they are the weights: t lies
in the span of S, and leaves the span of S without p_j exactly when
w_j != 0.  Non-redundancy is therefore the rank of S plus the zero
pattern of w, and no certificate needs the M coordinates of t.
"""

from __future__ import annotations

from itertools import combinations
from math import comb, prod
from typing import Sequence

from .geometry import (
    PointSet,
    bipartition,
    different_coordinates_violation,
    factor_projection_sizes,
    flattening_rank,
    subset_ranks,
)

PASS = "PASS"
FAIL = "FAIL"
ASSERTED = "ASSERTED"

CLAIM_NON_REDUNDANT = "NonRedundant"
CLAIM_CACTUS_BOUND = "CactusRankLowerBound"
CLAIM_EXACT_RANK = "ExactRank"
CLAIM_MINIMAL_RANK = "MinimalRank"
CLAIM_IDENTIFIABLE = "Identifiable"
CLAIM_OBSTRUCTION = "DifferentCoordinatesObstruction"
CLAIM_PINNING = "ProjectionPinning"
CLAIM_SPAN_IDENTITY = "SpanIntersectionIdentity"

# text form of a certified conclusion, filled in from its conclusion dict
CONCLUSION_TEXT = {
    CLAIM_EXACT_RANK: "rank = cactus rank = {rank}",
    CLAIM_NON_REDUNDANT: "non-redundant decomposition of cardinality {cardinality}",
    CLAIM_CACTUS_BOUND: "cactus rank >= {cactus_rank_at_least}, hence rank >= {cactus_rank_at_least}",
    CLAIM_IDENTIFIABLE: "rank = {rank}, the decomposition is minimal and unique",
    CLAIM_MINIMAL_RANK: "rank = {rank}, the decomposition is minimal",
    CLAIM_OBSTRUCTION: (
        "alternative decompositions with at most {alternative_max_cardinality} points "
        "cannot have injective projections"
    ),
    CLAIM_PINNING: (
        "projections on factors {pinned_factors} are pinned for "
        "alternatives with at most {cardinality} points"
    ),
    CLAIM_SPAN_IDENTITY: (
        "span intersection dimension {intersection_dim} matches the cohomology side {rhs}"
    ),
}

# obstruct prints one check per factor subset of size k - x, and the
# bipartition search one entry per bipartition; this caps both
MAX_RANKED_SUBSETS = 2**16

TAG_NON_REDUNDANT = "span-membership-non-redundancy"
TAG_CACTUS_BOUND = "flattening-cactus-lower-bound"
TAG_EXACT_RANK = "double-flattening-exact-rank"
TAG_IDENTIFIABILITY = "small-cardinality-identifiability"
TAG_SPAN_IDENTITY = "span-intersection-identity"
TAG_OBSTRUCTION = "projection-coordinate-obstruction"
TAG_PINNING = "projection-pinning"


def hypothesis(name: str, status: str, witness: dict) -> dict:
    """A checked hypothesis, as it prints."""
    return {"name": name, "status": status, "witness": witness}


def certificate(claim: str, theorem_ref: str, hypotheses: list[dict], conclusion: dict | None) -> dict:
    """A claim with its hypotheses and a conclusion that is None unless
    they all hold, as it prints."""
    return {"claim": claim, "theorem_ref": theorem_ref, "hypotheses": hypotheses, "conclusion": conclusion}


def non_redundancy_hypotheses(
    rank: int, r: int, weights: Sequence
) -> tuple[list[dict], bool]:
    """Non-redundancy of t = sum_j w_j v_j over r evaluation rows v_j of
    rank ``rank``, for any kind of evaluation row.

    The rows must be independent.  Then t lies in their span, and by the
    uniqueness of its coefficients it leaves the span of the rows other
    than j exactly when w_j != 0, so nothing is solved.
    """
    if len(weights) != r:
        raise ValueError(f"{len(weights)} weights for {r} points")
    hyps = [
        hypothesis(
            "evaluation_vectors_independent",
            PASS if rank == r else FAIL,
            {"rank": rank, "cardinality": r},
        )
    ]
    if rank != r:
        return hyps, False
    hyps.append(hypothesis("tensor_in_span", PASS, {"span_rank": r, "rank_with_tensor": r}))
    for j, w in enumerate(weights):
        hyps.append(
            hypothesis(
                "tensor_outside_span_of_proper_subset",
                PASS if w else FAIL,
                {"point_removed": j},
            )
        )
    return hyps, all(weights)


def check_non_redundant(s: PointSet, weights: Sequence) -> dict:
    """Certify that S with ``weights`` decomposes sum_j w_j Segre(p_j) and
    no proper subset of S does; the rank of S is that of the full set."""
    hyps, ok = non_redundancy_hypotheses(flattening_rank(s), len(s), weights)
    conclusion = {"cardinality": len(s)} if ok else None
    return certificate(CLAIM_NON_REDUNDANT, TAG_NON_REDUNDANT, hyps, conclusion)


def bipartition_masks(k: int) -> range:
    """E-bitmasks of the 2^k - 2 ordered proper bipartitions of {1..k},
    bit i - 1 standing for factor i, refused past MAX_RANKED_SUBSETS."""
    if (count := (1 << k) - 2) > MAX_RANKED_SUBSETS:
        cap = f"more than the {MAX_RANKED_SUBSETS} the search takes"
        raise ValueError(f"{k} factors have 2^{k} - 2 bipartitions, {cap}")
    return range(1, count + 1)


def _bipartitions(s: PointSet, partition: int | None):
    """(E-bitmask, h1 of the E-flattening, rank of the F-flattening) for
    the E-bitmask ``partition``, or for every bipartition in E-bitmask
    order when None.  Both searches read these two numbers.  The masks
    are checked, and refused past the cap, before any rank; the ranks of
    both sides of every bipartition asked come from one ``subset_ranks``
    walk."""
    k, full = s.shape.k, (1 << s.shape.k) - 1
    if partition is None:
        masks = bipartition_masks(k)
    elif 0 < partition < full:
        masks = [partition]
    else:
        raise ValueError(f"partition mask {partition} leaves a side of the {k} factors empty")
    ranks = subset_ranks(s, [*masks, *(full ^ mask for mask in masks)])
    return ((mask, len(s) - ranks[mask], ranks[full ^ mask]) for mask in masks)


def bound_cactus_rank(s: PointSet, weights: Sequence, partition: int | None = None) -> dict:
    """Best lower bound on the cactus rank over bipartitions of the factors.

    A bipartition (E, F) yields the bound M_F - h0(S, F), which is the rank
    of the F-flattening, provided the E-flattening of S has h1 = 0 and the
    bound exceeds 1.  The bound holds for a non-redundant decomposition,
    so the certificate checks that S with ``weights`` is one before it
    concludes.  The search and its best bound are reported either way, as
    the JSON object ``cactus_bound`` prints, its certificate included.
    ``partition`` is an E-bitmask, bit i - 1 for factor i.
    """
    search = _bipartitions(s, partition)
    hyps, non_redundant = non_redundancy_hypotheses(flattening_rank(s), len(s), weights)
    k, entries = s.shape.k, []
    best: tuple[int, int] | None = None
    for mask, h1_e, bound in search:
        if h1_e != 0:
            applicable, bound, reason = False, None, "h1 of the E-flattening is nonzero"
        elif bound <= 1:
            applicable, reason = False, "bound does not exceed the trivial 1"
        else:
            applicable, reason = True, None
            if best is None or bound > best[0]:
                best = bound, mask
        part = bipartition(mask, k)
        entries.append({"partition": part, "applicable": applicable, "bound": bound, "reason": reason})
    if best:
        hyps.append(
            hypothesis(
                "e_flattening_independent",
                PASS,
                {"partition": bipartition(best[1], k), "h1_E": 0},
            )
        )
        conclusion = {
            "cactus_rank_at_least": best[0],
            "rank_at_least": best[0],
            "partition": bipartition(best[1], k),
        }
    else:
        hyps.append(
            hypothesis(
                "e_flattening_independent",
                FAIL,
                {"note": "no inspected partition was applicable"},
            )
        )
        conclusion = None
    cert = certificate(
        CLAIM_CACTUS_BOUND, TAG_CACTUS_BOUND, hyps, conclusion if non_redundant else None
    )
    return {
        "best_bound": best[0] if best else 1,
        "best_partition": bipartition(best[1], k) if best else None,
        "per_partition": entries,
        "certificate": cert,
    }


def certify_exact_rank(s: PointSet, weights: Sequence, partition: int | None = None) -> dict:
    """Certify rank = cactus rank = #S via a bipartition with h1 = 0 on
    both flattenings, on top of a non-redundancy certificate; a given
    ``partition`` is an E-bitmask, as for ``bound_cactus_rank``."""
    r, k, search = len(s), s.shape.k, _bipartitions(s, partition)
    hyps, non_redundant = non_redundancy_hypotheses(flattening_rank(s), r, weights)
    if not non_redundant:
        return certificate(CLAIM_EXACT_RANK, TAG_EXACT_RANK, hyps, None)
    attempts = []
    found: int | None = None
    for mask, h1_e, rank_f in search:
        h1_f = r - rank_f
        attempts.append({"partition": bipartition(mask, k), "h1_E": h1_e, "h1_F": h1_f})
        if h1_e == 0 and h1_f == 0:
            found = mask
            break
    hyps.append(
        hypothesis(
            "partition_with_both_flattenings_independent",
            PASS if found else FAIL,
            {"attempts": attempts},
        )
    )
    conclusion = {"rank": r, "cactus_rank": r, "partition": bipartition(found, k)} if found else None
    return certificate(CLAIM_EXACT_RANK, TAG_EXACT_RANK, hyps, conclusion)


def certify_identifiability(s: PointSet, weights: Sequence) -> dict:
    """Certify minimality, and uniqueness when stronger, of a small
    non-redundant decomposition.

    Beyond non-redundancy, the hypotheses are that every factor
    projection is either constant on S or injective on S, and that with
    k' the number of non-constant factors, 2r <= k' + 2 (minimality) or
    2r <= k' + 1 (uniqueness).  Constant factors split off a fixed
    vector of the tensor and contribute nothing, so the count uses only
    the factors where S actually moves.  A singleton is certified
    directly: the Segre embedding is injective, so a rank-one tensor has
    exactly one rank-one decomposition.

    The numeric range is deliberately tighter than 2r <= k + max(n_i):
    with that range a set of three points on (P^1)^5, two of them
    sharing all factors but the last, is non-redundant and non-degenerate
    with 2r = k + max(n_i), yet the two sharing points merge into a
    single rank-one term, so the decomposition is not minimal.  The
    injective-or-constant hypothesis plus the k'-range excludes every
    such collapse: any shorter or different decomposition would create a
    minimally dependent set of at most k'+1 points in the union, forcing
    two points of S to share a coordinate.
    """
    r = len(s)
    hyps, non_redundant = non_redundancy_hypotheses(flattening_rank(s), r, weights)
    if not non_redundant:
        return certificate(CLAIM_MINIMAL_RANK, TAG_IDENTIFIABILITY, hyps, None)
    if r == 1:
        hyps.append(hypothesis("singleton_decomposition", PASS, {"cardinality": 1}))
        conclusion = {"rank": 1, "minimal": True, "identifiable": True}
        return certificate(CLAIM_IDENTIFIABLE, TAG_IDENTIFIABILITY, hyps, conclusion)
    sizes = factor_projection_sizes(s)
    constant = [i for i, c in enumerate(sizes, start=1) if c == 1]
    mixed = [i for i, c in enumerate(sizes, start=1) if 1 < c < r]
    k_eff = sum(1 for c in sizes if c > 1)
    hyps.append(
        hypothesis(
            "factor_projections_injective_or_constant",
            PASS if not mixed else FAIL,
            {
                "projection_sizes": list(sizes),
                "constant_factors": constant,
                "violating_factors": mixed,
                "k_effective": k_eff,
            },
        )
    )
    if mixed:
        return certificate(CLAIM_MINIMAL_RANK, TAG_IDENTIFIABILITY, hyps, None)
    minimal = 2 * r <= k_eff + 2
    identifiable = 2 * r <= k_eff + 1
    hyps.append(
        hypothesis(
            "cardinality_within_range",
            PASS if minimal else FAIL,
            {
                "two_r": 2 * r,
                "k_effective": k_eff,
                "minimal_when_at_most": k_eff + 2,
                "identifiable_when_at_most": k_eff + 1,
            },
        )
    )
    if not minimal:
        return certificate(CLAIM_MINIMAL_RANK, TAG_IDENTIFIABILITY, hyps, None)
    conclusion = {"rank": r, "minimal": True, "identifiable": identifiable}
    claim = CLAIM_IDENTIFIABLE if identifiable else CLAIM_MINIMAL_RANK
    return certificate(claim, TAG_IDENTIFIABILITY, hyps, conclusion)


def check_span_intersection_identity(a: PointSet, b: PointSet) -> dict:
    """Verify, for independent point sets of a common shape, that the
    projective dimension of the intersection of their Segre spans equals
    dim of the span of the common points plus h1 of the union."""
    if a.shape != b.shape:
        raise ValueError("the two point sets have different shapes")
    hyps = []
    ok = True
    for name, ps in (("first_set_independent", a), ("second_set_independent", b)):
        h1 = len(ps) - flattening_rank(ps)
        hyps.append(hypothesis(name, PASS if h1 == 0 else FAIL, {"cardinality": len(ps), "h1": h1}))
        ok = ok and h1 == 0
    if not ok:
        return certificate(CLAIM_SPAN_IDENTITY, TAG_SPAN_IDENTITY, hyps, None)
    a_points, b_points = set(a.points), set(b.points)
    union = PointSet(a.shape, a.points + tuple(p for p in b.points if p not in a_points))
    # Grassmann: dim <A> n <B> = rank A + rank B - rank(A, B) - 1, and the
    # stacked rows of A and B span what the rows of their union span
    lhs = flattening_rank(a) + flattening_rank(b) - flattening_rank(union) - 1
    common = [p for p in a.points if p in b_points]
    common_dim = flattening_rank(PointSet(a.shape, tuple(common))) - 1 if common else -1
    h1_union = len(union) - flattening_rank(union)
    rhs = common_dim + h1_union
    hyps.append(
        hypothesis(
            "identity_holds",
            PASS if lhs == rhs else FAIL,
            {
                "lhs_intersection_dim": lhs,
                "common_points": len(common),
                "common_span_dim": common_dim,
                "h1_union": h1_union,
                "rhs": rhs,
            },
        )
    )
    conclusion = {"intersection_dim": lhs, "rhs": rhs} if lhs == rhs else None
    return certificate(CLAIM_SPAN_IDENTITY, TAG_SPAN_IDENTITY, hyps, conclusion)


def obstruct_alt_decompositions(s: PointSet, weights: Sequence, x: int) -> dict:
    """Certify that no other non-redundant decomposition of cardinality
    at most ``x`` can have injective factor projections.

    Requires 0 < x < k and at most MAX_RANKED_SUBSETS subsets of size
    k - x, both checked before any rank.  The hypotheses checked are that
    S with ``weights`` is a non-redundant decomposition, injective
    projections of S, the capacity condition (min size)^(k-x) >= #S, and
    h1 = 0 on every flattening by a factor subset of size k - x.
    """
    k = s.shape.k
    if not 0 < x < k:
        raise ValueError(f"x must satisfy 0 < x < k, got x={x} with k={k}")
    if (count := comb(k, k - x)) > MAX_RANKED_SUBSETS:
        raise ValueError(
            f"x={x} with k={k} asks for {count} factor subsets of size {k - x}, "
            f"more than the {MAX_RANKED_SUBSETS} that obstruct ranks"
        )
    r = len(s)
    hyps, non_redundant = non_redundancy_hypotheses(flattening_rank(s), r, weights)
    violation = different_coordinates_violation(s)
    hyps.append(
        hypothesis(
            "different_coordinates",
            PASS if violation is None else FAIL,
            {}
            if violation is None
            else {"factor": violation[0], "points": [violation[1], violation[2]]},
        )
    )
    m_small = s.shape.min_dim
    capacity = (m_small + 1) ** (k - x)
    hyps.append(
        hypothesis(
            "projection_capacity",
            PASS if capacity >= r else FAIL,
            {"capacity": capacity, "cardinality": r, "min_dim": m_small, "exponent": k - x},
        )
    )
    subsets = list(combinations(range(1, k + 1), k - x))
    # each subset's mask is all k factors but its x left out: the left-out
    # sets in reversed combinations order are the complements in order
    full = (1 << k) - 1
    left_out = reversed(list(combinations(range(1, k + 1), x)))
    masks = [full ^ sum(1 << (i - 1) for i in out) for out in left_out]
    ranks = subset_ranks(s, masks)
    subset_checks = [{"subset": list(u), "h1": r - ranks[mask]} for u, mask in zip(subsets, masks)]
    all_zero = all(check["h1"] == 0 for check in subset_checks)
    hyps.append(
        hypothesis(
            "independent_conditions_on_all_subsets",
            PASS if all_zero else FAIL,
            {"subset_size": k - x, "checks": subset_checks},
        )
    )
    certified = non_redundant and violation is None and capacity >= r and all_zero
    conclusion = (
        {
            "cardinality": r,
            "alternative_max_cardinality": x,
            "statement": (
                "every other non-redundant decomposition of the same tensor with at most "
                f"{x} points has some non-injective factor projection"
            ),
        }
        if certified
        else None
    )
    return certificate(CLAIM_OBSTRUCTION, TAG_OBSTRUCTION, hyps, conclusion)


def pin_projections(
    s: PointSet,
    weights: Sequence,
    families,
    quasi_general_asserted: bool = False,
) -> dict:
    """Pin factor projections of any other small decomposition of the tensor.

    ``families`` gives, for each factor i, a proper subset F_i containing
    i; E_i is its complement.  A family is usable when r < M_{F_i},
    r <= M_{E_i}, both flattenings of S have full rank r, and the caller
    asserts that the F_i-projection of S is quasi-general.  The
    quasi-generality flag is never verified here and is recorded as
    ASSERTED.  For every usable family, any other decomposition of the
    tensor with at most r points has exactly r points and the same
    F_i-projection as S, hence the same factor-j projections for j in
    F_i.  Equality of the decompositions themselves is not implied.
    """
    k, sizes, full = s.shape.k, s.shape.sizes, (1 << s.shape.k) - 1
    fams = []
    for members in (tuple(int(i) for i in f) for f in families):
        if not members:
            raise ValueError("factor subset must be nonempty")
        if len(set(members)) != len(members):
            raise ValueError(f"factor subset {members} has repeated indices")
        if any(i < 1 or i > k for i in members):
            raise ValueError(f"factor subset {members} out of range for k={k}")
        fams.append(sum(1 << (i - 1) for i in members))
    if len(fams) != k:
        raise ValueError(f"expected one family per factor ({k}), got {len(fams)}")
    for i, fam in enumerate(fams, start=1):
        if not fam >> (i - 1) & 1:
            raise ValueError(f"family {i} must contain factor {i}")
        if fam == full:
            raise ValueError(f"family {i} must be a proper subset of the factors")
    r = len(s)
    hyps, non_redundant = non_redundancy_hypotheses(flattening_rank(s), r, weights)
    ranks = subset_ranks(s, [*fams, *(full ^ fam for fam in fams)])
    pinned: set[int] = set()
    usable = []
    for i, mask in enumerate(fams, start=1):
        fam, comp = bipartition(mask, k).values()
        m_f, m_e = (prod(sizes[j - 1] for j in side) for side in (fam, comp))
        rank_f, rank_e = ranks[mask], ranks[full ^ mask]
        numeric_ok = r < m_f and r <= m_e
        ranks_ok = rank_f == r and rank_e == r
        hyps.append(
            hypothesis(
                "family_projection_conditions",
                PASS if numeric_ok and ranks_ok else FAIL,
                {
                    "family": list(fam),
                    "complement": list(comp),
                    "cardinality": r,
                    "M_F": m_f,
                    "M_E": m_e,
                    "rank_F": rank_f,
                    "rank_E": rank_e,
                },
            )
        )
        hyps.append(
            hypothesis(
                "quasi-general",
                ASSERTED if quasi_general_asserted else FAIL,
                {"family_index": i, "family": list(fam), "asserted": quasi_general_asserted},
            )
        )
        if numeric_ok and ranks_ok and quasi_general_asserted:
            usable.append(i)
            pinned.update(fam)
    certified = non_redundant and bool(usable)
    conclusion = (
        {
            "cardinality": r,
            "usable_families": usable,
            "pinned_factors": sorted(pinned),
            "statement": (
                "every other decomposition of the tensor with at most "
                f"{r} points has exactly {r} points and the same projections "
                f"on factors {sorted(pinned)}"
            ),
            "caveat": "equal projections do not force the decompositions to coincide",
        }
        if certified
        else None
    )
    return certificate(CLAIM_PINNING, TAG_PINNING, hyps, conclusion)

"""Kruskal rank and the k-way Kruskal uniqueness baseline.

The Kruskal rank of a matrix is the largest kappa such that every
kappa-subset of columns is linearly independent.  The baseline
uniqueness condition for a decomposition with r points compares the sum
of the factor-matrix Kruskal ranks against 2r + k - 1.  This module also
bundles the side-by-side comparison against the flattening certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .certify import BoundReport, Certificate, bound_cactus_rank, certify_exact_rank, certify_identifiability, check_non_redundant
from .geometry import AmbientTensor, PointSet, factor_matrix
from .linalg import RatMatrix, rat_rank

MAX_EXHAUSTIVE_COLUMNS = 20

KRUSKAL_BASELINE = "sum of factor Kruskal ranks >= 2r + k - 1"


def kruskal_rank(m: RatMatrix) -> int:
    """Largest kappa with every kappa-subset of columns independent.

    Exhaustive subset enumeration, descending from the rank; each level
    stops at its first dependent subset.  Raises on a zero column and on
    matrices with more than 20 columns.
    """
    if m.cols == 0:
        raise ValueError("Kruskal rank of a matrix with no columns is undefined")
    if m.cols > MAX_EXHAUSTIVE_COLUMNS:
        raise ValueError(
            f"exhaustive Kruskal rank is capped at {MAX_EXHAUSTIVE_COLUMNS} columns, got {m.cols}"
        )
    columns = [m.column(j) for j in range(m.cols)]
    for j, col in enumerate(columns):
        if not any(col):
            raise ValueError(f"column {j} is zero, Kruskal rank undefined")
    for kappa in range(min(rat_rank(m), m.cols), 0, -1):
        if all(
            rat_rank(RatMatrix.from_rows([columns[j] for j in combo])) == kappa
            for combo in combinations(range(m.cols), kappa)
        ):
            return kappa
    return 0


@dataclass(frozen=True)
class KruskalReport:
    """Factor Kruskal ranks and the k-way uniqueness condition."""

    per_factor: tuple[int, ...]
    cardinality: int
    condition_lhs: int
    condition_rhs: int
    applies: bool

    def as_json(self) -> dict:
        return {
            "baseline": KRUSKAL_BASELINE,
            "per_factor_kruskal_rank": list(self.per_factor),
            "cardinality": self.cardinality,
            "condition_lhs": self.condition_lhs,
            "condition_rhs": self.condition_rhs,
            "applies": self.applies,
        }


def kruskal_certificate(s: PointSet) -> KruskalReport:
    """Evaluate the k-way Kruskal condition on the factor matrices of S.

    Factor matrices have one column per point, so their Kruskal ranks
    speak about subsets of the decomposition.
    """
    k = s.shape.k
    r = len(s)
    per_factor = tuple(kruskal_rank(factor_matrix(s, i).transpose()) for i in range(1, k + 1))
    lhs = sum(per_factor)
    rhs = 2 * r + k - 1
    return KruskalReport(per_factor, r, lhs, rhs, lhs >= rhs)


@dataclass(frozen=True)
class ComparisonRecord:
    """Flattening certificates next to the Kruskal baseline."""

    non_redundant: Certificate
    bound: BoundReport
    exact_rank: Certificate
    identifiability: Certificate
    kruskal: KruskalReport

    @property
    def flattening_applies(self) -> bool:
        return self.exact_rank.certified or self.identifiability.certified

    @property
    def kruskal_applies(self) -> bool:
        # the baseline condition is a statement about an actual decomposition
        # of the tensor, so a redundant S gives it nothing to conclude about
        return self.kruskal.applies and self.non_redundant.certified

    @property
    def flattening_without_kruskal(self) -> bool:
        return self.flattening_applies and not self.kruskal_applies


def compare_criteria(tensor: AmbientTensor, s: PointSet) -> ComparisonRecord:
    """Run every criterion on one decomposition and collect the outcomes."""
    return ComparisonRecord(
        non_redundant=check_non_redundant(tensor, s),
        bound=bound_cactus_rank(s),
        exact_rank=certify_exact_rank(tensor, s),
        identifiability=certify_identifiability(tensor, s),
        kruskal=kruskal_certificate(s),
    )

"""Exact computations with spike matroids over prime fields.

A spike of rank n is assembled from n three-point lines through a common
tip.  Over GF(p) every representable spike is captured, up to weak
equivalence, by a diagonal of nonzero residues; the dependent transversals
of that diagonal (its *signature*) decide which circuit-hyperplanes exist
and, through one elimination over the rationals, over which
characteristics the same matroid can be represented at all.
"""

from .bitsets import indices_from_mask, mask_from_indices
from .errors import (
    BudgetExceededError,
    CompositeModulusError,
    DependentTransversalError,
    MismatchedShapeError,
    NoCircuitHyperplaneError,
    NonSquareError,
    NotInSignatureError,
    NoWitnessError,
    OutOfRangeError,
    SpikeLabError,
    TooLargeError,
    TooSmallError,
    VerdictMismatchError,
    ZeroEntryError,
    ZeroInverseError,
)
from .field import MAX_MODULUS, PrimeField, is_prime
from .matrix import (
    MatrixGF,
    ones_plus_diag,
    spike_det,
    verify_det_identity,
)
from .represent import (
    CharCertificate,
    IntegerDiagonal,
    InverseIntegerDiagonal,
    build_certificate,
    characteristic_set,
    construct_char_only,
    construct_multichar,
    estimate_L,
    search_rep,
    threshold_interval,
    uniqueness_audit,
)
from .spikes import (
    Diagonal,
    Signature,
    build_rep,
    canonical_form,
    check_axioms,
    circuit_hyperplane,
    enumerate_spikes,
    is_dependent_transversal,
    normalize,
    orbit,
    orbit_size,
    signature,
    spike_census,
    swap,
    swap_closure,
    weakly_equivalent,
)
from .zerosum import (
    subset_with_sum,
    verify_lemma_2_1,
    verify_lemma_2_2,
    zero_sum_subset,
)

__version__ = "1.0.0"

__all__ = [
    "BudgetExceededError",
    "CharCertificate",
    "CompositeModulusError",
    "DependentTransversalError",
    "Diagonal",
    "IntegerDiagonal",
    "InverseIntegerDiagonal",
    "MAX_MODULUS",
    "MatrixGF",
    "MismatchedShapeError",
    "NoCircuitHyperplaneError",
    "NoWitnessError",
    "NonSquareError",
    "NotInSignatureError",
    "OutOfRangeError",
    "PrimeField",
    "Signature",
    "SpikeLabError",
    "TooLargeError",
    "TooSmallError",
    "VerdictMismatchError",
    "ZeroEntryError",
    "ZeroInverseError",
    "build_certificate",
    "build_rep",
    "canonical_form",
    "characteristic_set",
    "check_axioms",
    "circuit_hyperplane",
    "construct_char_only",
    "construct_multichar",
    "enumerate_spikes",
    "estimate_L",
    "indices_from_mask",
    "is_dependent_transversal",
    "is_prime",
    "mask_from_indices",
    "normalize",
    "ones_plus_diag",
    "orbit",
    "orbit_size",
    "search_rep",
    "signature",
    "spike_census",
    "spike_det",
    "subset_with_sum",
    "swap",
    "swap_closure",
    "threshold_interval",
    "uniqueness_audit",
    "verify_det_identity",
    "verify_lemma_2_1",
    "verify_lemma_2_2",
    "weakly_equivalent",
    "zero_sum_subset",
]

"""knotcert: exact group-theoretic certificates for a doubled torus-knot
family.

The library builds knot group presentations, computes Alexander modules
and their order ideals by Fox calculus over Z[t, t^-1], solves the word
problem in torus knot groups, and emits machine-checkable certificates
that the four-generator quotient groups of the family are pairwise
non-isomorphic.  Everything is exact integer arithmetic.
"""

from .constructions import (
    BadPair,
    ConsistencyReport,
    DistinctnessCertificate,
    GammaArtifacts,
    InvalidP,
    MismatchError,
    annihilator_poly,
    derive_gamma_consistency,
    distinctness_certificate,
    distinctness_certificates,
    double_presentation,
    fold_images,
    gamma_artifacts,
    gamma_presentation,
    gamma_tab_presentation,
    order_ideal,
    standard_presentation,
    tau_word,
    torus_wirtinger,
)
from .fox import (
    GroupRingElement,
    IdealGenerators,
    NotInfiniteCyclicAbelianization,
    UnmappedGenerator,
    abelianize_element,
    alexander_matrix,
    alexander_polynomial,
    elementary_ideal,
    fox_derivative,
)
from .intlinalg import Matrix, SnfResult, smith_normal_form
from .laurent import (
    AllZero,
    DivisionByZero,
    InvalidIndex,
    LaurentPoly,
    NotDivisible,
    SizeTooLarge,
    cyclotomic,
    cyclotomic_divisor_test,
    divide_exact,
    divides,
    laurent_gcd,
    minors,
)
from .presentations import (
    AbelianizationResult,
    NoDefiningRelator,
    Presentation,
    abelianization,
    add_relator,
    eliminate_generator,
)
from .torus import (
    BadParams,
    TorusKnotParams,
    TorusNF,
    is_in_commutator_subgroup,
    normal_form,
    verify_homomorphism,
    wirtinger_standard_images,
)
from .words import ForeignGenerator, Word, commutator

__version__ = "0.1.0"

__all__ = [
    "AbelianizationResult",
    "AllZero",
    "BadPair",
    "BadParams",
    "ConsistencyReport",
    "DistinctnessCertificate",
    "DivisionByZero",
    "ForeignGenerator",
    "GammaArtifacts",
    "GroupRingElement",
    "IdealGenerators",
    "InvalidIndex",
    "InvalidP",
    "LaurentPoly",
    "Matrix",
    "MismatchError",
    "NoDefiningRelator",
    "NotDivisible",
    "NotInfiniteCyclicAbelianization",
    "Presentation",
    "SizeTooLarge",
    "SnfResult",
    "TorusKnotParams",
    "TorusNF",
    "UnmappedGenerator",
    "Word",
    "abelianization",
    "abelianize_element",
    "add_relator",
    "alexander_matrix",
    "alexander_polynomial",
    "annihilator_poly",
    "commutator",
    "cyclotomic",
    "cyclotomic_divisor_test",
    "derive_gamma_consistency",
    "distinctness_certificate",
    "distinctness_certificates",
    "divide_exact",
    "divides",
    "double_presentation",
    "eliminate_generator",
    "elementary_ideal",
    "fold_images",
    "fox_derivative",
    "gamma_artifacts",
    "gamma_presentation",
    "gamma_tab_presentation",
    "is_in_commutator_subgroup",
    "laurent_gcd",
    "minors",
    "normal_form",
    "order_ideal",
    "smith_normal_form",
    "standard_presentation",
    "tau_word",
    "torus_wirtinger",
    "verify_homomorphism",
    "wirtinger_standard_images",
]

"""Exact arithmetic for free algebras of rank 2 and 3.

The package builds algebras from structure constants over Z, Q, or a
prime field, verifies associativity and involution axioms exactly,
reduces the universal rank-3 multiplication table to its six free
coefficients, translates commutative tables to binary cubic forms, and
runs exhaustive small-field censuses that confirm the structure
theorems tuple by tuple.
"""

from .algebra import (
    AlgebraElement,
    AlgebraMap,
    SquareMatrix,
    StructureConstants,
    algebra_degree,
    direct_product,
    element_to_matrix,
    left_regular_rep,
    matrix_algebra,
    matrix_to_element,
    min_poly,
    product_components,
    product_element,
    rank_one,
    rebase,
)
from .classify import (
    CensusReport,
    DegreeProductReport,
    ProbeReport,
    QuadraticCensusReport,
    degree_product_check,
    enumerate_cubic,
    exceptional_classes,
    is_isomorphic_bruteforce,
    mn_degree_probes,
    quadratic_census,
    verify_main_theorem,
)
from .cubic import (
    BinaryCubicForm,
    CubicCase,
    CubicCoefficients,
    ExceptionalWitness,
    GeneralCubicTable,
    algebra_from_form,
    build_algebra,
    char_poly_exceptional,
    classify_case,
    commutative_from_form,
    exceptional_norm,
    exceptional_normal_form,
    exceptional_ring,
    exceptional_witness,
    form_from_commutative,
    gl2_act,
    matrix_rep,
    normalize,
    standard_involution_exceptional,
    validate_relations,
)
from .errors import (
    GuardExceeded,
    InputError,
    LowrankError,
    NotAUnit,
    RelationViolation,
    SpecMismatch,
    TableError,
    UnsupportedRing,
    WrongCase,
)
from .involutions import (
    Involution,
    all_standard_involutions,
    find_standard_involution,
    m2_adjoint,
    pair_swap,
    quadratic_certificate,
    quaternion_algebra,
    quaternion_conjugation,
    quaternion_norm_form,
    trace,
    norm,
    verify_involution,
    verify_standard,
)
from .poly import Polynomial, poly_gcd
from .quadratic import (
    ArtinSchreierClass,
    DiscriminantClass,
    QuadraticAlgebra,
    artin_schreier_class,
    artin_schreier_class_count,
    complete_basis_to_unity,
    complete_square,
    is_isomorphic_2unit,
    is_isomorphic_over_z,
    is_separable,
    split_idempotent,
    standard_involution_quadratic,
)
from .rings import (
    GF,
    QQ,
    RingElement,
    RingSpec,
    ZZ,
    bezout,
    exact_div,
    square_class_equal,
    square_class_witness,
)

__all__ = [name for name in dir() if not name.startswith("_")]

"""Exact tangent-space weights of Schubert and Kazhdan-Lusztig varieties.

The package decides, for a torus-fixed point x and a Schubert condition w,
which ambient torus weights lie in the Zariski tangent space, using only
exact integer combinatorics: Weyl group elements as points of the orbit of rho,
0-Hecke (Demazure) products, subword complexes, and Laurent-polynomial
localization classes.
"""

from .errors import (
    BeyondTruncation,
    ExponentOutsideCone,
    GroupTooLarge,
    InvalidCartanType,
    KltangentError,
    LengthBoundExceeded,
    LetterOutOfRange,
    NotBelow,
    NotMember,
    NotMinimalCosetRep,
    NotReduced,
    TargetNotContained,
    WrongType,
)
from .rootsys import (
    CartanType,
    Root,
    RootSystem,
    build_root_system,
    cominuscule_nodes,
    format_root,
    height,
    reflect,
    root_from_epsilon,
    root_to_epsilon,
)
from .weyl import (
    GammaSequence,
    GroupTable,
    WeylElement,
    Word,
    act_on_root,
    all_reduced_words,
    bruhat_leq,
    canonical_reduced_word,
    enumerate_weyl_group,
    gamma_sequence,
    group_table,
    identity_element,
    inverse,
    inversion_set_of_inverse,
    is_min_coset_rep,
    is_reduced,
    longest_element,
    multiply,
    parse_word,
    simple_reflection,
    weyl_group_order,
    word_to_element,
)
from .hecke import HeckeWordStats, demazure_element, demazure_product, hecke_mult
from .subword import (
    HeckeSubword,
    IndexSequence,
    SubwordComplex,
    boundary_faces,
    build_complex,
    euler_characteristics,
    euler_signed_sum,
    hecke_subwords,
    reduced_subwords,
)
from .rt_ring import (
    LaurentPoly,
    TruncatedSeries,
    WeightVector,
    char_series,
    in_nonneg_integer_span,
    lambda_minus_one,
    one_minus_e,
)
from .tangent import (
    Evidence,
    TangentReport,
    Verdict,
    WeightStatus,
    cominuscule_witness,
    element_to_permutation,
    gp_tangent_report,
    is_cominuscule_element,
    is_explicit_factor,
    is_integrally_indecomposable,
    kclass_restriction,
    kclass_restrictions,
    kl_tangent_membership,
    kl_tangent_report,
    tangent_cone_coefficient,
    tangent_cone_series,
    te_curve_weights,
    type_a_cominuscule_oracle,
    type_a_tangent_oracle,
)

__version__ = "0.1.0"

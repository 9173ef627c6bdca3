"""Exact construction and certification of degree-2 canonical-ideal generators
for cyclic-cover curve families."""

from .errors import CanidealError
from .exactalg import (
    CycloElement,
    PrimeFieldElement,
    SparsePoly,
    cyclotomic_min_poly,
    divide_by_lambda_power,
    lambda_valuation,
    reduce_mod_lambda,
)
from .family import (
    APolynomial,
    FamilyParams,
    a_polynomial,
    a_power_coefficients,
    a_power_min_exponent,
    deformation_symbols,
    genus,
    multinomial_coefficient_table,
    validate_params,
)
from .fibrealg import (
    FibreRelation,
    fibre_context,
    reduce_normal_form,
    relation_consistency,
)
from .generators import (
    GENERIC,
    RELATIVE,
    SPECIAL,
    GeneratorPoly,
    binomial_generators,
    fibre_generators,
    generators_document,
    generic_generators,
    reduce_relative_to_special,
    relative_generators,
    special_generators,
    trinomial_variants,
)
from .indexsets import (
    CountReport,
    MinkowskiPoint,
    anchor_set,
    anchor_set_zero_closed,
    anchor_set_zero_closed_repaired,
    build_index_set,
    check_counts,
    minimal_monomial,
    minkowski_sum_brute,
    minkowski_sum_closed,
    monomials_at,
    rho_lower_bound,
)
from .termorder import (
    IndexPair,
    Monomial,
    MultiDegree,
    format_monomial,
    leading_term,
    multidegree,
)
from .verify import (
    Certificate,
    CriterionReport,
    OracleReport,
    certify,
    check_membership,
    dimension_criterion,
    kernel_oracle,
)

__version__ = "0.1.0"

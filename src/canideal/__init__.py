"""Exact construction and certification of degree-2 canonical-ideal generators
for cyclic-cover curve families."""

from .errors import CanidealError
from .exactalg import (
    CycloElement,
    SparsePoly,
    divide_by_lambda_power,
    residue,
)
from .family import (
    FamilyParams,
    a_power_coefficients,
    a_power_min_exponent,
    deformation_symbols,
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
)
from .indexsets import (
    CountReport,
    MinkowskiPoint,
    anchor_set,
    build_index_set,
    check_counts,
    minimal_monomial,
    monomials_at,
    rho_lower_bound,
)
from .termorder import (
    IndexPair,
    Monomial,
    format_monomial,
    leading_term,
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

"""Switchings of finite-field multiplication.

Build a tower F_p < F_q < F_{q^n}, perturb the product of F_{q^n} by a
trace-bilinear form, and study when the result is still a presemifield:
search for passing coefficient vectors, verify the axioms directly,
match known families, and apply counting bounds that exclude whole
shapes at once.
"""

from .errors import BudgetExceeded, ConsistencyError
from .gf import FieldCtx, build_field, field_from_spec
from .linpoly import (
    LinearizedPoly,
    is_permutation,
    search,
    switching_predicate,
    transcript,
)
from .presemifield import (
    BinaryOp,
    SwitchSpec,
    build_switch,
    commutative_criterion,
    commutative_isotopy_test,
    dual_spread_op,
    field_op,
    find_zero_divisor,
    is_commutative,
    nuclei,
    unitalize,
    verify_presemifield,
)
from .families import (
    FamilyInstance,
    classify,
    n2_criterion,
    n3_construct,
    n4_commutative_op,
    n4_criterion,
    switch_spec_for,
    theta_set,
)
from .digits import (
    ascent_descent,
    congruence_holds,
    monomial_census,
    ones_run,
    power_coefficient,
    power_expansion,
    vanishing_sums_check,
    wrap_add_many,
)
from .codes import (
    code_dimension,
    cyclotomic_coset,
    full_weight_search,
    is_basic_zero_set,
    trace_codeword,
)
from .hws import (
    curve_verdicts,
    leader_thresholds,
    min_max_leader,
    rational_point_count,
    serre_term,
)

__version__ = "0.1.0"

"""Switchings of finite-field multiplication.

Build a tower F_p < F_q < F_{q^n}, perturb the product of F_{q^n} by a
trace-bilinear form, and study when the result is still a presemifield:
search for passing coefficient vectors, verify the axioms directly,
match known families, and apply counting bounds that exclude whole
shapes at once.

``import semiswitch`` loads no submodule: each public name below is
imported from its module on first use (PEP 562), so a process loads
only the modules whose names it touches.
"""

# module -> the public names it defines; the one list of the package's API
_EXPORTS = {
    "errors": ("BudgetExceeded", "ConsistencyError"),
    "gf": ("FieldCtx", "build_field"),
    "linpoly": ("LinearizedPoly", "is_permutation", "search", "switching_predicate", "transcript"),
    "presemifield": (
        "BinaryOp", "SwitchSpec", "build_switch", "commutative_criterion",
        "commutative_isotopy_test", "find_zero_divisor", "nuclei", "unitalize",
        "verify_presemifield",
    ),
    "families": (
        "FamilyInstance", "classify", "n2_criterion", "n3_construct", "n4_commutative_op",
        "n4_criterion", "switch_spec_for", "theta_set",
    ),
    "digits": (
        "ascent_descent", "congruence_holds", "monomial_census", "ones_run", "power_coefficient",
        "power_expansion", "vanishing_sums_check", "wrap_add_many",
    ),
    "codes": (
        "code_dimension", "cyclotomic_coset", "full_weight_search", "is_basic_zero_set",
        "trace_codeword",
    ),
    "hws": (
        "curve_verdicts", "leader_thresholds", "min_max_leader", "rational_point_count",
        "serre_term",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

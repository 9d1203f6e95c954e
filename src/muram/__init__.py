"""Exact ramification data of inseparable Kummer-type coverings in characteristic p.

Coverings of the line graded by a finite abelian p-group are recorded by
their multiplication tables (symmetric, normalized, associative systems
of structure constants); the package classifies them, computes per-place
stabilizers and the ramification divisor of the normalized model,
cross-checks every multiplicity against a module-length oracle, locates
the Gorenstein places, verifies the two-layer factorization identity,
and assembles the degree/genus bookkeeping over the projective line.

Every public name is resolved on first use (PEP 562), so importing the
package, or one of its modules, loads only the modules that are used.
"""

import importlib

_EXPORTS = {
    "algebra": ("AlgebraElt", "algebra_inverse"),
    "covering": (
        "Cocycle", "KummerData", "ValidationReport", "canonical_infinity_degrees",
        "chart_at_infinity", "cocycle_from_column", "forward_decompose", "support_places",
        "torsor_at", "twist", "validate",
    ),
    "divisors": ("Divisor", "SymbolicPlace", "pullback"),
    "errors": (),
    "fppoly": (
        "Place", "Poly", "RatFun", "factor", "is_irreducible", "is_pth_power", "poly_gcd",
        "valuation",
    ),
    "gorenstein": (
        "derive_sign", "det_M_phi_bruteforce", "det_M_phi_formula", "diagonal_coefficients",
        "dual_generator", "gorenstein_at", "sign_table",
    ),
    "pgroup": ("GElt", "PGroup", "Subgroup", "sigma", "subgroup_generated"),
    "ramification": (
        "DevissageReport", "FixedIdealReport", "GlnRegressionReport", "LocalModel", "RamReport",
        "devissage_check", "fixed_ideal_relation_check", "fixed_ideal_valuation_at",
        "gln_regression", "multiplicity_at", "normalize_local_model", "ramification_divisor",
        "stabilizer_subgroup_at", "untwisted_local_model",
    ),
    "rh_genus": ("GenusReport", "GlobalModel", "predict_genus", "total_ram_degree"),
    "snf_oracle": (
        "PresentationMatrix", "algebra_valuation", "build_presentation", "oracle_multiplicity",
        "snf_length",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

# the modules listed above are public names too
__all__ = sorted([*_EXPORTS, *_HOME])
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})

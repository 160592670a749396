"""Exact moments of determinants of random matrices with i.i.d. entries.

The public names load lazily (PEP 562): ``import detmom`` imports no
submodule, and so no numpy, until one of the names in ``__all__`` is first
read.  ``detmom.<name>`` then imports the submodule that defines it, once.
"""

import importlib

# Each public name and the submodule that defines it.
_SOURCES = {
    "errors": (
        "BasisMismatchError",
        "BudgetExceededError",
        "MissingMomentError",
        "OrderCapacityError",
    ),
    "formulas": (
        "MarkClass",
        "fourth_moment",
        "fourth_moment_egf",
        "fourth_moment_zero_mean",
        "gaussian_det_moment",
        "gaussian_moment_table",
        "gaussian_sixth_egf",
        "mark_class_egf",
        "second_moment",
        "second_moment_egf",
        "sixth_moment_zero_mean",
        "sixth_moment_zero_mean_egf",
    ),
    "poly": (
        "Basis",
        "MomentPolynomial",
        "central_mean",
        "central_symbol",
        "central_to_raw",
        "raw_symbol",
        "raw_to_central",
    ),
    "sampling": (
        "DistKind",
        "DistributionSpec",
        "EstimateReport",
        "exact_det",
        "exact_moments",
        "exhaustive_moment",
        "mc_estimate",
    ),
    "series": ("TruncatedEGF", "polynomial_in_t", "t_times"),
    "tables": (
        "MarkedRow",
        "MarkedTable",
        "PermutationTable",
        "TableMode",
        "oracle_moment",
        "table_count",
    ),
    "verify": ("CheckResult", "VerificationReport", "run_suite"),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))

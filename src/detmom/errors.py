"""Exception types shared across the package, and the checks that raise them.

`_check_kn` and `_check_budget` are the one refusal of a bad moment order
or matrix size and of work over its budget, for the CLI and the library.
"""

import math
from typing import Optional


class BasisMismatchError(ValueError):
    """Raised when combining polynomials tagged with different moment bases."""


class OrderCapacityError(ValueError):
    """Raised when a polynomial's grading weight would reach the packing limit.

    The limit is `detmom.poly.WEIGHT_LIMIT`; polynomials have no other
    capacity.
    """


class MissingMomentError(ValueError):
    """Raised when evaluating a polynomial without a value for some symbol."""


class BudgetExceededError(RuntimeError):
    """Raised when an enumeration would exceed its configured work budget.

    Carries the offending size so callers can report the bound that was hit.
    """

    def __init__(
        self,
        required: int,
        budget: int,
        what: str = "enumeration",
        unit: str = "weight evaluations",
    ):
        self.required = required
        self.budget = budget
        super().__init__(
            f"{what} needs {_count_text(required)} {unit}, "
            f"over the budget of {_count_text(budget)}"
        )


def _count_text(count: int) -> str:
    """A count in decimal, or its digit count past Python's str() limit."""
    try:
        return str(count)
    except ValueError:
        digits = int(math.log10(count)) + 1
        if count < 10 ** (digits - 1):
            digits -= 1
        elif count >= 10**digits:
            digits += 1
        return f"a {digits}-digit number of"


def _check_kn(k: int, n: Optional[int] = None) -> None:
    """Refuse a moment order k below 1, or a matrix size n below 0."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if n is not None and n < 0:
        raise ValueError("n must be nonnegative")


def _check_budget(
    required: int, budget: Optional[int], default: int, what: str, unit: str
) -> None:
    """Refuse ``required`` units of work over ``budget`` (None: ``default``)."""
    budget = default if budget is None else budget
    if required > budget:
        raise BudgetExceededError(required, budget, what, unit)

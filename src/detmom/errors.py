"""Exception types shared across the package."""


class BasisMismatchError(ValueError):
    """Raised when combining polynomials tagged with different moment bases."""


class OrderCapacityError(ValueError):
    """Raised when a moment symbol exceeds the configured maximum order.

    Also raised when a polynomial's grading weight would reach the packing
    limit of `detmom.poly`.
    """


class MissingMomentError(ValueError):
    """Raised when evaluating a polynomial without a value for some symbol."""


class ConventionMismatchError(ValueError):
    """Raised when combining series tagged with different coefficient conventions."""


class BudgetExceededError(RuntimeError):
    """Raised when an enumeration would exceed its configured work budget.

    Carries the offending size so callers can report the bound that was hit.
    """

    def __init__(self, required: int, budget: int, what: str = "enumeration"):
        self.required = required
        self.budget = budget
        super().__init__(
            f"{what} needs {required} weight evaluations, over the budget of {budget}"
        )

"""Exception hierarchy shared by all cwlab modules."""


class UsageError(ValueError):
    """Bad input from the caller (CLI exit code 2)."""


class ModulusMismatchError(UsageError):
    """Operands live over different moduli; values are never coerced."""


class BudgetExceededError(UsageError):
    """An enumeration would scan more prefix letters than its budget: a
    census of size n over Z/NZ steps through N**(n-2) of them."""

    def __init__(self, base: int, exponent: int, budget: int):
        self.base = base
        self.exponent = exponent
        self.budget = budget
        super().__init__(
            f"enumeration needs {base}**{exponent} prefix letters, "
            f"budget is {budget}"
        )


class InternalCheckError(RuntimeError):
    """A provably-impossible state was reached; indicates a bug, not bad input."""

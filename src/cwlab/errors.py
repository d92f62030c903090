"""Exception hierarchy shared by all cwlab modules."""


class UsageError(ValueError):
    """Bad input from the caller (CLI exit code 2)."""


class ModulusMismatchError(UsageError):
    """Operands live over different moduli; values are never coerced."""


class BudgetExceededError(UsageError):
    """A task would take more letters than its budget: a census of size n
    over Z/NZ steps through N**(n-2) prefix letters, and a decomposition's
    JSON certificate writes 2h + 2."""

    def __init__(self, task: str, need: str, budget: int):
        super().__init__(f"{task} needs {need}, budget is {budget}")


class InternalCheckError(RuntimeError):
    """A provably-impossible state was reached; indicates a bug, not bad input."""

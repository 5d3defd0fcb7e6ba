"""Exception hierarchy shared by all modules.

Exit-code mapping in the CLI: BudgetExceeded -> 2, PropertyViolation -> 3,
OSError -> 4, ContractViolation (and an input file that is not valid JSON or
text, or a usage error) -> 5.  ContractViolation signals an invalid request: a caller bug (bad
shapes, broken preconditions) or malformed input read from a file.  It is
never caught internally.
"""


class ContractViolation(ValueError):
    """A call broke an interface contract (dimension mismatch, bad residue, ...)."""


class BudgetExceeded(RuntimeError):
    """An exact enumeration would exceed its configured budget.

    Carries the budget that was in force and the budget that would have been
    needed, so a refusal can tell the caller exactly what to raise it to.
    The message names a count of 2^64 or more by its bit length: str() of an
    int past 4,300 digits raises.
    """

    def __init__(self, what: str, required: int, budget: int):
        self.what = what
        self.required = required
        self.budget = budget
        needs, has = (str(n) if n < 1 << 64 else f"a {n.bit_length()}-bit count"
                      for n in (required, budget))
        super().__init__(f"{what}: needs budget {needs}, configured budget is {has}")


class PropertyViolation(RuntimeError):
    """A verified invariant or measured property failed."""

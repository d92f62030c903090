"""Words over Z/NZ whose matrix product is plus or minus the identity.

The library covers exact 2x2 arithmetic over Z/NZ, the boundary sum and
rotation/reversal equivalence of words, minimal monomial solutions with
certified reducibility verdicts, exhaustive enumeration with an
unstructured cross-checking oracle, and the supporting number theory.
"""

from .bruteforce import (
    DEFAULT_BUDGET,
    Census,
    EnumerationQuery,
    enumerate_solutions,
    is_reducible_oracle,
)
from .errors import (
    BudgetExceededError,
    InternalCheckError,
    ModulusMismatchError,
    UsageError,
)
from .monomial import (
    Decomposition,
    Exhausted,
    MonomialReport,
    QuadraticRoots,
    ZeroExcluded,
    classify_monomials,
    closed_form_size,
    is_reducible_monomial,
    minimal_monomial_size,
    monomial_report,
    odd_boundary_word,
    power_matrix_identity,
    power_monomial_word,
    quadratic_roots,
    two_boundary_word,
)
from .numtheory import (
    MAX_MODULUS,
    binomial_valuation,
    euler_phi,
    factorize,
)
from .ring import (
    Mat2,
    Modulus,
    elementary,
    identity,
    is_pm_identity,
    mat_mul,
    mat_pow,
    minus_identity,
)
from .words import (
    Word,
    canonical_form,
    equivalent,
    is_solution,
    oplus,
    parse_word,
    word,
    word_matrix,
)

__version__ = "0.1.0"

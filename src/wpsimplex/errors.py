"""Exception types of the command modules.  The three that only the
oracles raise live in ``wpsimplex.oracles``."""


class WpsimplexError(Exception):
    """Base class for all package-specific failures."""


class ParameterOutOfRange(WpsimplexError, ValueError):
    """Family parameters outside the supported range (r1 >= 2, x1 >= 1)."""


class IndexOutOfRange(WpsimplexError, ValueError):
    """A residue or loop index outside its documented interval."""


class BudgetExceeded(WpsimplexError, RuntimeError):
    """An enumeration would exceed the configured work budget."""


class InvalidPair(WpsimplexError, ValueError):
    """An index pair is not a member of the rewrite-pair set."""


class InternalConsistency(WpsimplexError, RuntimeError):
    """A constructed object failed one of its own consistency checks."""


class NonPureComplex(WpsimplexError, RuntimeError):
    """Facet enumeration found maximal faces of more than one size."""


class NonGraphSupport(WpsimplexError, RuntimeError):
    """A minimal lead support meets other than two twin classes."""


class SingularFacet(WpsimplexError, ValueError):
    """A candidate facet spans a degenerate (determinant zero) simplex."""

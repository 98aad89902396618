"""Error taxonomy shared across the package.

Plain ``ValueError`` is used for domain violations (bad parameters,
arguments outside a function's domain). The classes here mark conditions
a caller may want to handle separately from bad input.
"""


class SingularPointError(ValueError):
    """A derivative or ratio was requested exactly at a jump point."""


class DegenerateSampleError(ValueError):
    """All consecutive output differences are zero; the sample index is 0/0."""


class DegenerateFunctionError(ValueError):
    """Total variation of the function over the window is numerically zero."""


class NonConvergenceError(RuntimeError):
    """Adaptive quadrature stayed above tolerance at its depth or work limit."""

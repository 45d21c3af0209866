"""Exception types shared across the toolkit."""


class EnzoodError(Exception):
    """Base class for all toolkit-specific errors."""


class SmilesSyntaxError(EnzoodError, ValueError):
    """Malformed SMILES text: unbalanced parentheses, dangling ring digit,
    unknown or unsupported token."""


class ValenceError(EnzoodError, ValueError):
    """Bond-order sum of an atom exceeds its maximum valence."""


class GraphError(EnzoodError, ValueError):
    """Structurally invalid molecular graph (bad indices, duplicate bonds,
    aromatic bond between non-aromatic atoms, ...)."""


class InfeasibleSplitError(EnzoodError, ValueError):
    """No train/test assignment can satisfy the requested test fraction."""


class NonFiniteError(EnzoodError, ArithmeticError):
    """A non-finite value appeared where finite numbers are required."""


class DegenerateTargetsError(EnzoodError, ValueError):
    """Target vector has zero variance, so R-squared is undefined."""


class DatasetError(EnzoodError, ValueError):
    """Invalid dataset content; the message names the offending line."""


class DuplicateIdError(DatasetError):
    """Record id repeated within one dataset file."""


class ConfigError(EnzoodError, ValueError):
    """Unknown, malformed, or out-of-range configuration values."""

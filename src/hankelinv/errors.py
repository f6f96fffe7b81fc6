"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operands have incompatible matrix or block dimensions."""


class SingularCornerError(ValueError):
    """A zero-degree block (a0, d0 or a triangular system's diagonal) is singular."""


class DataIdentityError(ValueError):
    """The data identities are violated beyond the refusal threshold."""

    def __init__(self, message, residuals=None, worst=None):
        super().__init__(message)
        self.residuals = residuals
        self.worst = worst


class InjectivityError(ValueError):
    """The windowed injectivity certificate failed (M11 or M22 near-singular)."""

    def __init__(self, message, sigma_min=None, which=None):
        super().__init__(message)
        self.sigma_min = sigma_min
        self.which = which


class SynthesisError(RuntimeError):
    """Forward synthesis failed: the corner operator is singular."""


class DegenerateError(ValueError):
    """A determinant is identically zero; zero locations are undefined."""


class FactorizationUnavailableError(ValueError):
    """Neither factorization path satisfies its zero-location precondition."""


class ParseError(ValueError):
    """A problem or symbol file does not match the expected JSON schema."""

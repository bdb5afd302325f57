"""Exception types and structured diagnostics shared across the library."""


class SymqError(Exception):
    """Base class for all library errors."""


class EmptyCarrier(SymqError):
    """The carrier set is empty (size 0 tables are rejected)."""


class SizeBoundExceeded(SymqError):
    """A verification would visit more tuples than its configured cap."""


class SearchSpaceExceeded(SymqError):
    """An exhaustive search space is larger than the configured bound."""


class NotCentralInvolution(SymqError):
    """The given group element is not central of order 2."""


class NotASubgroup(SymqError):
    """Generators do not lie in the subgroup they are required to."""


class NotNormal(SymqError):
    """The given subgroup is not normal."""


class NotSurjective(SymqError):
    """The given morphism is not surjective."""


class InfiniteGroupUnsupported(SymqError):
    """The operation requires a finite abelian group."""


class NotConstantModule(SymqError):
    """The operation requires a module with constant structure maps."""


class NotACocycle(SymqError):
    """The given cochain fails the 2-cocycle conditions."""


# Witness lists are truncated so a failed validation of a large structure
# does not produce an unbounded report.
MAX_WITNESSES = 32


class Diagnostic:
    """One violated axiom together with (truncated) witness tuples."""

    __slots__ = ("axiom", "witnesses", "truncated")

    def __init__(self, axiom, witnesses):
        self.axiom = axiom
        witnesses = list(witnesses)
        self.witnesses = witnesses[:MAX_WITNESSES]
        self.truncated = len(witnesses) > MAX_WITNESSES

    def __repr__(self):
        suffix = ", ..." if self.truncated else ""
        return f"{self.axiom}: {self.witnesses}{suffix}"


class ValidationError(SymqError):
    """Raised when a structure fails axiom validation; carries diagnostics."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or []

    def report(self):
        lines = [str(self)]
        for d in self.diagnostics:
            lines.append("  " + repr(d))
        return "\n".join(lines)

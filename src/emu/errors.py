"""Exception hierarchy for the emu library."""


class EmuError(Exception):
    """Base class for all emu errors."""


class AssertionSyntaxError(EmuError):
    """Raised when an assertion string does not conform to the grammar."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class MalformedAssertionError(EmuError):
    """Unknown identifier, or a variable used outside its allowed class."""


class FormulaSyntaxError(EmuError):
    """Raised when a formula string does not conform to the grammar."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NonMonotoneFormulaError(EmuError):
    """A fixpoint variable occurs under an odd number of negations."""

    def __init__(self, variable, path):
        super().__init__(
            f"variable {variable!r} occurs under an odd number of negations"
            f" (path: {' > '.join(path)})"
        )
        self.variable = variable
        self.path = path


class UnboundVariableError(EmuError):
    """A free fixpoint variable has no value in the supplied valuation."""


class FragmentError(EmuError):
    """A formula belongs to the wrong modal fragment for the operation."""


class StateCapError(EmuError):
    """The enumerated state space would exceed the supported variable cap."""


class IncompleteWeightCoverError(EmuError):
    """Some system transition is matched by no weight rule."""


class WeightDomainError(EmuError):
    """A weight is out of range, or was queried outside the system transitions."""


class InvalidCreditError(EmuError):
    """An initial credit is negative, infinite, or above the bound."""


class BoundMismatchError(EmuError):
    """Energy functions with different bounds were combined."""


class PriorityPartitionError(EmuError):
    """Priority guards do not partition the state space."""


class IterationCapError(EmuError):
    """A fixpoint failed to stabilize within its iteration cap (internal bug)."""


class ConsistencyError(EmuError):
    """An internal cross-check failed (internal bug sentinel)."""


class GameFormatError(EmuError):
    """A game or priorities file is malformed."""

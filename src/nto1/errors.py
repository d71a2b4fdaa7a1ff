"""Exception types shared across the package."""


class NTo1Error(Exception):
    """Base class for all package errors."""


class NotPrime(NTo1Error):
    pass


class ReducibleModulus(NTo1Error):
    pass


class NotPrimitive(NTo1Error):
    """A supplied beta does not generate the unit group of its field."""


class DegreeMismatch(NTo1Error):
    pass


class DivisionByZero(NTo1Error):
    pass


class FieldMismatch(NTo1Error):
    pass


class ZeroInput(NTo1Error):
    pass


class FieldTooLarge(NTo1Error):
    pass


class DomainTooLarge(NTo1Error):
    pass


class DegreeTooHigh(NTo1Error):
    pass


class WrongCharacteristic(NTo1Error):
    pass


class SetTooLarge(NTo1Error):
    pass


class HypothesesNotVerified(NTo1Error):
    pass


class SingularSystem(NTo1Error):
    pass


class GateExceeded(NTo1Error):
    pass


class TraceOutsideField(NTo1Error):
    """A trace value fell outside the field it must land in."""


class HistogramLostMass(NTo1Error):
    """A histogram's counts do not add up to the domain size."""


class PowerSumNotRational(NTo1Error):
    """A Walsh power sum S_j came out outside the rational integers."""


class ExceptionCountMismatch(NTo1Error):
    """A lone exceptional fiber size differs from #A mod n."""


class HypothesisViolated(NTo1Error):
    """A hypothesis of the square failed (diagrams.condition3); carries its
    name and a witness.  Family builders record theirs in violations."""

    def __init__(self, name, witness=None):
        self.name = name
        self.witness = witness
        super().__init__(f"hypothesis violated: {name}" + (f" (witness: {witness!r})" if witness is not None else ""))


class ConstructionMismatch(NTo1Error):
    """A built map misses a value its construction fixes exactly."""

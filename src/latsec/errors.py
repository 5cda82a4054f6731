"""Exception types shared across the package."""


class LatsecError(Exception):
    """Base class for every error raised by this package."""


class NotPrime(LatsecError):
    pass


class RankDeficientG(LatsecError):
    pass


class NotUnimodular(LatsecError):
    pass


class NonPositiveScale(LatsecError):
    pass


class BudgetExceeded(LatsecError):
    pass


class DimensionMismatch(LatsecError):
    pass


class EmptyCodebook(LatsecError):
    pass


class NonDivisibleBins(LatsecError):
    pass


class LayerNotNested(LatsecError):
    def __init__(self, layer: int, message: str = ""):
        super().__init__(message or f"layer {layer} points fall outside the shared fine lattice")
        self.layer = layer


class UnityGain(LatsecError):
    pass


class StageConditionViolated(LatsecError):
    def __init__(self, stage: int, message: str = ""):
        super().__init__(message or f"stage {stage} interference-first condition fails")
        self.stage = stage


class ParseError(LatsecError):
    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class ValidationError(LatsecError):
    def __init__(self, field: str, message: str = ""):
        super().__init__(message or f"invalid value for {field!r}")
        self.field = field


class IoError(LatsecError):
    pass

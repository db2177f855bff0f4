"""Exception types shared across the package."""


class SoftPhocError(ValueError):
    """Base class for all library errors."""


class EmptyTranscription(SoftPhocError):
    """A transcription or query with zero characters."""


class CropTooNarrow(SoftPhocError):
    """Word crop narrower than the number of characters it must hold."""


class InvalidIndex(SoftPhocError):
    """Character position or pyramid level outside its valid range."""


class DegenerateQuad(SoftPhocError):
    """Quadrilateral with (near-)zero area or a rank-deficient warp."""


class ShapeMismatch(SoftPhocError):
    """Arrays whose dimensions were expected to agree do not."""


class DegenerateSegment(SoftPhocError):
    """Line segment whose endpoints coincide."""


class EmptySequence(SoftPhocError):
    """Empty descriptor sequence where at least one sample is required."""


class InvalidConfig(SoftPhocError):
    """Configuration field outside its valid range."""


def check_fields(cfg, checks) -> None:
    """Raise InvalidConfig for the first (field, ok, rule) check that fails."""
    for name, ok, rule in checks:
        if not ok:
            raise InvalidConfig(f"{name} {getattr(cfg, name)} must be {rule}")


class TensorFormatError(SoftPhocError):
    """Malformed tensor file header or truncated payload."""


class TextEncodingError(SoftPhocError):
    """Text input file that is not valid UTF-8."""


class AnnotationParseError(SoftPhocError):
    """Unparseable ground-truth annotation line."""

    def __init__(self, message: str, line_number: int | None = None):
        super().__init__(message)
        self.line_number = line_number

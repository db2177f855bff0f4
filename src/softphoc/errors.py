"""Exception types shared across the package, the checks of config fields
(check_types, check_fields) and its two memory rules: check_memory
refuses what would take more than physical memory, and blocks() splits
a temporary array built in parts into blocks of about BLOCK_BYTES."""

import dataclasses
import numbers
import operator
import os

# Bytes of one block of a temporary array built in parts, at least one item.
BLOCK_BYTES = 1 << 20


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
    """Line segment of length zero or not finite."""


class EmptySequence(SoftPhocError):
    """Empty descriptor sequence where at least one sample is required."""


class InvalidConfig(SoftPhocError):
    """Configuration field outside its valid range."""


def check_fields(cfg, checks) -> None:
    """Raise InvalidConfig for the first (field, ok, rule) check that fails."""
    for name, ok, rule in checks:
        if not ok:
            raise InvalidConfig(f"{name} {getattr(cfg, name)} must be {rule}")


def check_types(cfg) -> None:
    """Raise InvalidConfig for the first field of the dataclass cfg of the
    wrong type: an int field takes any operator.index-able value and keeps
    it as an int, a float field takes any real number."""
    for field in dataclasses.fields(cfg):
        value = getattr(cfg, field.name)
        if field.type is int and hasattr(type(value), "__index__"):
            object.__setattr__(cfg, field.name, operator.index(value))
        elif field.type is int or not isinstance(value, numbers.Real):
            kind = "an integer" if field.type is int else "a real number"
            raise InvalidConfig(f"{field.name} {value!r} must be {kind}")


def check_memory(need, what: str) -> None:
    """Raise InvalidConfig when `what` takes more than physical memory:
    need bytes, possibly an infinite or NaN float."""
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if not need <= physical:
        raise InvalidConfig(f"{what} takes {need:.4g} bytes, more than the "
                            f"{physical} bytes of physical memory")


def blocks(items, item_bytes: int):
    """items (a sequence) in runs of about BLOCK_BYTES at item_bytes per
    item, at least one item each."""
    step = max(1, BLOCK_BYTES // max(1, item_bytes))
    return (items[i:i + step] for i in range(0, len(items), step))


class InvalidProbabilityMap(SoftPhocError):
    """Map with values outside [0, 1], not finite, or pixels whose
    channels do not sum to 1."""


class TensorFormatError(SoftPhocError):
    """Malformed tensor file header or truncated payload."""


class TextEncodingError(SoftPhocError):
    """Text input file that is not valid UTF-8."""


class AnnotationParseError(SoftPhocError):
    """Unparseable ground-truth annotation line; the message starts with
    "line N: " when the line number is given."""

    def __init__(self, message: str, line_number: int | None = None):
        super().__init__(message if line_number is None
                         else f"line {line_number}: {message}")
        self.line_number = line_number

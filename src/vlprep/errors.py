"""Exception types shared across the toolkit.

Every domain error derives from ``VlprepError`` so callers (and the CLI)
can distinguish "bad data / bad call" from genuine environment failures.
"""


class VlprepError(Exception):
    """Base class for all toolkit errors."""


# --- grounding markup ---

class MarkupError(VlprepError):
    """Base for serialization / parsing failures of grounding markup."""


class InvalidImageExtent(MarkupError):
    """Image width or height is not a positive number."""


class CoordinateOutOfRange(MarkupError):
    """A coordinate lies outside its valid range or breaks ordering."""


class UnboundRef(MarkupError):
    """A <ref> span has no region tag following it."""


class OrphanRegion(MarkupError):
    """A region tag appears with no <ref> span it can attach to."""


class MalformedRegion(MarkupError):
    """Region contents do not parse as the expected point list."""


class UnbalancedTags(MarkupError):
    """Open/close tags do not nest correctly."""


# --- corpus filters ---

class FilterError(VlprepError):
    """Base for record-filtering failures."""


class IncompleteRecord(FilterError):
    """A record lacks fields required by an enabled rule."""


class EmptyGroup(FilterError):
    """A caption group is empty."""


# --- chat building / masking ---

class ChatError(VlprepError):
    """Base for training-text construction failures."""


class MissingField(ChatError):
    """A task template slot was not supplied."""


class EmptyDialogue(ChatError):
    """A dialogue has no turns."""


class RoleOrderViolation(ChatError):
    """Dialogue roles do not alternate user/assistant starting with user."""


class SpanAlignmentError(ChatError):
    """Span-by-span token ids do not decode back to the text they encode."""


# --- numerics ---

class NumericsError(VlprepError):
    """Base for numerical-kernel failures."""


class ShapeError(NumericsError):
    """Array shapes do not conform to the configured dimensions."""


class NumericalError(NumericsError):
    """Non-finite values encountered where finiteness is required."""


class InvalidWidth(NumericsError):
    """Positional-encoding width is not divisible by 4."""


# --- schedules ---

class ScheduleError(VlprepError):
    """Base for learning-rate schedule failures."""


class StepOutOfRange(ScheduleError):
    """Queried step lies outside [0, total_steps]."""


class InvalidDepth(ScheduleError):
    """Layer depth is negative."""


class InvalidResolution(ScheduleError):
    """Image resolution is not divisible by the patch stride."""


# --- CLI / batch front door ---

class ConfigError(VlprepError):
    """Pipeline configuration is invalid (CLI exit code 1)."""


class IOFailure(VlprepError):
    """Input/output path cannot be read or written (CLI exit code 2)."""

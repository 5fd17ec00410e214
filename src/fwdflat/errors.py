"""Exception hierarchy shared by all fwdflat modules."""


class FwdflatError(Exception):
    """Base class for all errors raised by this package."""


class ExprSyntaxError(FwdflatError):
    """An expression string does not parse, or uses an unsupported construct."""


class PoleAtPoint(FwdflatError):
    """Exact evaluation hit a vanishing denominator."""


class InternalInconsistency(FwdflatError):
    """The symbolic zero test and the numeric cross-check disagree.

    This signals a normalization gap in the expression kernel, never a
    user error, and invalidates any rank decision built on top of it.
    """


class InversionFailed(FwdflatError):
    """The sequence needed the inverse of the adapted chart, and no
    complement of full rank inverted; or a supplied complement or inverse
    chart gives no chart.

    Supply an explicit complement (the m extra coordinate functions) and,
    if needed, the inverse chart map.
    """


class NotShiftable(FwdflatError):
    """A 1-form scheduled for a backward shift has residual dependence on
    the complement coordinates.  This indicates an internal sequencing bug."""


class ShiftBudgetExceeded(FwdflatError):
    """A verification needed more forward shifts than the configured cap."""


class SystemFileError(FwdflatError):
    """A system definition file is malformed or inconsistent."""

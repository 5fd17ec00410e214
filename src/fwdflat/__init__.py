"""fwdflat: an exact forward-flatness test for nonlinear discrete-time
systems x+ = f(x, u), built on a decreasing sequence of integrable
codistributions.

The top-level names re-export the working vocabulary.  Coordinates and
parameters are plain ``sympy.Symbol`` objects and expressions are sympy
expressions.  The implementation lives in :mod:`fwdflat.domain` (the
exact fields and the zero test), :mod:`fwdflat.symcore` (expression
kernel and the row kernel ``Rows``, under every rank, elimination,
derivative and integrability decision), :mod:`fwdflat.extcalc`
(exterior calculus on the same rows; one row-space class serves
codistributions and distributions, and one closure every invariant
extension), :mod:`fwdflat.dtsys` (system model, adapted charts, shifts,
verifiers), :mod:`fwdflat.flatness` (the sequence and the
classification) and :mod:`fwdflat.cli` (command line front end).
"""

from .errors import (
    ExprSyntaxError,
    FwdflatError,
    InternalInconsistency,
    InversionFailed,
    NotShiftable,
    PoleAtPoint,
    ShiftBudgetExceeded,
    SystemFileError,
)
from .symcore import configure, is_zero, normalize, parse_expr, render
from .extcalc import (
    Chart,
    Codistribution,
    Distribution,
    KForm,
    OneForm,
    VectorField,
    annihilator,
    contract,
    exterior_derivative,
    intersect,
    invariant_extension,
    is_cauchy_characteristic,
    is_integrable,
    lie_bracket,
    lie_derivative_form,
    parse_oneform,
    render_oneform,
)
from .dtsys import (
    AdaptedChart,
    DiscreteTimeSystem,
    FlatOutputCandidate,
    TriangularDecomposition,
    backward_shift_oneform,
    build_adapted_chart,
    check_submersivity,
    flat_output_symbol,
    forward_shift,
    verify_flat_output,
    verify_triangular_decomposition,
)
from .flatness import (
    FORWARD_FLAT,
    NOT_FORWARD_FLAT,
    STATIC_FEEDBACK_LINEARIZABLE,
    SequenceReport,
    SequenceStep,
    compute_sequence,
    decomposability,
    subsystem_consistency_check,
)
from .sysfile import SystemFile, parse_system_file, parse_system_text

__version__ = "0.1.0"

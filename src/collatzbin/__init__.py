"""Binary-string arithmetic and verification toolkit for the 3n+1 map.

Values are naturals from 1 up, stored as explicit bit strings so the
digit mechanics of the map stay visible: halving drops the last digit,
and the 2-adic valuation is the length of the trailing zero run. The
arithmetic on the strings (tripling-plus-one, decimal conversion,
carrying power sums) goes through CPython ints. On top of that sit the
orbit walks, the digit-class partition, the tree-path composition view,
the power-of-two merge derivations, and a batch range verifier.

The verifier needs numpy, so its names load on first use (PEP 562).
"""

from .bitnat import ONE, BinaryNat
from .classify import NumberClass, classify, hard_number, is_hard
from .collatz import (
    DEFAULT_CAP,
    CollatzTrace,
    ReducedStepResult,
    StepKind,
    odd_chain,
    reduced_step,
    sequence,
    step,
    stopping_time,
)
from .compose import CompositionPath, Step, decompose, f_inverse, tree_path
from .errors import CapExceeded, CheckpointError, DomainError, ParityError
from .powersum import (
    DerivationRecord,
    ExponentMultiset,
    PowerSum,
    derivation_trace,
    from_powersum,
    normalize,
    three_n_plus_one_merge,
    to_powersum,
)
from .traceio import (
    render_derivation,
    render_machine,
    render_points,
    render_scratch,
    render_table,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryNat",
    "ONE",
    "NumberClass",
    "classify",
    "is_hard",
    "hard_number",
    "DEFAULT_CAP",
    "StepKind",
    "CollatzTrace",
    "ReducedStepResult",
    "step",
    "reduced_step",
    "sequence",
    "stopping_time",
    "odd_chain",
    "Step",
    "CompositionPath",
    "decompose",
    "f_inverse",
    "tree_path",
    "PowerSum",
    "ExponentMultiset",
    "DerivationRecord",
    "to_powersum",
    "from_powersum",
    "normalize",
    "three_n_plus_one_merge",
    "derivation_trace",
    "render_table",
    "render_scratch",
    "render_points",
    "render_derivation",
    "render_machine",
    "Checkpoint",
    "verify_range",
    "checkpoint_resume",
    "summarize",
    "ParityError",
    "DomainError",
    "CapExceeded",
    "CheckpointError",
    "__version__",
]

_VERIFY_NAMES = ("Checkpoint", "verify_range", "checkpoint_resume", "summarize")


def __getattr__(name: str):
    if name in _VERIFY_NAMES:
        from . import verify

        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""Binary-string arithmetic and verification toolkit for the 3n+1 map.

Values are naturals from 1 up, read and printed as bit strings so the
digit mechanics of the map stay visible: halving drops the last digit,
and the 2-adic valuation is the length of the trailing zero run. Between
reading and printing, each value is one CPython int. On top of that sit
the orbit walks, the digit-class partition, the tree-path composition
view, the power-of-two merge derivations, and a batch range verifier.
The walks take a BinaryNat and hand back plain values: a trace and a
tree path hold ints, and a composition path is its O/E string.

The verifier needs numpy, so its names load on first use (PEP 562).
"""

from .bitnat import BinaryNat
from .classify import NumberClass, classify, hard_number
from .collatz import (
    DEFAULT_CAP,
    CollatzTrace,
    sequence,
    step,
    stopping_time,
)
from .compose import decompose, tree_path
from .errors import CapExceeded, CheckpointError, DomainError, ParityError, WorkerError
from .powersum import DerivationRecord, derivation_trace
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
    "NumberClass",
    "classify",
    "hard_number",
    "DEFAULT_CAP",
    "CollatzTrace",
    "step",
    "sequence",
    "stopping_time",
    "decompose",
    "tree_path",
    "DerivationRecord",
    "derivation_trace",
    "render_table",
    "render_scratch",
    "render_points",
    "render_derivation",
    "render_machine",
    "Checkpoint",
    "verify_range",
    "summarize",
    "ParityError",
    "DomainError",
    "CapExceeded",
    "CheckpointError",
    "WorkerError",
    "__version__",
]

_VERIFY_NAMES = ("Checkpoint", "verify_range", "summarize")


def __getattr__(name: str):
    if name in _VERIFY_NAMES:
        from . import verify

        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""Kernel selection: compiled sweeps when built, pure Python otherwise.

Set SCHROEDER_PURE=1 to force the pure implementation.
"""

import os

from . import pure

if os.environ.get("SCHROEDER_PURE"):
    _impl = pure
    BACKEND = "pure"
else:
    try:
        from . import _csweeps as _impl  # type: ignore[attr-defined]

        BACKEND = "compiled"
    except ImportError:
        _impl = pure
        BACKEND = "pure"

sch_rows = _impl.sch_rows
rs_rows = _impl.rs_rows
contains_pattern = _impl.contains_pattern
single_row_predicate = _impl.single_row_predicate
# a one-pass scan with no compiled twin: both backends share the pure one
single_column_predicate = pure.single_column_predicate
sweep_row_col = _impl.sweep_row_col
sweep_rs_shapes = _impl.sweep_rs_shapes
sweep_sch_shapes = _impl.sweep_sch_shapes


def backend() -> str:
    """Name of the kernel implementation selected at import time."""
    return BACKEND

"""Kernel backend selection: compiled extension if importable, else pure Python.

The compiled lane (_ckernels.c) has its own transition-table,
functional-graph, point-count and slice-count kernels and shares the
singularity check of _kernels_py; dynsys and curves call the selected one. Set WILDCYCLES_BACKEND=pure (or =c)
to force a lane; forcing the compiled lane when the extension is missing
raises at import time instead of silently downgrading.
"""

from __future__ import annotations

import os

from . import _kernels_py

_forced = os.environ.get("WILDCYCLES_BACKEND", "").strip().lower()

if _forced == "pure":
    kernels = _kernels_py
elif _forced == "c":
    from . import _ckernels as kernels  # type: ignore[no-redef]
elif _forced:
    raise ValueError(f"WILDCYCLES_BACKEND must be 'pure' or 'c', not {_forced!r}")
else:
    try:
        from . import _ckernels as kernels  # type: ignore[no-redef]
    except ImportError:
        kernels = _kernels_py

BACKEND_NAME = kernels.BACKEND_NAME


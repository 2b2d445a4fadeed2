"""Kernel lanes: force one with WILDCYCLES_BACKEND and, for the compiled
lane, build `src/wildcycles/_ckernels.c` into this directory and load it.

The extension is built once per source digest into `perfbench/.build/`,
never into `src/`, so the checkout stays as git left it. The lane is forced,
so a missing or broken build fails the import instead of quietly measuring
the pure lane.
"""

from __future__ import annotations

import hashlib
import importlib.abc
import importlib.util
import os
import shlex
import subprocess
import sys
import sysconfig
from pathlib import Path
from typing import Optional

EXTENSION = "wildcycles._ckernels"


class _BuiltExtension(importlib.abc.MetaPathFinder):
    def __init__(self, path: str):
        self.path = path

    def find_spec(self, name, path=None, target=None):
        if name == EXTENSION:
            return importlib.util.spec_from_file_location(name, self.path)
        return None


def select(lane: str, extension: Optional[str]) -> None:
    """Call before the first import of wildcycles."""
    os.environ["WILDCYCLES_BACKEND"] = lane
    if lane == "c":
        sys.meta_path.insert(0, _BuiltExtension(extension))


def build(root: Path) -> Path:
    """Compile the committed C source with the interpreter's compiler flags."""
    source = root / "src" / "wildcycles" / "_ckernels.c"
    digest = hashlib.sha256(source.read_bytes() + sys.version.encode()).hexdigest()[:16]
    target = root / "perfbench" / ".build" / digest / ("_ckernels" + sysconfig.get_config_var("EXT_SUFFIX"))
    if target.exists():
        return target
    target.parent.mkdir(parents=True, exist_ok=True)
    partial = target.with_name(target.name + ".partial")
    cmd = (
        shlex.split(sysconfig.get_config_var("CC") or "cc")
        + shlex.split(sysconfig.get_config_var("CFLAGS") or "")
        + ["-shared", "-fPIC", "-I" + sysconfig.get_paths()["include"], str(source), "-o", str(partial)]
    )
    done = subprocess.run(cmd, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"building the C lane failed:\n{done.stderr[-2000:]}")
    os.replace(partial, target)
    return target

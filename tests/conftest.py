"""Both kernel lanes in one test run.

Compiles `src/wildcycles/_ckernels.c` with the interpreter's compiler into
the pytest cache (never into `src/`), once per source digest, and makes
`wildcycles._ckernels` import from there, so `tests/test_backends.py` checks
the compiled lane against the pure one (a temporary directory stands in
when the cache plugin is off). The rest of the suite runs on the
pure lane unless WILDCYCLES_BACKEND names one. Without a C compiler the
compiled lane is absent and the lane-agreement tests skip; a compiler that
fails on the source is an error.
"""

import hashlib
import importlib.abc
import importlib.util
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "wildcycles" / "_ckernels.c"


class _BuiltExtension(importlib.abc.MetaPathFinder):
    def __init__(self, path: Path):
        self.path = str(path)

    def find_spec(self, name, path=None, target=None):
        if name == "wildcycles._ckernels":
            return importlib.util.spec_from_file_location(name, self.path)
        return None


def _build(cache_dir: Path):
    """Path of the compiled extension, or None when there is no compiler."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    if shutil.which(cc[0]) is None:
        return None
    digest = hashlib.sha256(SOURCE.read_bytes() + sys.version.encode()).hexdigest()[:16]
    target = cache_dir / digest / ("_ckernels" + sysconfig.get_config_var("EXT_SUFFIX"))
    if target.exists():
        return target
    target.parent.mkdir(parents=True, exist_ok=True)
    partial = target.with_name(target.name + ".partial")
    cmd = cc + shlex.split(sysconfig.get_config_var("CFLAGS") or "") + [
        "-shared", "-fPIC", "-I" + sysconfig.get_paths()["include"], str(SOURCE), "-o", str(partial),
    ]
    done = subprocess.run(cmd, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"compiling {SOURCE.name} failed:\n{done.stderr[-2000:]}")
    os.replace(partial, target)
    return target


def pytest_configure(config):
    os.environ.setdefault("WILDCYCLES_BACKEND", "pure")
    cache = getattr(config, "cache", None)  # absent under -p no:cacheprovider
    if cache is None:
        scratch = tempfile.TemporaryDirectory(prefix="wildcycles-ckernels-")
        config.add_cleanup(scratch.cleanup)
        build_dir = Path(scratch.name)
    else:
        build_dir = Path(cache.mkdir("ckernels"))
    extension = _build(build_dir)
    if extension is not None:
        sys.meta_path.insert(0, _BuiltExtension(extension))

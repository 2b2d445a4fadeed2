"""Both kernel lanes in one test run.

Compiles `src/wildcycles/_ckernels.c` with the interpreter's compiler into
the pytest cache (never into `src/`), once per source digest, and makes
`wildcycles._ckernels` import from there, so `tests/test_backends.py` checks
the compiled lane against the pure one (a temporary directory stands in
when the cache plugin is off). The rest of the suite runs on the
pure lane unless WILDCYCLES_BACKEND names one. Without a C compiler the
compiled lane is absent and the lane-agreement tests skip; a compiler that
fails or warns on the source (the build adds -Wextra -Wconversion -Werror,
so a silent narrowing fails too) is an error.
The fixture `ubsan_extension` builds a second copy, with undefined
behaviour trapped, into the same cache.
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

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "wildcycles" / "_ckernels.c"
CC = shlex.split(sysconfig.get_config_var("CC") or "cc")


class _BuiltExtension(importlib.abc.MetaPathFinder):
    def __init__(self, path: Path):
        self.path = str(path)

    def find_spec(self, name, path=None, target=None):
        if name == "wildcycles._ckernels":
            return importlib.util.spec_from_file_location(name, self.path)
        return None


def _build(cache_dir: Path, extra=()):
    """Path of the compiled extension, built with the interpreter's CFLAGS
    and then the flags in extra, or None when there is no compiler."""
    if shutil.which(CC[0]) is None:
        return None
    flags = shlex.split(sysconfig.get_config_var("CFLAGS") or "") + list(extra) + [
        "-Wextra", "-Wconversion", "-Werror", "-shared", "-fPIC", "-I" + sysconfig.get_paths()["include"],
    ]
    digest = hashlib.sha256(SOURCE.read_bytes() + sys.version.encode() + " ".join(flags).encode()).hexdigest()[:16]
    target = cache_dir / digest / ("_ckernels" + sysconfig.get_config_var("EXT_SUFFIX"))
    if target.exists():
        return target
    target.parent.mkdir(parents=True, exist_ok=True)
    partial = target.with_name(target.name + ".partial")
    done = subprocess.run(CC + flags + [str(SOURCE), "-o", str(partial)], capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"compiling {SOURCE.name} failed:\n{done.stderr[-2000:]}")
    os.replace(partial, target)
    return target


UBSAN = ("-fsanitize=undefined", "-fno-sanitize-recover=all")


@pytest.fixture(scope="session")
def ubsan_extension(pytestconfig, tmp_path_factory):
    """The extension built with the flags in UBSAN, so that the first
    undefined operation aborts the process; skips when the compiler cannot
    build a shared object with -fsanitize=undefined at all."""
    if shutil.which(CC[0]) is None:
        pytest.skip("no C compiler")
    probe = tmp_path_factory.mktemp("ubsan-probe")
    (probe / "probe.c").write_text("int probe(int x) { return x << 1; }\n")
    done = subprocess.run(
        CC + list(UBSAN) + ["-shared", "-fPIC", str(probe / "probe.c"), "-o", str(probe / "probe.so")],
        capture_output=True, text=True,
    )
    if done.returncode != 0:
        pytest.skip(f"{CC[0]} cannot build with -fsanitize=undefined: {done.stderr[-300:]}")
    cache = getattr(pytestconfig, "cache", None)
    return _build(Path(cache.mkdir("ckernels")) if cache is not None else probe, UBSAN)


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

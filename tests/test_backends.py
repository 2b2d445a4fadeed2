"""The compiled graph kernel must agree with the pure-Python reference
exactly, and every lane must refuse a successor outside the state range."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import available_backends
from wildcycles import backend
from wildcycles import _kernels_py as pure

backends = available_backends()
compiled = backends.get("c")


@pytest.mark.skipif(compiled is None, reason="compiled extension not built")
def test_graph_decompose_agrees():
    rng = random.Random(101)
    for _ in range(30):
        n = rng.randrange(1, 200)
        nxt = [rng.randrange(n) for _ in range(n)]
        c_on, c_dist = compiled.functional_graph_decompose(nxt)
        p_on, p_dist = pure.functional_graph_decompose(nxt)
        assert list(c_on) == p_on
        assert list(c_dist) == p_dist


_DEBUG_HEAP_CHECK = """
import importlib.util, itertools, sys
sys.path.insert(0, sys.argv[2])
from wildcycles import _kernels_py as pure
spec = importlib.util.spec_from_file_location("wildcycles._ckernels", sys.argv[1])
compiled = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compiled)
assert compiled.functional_graph_decompose([0]) == ([True], [0])
assert compiled.functional_graph_decompose([False]) == ([True], [0])
for n in range(5):
    for nxt in itertools.product(range(n), repeat=n):
        assert compiled.functional_graph_decompose(list(nxt)) == pure.functional_graph_decompose(list(nxt)), nxt
"""


@pytest.mark.skipif(compiled is None, reason="compiled extension not built")
def test_graph_decompose_stays_in_its_buffer():
    # Python's debug allocator guards both ends of every block and aborts
    # on free when a write overran it; every map on up to 4 states runs.
    src = Path(pure.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", _DEBUG_HEAP_CHECK, compiled.__file__, str(src)],
        env={**os.environ, "PYTHONMALLOC": "debug", "WILDCYCLES_BACKEND": "pure"},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]


def test_graph_decompose_validity():
    # distances decrease by one along edges off the cycle
    rng = random.Random(103)
    n = 500
    nxt = [rng.randrange(n) for _ in range(n)]
    for kernels in backends.values():
        on, dist = kernels.functional_graph_decompose(nxt)
        for s in range(n):
            if on[s]:
                assert dist[s] == 0
                assert on[nxt[s]]
            else:
                assert dist[s] == dist[nxt[s]] + 1


def test_graph_decompose_rejects_out_of_range_successors():
    # The pure kernel reads -1 as Python's last index; only the C kernel,
    # which must never read outside its arrays, checks the sign.
    for lane, kernels in backends.items():
        for nxt in [[5], [10**6], [2**40], [3, 0]] + ([[-1]] if lane == "c" else []):
            with pytest.raises(IndexError):
                kernels.functional_graph_decompose(nxt)


def test_selected_backend_named():
    assert backend.BACKEND_NAME in ("pure", "c")

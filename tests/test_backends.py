"""The compiled graph kernel must agree with the pure-Python reference
exactly, on tables of 32- and 64-bit words, and every lane must refuse a
successor outside the state range."""

import os
import random
import subprocess
import sys
from array import array
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
        for code in "IQ":
            table = array(code, nxt)
            assert compiled.functional_graph_decompose(table) == pure.functional_graph_decompose(table)


_DEBUG_HEAP_CHECK = """
import importlib.util, itertools, sys
from array import array
sys.path.insert(0, sys.argv[2])
from wildcycles import _kernels_py as pure
spec = importlib.util.spec_from_file_location("wildcycles._ckernels", sys.argv[1])
compiled = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compiled)
assert compiled.functional_graph_decompose(array("I", [0])) == ([[0]], 0)
for bad, error in (([0], TypeError), (array("i", [0]), TypeError), (array("Q", [0, 2]), IndexError)):
    try:
        compiled.functional_graph_decompose(bad)
    except error:
        pass
    else:
        raise AssertionError(bad)
for n in range(5):
    for nxt in itertools.product(range(n), repeat=n):
        for code in "IQ":
            table = array(code, nxt)
            assert compiled.functional_graph_decompose(table) == pure.functional_graph_decompose(table), nxt
"""


@pytest.mark.skipif(compiled is None, reason="compiled extension not built")
def test_graph_decompose_stays_in_its_buffer():
    # Python's debug allocator guards both ends of every block and aborts
    # on free when a write overran it; every map on up to 4 states runs, as
    # 32- and 64-bit tables, and so do the refusals.
    src = Path(pure.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", _DEBUG_HEAP_CHECK, compiled.__file__, str(src)],
        env={**os.environ, "PYTHONMALLOC": "debug", "WILDCYCLES_BACKEND": "pure"},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]


def test_graph_decompose_validity():
    # the cycles are disjoint, close under nxt, start at their least states
    # and come sorted by them; some state takes max_tail steps to reach a
    # periodic state and none takes more
    rng = random.Random(103)
    n = 500
    nxt = [rng.randrange(n) for _ in range(n)]
    for kernels in backends.values():
        cycles, max_tail = kernels.functional_graph_decompose(array("I", nxt))
        periodic = {s for c in cycles for s in c}
        assert len(periodic) == sum(map(len, cycles))
        for c in cycles:
            assert c[0] == min(c)
            assert [nxt[s] for s in c] == c[1:] + c[:1]
        assert [c[0] for c in cycles] == sorted(c[0] for c in cycles)
        steps = []
        for s in range(n):
            k = 0
            while s not in periodic:
                s, k = nxt[s], k + 1
            steps.append(k)
        assert max(steps) == max_tail


def test_graph_decompose_rejects_out_of_range_successors():
    tables = [("I", [5]), ("I", [10**6]), ("I", [3, 0]), ("I", [2**32 - 1]), ("Q", [2**40]), ("Q", [0, 2**64 - 1])]
    for kernels in backends.values():
        for code, nxt in tables:
            with pytest.raises(IndexError):
                kernels.functional_graph_decompose(array(code, nxt))


@pytest.mark.skipif(compiled is None, reason="compiled extension not built")
def test_compiled_graph_decompose_reads_only_unsigned_word_arrays():
    two_d = memoryview(array("I", [0, 1])).cast("B").cast("I", [1, 2])
    for table in ([0], (0,), array("i", [0]), array("q", [0]), array("H", [0]), bytes(4), two_d):
        with pytest.raises(TypeError):
            compiled.functional_graph_decompose(table)


def test_selected_backend_named():
    assert backend.BACKEND_NAME in ("pure", "c")

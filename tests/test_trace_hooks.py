"""Every span target of perfbench/spans.py names a live entry point, so a
rename that would break `perfbench/run.py --trace 1` fails here first."""

import importlib.util
import sys
import types
from pathlib import Path

import pytest

from helpers import available_backends
from wildcycles import _kernels_py, backend, cli, curves

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
compiled = available_backends().get("c")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(mod_name, attr):
    owner = backend.kernels if mod_name == "kernels" else sys.modules[f"wildcycles.{mod_name}"]
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_span_target_resolves_and_records(monkeypatch, capsys):
    spans = load_spans()
    monkeypatch.setattr(backend, "kernels", _kernels_py)  # the pure lane
    tracer = spans.Tracer()
    tracer.install()
    try:
        unwrapped = [(m, a) for m, a, _, _ in spans.TARGETS if not hasattr(resolve(m, a), "__wrapped__")]
        assert unwrapped == []
        assert cli.run(["milnor", "--f", "x^2 + y^3", "--p", "3"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    count = tracer.totals()[0]
    assert count["cli.run"] == count["cli.build_parser"] == 1
    assert count["groebner.tame_wild_split"] == 1
    assert not any(hasattr(resolve(m, a), "__wrapped__") for m, a, _, _ in spans.TARGETS)


@pytest.mark.skipif(compiled is None, reason="compiled extension not built")
def test_every_span_target_resolves_on_the_compiled_lane(monkeypatch, capsys):
    # the compiled lane has its own count and slice kernels and shares the
    # singularity check; the tracer must wrap and unwrap both kinds
    for name in ("curve_affine_count", "curve_slice_counts"):
        assert isinstance(getattr(compiled, name), types.BuiltinFunctionType)
    assert compiled.curve_is_singular is _kernels_py.curve_is_singular
    spans = load_spans()
    monkeypatch.setattr(backend, "kernels", compiled)
    monkeypatch.setattr(curves, "kernels", compiled)
    tracer = spans.Tracer()
    tracer.install()
    try:
        unwrapped = [(m, a) for m, a, _, _ in spans.TARGETS if not hasattr(resolve(m, a), "__wrapped__")]
        assert unwrapped == []
        assert cli.run(["curve-count", "--p", "7", "--a", "1", "--b", "2"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert tracer.totals()[0]["curves.kernel"] == 3
    assert not any(hasattr(resolve(m, a), "__wrapped__") for m, a, _, _ in spans.TARGETS)

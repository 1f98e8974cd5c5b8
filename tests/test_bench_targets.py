"""The names the benchmark's span tracer wraps still exist in peaudio.

perfbench/spans.py is read as text, never imported or run: its TARGETS
and FRAME_TARGETS name "<module>.<function>" under the package, and a
renamed or deleted function would leave its traced metrics at 0 without
failing the benchmark.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_names(constant: str) -> tuple:
    """The literal value of a module-level constant of spans.py."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [constant]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{SPANS} assigns no {constant}")


@pytest.mark.parametrize("constant", ["TARGETS", "FRAME_TARGETS"])
def test_every_traced_name_is_a_peaudio_callable(constant):
    names = traced_names(constant)
    assert names
    for name in names:
        module, function = name.rsplit(".", 1)
        assert callable(getattr(importlib.import_module(f"peaudio.{module}"), function, None)), name


def test_toy_fit_keeps_the_steps_parameter_the_tracer_binds():
    assert "pe.toy_fit" in traced_names("TARGETS")
    assert "steps" in inspect.signature(importlib.import_module("peaudio.pe").toy_fit).parameters

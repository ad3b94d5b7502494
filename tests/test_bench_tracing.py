"""The benchmark's tracer patches mgam attributes by name; a renamed or
deleted one must fail here, not only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("module, attr", sorted(
    {(m, a) for m, a, _, _ in tracing.WRAPPED}
    | {(m, a) for m, a, _ in tracing.COUNTED}))
def test_traced_attribute_is_callable(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), \
        f"{module}.{attr} is wrapped by benchmarks/tracing.py but does not exist"

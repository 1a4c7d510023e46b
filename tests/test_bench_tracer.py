"""The benchmark tracer wraps ifwb functions by name; every name must still exist."""

import importlib.util
import pathlib

TRACER_PATH = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    missing = [
        f"{layer}.{name}"
        for layer, name in tracer.TRACED
        if not callable(getattr(tracer.LAYERS[layer], name, None))
    ]
    assert missing == []

"""The benchmark's span tracer names only what the package defines.

bench/layers.py binds each traced function by module attribute and each
traced method from its class's own __dict__, so a rename or a move in the
package would break `bench/run.py --trace 1` only at benchmark time.  These
checks read the tracer's lists and install nothing.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("bench_layers", ROOT / "bench" / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve(layers):
    for module, attr, name, _ in layers.FUNCTIONS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({name})"
    assert callable(layers.systems.spawn_rngs)


def test_traced_methods_are_defined_in_their_class_body(layers):
    for cls, attr, name, _ in layers.METHODS:
        assert attr in cls.__dict__, f"{cls.__name__}.{attr} ({name})"

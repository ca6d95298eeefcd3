"""The benchmark's traced run finds every layer it names.

``bench/spans.py`` wraps each layer by rebinding ``relangle.<module>.<path>``;
a name that no longer resolves is skipped with a note on stderr and its
metrics read 0.  These tests keep the names and the hook inputs in step with
the package.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from relangle import decomposition, spin

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(module, path):
    owner = importlib.import_module(f"relangle.{module}")
    for attribute in path.split("."):
        owner = getattr(owner, attribute)
    return owner


LAYERS = load_spans().LAYERS


@pytest.mark.parametrize("name", sorted(LAYERS))
def test_every_layer_resolves(name):
    assert callable(resolve(*LAYERS[name]))


def test_quadrature_counter_resolves():
    assert callable(resolve("estimation", "_adaptive_integral"))


def test_decomposition_carries_the_pair():
    # the distinct-pairs counter reads .j1 and .j2 of what decomposition returns
    dec = decomposition(spin("3/2"), spin(2))
    assert (dec.j1.twice_j, dec.j2.twice_j) == (3, 4)

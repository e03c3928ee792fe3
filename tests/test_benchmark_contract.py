"""The package surface that perfbench/ relies on.

The benchmark's tracer wraps named layers from outside the package, so a
renamed or deleted layer would only show up as a crash of a traced run.
These checks read perfbench/tracer.py and fail first.
"""

import importlib.util
from pathlib import Path

import pytest

import kmcrystals
import kmcrystals.cli  # noqa: F401  (the benchmark worker imports it too)

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _tracer()


@pytest.mark.parametrize("owner, attr",
                         [(owner, attr) for _, owner, attr, _ in tracer.SPANS]
                         + [(owner, attr) for _, owner, attr in tracer.COUNTS])
def test_traced_names_resolve(owner, attr):
    target = tracer._resolve(owner)
    assert callable(getattr(target, attr, None)), f"{owner}.{attr}"


def test_public_names_exist():
    missing = [name for name in kmcrystals.__all__ if not hasattr(kmcrystals, name)]
    assert not missing
    assert len(set(kmcrystals.__all__)) == len(kmcrystals.__all__)

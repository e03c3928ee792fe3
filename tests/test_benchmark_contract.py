"""The package surface that perfbench/ relies on.

The benchmark's tracer wraps named layers from outside the package, so a
renamed or deleted layer would only show up as a crash of a traced run.
These checks read perfbench/tracer.py and fail first.
"""

import hashlib
import importlib.util
import json
import math
from pathlib import Path

import pytest

import kmcrystals
import kmcrystals.cli  # noqa: F401  (the benchmark worker imports it too)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"


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


def test_recorded_digests_reproduce(capsys):
    # every named benchmark command prints the bytes recorded for it
    digests = json.loads((PERFBENCH / "expected.json").read_text(encoding="utf-8"))["digests"]
    assert len(digests) == 8
    for command, digest in digests.items():
        argv = command.split(" ")  # an empty word is an empty argument
        assert kmcrystals.cli.main(argv) == 0, command
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, command


@pytest.mark.xfail(strict=True, reason="a pass with no speed sample has no "
                   "reference time to fall back on (ROADMAP item D)")
def test_unsampled_pass_converts_to_finite_units(monkeypatch):
    # The speed sampler first fires 0.1 s into a pass, so a shorter pass
    # leaves every command's ref_s None.  Its times in reference units must
    # still be finite: a NaN reaches the run's last line, which is then not JSON.
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports its siblings
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    ops = [{"seconds": 0.06, "ref_s": None}, {"seconds": 0.03, "ref_s": None}]
    assert all(math.isfinite(x) for x in run._in_reference_units(ops))

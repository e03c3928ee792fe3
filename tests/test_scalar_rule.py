"""The scalar rule: an exact scalar is an int when integral, else a Fraction.

Weights, path vertices and pairings are checked on walks over integral data of
several types and over a rational realization of A2; the rational datum must
also reproduce the A2 preset's decomposition through the same code.
"""

import json
from fractions import Fraction

import pytest

from kmcrystals import cli
from kmcrystals.binfinity import binf_top
from kmcrystals.crystals import TensorPair, enumerate_from
from kmcrystals.paths import straight_path
from kmcrystals.rootdata import datum_from_json, preset, vec
from sample_data import AFFINE_A1, B2, G2


# A2 with every simple root halved and every coroot doubled: the pairing
# matrix is unchanged, but weight coordinates become halves
HALVED_A2 = {"name": "A2-halved", "n": 2, "m": 2, "cartan": [[2, -1], [-1, 2]],
             "roots": [["1", "-1/2"], ["-1/2", "1"]],
             "pairing": [["2", "0"], ["0", "2"]]}

DATA = {
    "A2": (preset("A2"), (1, 1), None),
    "B2": (B2, (1, 1), None),
    "G2": (G2, (1, 1), None),
    "GL3": (preset("GL3"), (2, 1, 0), None),
    # untwisted affine A1^(1); B(lambda) is infinite, so it is walked to a window
    "affine-A1": (AFFINE_A1, (1, 1, 0), 5),
    "A2-halved": (datum_from_json(HALVED_A2), (Fraction(1, 2), Fraction(1, 2)), None),
}


def _ruled(x):
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def _check_weights(datum, xset):
    for x in xset:
        wt = x.wt()
        assert all(map(_ruled, wt)), wt
        assert all(_ruled(datum.pair(wt, i)) for i in range(1, datum.n + 1))


@pytest.mark.parametrize("name", list(DATA))
def test_every_scalar_follows_the_rule(name):
    datum, lam, path_window = DATA[name]
    lam = vec(lam)
    paths = enumerate_from([straight_path(datum, lam)], lam, window=path_window)
    fractional = 0
    for p in paths:
        for v in p.vertices:
            assert all(map(_ruled, v)), (name, p.vertices)
            fractional += sum(type(x) is Fraction for x in v)
            assert all(_ruled(datum.pair(v, i)) for i in range(1, datum.n + 1))
    _check_weights(datum, paths)
    # every B(lambda) here has a non-integral vertex, so both kinds are checked
    assert fractional > 0

    top = binf_top(datum)
    binf = enumerate_from([top], top.wt(), window=4)
    assert len(binf) > 10
    _check_weights(datum, binf)
    assert all(_ruled(x) for b in binf for x in b.offset)

    pair = TensorPair(straight_path(datum, lam), top)
    component = enumerate_from([pair], pair.wt(), window=3)
    _check_weights(datum, component)


def _decompose(capsys, w, *argv):
    code = cli.main(["decompose", *argv, "--v", "1", "--w", w, "--format", "json"])
    out, err = capsys.readouterr()
    return code, json.loads(out)["components"] if code == 0 else err


def test_rational_realization_decomposes_like_the_preset(capsys, tmp_path):
    blob = tmp_path / "halved.json"
    blob.write_text(json.dumps(HALVED_A2))
    preset_args = ("--preset", "A2", "--lambda", "1,0", "--mu", "0,1")
    halved_args = ("--datum", str(blob), "--lambda", "1/2,0", "--mu", "0,1/2")
    # w = s2 s1 fails the support criterion (exit 2) on both realizations
    for w in ("2,1", "1,2"):
        want_code, want = _decompose(capsys, w, *preset_args)
        got_code, got = _decompose(capsys, w, *halved_args)
        assert got_code == want_code == (2 if w == "2,1" else 0)
        if want_code:
            assert got == want
            continue
        assert len(got) == len(want) == 2
        for g, k in zip(got, want):
            assert (g["y_word"], g["u_word"], g["size"]) == (k["y_word"], k["u_word"], k["size"])
            # the same weights, in coordinates halved
            assert [Fraction(x) for x in g["nu"]] == [Fraction(x) / 2 for x in k["nu"]]

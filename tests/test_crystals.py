"""Tensor products, components, strings, extremality, matching, the edge memo."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import kmcrystals
from kmcrystals.binfinity import BSeq, binf_top
from kmcrystals.crystals import (
    MismatchWitness,
    TensorPair,
    enumerate_from,
    i_string,
    is_extremal,
    is_primitive_pair,
    match_highest_weight,
    primitive_elements,
    product_set,
    set_from_elements,
    t_word_closure,
    tensor,
)
from kmcrystals.demazure import demazure_set
from kmcrystals.paths import PLPath, straight_path
from kmcrystals.rootdata import (InvariantBroken, preset, vadd, validate_root_datum,
                                 vec, vscale, vsub)
from sample_data import AFFINE_A1, B2, G2

A1 = preset("A1")
A2 = preset("A2")


# a realization of A2 with halved roots, so weights carry Fractions
HALVED_A2 = validate_root_datum(
    "A2", 2, 2, [[2, -1], [-1, 2]], roots=[(1, Fraction(-1, 2)), (Fraction(-1, 2), 1)],
    pairing=[(2, 0), (0, 2)])

# each datum with a dominant weight whose B(lambda) the memo tests walk
MEMO_DATA = {
    "A2": (A2, (1, 1)),
    "A2-halved": (HALVED_A2, (Fraction(1, 2), Fraction(1, 2))),
    "B2": (B2, (1, 1)),
    "G2": (G2, (1, 1)),
    "A1^(1)": (AFFINE_A1, (1, 1, 0)),
}


def _blam(datum, lam, word):
    return demazure_set(straight_path(datum, lam), datum.weyl(word))


def test_tensor_pair_rule_sl2():
    om = vec((1,))
    b = straight_path(A1, om)
    fb = b.f(1)
    # f moves left exactly while phi(left) > eps(right)
    assert TensorPair(b, b).f(1) == TensorPair(fb, b)
    assert TensorPair(fb, b).f(1) == TensorPair(fb, fb)
    assert TensorPair(fb, fb).f(1) is None
    assert TensorPair(b, fb).f(1) is None
    # e moves left exactly while phi(left) >= eps(right)
    assert TensorPair(b, fb).e(1) is None
    assert TensorPair(fb, b).e(1) == TensorPair(b, b)
    assert (TensorPair(b, fb).eps(1), TensorPair(b, fb).phi(1)) == (0, 0)
    assert TensorPair(b, b).wt() == vec((2,))


def test_tensor_flattening():
    om = vec((1, 1))
    b = straight_path(A2, om)
    chain = tensor(b, b, b)
    assert chain == TensorPair(TensorPair(b, b), b)
    assert tensor(b) is b


def test_two_chain_product_components():
    om = vec((1,))
    left = _blam(A1, om, (1,))
    xprod = product_set(left, left)
    assert len(xprod) == 4
    tops = [x for x in xprod if x.eps(1) == 0]
    assert len(tops) == 2
    sizes = sorted(len(enumerate_from([t], t.wt(), member=xprod.__contains__,
                                      with_e=True)) for t in tops)
    assert sizes == [1, 3]


def test_i_string():
    om = vec((1,))
    b = straight_path(A1, om)
    nodes, cut = i_string(TensorPair(b.f(1), b), 1)
    assert not cut
    assert nodes == [TensorPair(b, b), TensorPair(b.f(1), b),
                     TensorPair(b.f(1), b.f(1))]


def test_associativity_of_stats():
    # re-associating a triple tensor preserves all string statistics
    om1, om2 = vec((1, 0)), vec((0, 1))
    tops = (straight_path(A2, om1), straight_path(A2, om2),
            straight_path(A2, om1))
    seeds = [tensor(*tops), TensorPair(tops[0], TensorPair(tops[1], tops[2]))]
    frontier = [tuple(seeds)]
    seen = {tuple(seeds)}
    while frontier:
        nxt = []
        for pair in frontier:
            a, b = pair
            assert a.wt() == b.wt()
            for i in (1, 2):
                assert a.eps(i) == b.eps(i)
                assert a.phi(i) == b.phi(i)
                fa, fb = a.f(i), b.f(i)
                assert (fa is None) == (fb is None)
                if fa is not None and (fa, fb) not in seen:
                    seen.add((fa, fb))
                    nxt.append((fa, fb))
        frontier = nxt
    assert len(seen) == 15  # the top generates the component of weight (2,1)


def test_full_product_decomposes_by_primitives():
    # B(1,1) (x) B(1,0) for sl3: components 15 + 6 + 3 by dimension
    lam, mu = vec((1, 1)), vec((1, 0))
    bl = _blam(A2, lam, (1, 2, 1))
    bm = _blam(A2, mu, (1, 2, 1))
    xprod = product_set(bl, bm)
    assert len(xprod) == 24
    prim = primitive_elements(bm, lam)
    assert len(prim) == 3
    tops = [x for x in xprod
            if all(x.eps(i) == 0 for i in (1, 2))]
    assert sorted(x.skey() for x in tops) == sorted(
        TensorPair(bl.top(), b).skey() for b in prim)
    comps = [enumerate_from([t], t.wt(), member=xprod.__contains__, with_e=True)
             for t in tops]
    assert sorted(len(c) for c in comps) == [3, 6, 15]
    assert sum(len(c) for c in comps) == len(xprod)
    got = sorted(tuple(t.wt()) for t in tops)
    assert got == sorted([(2, 1), (0, 2), (1, 0)])


def test_primitivity_gate():
    mu = vec((1, 0))
    bm = _blam(A2, mu, (1, 2, 1))
    lam0 = vec((0, 0))
    assert [is_primitive_pair(lam0, b) for b in bm].count(True) == 1
    assert len(primitive_elements(bm, vec((1, 1)))) == 3


def test_extremality_violated_by_partial_string():
    om = vec((1,))
    xset = product_set(_blam(A1, om, (1,)), _blam(A1, om, ()))
    verdict = is_extremal(xset)
    assert verdict.status == "violated"
    x, i = verdict.witness
    assert i == 1


def test_extremality_of_a_top_only_window():
    om = vec((1,))
    full = _blam(A1, om, (1,))
    xset = product_set(full, full, window=0)
    assert len(xset) == 1 and xset.truncated
    verdict = is_extremal(xset)
    assert verdict.status == "inconclusive" and "window 0" in verdict.reason
    # a complete one-element set is still settled
    top = product_set(_blam(A1, om, ()), _blam(A1, om, ()))
    assert len(top) == 1 and not top.truncated
    assert is_extremal(top).status == "extremal"


def test_extremality_of_full_product():
    om = vec((1,))
    full = _blam(A1, om, (1,))
    assert is_extremal(product_set(full, full)).status == "extremal"
    # a union of whole strings is extremal even when it is not a product
    b = straight_path(A1, om)
    xset = set_from_elements([TensorPair(b, b.f(1))], vec((2,)),
                             check_axioms=False)
    assert is_extremal(xset).status == "extremal"


def test_match_highest_weight_accepts():
    lam = vec((1, 1))
    xset = _blam(A2, lam, (1, 2, 1))
    yset = _blam(A2, lam, (2, 1, 2))
    matched = match_highest_weight(xset, yset)
    assert matched
    assert len(matched) == 8


def test_match_highest_weight_rejects():
    xset = _blam(A2, vec((1, 0)), (1, 2, 1))
    yset = _blam(A2, vec((0, 1)), (1, 2, 1))
    witness = match_highest_weight(xset, yset)
    assert not witness
    assert isinstance(witness, MismatchWitness)
    smaller = _blam(A2, vec((1, 0)), (1,))
    assert not match_highest_weight(xset, smaller)


def test_enumerate_checks_axioms():
    lam = vec((1, 1))
    top = straight_path(A2, lam)
    xset = enumerate_from([top], lam, with_e=True, check_axioms=True)
    assert len(xset) == 8
    assert xset.top() == top
    assert xset.max_depth() == 4
    closure, cut = t_word_closure([top], (1, 2, 1), lam)
    assert not cut and len(set(closure)) == 8


def test_broken_axioms_raise_invariant_broken(monkeypatch):
    lam = vec((1, 1))
    top = straight_path(A2, lam)
    monkeypatch.setattr(PLPath, "e", lambda self, i: None)  # breaks C2
    with pytest.raises(InvariantBroken, match="axiom C2 fails"):
        enumerate_from([top], lam, check_axioms=True)
    monkeypatch.undo()
    real = PLPath.eps
    monkeypatch.setattr(PLPath, "eps", lambda self, i: real(self, i) + 1)  # breaks C1
    with pytest.raises(InvariantBroken, match="axiom C1 fails"):
        top.check_c1()


def test_crystal_set_serialization():
    lam = vec((1, 0))
    xset = _blam(A2, lam, (1, 2, 1))
    blob = xset.to_json()
    assert blob["meta"]["size"] == 3
    dot = xset.to_dot()
    assert dot.startswith("digraph") and " -> " in dot and '[label="1"]' in dot


# ---------------------------------------------------------------------------
# the per-datum edge memo


def _assert_memo_matches_raw(xset):
    """Every memoised e_i/f_i on the set equals the raw operator, and a second
    call returns the stored object."""
    for x in xset:
        for i in range(1, xset.datum.n + 1):
            for op in ("e", "f"):
                raw = getattr(type(x), op).__wrapped__(x, i)
                got = getattr(x, op)(i)
                assert got == raw and getattr(x, op)(i) is got
                assert xset.datum._edges[op][i][x] is got


@pytest.mark.parametrize("name", list(MEMO_DATA))
def test_memoised_operators_equal_raw_ones(name):
    datum, lam = MEMO_DATA[name]
    lam = vec(lam)
    # B(lambda) (cut for the affine datum), B(infinity) to depth 4, and one
    # component of B(lambda) (x) B(infinity)
    window = 4 if name == "A1^(1)" else None
    paths = enumerate_from([straight_path(datum, lam)], lam, window=window,
                           check_axioms=False)
    binf = enumerate_from([binf_top(datum)], vec((0,) * datum.m), window=4,
                          check_axioms=False)
    component = enumerate_from([TensorPair(straight_path(datum, lam), binf_top(datum))],
                               lam, window=3, member=lambda x: True)
    assert len(paths) > 1 and len(binf) > 1 and len(component) > 1
    for xset in (paths, binf, component):
        _assert_memo_matches_raw(xset)
    # wt sums each colour's entries before subtracting; the per-entry sum
    # gives the same scalars, types included
    for x in binf:
        want = x.offset
        for k, a in enumerate(x.entries, start=1):
            want = vsub(want, vscale(a, datum.simple_root(x.iota(k))))
        assert x.wt() == want and list(map(type, x.wt())) == list(map(type, want))


def test_edge_memo_is_per_datum():
    first, second = preset("A2"), preset("A2")
    assert first == second and first is not second
    tops = ((first, vec((1, 1))), (second, vec((1, 1))),
            (HALVED_A2, vec((Fraction(1, 2), Fraction(1, 2)))))
    sets = [enumerate_from([TensorPair(straight_path(d, lam), binf_top(d))], lam,
                           window=3, member=lambda x: True) for d, lam in tops]
    assert sets[0].elements == sets[1].elements
    for d, _ in tops:
        stored = [(x, y) for op in d._edges.values() for table in op.values()
                  for x, y in table.items()]
        assert stored
        assert all(x.datum is d and (y is None or y.datum is d) for x, y in stored)
    assert len({id(d._edges) for d, _ in tops}) == 3


def test_slotted_elements_hash_once():
    top = binf_top(A2, vec((2, 0)))
    pair = TensorPair(straight_path(A2, vec((1, 0))), top)
    for x in (top, top.f(1), pair, pair.f(1)):
        assert not hasattr(x, "__dict__")
    # equal elements built with int and with Fraction offsets hash alike
    by_int = BSeq(A2, (1, 2), (2, 0))
    by_fraction = BSeq(A2, (1, 2, 0), (Fraction(2), Fraction(0)))
    derived = top.f(1).f(2).f(2)  # built by e/f, not by the constructor
    for x in (by_fraction, derived):
        assert x == by_int and hash(x) == hash(by_int)
    left = straight_path(A2, vec((1, 0)))
    assert TensorPair(left, by_int) == TensorPair(left, by_fraction)
    assert hash(TensorPair(left, by_int)) == hash(TensorPair(left, by_fraction))


# Run twice, under two hash seeds: "dump" pickles a datum and elements of each
# model, and "load" checks that what it reads back hashes like a fresh build.
_PICKLE_SCRIPT = """
import pickle, sys
from kmcrystals.binfinity import binf_top
from kmcrystals.crystals import TensorPair
from kmcrystals.paths import straight_path
from kmcrystals.rootdata import preset

def build():
    datum = preset("A2")
    x = binf_top(datum).f(1).f(2)
    return [datum, x, straight_path(datum, (1, 1)).f(1),
            TensorPair(straight_path(datum, (1, 0)), x)]

if sys.argv[1] == "dump":
    sys.stdout.buffer.write(pickle.dumps(build()))
else:
    loaded = pickle.loads(sys.stdin.buffer.read())
    assert "_edges" not in vars(loaded[0]), "the edge memo was pickled"
    for a, b in zip(loaded, build(), strict=True):
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1, type(a).__name__
"""


def test_pickled_elements_rehash_when_loaded():
    src = str(Path(kmcrystals.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)

    def run(mode, seed, data=None):
        env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed)
        return subprocess.run([sys.executable, "-c", _PICKLE_SCRIPT, mode], env=env,
                              input=data, capture_output=True, timeout=120, check=False)

    dumped = run("dump", "1")
    assert dumped.returncode == 0, dumped.stderr.decode()
    loaded = run("load", "2", dumped.stdout)
    assert loaded.returncode == 0, loaded.stderr.decode()

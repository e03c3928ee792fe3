"""Piecewise-linear paths and their root operators."""

from fractions import Fraction

import pytest

from kmcrystals.crystals import enumerate_from, i_string, verify_axioms
from kmcrystals.paths import NonIntegralPath, PLPath, straight_path
from kmcrystals.rootdata import preset, vec
from sample_data import B2, C2, G2

A1 = preset("A1")
A2 = preset("A2")
A3 = preset("A3")


def _full(datum, lam, w0_word):
    top = straight_path(datum, lam)
    xset = enumerate_from([top], lam, with_e=True)
    verify_axioms(xset)
    return xset


def test_straight_path():
    p = straight_path(A2, vec((1, 1)))
    assert p.vertices == (vec((0, 0)), vec((1, 1)))
    assert p.wt() == vec((1, 1))
    assert (p.eps(1), p.phi(1)) == (0, 1)
    z = straight_path(A2, vec((0, 0)))
    assert z.vertices == (vec((0, 0)),)
    with pytest.raises(Exception):
        straight_path(A2, vec((-1, 0)))


def test_canonical_form():
    # interior corners on a straight run are dropped, duplicates merged
    p = PLPath(A1, (vec((0,)), vec((1,)), vec((2,))))
    assert p == straight_path(A1, vec((2,)))
    q = PLPath(A1, (vec((0,)), vec((0,)), vec((2,))))
    assert q == straight_path(A1, vec((2,)))
    with pytest.raises(ValueError):
        PLPath(A1, (vec((1,)),))


def test_sl2_three_chain():
    # B(2): reflecting the first unit rise sends the straight path through
    # the dipping one (0 -> -1 -> 0); one more step straightens to -2
    b0 = straight_path(A1, vec((2,)))
    b1 = b0.f(1)
    assert b1.vertices == (vec((0,)), vec((-1,)), vec((0,)))
    assert (b1.eps(1), b1.phi(1)) == (1, 1)
    b2 = b1.f(1)
    assert b2.vertices == (vec((0,)), vec((-2,)))
    assert (b2.eps(1), b2.phi(1)) == (2, 0)
    assert b2.f(1) is None
    assert b1.e(1) == b0 and b2.e(1) == b1 and b0.e(1) is None


def test_non_integral_min():
    p = PLPath(A1, (vec((0,)), vec((Fraction(-1, 2),)), vec((1,))))
    with pytest.raises(NonIntegralPath):
        p.eps(1)


def test_adjoint_crystal_a2():
    xset = _full(A2, vec((1, 1)), (1, 2, 1))
    assert len(xset) == 8
    assert xset.graded_sizes() == {0: 1, 1: 2, 2: 2, 3: 2, 4: 1}
    # two elements of weight zero, on distinct strings
    zeros = [b for b in xset if b.wt() == vec((0, 0))]
    assert len(zeros) == 2


def test_a3_omega2_crystal():
    xset = _full(A3, vec((0, 1, 0)), (1, 2, 3, 1, 2, 1))
    assert len(xset) == 6
    assert xset.graded_sizes() == {0: 1, 1: 1, 2: 2, 3: 1, 4: 1}


@pytest.mark.parametrize("datum, size", [(B2, 16), (C2, 16), (G2, 64)],
                         ids=["B2", "C2", "G2"])
def test_dual_e_inverts_f_on_unequal_root_lengths(datum, size):
    # e is computed as the dual of f; on all of B(rho) every e_i edge and
    # every f_i edge must undo the other, which pins e down given f
    xset = _full(datum, vec((1, 1)), None)
    assert len(xset) == size


def test_string_statistics_are_walk_lengths():
    # eps/phi agree with the number of raising/lowering steps to the string ends
    xset = _full(A2, vec((1, 1)), (1, 2, 1))
    for b in xset:
        for i in (1, 2):
            nodes, cut = i_string(b, i)
            assert not cut
            k = nodes.index(b)
            assert b.eps(i) == k
            assert b.phi(i) == len(nodes) - 1 - k

"""Formal characters, the isobaric operators, keys, and positivity."""

import itertools
import random
from fractions import Fraction

import pytest

from kmcrystals.binfinity import binf_top
from kmcrystals.characters import (
    FormalCharacter,
    NonIntegralPairing,
    NotInSpan,
    TruncatedSet,
    char_of_set,
    composition_pair,
    demazure_character,
    demazure_op,
    demazure_word_op,
    key_expand,
    key_polynomial,
    verify_demazure_character,
    verify_key_positivity,
    verify_product_identity,
)
from kmcrystals.crystals import enumerate_from
from kmcrystals.demazure import demazure_set
from kmcrystals.paths import straight_path
from kmcrystals.rootdata import (InvariantBroken, datum_from_json, preset, vec,
                                 weyl_group_elements)
from sample_data import AFFINE_A1, B2, C2, G2

A2 = preset("A2")
A3 = preset("A3")
GL2 = preset("GL2")
GL3 = preset("GL3")


def _e(datum, mu):
    return FormalCharacter.monomial(datum, vec(mu))


def test_character_arithmetic():
    a = _e(A2, (1, 0))
    b = _e(A2, (0, 1))
    s = a + b
    assert s.coeff(vec((1, 0))) == 1 and len(s) == 2
    assert (s - a) == b
    assert (a - a) == FormalCharacter.zero(A2)
    assert not (a - a)
    prod = s * s
    assert prod.coeff(vec((1, 1))) == 2
    assert 3 * a == a + a + a
    assert a.dimension() == 1 and prod.dimension() == 4
    assert a != b


def test_characters_over_same_named_data_differ():
    # Both data are named "custom" and share the pairing; only the Cartan
    # matrix, and with it the simple roots, tells them apart.
    def custom(cartan):
        return datum_from_json({"n": 2, "m": 2, "cartan": cartan, "roots": cartan,
                                "pairing": [[1, 0], [0, 1]]})

    a2, b2 = custom([[2, -1], [-1, 2]]), custom([[2, -2], [-1, 2]])
    assert a2.name == b2.name == "custom"
    x = FormalCharacter.monomial(a2, vec((1, 0)))
    y = FormalCharacter.monomial(b2, vec((1, 0)))
    assert x != y and len({x, y}) == 2
    again = FormalCharacter.monomial(custom([[2, -1], [-1, 2]]), vec((1, 0)))
    assert x == again and hash(x) == hash(again)


def test_demazure_op_closed_form():
    # pairing m >= 0 sums m+1 terms down the alpha-string
    chi = demazure_op(_e(A2, (2, 0)), 1)
    assert chi == _e(A2, (2, 0)) + _e(A2, (0, 1)) + _e(A2, (-2, 2))
    # m = -1 annihilates
    assert not demazure_op(_e(A2, (-1, 0)), 1)
    # m <= -2 flips sign and runs strictly between the string ends
    chi = demazure_op(_e(A2, (-2, 0)), 1)
    assert chi == -1 * _e(A2, (0, -1))
    chi = demazure_op(_e(A2, (-3, 0)), 1)
    assert chi == -1 * (_e(A2, (-1, -1)) + _e(A2, (1, -2)))
    with pytest.raises(NonIntegralPairing):
        demazure_op(FormalCharacter.monomial(A2, (Fraction(1, 2), Fraction(0))), 1)


def _random_characters(datum, count, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        chi = FormalCharacter.zero(datum)
        for _ in range(rng.randrange(1, 4)):
            mu = vec(tuple(rng.randrange(-3, 4) for _ in range(datum.m)))
            chi = chi + rng.randrange(-2, 3) * FormalCharacter.monomial(datum, mu)
        out.append(chi)
    return out


def test_demazure_op_idempotent_and_braid():
    for chi in _random_characters(A2, 60, seed=5):
        d1 = demazure_op(chi, 1)
        assert demazure_op(d1, 1) == d1
        lhs = demazure_op(demazure_op(d1, 2), 1)
        rhs = demazure_op(demazure_op(demazure_op(chi, 2), 1), 2)
        assert lhs == rhs
    for chi in _random_characters(A3, 30, seed=6):
        a = demazure_op(demazure_op(chi, 1), 3)
        b = demazure_op(demazure_op(chi, 3), 1)
        assert a == b


def test_word_operator_ignores_reduction():
    chi = _e(A2, (1, 2))
    assert demazure_word_op(chi, (1, 1, 2)) == demazure_word_op(chi, (1, 2))
    assert demazure_word_op(chi, (1, 2, 1)) == demazure_word_op(chi, (2, 1, 2))
    assert demazure_word_op(chi, ()) == chi


def test_demazure_character_matches_sets():
    lam = vec((1, 1))
    seed = straight_path(A2, lam)
    for w in weyl_group_elements(A2):
        assert verify_demazure_character(A2, w, lam)
        chi = demazure_character(A2, w, lam)
        assert chi == char_of_set(demazure_set(seed, w))
    full = demazure_character(A2, A2.weyl((1, 2, 1)), lam)
    assert full.dimension() == 8


def test_truncated_sets_refuse_characters():
    top = binf_top(A2)
    xset = enumerate_from([top], top.wt(), window=2)
    with pytest.raises(TruncatedSet):
        char_of_set(xset)
    assert char_of_set(xset, allow_truncated=True).dimension() == 7


def test_product_identity():
    lam = mu = vec((1, 1))
    rec = verify_product_identity(A2, A2.simple(1), lam, A2.weyl((1, 2)), mu)
    assert rec.ok
    rec = verify_product_identity(A2, A2.weyl((1, 2, 1)), lam,
                                  A2.weyl((1, 2, 1)), mu)
    assert rec.ok and rec.chi_product.dimension() == 64
    assert rec.chi_operator == rec.chi_components == rec.chi_product


def test_key_polynomials_small():
    # kappa_(0,1) = e^(1,0) + e^(0,1)
    chi = key_polynomial(GL2, (0, 1))
    assert chi == _e(GL2, (1, 0)) + _e(GL2, (0, 1))
    assert key_polynomial(GL2, (1, 0)) == _e(GL2, (1, 0))
    chi = key_polynomial(GL3, (1, 0, 1))
    assert chi == _e(GL3, (1, 1, 0)) + _e(GL3, (1, 0, 1))
    # dominant compositions give single Demazure-at-identity terms... the
    # full antidominant one gives the whole irreducible character
    chi = key_polynomial(GL3, (0, 1, 2))
    assert chi.dimension() == 8


def test_composition_pair():
    u, lam = composition_pair(GL3, (0, 1, 2))
    assert lam == vec((2, 1, 0))
    assert u.act_weight(lam) == vec((0, 1, 2))
    u, lam = composition_pair(GL3, (2, 1, 0))
    assert u.is_identity and lam == vec((2, 1, 0))
    u, lam = composition_pair(GL3, (1, 0, 1))
    assert lam == vec((1, 1, 0)) and u.act_weight(lam) == vec((1, 0, 1))


def test_key_expand_round_trip():
    rng = random.Random(11)
    comps = [(2, 0, 0), (0, 2, 0), (1, 1, 1), (0, 1, 2), (1, 0, 1), (2, 1, 0)]
    for _ in range(20):
        picks = {c: rng.randrange(0, 4) for c in comps}
        chi = FormalCharacter.zero(GL3)
        for c, k in picks.items():
            if k:
                chi = chi + k * key_polynomial(GL3, c)
        got = key_expand(GL3, chi)
        want = {c: k for c, k in picks.items() if k}
        assert got == want


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def test_key_expand_recovers_every_key():
    GL4 = preset("GL4")
    for datum, top in ((GL3, 6), (GL4, 4)):
        for d in range(top + 1):
            for c in _compositions(d, datum.m):
                assert key_expand(datum, key_polynomial(datum, c)) == {c: 1}
    # every integral weight is a key label outside type A too
    for datum in (B2, G2):
        for mu in itertools.product(range(-3, 4), repeat=2):
            assert key_expand(datum, key_polynomial(datum, mu)) == {mu: 1}


@pytest.mark.parametrize("datum", [A3, B2, G2], ids=["A3", "B2", "G2"])
def test_key_expand_round_trip_beyond_gl(datum):
    rng = random.Random(12)
    box = list(itertools.product(range(-2, 3), repeat=datum.m))
    for _ in range(10):
        want = {vec(mu): rng.choice((-2, -1, 1, 2, 3)) for mu in rng.sample(box, 4)}
        chi = FormalCharacter.zero(datum)
        for mu, k in want.items():
            chi = chi + k * key_polynomial(datum, mu)
        assert key_expand(datum, chi) == want


def test_key_labels_need_finite_type():
    with pytest.raises(ValueError, match="finite type"):
        composition_pair(AFFINE_A1, (0, 0, 0))
    with pytest.raises(ValueError, match="finite type"):
        verify_key_positivity(AFFINE_A1, (1, 0, 0), (1, 0, 0))
    # the reflection loop is bounded by the number of positive roots
    datum = preset("A2")
    vars(datum)["_root_walk"] = ((1, 0),)
    assert composition_pair(datum, (-1, 2))[0] == datum.simple(1)
    with pytest.raises(InvariantBroken, match="positive roots"):
        composition_pair(datum, (-1, -1))


def test_key_expand_rejects_outside_span():
    # keys span every integral weight, so a Laurent monomial expands exactly,
    # here in five keys: kappa_(-1,1,0) = e^(1,-1,0) + e^(0,0,0) + e^(-1,1,0)
    got = key_expand(GL3, _e(GL3, (-1, 1, 0)))
    assert len(got) == 5 and got[(-1, 1, 0)] == 1
    back = FormalCharacter.zero(GL3)
    for mu, a in got.items():
        back = back + a * key_polynomial(GL3, mu)
    assert back == _e(GL3, (-1, 1, 0))
    with pytest.raises(NotInSpan):
        key_expand(GL3, FormalCharacter.monomial(
            GL3, (Fraction(1, 2), Fraction(1, 2), Fraction(0))))


def test_key_positivity_gl3():
    lam = mu = vec((1, 1, 0))
    report = verify_key_positivity(GL3, lam, mu)
    assert report.ok
    assert report.pairs_checked == 36 and report.pairs_skipped == 0
    for rec in report.records:
        assert rec.agree and rec.nonneg
        assert all(k >= 0 for k in rec.expansion.values())
    ident = [r for r in report.records
             if r.v.is_identity and r.w.is_identity]
    assert len(ident) == 1
    assert ident[0].expansion == {(2, 2, 0): 1}


@pytest.mark.parametrize("datum, lam, mu", [
    (A2, (1, 1), (1, 0)),
    (B2, (1, 1), (1, 0)),
    (C2, (1, 1), (0, 1)),
    (G2, (1, 0), (0, 1)),
], ids=["A2", "B2", "C2", "G2"])
def test_key_positivity_beyond_gl(datum, lam, mu):
    report = verify_key_positivity(datum, vec(lam), vec(mu))
    assert report.ok and report.pairs_checked > 0
    assert all(rec.agree and rec.nonneg for rec in report.records)

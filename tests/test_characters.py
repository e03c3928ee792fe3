"""Formal characters, the isobaric operators, keys, and positivity."""

import random
from fractions import Fraction

import pytest

from kmcrystals import characters
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
    is_gl_like,
    key_expand,
    key_polynomial,
    verify_demazure_character,
    verify_key_positivity,
    verify_product_identity,
)
from kmcrystals.crystals import enumerate_from
from kmcrystals.demazure import demazure_set
from kmcrystals.paths import straight_path
from kmcrystals.rootdata import datum_from_json, preset, vec, weyl_group_elements

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


def test_gl_detection():
    assert is_gl_like(GL2) and is_gl_like(GL3)
    assert not is_gl_like(A2)


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


def test_key_basis_is_built_once_per_degree(monkeypatch):
    calls = []
    real = characters.key_polynomial
    monkeypatch.setattr(characters, "key_polynomial",
                        lambda datum, comp: calls.append(comp) or real(datum, comp))
    GL3 = preset("GL3")  # a fresh datum, so no key basis is built yet
    chi = key_polynomial(GL3, (2, 1, 0)) * key_polynomial(GL3, (1, 0, 1))
    for _ in range(3):
        assert key_expand(GL3, chi) == key_expand(GL3, chi)
    # the 21 compositions of 5 into 3 parts, each expanded once
    assert len(calls) == len(set(calls)) == 21


def test_key_expand_recovers_every_key():
    GL4 = preset("GL4")
    for datum, top in ((GL3, 6), (GL4, 4)):
        for d in range(top + 1):
            for c in characters._key_basis(datum, d)[0]:
                assert key_expand(datum, key_polynomial(datum, c)) == {c: 1}


def test_key_basis_inverse_is_integral():
    # the key matrix is upper unitriangular in composition order, so its
    # inverse is too, and here every entry is -1, 0 or 1
    for d in range(1, 9):
        comps, inverse = characters._key_basis(GL3, d)
        assert len(inverse) == len(comps)
        assert all(type(x) is int and x in (-1, 0, 1) for row in inverse for x in row)
        assert all(inverse[i][j] == (i == j) for i in range(len(comps)) for j in range(i + 1))


def test_key_expand_rejects_singular_and_fractional_bases(monkeypatch):
    chi = key_polynomial(GL3, (1, 0, 1))
    comps = characters._key_basis(GL3, 2)[0]
    monkeypatch.setattr(characters, "_key_basis", lambda datum, d: (comps, None))
    with pytest.raises(NotInSpan, match="not a key combination"):
        key_expand(GL3, chi)
    half = tuple(tuple(Fraction(int(i == j), 2) for j in range(len(comps)))
                 for i in range(len(comps)))
    monkeypatch.setattr(characters, "_key_basis", lambda datum, d: (comps, half))
    with pytest.raises(NotInSpan, match="non-integral"):
        key_expand(GL3, chi)


def test_key_expand_rejects_outside_span():
    with pytest.raises(NotInSpan):
        key_expand(GL3, _e(GL3, (-1, 1, 0)))
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

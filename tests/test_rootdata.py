"""Root data, Weyl elements, and the parsing helpers."""

import doctest
import random
from fractions import Fraction

import pytest

import kmcrystals.rootdata
from kmcrystals.rootdata import (
    NotDominantIntegral,
    NotGCM,
    NotSymmetrizable,
    PairingInconsistent,
    WordNotReduced,
    _in_parabolic_by_stripping,
    bruhat_leq,
    check_reduced,
    datum_from_json,
    gauss_solve,
    in_parabolic,
    mat_inverse,
    min_coset_rep,
    parse_rational,
    parse_weight,
    parse_word,
    preset,
    rational_str,
    stabilizer_letters,
    validate_root_datum,
    vec,
    weight_str,
    weyl_group_elements,
    word_str,
)
from sample_data import AFFINE_A1, B2, C2, G2

A2 = preset("A2")
A3 = preset("A3")
GL3 = preset("GL3")


def _g2():
    # simply-connected realization in fundamental-weight coordinates:
    # alpha_j is column j of the Cartan matrix, alpha_i^vee the i-th coordinate
    cartan = [[2, -1], [-3, 2]]
    return validate_root_datum("G2", 2, 2, cartan,
                               roots=[(2, -3), (-1, 2)],
                               pairing=[(1, 0), (0, 1)],
                               fundamentals=[(1, 0), (0, 1)])


# -- linear algebra helpers ---------------------------------------------------


def test_gauss_solve():
    assert gauss_solve([[2, 1], [1, 1]], (3, 2)) == (1, 1)
    assert gauss_solve([[1, 1], [2, 2]], (1, 3)) is None
    x = gauss_solve([[2, 0], [0, 3]], (1, 1))
    assert x == (Fraction(1, 2), Fraction(1, 3))


def _mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _random_matrices(rng, rational):
    for _ in range(60):
        n = rng.randrange(1, 6)
        if rational:
            yield [[Fraction(rng.randrange(-6, 7), rng.randrange(1, 5)) for _ in range(n)]
                   for _ in range(n)]
        else:
            yield [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(n)]


@pytest.mark.parametrize("rational", [False, True], ids=["int", "rational"])
def test_mat_inverse_inverts(rational):
    rng = random.Random(5 + rational)
    inverted = 0
    for m in _random_matrices(rng, rational):
        n = len(m)
        inv = mat_inverse(m)
        if inv is None:
            continue
        inverted += 1
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        assert _mat_mul(inv, m) == eye and _mat_mul(m, inv) == eye
        for row in inv:
            for x in row:  # the scalar rule
                assert type(x) is int or x.denominator > 1
        # one elimination: the inverse's columns are gauss_solve's solutions
        for j in range(n):
            assert tuple(row[j] for row in inv) == gauss_solve(m, eye[j])
    assert inverted >= 40


def test_mat_inverse_of_singular_matrices():
    rng = random.Random(9)
    for _ in range(30):
        n = rng.randrange(2, 6)
        rows = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(n - 1)]
        coeffs = [Fraction(rng.randrange(-3, 4), rng.randrange(1, 3)) for _ in rows]
        dependent = [sum(c * r[k] for c, r in zip(coeffs, rows)) for k in range(n)]
        m = rows[:]
        m.insert(rng.randrange(n), dependent)
        assert mat_inverse(m) is None
        assert gauss_solve(m, [1] * n) is None
    assert mat_inverse([[0, 0], [0, 0]]) is None
    assert mat_inverse([[1, 2, 3], [4, 5, 6]]) is None  # not square
    assert mat_inverse([[1]]) == ((1,),)
    assert mat_inverse([[Fraction(4, 2)]]) == ((Fraction(1, 2),),)


def test_singular_gram_is_pairing_inconsistent():
    # affine A1^(1) in one coordinate reproduces its singular Cartan matrix,
    # but its two roots are proportional, so R^T R has no inverse
    with pytest.raises(PairingInconsistent, match="dependent"):
        validate_root_datum("bad", 2, 1, [[2, -2], [-2, 2]],
                            roots=[(2,), (-2,)], pairing=[(1,), (-1,)])


def test_rational_round_trip():
    for text in ("0", "5", "-3", "2/3", "-7/2"):
        assert rational_str(parse_rational(text)) == text
    assert parse_rational(Fraction(4, 6)) == Fraction(2, 3)


# -- datum validation ---------------------------------------------------------


def test_g2_symmetrizer():
    d = _g2()
    # d_1 a_12 = d_2 a_21 with the normalization d_1 = 1 forces d_2 = 1/3
    assert d.sym == (Fraction(1), Fraction(1, 3))
    for i in range(2):
        for j in range(2):
            assert d.sym[i] * d.cartan[i][j] == d.sym[j] * d.cartan[j][i]


def test_preset_shapes():
    assert (A2.n, A2.m) == (2, 2)
    assert A2.sym == (Fraction(1), Fraction(1))
    assert (GL3.n, GL3.m) == (2, 3)
    assert GL3.fundamental_weight(1) == vec((1, 0, 0))
    assert GL3.fundamental_weight(2) == vec((1, 1, 0))
    assert GL3.pair(vec((1, 0, 0)), 1) == 1
    assert GL3.pair(vec((1, 0, 0)), 2) == 0


def test_not_gcm():
    with pytest.raises(NotGCM):
        validate_root_datum("bad", 2, 2, [[1, -1], [-1, 2]],
                            roots=[(1, -1), (-1, 2)], pairing=[(1, 0), (0, 1)])
    with pytest.raises(NotGCM):
        validate_root_datum("bad", 2, 2, [[2, 1], [-1, 2]],
                            roots=[(2, 1), (-1, 2)], pairing=[(1, 0), (0, 1)])
    with pytest.raises(NotGCM):  # zero pattern must be symmetric
        validate_root_datum("bad", 2, 2, [[2, 0], [-1, 2]],
                            roots=[(2, 0), (-1, 2)], pairing=[(1, 0), (0, 1)])


def test_not_symmetrizable():
    # the ratio product around the 3-cycle is -1 * -1 * -2 vs -1 * -1 * -1
    cartan = [[2, -1, -1], [-1, 2, -1], [-2, -1, 2]]
    cols = [tuple(cartan[i][j] for i in range(3)) for j in range(3)]
    eye = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    with pytest.raises(NotSymmetrizable):
        validate_root_datum("bad", 3, 3, cartan, roots=cols, pairing=eye)


def test_pairing_inconsistent():
    with pytest.raises(PairingInconsistent):
        validate_root_datum("bad", 2, 2, [[2, -1], [-1, 2]],
                            roots=[(2, -1), (-1, 2)], pairing=[(1, 0), (1, 1)])


def test_datum_json_round_trip():
    d = datum_from_json(A3.to_json())
    assert (d.n, d.m, d.cartan) == (A3.n, A3.m, A3.cartan)
    assert d.roots == A3.roots and d.pairing == A3.pairing


# -- weights ------------------------------------------------------------------


def test_reflect_weight():
    w1 = A2.fundamental_weight(1)
    assert A2.reflect_weight(1, w1) == vec((-1, 1))
    assert A2.reflect_weight(2, w1) == w1
    lam = vec((2, 3))
    assert A2.reflect_weight(1, A2.reflect_weight(1, lam)) == lam


def test_reflect_preserves_integrality():
    lams = [vec((a, b, c)) for a in (-2, 0, 1) for b in (-1, 2) for c in (0, 3)]
    for lam in lams:
        for i in (1, 2, 3):
            assert A3.is_integral(A3.reflect_weight(i, lam))


def test_dominant_integral_gate():
    A2.check_dominant_integral(vec((1, 1)))
    with pytest.raises(NotDominantIntegral):
        A2.check_dominant_integral(vec((-1, 0)))
    with pytest.raises(NotDominantIntegral):
        A2.check_dominant_integral(vec((Fraction(1, 2), 0)))


def test_root_coords_and_weight_drop():
    lam = vec((1, 1))
    mu = tuple(x - 1 * a - 2 * b for x, a, b in
               zip(lam, A2.simple_root(1), A2.simple_root(2)))
    assert A2.root_coords(vec(tuple(a - b for a, b in zip(lam, mu)))) == (1, 2)
    for _ in range(2):  # drops are memoised; a repeated query answers the same
        assert A2.weight_drop(lam, mu) == 3
        with pytest.raises(ValueError):  # omega_1 is a fractional root combination
            A2.weight_drop(lam, vec((0, 1)))
        with pytest.raises(ValueError):  # e_1 is outside the GL root span
            GL3.weight_drop(vec((1, 1, 0)), vec((0, 1, 0)))


def test_equal_data_hash_equal():
    a, b = preset("A3"), preset("A3")
    assert a is not b and a == b and hash(a) == hash(b)
    assert {a: "A3"}[b] == "A3"
    # fundamental weights take no part in equality, nor in the hash
    bare = validate_root_datum("A3", 3, 3, a.cartan, a.roots, a.pairing)
    assert bare == a and hash(bare) == hash(a)
    assert preset("A3") != preset("A2")


def test_positive_roots():
    assert len(A2.positive_roots) == 3
    assert len(A3.positive_roots) == 6
    assert len(_g2().positive_roots) == 6


def test_positive_roots_fail_once_off_finite_type(monkeypatch):
    # the root walk runs on the first access only; later ones raise from it
    walked = []
    real = kmcrystals.rootdata._dot

    def counted(a, b):
        walked.append(b)
        return real(a, b)

    monkeypatch.setattr(kmcrystals.rootdata, "_dot", counted)
    datum = validate_root_datum("A1^(1)", 2, 3, [[2, -2], [-2, 2]],
                                roots=[(2, -2, 1), (-2, 2, 0)],
                                pairing=[(1, 0, 0), (0, 1, 0)])
    with pytest.raises(ValueError, match="finite type"):
        datum.positive_roots
    assert len(walked) > 4096
    walked.clear()
    with pytest.raises(ValueError, match="finite type"):
        datum.positive_roots
    assert walked == []


# -- Weyl elements ------------------------------------------------------------


def test_word_basics():
    w = A3.weyl((2, 1, 3, 2))
    assert w.length == 4
    assert w.rword == (2, 3, 1, 2)  # canonical form commutes s1 past s3
    assert A3.weyl(w.rword) == w
    assert (w * w.inverse()).is_identity
    assert A2.weyl(()).is_identity


def test_braid_relations():
    assert A2.weyl((1, 2, 1)) == A2.weyl((2, 1, 2))
    assert A3.weyl((1, 3)) == A3.weyl((3, 1))
    g2 = _g2()
    assert g2.weyl((1, 2, 1, 2, 1, 2)) == g2.weyl((2, 1, 2, 1, 2, 1))


def test_act_weight():
    s1 = A2.simple(1)
    assert s1.act_weight(vec((1, 0))) == vec((-1, 1))
    w = A2.weyl((1, 2))
    # fold of single reflections, applied right factor first
    mu = vec((2, -1))
    assert w.act_weight(mu) == A2.reflect_weight(1, A2.reflect_weight(2, mu))


def test_descents():
    w = A2.weyl((1, 2))
    assert w.right_descent(2) and not w.right_descent(1)
    assert w.left_descent(1) and not w.left_descent(2)
    assert w.support() == frozenset({1, 2})


def _perm(word, n):
    """One-line notation of s_{i_1} ... s_{i_k} in S_{n+1}: s_i on the right
    swaps the entries at positions i - 1 and i."""
    p = list(range(n + 1))
    for i in word:
        p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def test_a3_against_permutations():
    # equality, length and right descents, checked against S_4 on every word
    # of length <= 5
    words = layer = [()]
    for _ in range(5):
        layer = [w + (i,) for w in layer for i in (1, 2, 3)]
        words = words + layer
    by_perm, by_elt = {}, {}
    for word in words:
        w, p = A3.weyl(word), _perm(word, 3)
        assert by_perm.setdefault(p, w) == w and by_elt.setdefault(w, p) == p, word
        assert w.length == sum(p[a] > p[b] for a in range(4) for b in range(a + 1, 4))
        for i in (1, 2, 3):
            assert w.right_descent(i) == (p[i - 1] > p[i]), (word, i)
    assert len(by_perm) == len(by_elt) == 23  # all of S_4 but w0, of length 6


def test_rank2_group_orders():
    assert [len(weyl_group_elements(d)) for d in (B2, C2, G2)] == [8, 8, 12]


def test_affine_alternating_words_are_reduced_and_distinct():
    # the Cartan matrix of A1^(1) is singular, and W is infinite dihedral
    seen = set()
    for k in range(61):
        for first, second in ((1, 2), (2, 1)):
            word = tuple(first if j % 2 == 0 else second for j in range(k))
            w = AFFINE_A1.weyl(word)
            assert w.length == k and w.rword == word
            seen.add(w)
    assert len(seen) == 1 + 2 * 60


def test_check_reduced():
    assert check_reduced(A2, (1, 2, 1)).length == 3
    with pytest.raises(WordNotReduced):
        check_reduced(A2, (1, 1))
    with pytest.raises(WordNotReduced):
        check_reduced(A2, (1, 2, 1, 2))


def test_weyl_group_enumeration():
    wa2 = weyl_group_elements(A2)
    assert len(wa2) == 6
    assert sorted(w.length for w in wa2) == [0, 1, 1, 2, 2, 3]
    assert wa2[-1] == A2.weyl((1, 2, 1))  # longest element last
    assert len(weyl_group_elements(A3)) == 24
    with pytest.raises(ValueError):
        weyl_group_elements(A3, cap=10)


def test_bruhat_against_subwords():
    # u <= w iff some subsequence of a reduced word of w multiplies to u
    for datum in (A2, A3, B2, G2):
        group = weyl_group_elements(datum)
        for w in group:
            below = set()
            word = w.rword
            for mask in range(1 << len(word)):
                sub = tuple(word[j] for j in range(len(word)) if mask >> j & 1)
                below.add(datum.weyl(sub))
            for u in group:
                assert bruhat_leq(u, w) == (u in below), (u, w)


def test_parabolic_membership():
    subsets = [frozenset(s) for s in
               [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]]
    for w in weyl_group_elements(A3):
        for letters in subsets:
            assert in_parabolic(w, letters) == _in_parabolic_by_stripping(w, letters)


def test_stabilizer_and_coset_rep():
    om2 = A3.fundamental_weight(2)
    assert stabilizer_letters(A3, om2) == frozenset({1, 3})
    assert min_coset_rep(A3.simple(1), om2).is_identity
    assert min_coset_rep(A3.weyl((2, 1)), om2) == A3.simple(2)
    # brute force: the minimum-length element with the same image of om2
    for w in weyl_group_elements(A3):
        rep = min_coset_rep(w, om2)
        assert rep.act_weight(om2) == w.act_weight(om2)
        fiber = [u for u in weyl_group_elements(A3)
                 if u.act_weight(om2) == w.act_weight(om2)]
        assert rep.length == min(u.length for u in fiber)


# -- parsing ------------------------------------------------------------------


def test_parse_weight():
    assert parse_weight(A2, "ω1") == vec((1, 0))
    assert parse_weight(A2, "omega1+omega2") == vec((1, 1))
    assert parse_weight(A3, "2w1-w3") == vec((2, 0, -1))
    assert parse_weight(A2, "0") == vec((0, 0))
    assert parse_weight(A2, "1,1") == vec((1, 1))
    assert parse_weight(GL3, "1,1,0") == vec((1, 1, 0))
    with pytest.raises(ValueError):
        parse_weight(A2, "ω3")
    with pytest.raises(ValueError):
        parse_weight(A2, "bogus")


def test_parse_word_and_strs():
    assert parse_word("2,1,3,2") == (2, 1, 3, 2)
    assert parse_word("") == ()
    assert parse_word("e") == ()
    assert parse_word("id") == ()
    assert word_str(()) == "e"
    assert word_str((2, 1)) == "s2 s1"
    assert weight_str(vec((0, 1, 0))) == "(0,1,0)"
    with pytest.raises(ValueError):
        parse_word("1,x")


def test_module_examples():
    result = doctest.testmod(kmcrystals.rootdata)
    assert result.attempted >= 3 and result.failed == 0

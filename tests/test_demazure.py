"""Demazure closures, the support criterion, recognition, decomposition."""

from fractions import Fraction

import pytest

import kmcrystals.demazure as dz
from kmcrystals.binfinity import BSeq, binf_top
from kmcrystals.crystals import (TensorPair, enumerate_from, primitive_elements,
                                set_from_elements, t_closure, t_word_closure)
from kmcrystals.demazure import (
    CriterionFails,
    WindowedClosure,
    check_equivalence,
    closure_product_check,
    criterion_finite,
    criterion_infinity,
    decompose_tensor,
    demazure_set,
    recognize_demazure,
    u_from_y,
)
from kmcrystals.paths import straight_path
from kmcrystals.rootdata import (
    WordNotReduced,
    bruhat_leq,
    check_reduced,
    min_coset_rep,
    preset,
    validate_root_datum,
    vec,
    weyl_group_elements,
)
from sample_data import AFFINE_A1, B2, C2, G2

A1 = preset("A1")
A2 = preset("A2")
A3 = preset("A3")


def _words(w):
    """Every reduced word of w, by peeling left descents."""
    if w.is_identity:
        return [()]
    out = []
    for i in range(1, w.datum.n + 1):
        if w.left_descent(i):
            out += [(i,) + rest for rest in _words(w.datum.simple(i) * w)]
    return out


def test_t_op_basics():
    b = straight_path(A1, vec((1,)))
    chain = t_closure([b], 1, vec((1,)))[0]
    assert chain == [b, b.f(1)]
    assert t_closure(chain, 1, vec((1,)))[0] == chain  # idempotent


def test_demazure_set_and_words():
    lam = vec((1, 1))
    seed = straight_path(A2, lam)
    for w in weyl_group_elements(A2):
        want = None
        for word in _words(w):
            got = demazure_set(seed, word=word).element_set()
            want = got if want is None else want
            assert got == want, (w, word)
        assert demazure_set(seed, w).element_set() == want
    assert len(demazure_set(seed, A2.weyl((1, 2, 1)))) == 8
    with pytest.raises(WordNotReduced):
        demazure_set(seed, word=(1, 1))
    loose = demazure_set(seed, word=(1, 1), require_reduced=False)
    assert loose.element_set() == demazure_set(seed, word=(1,)).element_set()


def test_complete_demazure_sets_are_built_once(monkeypatch):
    A2 = preset("A2")  # a fresh datum, so the memo starts empty
    seed, w = straight_path(A2, vec((1, 1))), A2.weyl((1, 2, 1))
    builds = []
    real = dz.set_from_elements
    monkeypatch.setattr(dz, "set_from_elements",
                        lambda *a, **kw: builds.append(kw["window"]) or real(*a, **kw))
    first = demazure_set(seed, w)
    assert demazure_set(seed, w) is first
    assert demazure_set(seed, word=w.rword) is first
    assert builds == [None]
    els, cut = t_word_closure([seed], w.rword, seed.wt())
    fresh = set_from_elements(els, seed.wt(), truncated=cut)
    assert (first.elements, first.depths, first.edges) == (fresh.elements, fresh.depths,
                                                          fresh.edges)
    assert (first.window, first.truncated) == (None, False)
    # windowed sets, finite or B(infinity), are never shared
    cut_set = demazure_set(seed, w, window=1)
    assert cut_set is not demazure_set(seed, w, window=1) and cut_set is not first
    inf = demazure_set(binf_top(A2), w, window=3)
    assert inf is not demazure_set(binf_top(A2), w, window=3)
    assert builds == [None, 1, 1, 3, 3]
    assert len(A2._demazure_sets) == 1


def test_demazure_memo_is_per_datum():
    # a realization with halved roots, under the preset's name
    A2, other = preset("A2"), validate_root_datum(
        "A2", 2, 2, [[2, -1], [-1, 2]], roots=[(1, Fraction(-1, 2)), (Fraction(-1, 2), 1)],
        pairing=[(2, 0), (0, 2)], fundamentals=[(Fraction(1, 2), 0), (0, Fraction(1, 2))])
    w = A2.weyl((1, 2))
    mine = demazure_set(straight_path(A2, vec((1, 0))), w)
    theirs = demazure_set(straight_path(other, vec((Fraction(1, 2), 0))), other.weyl((1, 2)))
    assert A2._demazure_sets is not other._demazure_sets
    assert all(x.datum is A2 for x in mine) and all(x.datum is other for x in theirs)
    assert [x.wt() for x in theirs] == [tuple(c / 2 for c in x.wt()) for x in mine]
    assert preset("A2")._demazure_sets == {}


def test_dichotomy_finite():
    # T_i B_w = B_w when i is a left descent, B_{s_i w} otherwise
    lam = vec((1, 1))
    seed = straight_path(A2, lam)
    sets = {w: demazure_set(seed, w) for w in weyl_group_elements(A2)}
    for w, xset in sets.items():
        for i in (1, 2):
            got = set(t_closure(list(xset), i, lam)[0])
            target = w if w.left_descent(i) else A2.simple(i) * w
            assert got == sets[target].element_set(), (w, i)


def test_dichotomy_infinity():
    top = binf_top(A2)
    sets = {w: demazure_set(top, w, window=4) for w in weyl_group_elements(A2)}
    for w, xset in sets.items():
        for i in (1, 2):
            got = set(t_closure(list(xset), i, top.wt(), window=4)[0])
            target = w if w.left_descent(i) else A2.simple(i) * w
            assert got == sets[target].element_set(), (w, i)


def test_criterion_finite():
    lam = mu = vec((1, 1))
    holds, letters, vmin = criterion_finite(A2, A2.simple(1), lam,
                                            A2.weyl((1, 2)), mu)
    assert holds and letters == frozenset({1}) and vmin == A2.simple(1)
    holds, letters, _ = criterion_finite(A2, A2.simple(1), lam,
                                         A2.simple(2), mu)
    assert not holds and letters == frozenset({2})
    # the identity pair always passes
    holds, _, vmin = criterion_finite(A2, A2.identity(), lam,
                                      A2.identity(), mu)
    assert holds and vmin.is_identity


def test_criterion_infinity():
    holds, letters, vmin = criterion_infinity(A3, A3.simple(1), vec((1, 0, 0)),
                                              A3.weyl((2, 1, 3, 2)))
    assert not holds and letters == frozenset({2}) and vmin == A3.simple(1)
    holds, letters, _ = criterion_infinity(A2, A2.simple(2), vec((1, 0)),
                                           A2.simple(2))
    assert holds and letters == frozenset({2})


def test_windowed_closure_membership():
    oracle = WindowedClosure(binf_top(A2), (1, 2))
    assert oracle.contains(BSeq(A2, (0, 1)))
    assert oracle.contains(BSeq(A2, (0, 1, 1)))
    assert not oracle.contains(BSeq(A2, (1, 1)))  # that one needs T_2 T_1
    # weights outside the cone resolve to a clean no
    assert not oracle.contains(BSeq(A2, (1,), vec((1, 0))))


def test_bruhat_leq_on_a_long_affine_element():
    # the descent recursion takes one step per unit of length; 1,200 steps
    # would overflow the interpreter stack if they were nested calls
    w = AFFINE_A1.weyl((1, 2) * 600)
    assert w.length == 1200
    assert bruhat_leq(AFFINE_A1.identity(), w)
    assert not bruhat_leq(w, AFFINE_A1.identity())
    # in the infinite dihedral group u <= w iff l(u) < l(w) or u = w
    assert bruhat_leq(AFFINE_A1.weyl((2, 1) * 5), w)
    assert bruhat_leq(w, w)
    assert not bruhat_leq(AFFINE_A1.weyl((2, 1) * 600), w)


def _walk_invariants(xset, member, window, with_e):
    """Depths, edges, closure and the truncation flag of one walk."""
    datum = xset.datum
    inside = {}
    past_window = False
    for a, (x, d) in enumerate(zip(xset.elements, xset.depths)):
        assert d == datum.weight_drop(xset.top_wt, x.wt())
        assert member(x) and (window is None or d <= window)
        for i in range(1, datum.n + 1):
            y = x.f(i)
            if y in xset.index:
                inside[(a, i)] = xset.index[y]
            elif y is not None and member(y):
                assert window is not None and d + 1 > window, "f-step missed"
                past_window = True
            z = x.e(i)
            if with_e and z is not None and member(z):
                assert z in xset.index, "e-step missed"
    assert xset.edges == inside
    assert xset.truncated == past_window


@pytest.mark.parametrize("with_e", [False, True], ids=["f", "fe"])
@pytest.mark.parametrize("datum", [A2, B2, G2, AFFINE_A1],
                         ids=["A2", "B2", "G2", "affine-A1"])
def test_walk_invariants(datum, with_e):
    # components of B_v(lam) (x) B_w(infinity) and B_v(lam) (x) B_w(lam),
    # walked from b_lam (x) b for every primitive b and again from the last
    # element that walk found, plus B(infinity) itself
    lam = vec((1, 1) + (0,) * (datum.m - 2))
    v, w = datum.weyl((1, 2)), datum.weyl((2, 1))
    left = demazure_set(straight_path(datum, lam), v)
    oracle = WindowedClosure(binf_top(datum), w.rword)
    finite_right = demazure_set(straight_path(datum, lam), w)
    cases = [(oracle.ensure(4), oracle.contains, 4),
             (finite_right, finite_right.__contains__, None),
             (finite_right, finite_right.__contains__, 2)]
    walked = 0
    for right, right_member, depth in cases:
        def member(x):
            return (isinstance(x, TensorPair) and x.left in left.index
                    and right_member(x.right))

        for b in primitive_elements(right, lam):
            top = TensorPair(left.top(), b)
            window = None if depth is None else depth - right.depth_of(b)
            for seed in (top, None):
                if seed is None:
                    seed = xset.elements[-1]
                xset = enumerate_from([seed], top.wt(), window=window,
                                      with_e=with_e, member=member)
                _walk_invariants(xset, member, window, with_e)
                walked += 1
    assert walked >= 6
    top = binf_top(datum)
    for seed in (top, top.f(1).f(2)):
        xset = enumerate_from([seed], top.wt(), window=3, with_e=with_e)
        _walk_invariants(xset, lambda x: True, 3, with_e)
        assert xset.truncated


@pytest.mark.parametrize("datum, words", [
    (A2, None),
    (A3, None),
    (B2, None),
    (G2, None),
    (AFFINE_A1, [(), (1,), (2, 1), (1, 2, 1), (2, 1, 2, 1)]),
], ids=["A2", "A3", "B2", "G2", "affine-A1"])
def test_peeling_matches_enumeration(datum, words):
    # String peeling along every reduced word against the enumerated
    # T-closure, on all of B(infinity) to depth 5.  Words None means every
    # element of the finite Weyl group.
    top = binf_top(datum)
    ambient = enumerate_from([top], top.wt(), window=5)
    if words is None:
        elements = weyl_group_elements(datum)
    else:
        elements = [check_reduced(datum, word) for word in words]
    for w in elements:
        enumerated = set(t_word_closure([top], w.rword, top.wt(), window=5)[0])
        for word in _words(w):
            oracle = WindowedClosure(top, word)
            for x in ambient:
                assert oracle.contains(x) == (x in enumerated), (word, x.entries)
    with pytest.raises(ValueError):  # peeling needs a highest-weight seed
        WindowedClosure(top.f(1), (1,))


def test_recognize_three_chain():
    top = straight_path(A1, vec((2,)))
    xset = demazure_set(top, A1.simple(1))
    y, stats = recognize_demazure(top, xset.__contains__, (2,), A1.simple(1))
    assert y == A1.simple(1)
    assert (stats.states, stats.dead_ends) == (2, 0)
    # the probes see only the extremal elements: the top and f_1^2 of it.  A
    # prefix of the string holding the top alone passes as B_e, which is why
    # check_equivalence compares each component walk with T_u {top}
    prefix = set_from_elements(list(xset)[:2], vec((2,)))
    y2, _ = recognize_demazure(top, prefix.__contains__, (2,), A1.simple(1))
    assert y2.is_identity


def test_recognize_full_crystal():
    top = straight_path(A2, vec((1, 1)))
    w0 = A2.weyl((1, 2, 1))
    y, stats = recognize_demazure(top, demazure_set(top, w0).__contains__, (1, 1), w0)
    assert y == w0
    assert (stats.states, stats.dead_ends) == (6, 0)


def test_recognize_coset_normalization():
    om2 = vec((0, 1))
    top = straight_path(A2, om2)
    w0 = A2.weyl((1, 2, 1))
    xset = demazure_set(top, A2.weyl((1, 2)))
    y, stats = recognize_demazure(top, xset.__contains__, (0, 1), w0)
    assert y == A2.weyl((1, 2))
    assert stats.states == 3  # one probe per coset of W / W_{omega_2}
    singleton = demazure_set(top, A2.simple(1))
    y1, stats1 = recognize_demazure(top, singleton.__contains__, (0, 1), w0)
    assert y1.is_identity
    assert stats1.dead_ends == 0  # the failing step up from u itself is no dead end


@pytest.mark.parametrize("datum", [A2, B2, C2, G2], ids=lambda d: d.name)
def test_recognize_every_demazure_crystal(datum):
    # on the complete B_x(nu), recognition returns the minimal coset
    # representative of x, for every x in W
    group = weyl_group_elements(datum)
    for nu in (vec((1, 1)), vec((1, 0))):
        top = straight_path(datum, nu)
        start = tuple(datum.pair(nu, i) for i in range(1, datum.n + 1))
        for x in group:
            member = demazure_set(top, x).__contains__
            y, _ = recognize_demazure(top, member, start, group[-1])
            assert y == min_coset_rep(x, nu), (nu, x)


def test_recognize_rejects_a_union():
    # B_{s1}(rho) and B_{s2}(rho) together are e-stable but not Demazure: the
    # probes of e, s1 and s2 pass and no longest element lies above all three
    top = straight_path(A2, vec((1, 1)))
    union = (demazure_set(top, A2.simple(1)).element_set()
             | demazure_set(top, A2.simple(2)).element_set())
    y, stats = recognize_demazure(top, union.__contains__, (1, 1), A2.weyl((1, 2, 1)))
    assert y is None
    assert stats.states == 6


def test_u_from_y():
    assert u_from_y(A3.weyl((1, 3)), (2,)) == A3.weyl((2, 1, 3))
    assert u_from_y(A2.weyl((1, 2, 1)), (2,)) == A2.weyl((1, 2, 1))
    assert u_from_y(A2.identity(), (1,)) == A2.simple(1)
    assert u_from_y(A2.identity(), ()) == A2.identity()


def test_decompose_sl2():
    om = vec((1,))
    report = decompose_tensor(A1, A1.simple(1), om, A1.simple(1), om)
    assert report.mode == "finite"
    assert report.partition_ok and report.total_size == 4
    assert report.primitives_saturated is None
    got = [(c.u.rword, tuple(c.nu), c.size, c.matched)
           for c in report.components]
    assert got == [((1,), (2,), 3, True), ((), (0,), 1, True)]


def test_decompose_finite_full_group():
    # B(1,1) (x) B(1,1) = 27 + 10 + 10 + 8 + 8 + 1 by dimension
    lam = vec((1, 1))
    w0 = A2.weyl((1, 2, 1))
    report = decompose_tensor(A2, w0, lam, w0, lam)
    assert report.partition_ok and report.total_size == 64
    sizes = sorted(c.size for c in report.components)
    assert sizes == [1, 8, 8, 10, 10, 27]
    nus = sorted(tuple(c.nu) for c in report.components)
    assert nus == sorted([(2, 2), (3, 0), (0, 3), (1, 1), (1, 1), (0, 0)])
    for c in report.components:
        assert c.matched
        if c.nu == vec((0, 0)):
            assert c.u.is_identity
        elif c.nu in (vec((2, 2)), vec((1, 1))):
            assert c.u == w0


def test_decompose_word_choice_is_immaterial():
    lam = vec((1, 1))
    w0 = A2.weyl((1, 2, 1))
    alt = A2.weyl((2, 1, 2))
    a = decompose_tensor(A2, w0, lam, w0, lam)
    b = decompose_tensor(A2, alt, lam, alt, lam)
    key = lambda r: sorted((c.u.rword, tuple(c.nu), c.size)  # noqa: E731
                           for c in r.components)
    assert key(a) == key(b)


def test_decompose_criterion_gate():
    lam = mu = vec((1, 1))
    with pytest.raises(CriterionFails) as err:
        decompose_tensor(A2, A2.simple(1), lam, A2.simple(2), mu)
    assert err.value.letters == frozenset({2})
    assert err.value.offending == (1,)


def test_decompose_infinity_single_component():
    om1 = vec((1, 0))
    report = decompose_tensor(A2, A2.simple(2), om1, A2.simple(2), None,
                              depth=4)
    assert report.mode == "infinity"
    assert report.vmin.is_identity  # s2 stabilizes omega_1
    assert report.partition_ok and report.primitives_saturated
    assert len(report.components) == 1
    c = report.components[0]
    assert c.u == A2.simple(2) and c.nu == om1 and c.matched
    assert c.size == 5  # the singleton left factor against a cut chain


def test_decompose_infinity_two_components():
    lam = vec((1, 1))
    report = decompose_tensor(A2, A2.simple(1), lam, A2.simple(1), None,
                              depth=3)
    assert report.partition_ok
    assert [tuple(c.nu) for c in report.components] == [(1, 1), (-1, 2)]
    assert report.components[0].u == A2.simple(1)
    assert all(c.matched for c in report.components)
    assert report.total_size == sum(c.size for c in report.components)


def test_closure_product_check_finite():
    lam = mu = vec((1, 1))
    rec = closure_product_check(A2, A2.simple(1), lam, A2.weyl((1, 2)), mu)
    assert (rec.criterion, rec.contains, rec.equal) == (True, True, True)
    rec = closure_product_check(A2, A2.simple(1), lam, A2.simple(2), mu)
    assert (rec.criterion, rec.contains, rec.equal) == (False, True, None)


def test_closure_product_check_infinity():
    om1 = vec((1, 0))
    rec = closure_product_check(A2, A2.simple(2), om1, A2.simple(2), None,
                                depth=4)
    assert (rec.criterion, rec.contains, rec.equal) == (True, True, True)
    rec = closure_product_check(A2, A2.simple(1), om1, A2.simple(2), None,
                                depth=4)
    assert (rec.criterion, rec.contains, rec.equal) == (False, True, None)


def test_equivalence_record_finite():
    lam = mu = vec((1, 1))
    rec = check_equivalence(A2, A2.simple(1), lam, A2.weyl((1, 2)), mu)
    assert rec.criterion and rec.extremal == "extremal"
    assert rec.decomposable == "yes" and rec.agree
    rec = check_equivalence(A2, A2.simple(1), lam, A2.simple(2), mu)
    assert not rec.criterion and rec.extremal == "violated"
    assert rec.decomposable == "no" and rec.agree


def test_equivalence_record_infinity():
    om1 = vec((1, 0))
    rec = check_equivalence(A2, A2.simple(2), om1, A2.simple(2), None, depth=4)
    assert rec.criterion and rec.extremal == "extremal"
    assert rec.decomposable == "yes" and rec.agree
    rec = check_equivalence(A2, A2.simple(1), om1, A2.simple(2), None, depth=4)
    assert not rec.criterion and rec.extremal == "violated"
    assert rec.decomposable == "no" and rec.agree


@pytest.mark.parametrize("datum, k", [(A1, 4), (A2, 6)], ids=["A1", "A2"])
def test_check_certifies_below_the_probes(datum, k):
    # B_{s1}(k omega_1) (x) B_e(infinity) is the top k+1 elements of an
    # f_1-string, k layers deep.  Both probes pass, so recognition names s1,
    # but T_{s1} {top} goes on one layer deeper: only a certification window
    # past the left factor's depth sees that the component is not Demazure
    lam = vec((k,) + (0,) * (datum.n - 1))
    s1, e = datum.simple(1), datum.identity()
    s = dz._TensorSetup(datum, s1, lam, e, None, k)
    top = TensorPair(s.left.top(), s.right.top())
    u, _ = recognize_demazure(top, s.member, s.probe_start(lam), s1)
    assert u == s1
    for depth in range(k + 1):
        rec = check_equivalence(datum, s1, lam, e, None, depth=depth)
        assert not rec.criterion and rec.decomposable == "no" and rec.agree, depth
        assert rec.witness.startswith(f"component of ({k}"), depth


def test_equivalence_walks_each_component_window_once(monkeypatch):
    # each component is walked once, for its certification and the tiling
    # check alike
    real = dz.enumerate_from
    walks = []

    def counted(seeds, top_wt, **kw):
        walks.append((tuple(seeds), top_wt, kw["window"], kw["with_e"], kw["member"]))
        return real(seeds, top_wt, **kw)

    monkeypatch.setattr(dz, "enumerate_from", counted)
    om1 = vec((1, 0))
    group = weyl_group_elements(A2)
    for v in group:
        for w in group:
            walks.clear()
            rec = check_equivalence(A2, v, om1, w, None, depth=4)
            assert rec.agree
            assert len(walks) == len(set(walks)), (v, w)

"""Exponent-sequence model: operators, gradings, and the tensor embedding."""

import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from kmcrystals.binfinity import BSeq, binf_top
from kmcrystals.crystals import (Element, enumerate_from, t_word_closure, tensor,
                                verify_axioms)
from kmcrystals.demazure import demazure_set
from kmcrystals.paths import straight_path
from kmcrystals.rootdata import (
    RootDatum,
    bruhat_leq,
    preset,
    validate_root_datum,
    vec,
    vscale,
    vzero,
    weyl_group_elements,
)

A2 = preset("A2")
A3 = preset("A3")

# fundamental-weight coordinates: alpha_j is column j of the Cartan matrix
G2 = validate_root_datum("G2", 2, 2, [[2, -1], [-3, 2]],
                         roots=[(2, -3), (-1, 2)], pairing=[(1, 0), (0, 1)])

NEG = -(10 ** 9)  # stand-in for minus infinity on foreign colors


@dataclass(frozen=True)
class Elem(Element):
    """One factor b_i(m) of an elementary crystal: wt -m*alpha_i, eps_i = m."""

    datum: RootDatum
    color: int
    m: int

    def wt(self):
        return vscale(-self.m, self.datum.simple_root(self.color))

    def eps(self, i):
        return self.m if i == self.color else NEG

    def phi(self, i):
        return -self.m if i == self.color else NEG

    def e(self, i):
        if i == self.color and self.m > 0:
            return Elem(self.datum, self.color, self.m - 1)
        return None

    def f(self, i):
        if i == self.color:
            return Elem(self.datum, self.color, self.m + 1)
        return None

    def payload(self):
        return {"model": "elem", "color": self.color, "m": self.m}

    def skey(self):
        return ("elem", self.color, self.m)


def test_rank_one_chain():
    A1 = preset("A1")
    b = binf_top(A1)
    for k in range(5):
        assert b.entries == ((k,) if k else ())
        assert b.eps(1) == k
        assert b.wt() == vec((-2 * k,))
        b = b.f(1)
    assert b.e(1).e(1).entries == (3,)


def test_sl3_first_steps():
    top = binf_top(A2)
    assert top.f(2).f(1) is not top.f(1).f(2)
    assert top.f(2).entries == (0, 1)
    # f_1 lands on a fresh position: the stored color-1 slot is blocked
    assert top.f(2).f(1).entries == (0, 1, 1)
    assert top.f(1).f(2).entries == (1, 1)
    assert top.f(2).f(1) != top.f(1).f(2)
    assert top.f(2).f(1).wt() == top.f(1).f(2).wt()


def test_trailing_zeros_and_validation():
    assert BSeq(A2, (1, 0, 0)) == BSeq(A2, (1,))
    with pytest.raises(ValueError):
        BSeq(A2, (-1,))
    with pytest.raises(ValueError):
        BSeq(A2, (), (Fraction(1, 2), Fraction(0)))


def test_offset_shifts_weights_only():
    om1 = vec((1, 0))
    top = binf_top(A2, om1)
    assert top.wt() == om1
    moved = top.f(1)
    assert moved.entries == binf_top(A2).f(1).entries
    assert moved.wt() == vec((-1, 1))
    assert moved.eps(1) == binf_top(A2).f(1).eps(1)


def test_lowering_is_total():
    rng = random.Random(7)
    for _ in range(40):
        b = binf_top(A2)
        for _ in range(rng.randrange(1, 7)):
            i = rng.choice((1, 2))
            nxt = b.f(i)
            assert nxt is not None
            assert nxt.e(i) == b
            b = nxt


def test_derived_sequences_equal_validated_ones():
    # e and f build their results without the constructor's checks; the
    # values must be exactly those the checked constructor builds
    rng = random.Random(11)
    for top in (binf_top(A3), binf_top(A3, vec((1, 0, 2)))):
        b = top
        for _ in range(300):
            i = rng.randrange(1, 4)
            nxt = b.f(i) if rng.random() < 0.6 else b.e(i)
            if nxt is None:
                continue
            fresh = BSeq(A3, nxt.entries, nxt.offset)
            assert nxt == fresh and hash(nxt) == hash(fresh)
            assert not nxt.entries or nxt.entries[-1] != 0
            b = nxt


@pytest.mark.parametrize("datum", [A3, G2], ids=["A3", "G2"])
def test_integer_phi_matches_weight_pairing(datum):
    nu = vec((1,) * datum.m)
    for top in (binf_top(datum), binf_top(datum, nu)):
        xset = enumerate_from([top], top.wt(), window=5)
        for x in xset:
            for i in range(1, datum.n + 1):
                assert x.phi(i) == x.eps(i) + datum.pair(x.wt(), i)


def _partition_count(roots, target):
    # multisets of positive roots summing to target, ordered recursion
    def rec(idx, rest):
        if all(x == 0 for x in rest):
            return 1
        if idx == len(roots):
            return 0
        r = roots[idx]
        total = 0
        while all(x >= 0 for x in rest):
            total += rec(idx + 1, rest)
            rest = tuple(a - b for a, b in zip(rest, r))
        return total

    return rec(0, tuple(target))


def test_graded_dimensions_match_partition_counts():
    top = binf_top(A2)
    xset = enumerate_from([top], top.wt(), window=5, with_e=True)
    verify_axioms(xset)
    sizes = xset.graded_sizes()
    assert sizes == {0: 1, 1: 2, 2: 4, 3: 6, 4: 9, 5: 12}
    roots = A2.positive_roots
    for d in range(6):
        want = 0
        for b1 in range(d + 1):
            beta = (Fraction(b1), Fraction(d - b1))
            want += _partition_count(roots, beta)
        assert sizes[d] == want


@dataclass(frozen=True)
class Swapped(Element):
    """A sequence element read through the color swap 1 <-> 2 of A2."""

    inner: BSeq

    @property
    def datum(self):
        return self.inner.datum

    def wt(self):
        x, y = self.inner.wt()
        return (y, x)

    def eps(self, i):
        return self.inner.eps(3 - i)

    def phi(self, i):
        return self.inner.phi(3 - i)

    def e(self, i):
        nxt = self.inner.e(3 - i)
        return None if nxt is None else Swapped(nxt)

    def f(self, i):
        return Swapped(self.inner.f(3 - i))

    def payload(self):
        return {"model": "swapped", "inner": self.inner.payload()}

    def skey(self):
        return ("swapped", self.inner.skey())


def test_one_step_factorization():
    # peeling off position 1 realizes an element as (rest) (x) b_1(a_1),
    # where the remainder is the same model read along the shifted color
    # word; the pairwise tensor rule must reproduce every operator exactly
    def split(b):
        a1 = b.entries[0] if b.entries else 0
        rest = BSeq(A2, b.entries[1:])
        return tensor(Swapped(rest), Elem(A2, 1, a1))

    def unsplit(t):
        return BSeq(A2, (t.right.m,) + t.left.inner.entries)

    # eps/phi compared in the form max(eps(x), eps(y) - <wt x>), which stays
    # exact when the right factor has no string at all on a color
    top = binf_top(A2)
    xset = enumerate_from([top], top.wt(), window=5, with_e=True)
    verify_axioms(xset)
    for b in xset:
        t = split(b)
        left, right = t.left, t.right
        assert t.wt() == b.wt()
        for i in (1, 2):
            eps_want = max([left.eps(i)]
                           + ([right.eps(i) - int(A2.pair(left.wt(), i))]
                              if i == 1 else []))
            phi_want = max([left.phi(i) + int(A2.pair(right.wt(), i))]
                           + ([right.phi(i)] if i == 1 else []))
            assert eps_want == b.eps(i), (b.entries, i)
            assert phi_want == b.phi(i), (b.entries, i)
            assert unsplit(t.f(i)) == b.f(i), (b.entries, i)
            eb, et = b.e(i), t.e(i)
            assert (eb is None) == (et is None), (b.entries, i)
            if eb is not None:
                assert unsplit(et) == eb


def test_truncation_matches_deep_finite_crystal():
    # below depth d the crystal agrees with B(lam) whenever every pairing
    # <lam, alpha_i^vee> is large; the path model provides the benchmark
    for datum, d in ((A2, 4), (A3, 3)):
        lam = vec(tuple(3 * d for _ in range(datum.m)))
        top_b = binf_top(datum)
        paired = {top_b: straight_path(datum, lam)}
        depth = {top_b: 0}
        queue = [top_b]
        while queue:
            b = queue.pop(0)
            p = paired[b]
            assert p.wt() == tuple(x + y for x, y in zip(b.wt(), lam))
            for i in range(1, datum.n + 1):
                assert b.eps(i) == p.eps(i)
                assert p.phi(i) - b.phi(i) == datum.pair(lam, i)
                eb, ep = b.e(i), p.e(i)
                assert (eb is None) == (ep is None)
                if eb is not None:
                    assert paired[eb] == ep
                if depth[b] < d:
                    fb, fp = b.f(i), p.f(i)
                    assert fp is not None
                    if fb in paired:
                        assert paired[fb] == fp
                    else:
                        paired[fb] = fp
                        depth[fb] = depth[b] + 1
                        queue.append(fb)


def test_demazure_word_independence():
    top = binf_top(A2)
    a, cut_a = t_word_closure([top], (1, 2, 1), top.wt(), window=4)
    b, cut_b = t_word_closure([top], (2, 1, 2), top.wt(), window=4)
    assert cut_a and cut_b
    assert set(a) == set(b)


def test_demazure_monotone_in_bruhat_order():
    group = weyl_group_elements(A2)
    sets = {w: demazure_set(binf_top(A2), w, window=4) for w in group}
    for u in group:
        for w in group:
            if bruhat_leq(u, w):
                assert sets[u].element_set() <= sets[w].element_set()
    ident = A2.identity()
    assert len(sets[ident]) == 1 and not sets[ident].truncated
    assert sets[A2.simple(1)].truncated


def test_longest_element_fills_every_level():
    # in finite type the closure along the longest word reaches all of the
    # crystal, so the graded sizes agree with the partition counts above
    w0 = A2.weyl((1, 2, 1))
    xset = demazure_set(binf_top(A2), w0, window=5)
    assert xset.graded_sizes() == {0: 1, 1: 2, 2: 4, 3: 6, 4: 9, 5: 12}

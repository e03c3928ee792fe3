"""Acceptance gate: headline reproductions and exhaustive property sweeps.

One test per criterion; each prints a single summary line (visible with
`pytest -s`, and pytest's own -v report gives the pass/fail verdict per
criterion).  All comparisons are exact — no tolerances anywhere.
"""

import json
import random
from collections import Counter
from fractions import Fraction
from time import monotonic

from kmcrystals import cli
from kmcrystals.binfinity import binf_top
from kmcrystals.characters import (FormalCharacter, demazure_op,
                                   demazure_word_op, verify_demazure_character,
                                   verify_key_positivity)
from kmcrystals.crystals import enumerate_from, product_set, verify_axioms
from kmcrystals.demazure import (CriterionFails, WindowedClosure,
                                 check_equivalence, decompose_tensor,
                                 demazure_set)
from kmcrystals.paths import straight_path
from kmcrystals.rootdata import (check_reduced, preset, validate_root_datum,
                                 vsub, weyl_group_elements)

A2 = preset("A2")
A3 = preset("A3")
GL3 = preset("GL3")


def _elt(datum, word):
    return check_reduced(datum, tuple(word))


def _run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == 0, f"exit code {code}"
    return json.loads(out)


def _frac_vec(strings):
    return tuple(Fraction(s) for s in strings)


# -- criterion 1: the A3 flagship decomposition ------------------------------

A3_ARGS = ["decompose", "--preset", "A3", "--lambda", "ω2",
           "--w", "2,1,3,2", "--mode", "infinity", "--depth", "6",
           "--format", "json"]

OM2 = (Fraction(0), Fraction(1), Fraction(0))
AL1, AL2, AL3 = (A3.simple_root(i) for i in (1, 2, 3))


def _minus(base, *roots):
    out = base
    for r in roots:
        out = vsub(out, r)
    return out


EXPECTED_UNU = [
    ((2, 1, 3), OM2),
    ((2, 3, 1, 2), _minus(OM2, AL2)),
    ((2, 1, 2), _minus(OM2, AL1, AL2)),
    ((2, 3, 2), _minus(OM2, AL2, AL3)),
    ((2, 1, 3), _minus(OM2, AL1, AL2, AL3)),
    ((2, 1, 3, 2), _minus(OM2, AL1, AL2, AL2, AL3)),
]


def test_criterion_1_flagship_decomposition(capsys):
    t0 = monotonic()
    payload = _run_cli(capsys, A3_ARGS + ["--v", "2"])
    comps = payload["components"]
    assert len(comps) == 6
    got = Counter((_elt(A3, c["u_word"]), _frac_vec(c["nu"])) for c in comps)
    want = Counter((_elt(A3, wd), nu) for wd, nu in EXPECTED_UNU)
    assert got == want
    depths = [c["primitive_depth"] for c in comps]
    assert depths == sorted(depths) == [0, 1, 2, 2, 3, 4]
    assert all(c["matched"] for c in comps)
    assert payload["checks"]["partition_ok"] is True
    dt = monotonic() - t0
    assert dt < 10
    print(f"criterion 1: PASS — six (u, nu) components reproduced "
          f"exactly ({dt:.1f}s)")


# -- criterion 2: the identity-case y table ----------------------------------

EXPECTED_Y = [(1, 3), (3, 1, 2), (2, 1, 2), (2, 3, 2), (2, 1, 3), (2, 1, 3, 2)]


def test_criterion_2_identity_case_table(capsys):
    t0 = monotonic()
    payload = _run_cli(capsys, A3_ARGS + ["--v", ""])
    comps = payload["components"]
    assert len(comps) == 6
    got = Counter(_elt(A3, c["y_word"]) for c in comps)
    want = Counter(_elt(A3, wd) for wd in EXPECTED_Y)
    assert got == want
    for c in comps:
        assert _elt(A3, c["u_word"]) == _elt(A3, c["y_word"])
    dt = monotonic() - t0
    assert dt < 10
    print(f"criterion 2: PASS — identity-case y table reproduced ({dt:.1f}s)")


# -- criterion 3: character formula over whole Weyl groups -------------------

def test_criterion_3_character_formula():
    t0 = monotonic()
    checked = 0
    for datum, mu in ((A2, (1, 1)), (A3, (0, 1, 0))):
        for w in weyl_group_elements(datum):
            assert verify_demazure_character(datum, w, mu), w
            checked += 1
    dt = monotonic() - t0
    assert checked == 6 + 24
    assert dt < 30
    print(f"criterion 3: PASS — ch B_w(mu) equals the operator character "
          f"for {checked} group elements ({dt:.1f}s)")


# -- criterion 4: three-way equivalence sweeps --------------------------------

def _sweep(lam, mu, depth):
    records = {}
    for v in weyl_group_elements(A2):
        for w in weyl_group_elements(A2):
            rec = check_equivalence(A2, v, lam, w, mu, depth=depth)
            records[(v.rword, w.rword)] = rec
    return records


def test_criterion_4_equivalence_sweeps():
    t0 = monotonic()
    inconclusive = disagreements = 0
    for lam, mu, depth in (((1, 1), (1, 1), None), ((1, 0), None, 5)):
        records = _sweep(lam, mu, depth)
        assert len(records) == 36
        for rec in records.values():
            disagreements += not rec.agree
            inconclusive += rec.extremal == "inconclusive"
            inconclusive += rec.decomposable == "inconclusive"
    dt = monotonic() - t0
    assert disagreements == 0
    assert inconclusive == 0
    assert dt < 300
    print(f"criterion 4: PASS — 72 (v, w) pairs, zero disagreements, "
          f"zero inconclusive ({dt:.1f}s)")


# -- criterion 5: partition and isomorphism of every decomposition ------------

def test_criterion_5_partition_and_isomorphism():
    t0 = monotonic()
    configs = [(A3, (2,), (0, 1, 0), (2, 1, 3, 2), None, 6),
               (A3, (), (0, 1, 0), (2, 1, 3, 2), None, 6)]
    for v in weyl_group_elements(A2):
        for w in weyl_group_elements(A2):
            configs.append((A2, v.rword, (1, 1), w.rword, (1, 1), None))
            configs.append((A2, v.rword, (1, 0), w.rword, None, 5))
    decomposed = skipped = 0
    for datum, vw, lam, ww, mu, depth in configs:
        v, w = _elt(datum, vw), _elt(datum, ww)
        try:
            report = decompose_tensor(datum, v, lam, w, mu, depth=depth)
        except CriterionFails:
            skipped += 1
            continue
        decomposed += 1
        assert report.partition_ok, (vw, ww)
        assert all(c.matched for c in report.components), (vw, ww)
    dt = monotonic() - t0
    assert decomposed + skipped == 74
    print(f"criterion 5: PASS — {decomposed} decompositions partition and "
          f"match; {skipped} correctly refused by the criterion ({dt:.1f}s)")


# -- criterion 6: graded dimensions against the partition oracle --------------

def _partition_count(roots, target):
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


def test_criterion_6_graded_dimensions():
    top = binf_top(A2)
    xset = enumerate_from([top], top.wt(), window=5, with_e=True)
    assert xset.graded_sizes() == {0: 1, 1: 2, 2: 4, 3: 6, 4: 9, 5: 12}
    roots = [tuple(r) for r in A2.positive_roots]  # simple-root coordinates
    by_beta = Counter(tuple(A2.root_coords(vsub((0, 0), b.wt())))
                      for b in xset.elements)
    for d in range(6):
        for b1 in range(d + 1):
            beta = (Fraction(b1), Fraction(d - b1))
            assert by_beta[beta] == _partition_count(roots, beta), beta
    print("criterion 6: PASS — per-weight sizes to depth 5 equal the "
          "positive-root partition counts")


# -- criterion 7: key positivity over the full pair sweep ---------------------

def test_criterion_7_key_positivity():
    t0 = monotonic()
    report = verify_key_positivity(GL3, (1, 1, 0), (1, 1, 0))
    assert report.ok
    assert report.pairs_checked + report.pairs_skipped == 36
    for rec in report.records:
        assert rec.agree and rec.nonneg
        assert all(c > 0 for c in rec.expansion.values())
    dt = monotonic() - t0
    assert dt < 60
    print(f"criterion 7: PASS — {report.pairs_checked} key products expand "
          f"nonnegatively and both routes agree ({dt:.1f}s)")


# -- criterion 8: axiom and operator property suites ---------------------------

def _random_characters(datum, count, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            mu = tuple(Fraction(rng.randint(-3, 3)) for _ in range(datum.m))
            terms[mu] = terms.get(mu, 0) + rng.randint(-2, 2)
        out.append(FormalCharacter(datum, terms))
    return out


def test_criterion_8_axioms_and_operator_properties():
    t0 = monotonic()
    # C1-C3 on every enumerated element, across all element models; the rank-2
    # datum with Cartan matrix [[2,-1],[-3,2]] exercises unequal root lengths
    cartan = [[2, -1], [-3, 2]]
    cols = [tuple(Fraction(cartan[k][j]) for k in range(2)) for j in range(2)]
    rows = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
    G2 = validate_root_datum("G2", 2, 2, cartan, cols, rows)
    top = binf_top(A2)
    left = demazure_set(straight_path(A2, (1, 0)), _elt(A2, (1, 2)))
    right = demazure_set(straight_path(A2, (0, 1)), _elt(A2, (2, 1)))
    walks = [enumerate_from([straight_path(datum, lam)], lam, with_e=True)
             for datum, lam in ((A2, (1, 1)), (A3, (0, 1, 0)), (G2, (1, 0)))]
    walks.append(enumerate_from([top], top.wt(), window=4, with_e=True))
    walks.append(enumerate_from(list(product_set(left, right).elements), (1, 1),
                                with_e=True))
    for xset in walks:
        verify_axioms(xset)
    enumerated = sum(len(xset) for xset in walks)

    # idempotence and braid relations on random characters
    for chi in _random_characters(A2, 200, seed=20260819):
        d1, d2 = demazure_op(chi, 1), demazure_op(chi, 2)
        assert demazure_op(d1, 1) == d1 and demazure_op(d2, 2) == d2
        assert (demazure_op(demazure_op(d1, 2), 1)
                == demazure_op(demazure_op(d2, 1), 2))

    # reduced-word independence across every braid pair in W(A2)
    def words_of(w):
        if w.is_identity:
            return [()]
        out = []
        for i in range(1, 3):
            if w.left_descent(i):
                out.extend((i,) + rest
                           for rest in words_of(_elt(A2, (i,)) * w))
        return out

    probes = _random_characters(A2, 5, seed=7)
    pairs = 0
    for w in weyl_group_elements(A2):
        words = words_of(w)
        base_fin = demazure_set(straight_path(A2, (1, 1)), word=words[0])
        base_inf = WindowedClosure(binf_top(A2), words[0]).ensure(4)
        for word in words[1:]:
            pairs += 1
            other = demazure_set(straight_path(A2, (1, 1)), word=word)
            assert set(other.elements) == set(base_fin.elements)
            other_inf = WindowedClosure(binf_top(A2), word).ensure(4)
            assert set(other_inf.elements) == set(base_inf.elements)
            for chi in probes:
                assert (demazure_word_op(chi, word)
                        == demazure_word_op(chi, words[0]))
    assert pairs == 1  # only the longest element has two reduced words
    dt = monotonic() - t0
    print(f"criterion 8: PASS — axioms on {enumerated} elements, operator "
          f"laws on 200 characters, word independence ({dt:.1f}s)")

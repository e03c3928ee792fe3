"""Formal characters, Demazure operators, and key polynomials.

Characters are finite integer combinations of exponentials e^mu indexed by
weights in the datum's coordinates; all arithmetic is exact.  The Demazure
operator acts monomial by monomial through the closed form of
(e^mu - e^{-alpha_i} e^{s_i mu}) / (1 - e^{-alpha_i}), which depends only on
m = <mu, alpha_i^vee>:

    m >= 0   ->   e^mu + e^{mu-alpha_i} + ... + e^{mu-m alpha_i}
    m == -1  ->   0
    m <= -2  ->  -(e^{mu+alpha_i} + ... + e^{mu+(-m-1) alpha_i})

Keys are the Demazure characters kappa_mu = Delta_u e^lambda, one for each
integral weight mu of a finite-type datum: lambda is the dominant conjugate of
mu and u the minimal Weyl element with u(lambda) = mu.  On GL data they are
the key polynomials of compositions.  They form a basis of the span of the
integral exponentials, and `key_expand` finds the coordinates of a character
by peeling leading terms against the Demazure operators.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import lcm

from .crystals import CrystalSet
from .demazure import decompose_tensor, demazure_set
from .paths import straight_path
from .rootdata import (Coords, InvariantBroken, RootDatum, WeylElement, Word,
                       _dot, min_coset_rep, rational_str, vec, vscale,
                       weight_str, weyl_group_elements)


class NonIntegralPairing(ValueError):
    """A Demazure operator hit a weight with a non-integer pairing."""


class NotInSpan(ValueError):
    """A character does not lie in the span of the requested basis."""


class TruncatedSet(ValueError):
    """A character was requested for a set that is not complete."""


class FormalCharacter:
    """An integer linear combination of exponentials e^mu, exact throughout."""

    __slots__ = ("datum", "terms")

    def __init__(self, datum: RootDatum, terms: dict[Coords, int] | None = None):
        self.datum = datum
        self.terms: dict[Coords, int] = {}
        if terms:
            for mu, c in terms.items():
                if c:
                    self.terms[vec(mu)] = int(c)

    @classmethod
    def monomial(cls, datum: RootDatum, mu: Coords, coeff: int = 1) -> "FormalCharacter":
        return cls(datum, {mu: coeff})

    @classmethod
    def zero(cls, datum: RootDatum) -> "FormalCharacter":
        return cls(datum)

    def coeff(self, mu: Coords) -> int:
        return self.terms.get(vec(mu), 0)

    def support(self) -> list[Coords]:
        return sorted(self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        return (isinstance(other, FormalCharacter)
                and self.datum == other.datum
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.datum, tuple(sorted(self.terms.items()))))

    def __add__(self, other: "FormalCharacter") -> "FormalCharacter":
        out = dict(self.terms)
        for mu, c in other.terms.items():
            out[mu] = out.get(mu, 0) + c
        return FormalCharacter(self.datum, out)

    def __sub__(self, other: "FormalCharacter") -> "FormalCharacter":
        out = dict(self.terms)
        for mu, c in other.terms.items():
            out[mu] = out.get(mu, 0) - c
        return FormalCharacter(self.datum, out)

    def __mul__(self, other):
        if isinstance(other, int):
            return FormalCharacter(self.datum,
                                   {mu: c * other for mu, c in self.terms.items()})
        out: dict[Coords, int] = {}
        for mu, c in self.terms.items():
            for nu, d in other.terms.items():
                key = tuple(a + b for a, b in zip(mu, nu))
                out[key] = out.get(key, 0) + c * d
        return FormalCharacter(self.datum, out)

    __rmul__ = __mul__

    def dimension(self) -> int:
        return sum(self.terms.values())

    def to_json(self) -> list:
        return [[[rational_str(x) for x in mu], c]
                for mu, c in sorted(self.terms.items())]

    def __repr__(self) -> str:
        parts = [f"{c}*e^({','.join(rational_str(x) for x in mu)})"
                 for mu, c in sorted(self.terms.items())]
        return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# Demazure operators


def demazure_op(chi: FormalCharacter, i: int) -> FormalCharacter:
    """Delta_i applied termwise via the closed form above."""
    datum = chi.datum
    alpha = datum.simple_root(i)
    out: dict[Coords, int] = {}

    def add(mu: Coords, c: int) -> None:
        out[mu] = out.get(mu, 0) + c

    for mu, c in chi.terms.items():
        m = datum.pair(mu, i)
        if type(m) is not int:
            raise NonIntegralPairing(f"<mu, alpha_{i}^vee> = {m} is not an integer")
        if m >= 0:
            for k in range(m + 1):
                add(tuple(a - k * b for a, b in zip(mu, alpha)), c)
        elif m <= -2:
            for k in range(1, -m):
                add(tuple(a + k * b for a, b in zip(mu, alpha)), -c)
        # m == -1 contributes nothing
    return FormalCharacter(datum, out)


def demazure_word_op(chi: FormalCharacter, word: Word) -> FormalCharacter:
    """Delta_{i_1} ... Delta_{i_k} chi for word = (i_1, ..., i_k); the
    rightmost letter acts first.  The word need not be reduced."""
    out = chi
    for i in reversed(tuple(word)):
        out = demazure_op(out, i)
    return out


def demazure_character(datum: RootDatum, w: WeylElement, mu: Coords) -> FormalCharacter:
    """Delta_w e^mu along the canonical reduced word of w."""
    datum.check_dominant_integral(mu)
    return demazure_word_op(FormalCharacter.monomial(datum, mu), w.rword)


def char_of_set(xset: CrystalSet, *, allow_truncated: bool = False) -> FormalCharacter:
    """Sum of e^{wt(b)} over the set; refuses truncated enumerations unless
    explicitly allowed (a cut character is not the character of anything)."""
    if xset.truncated and not allow_truncated:
        raise TruncatedSet("set is truncated; its character would be partial")
    out: dict[Coords, int] = {}
    for b in xset.elements:
        mu = b.wt()
        out[mu] = out.get(mu, 0) + 1
    return FormalCharacter(xset.datum, out)


def verify_demazure_character(datum: RootDatum, w: WeylElement, mu: Coords) -> bool:
    """ch B_w(mu) == Delta_w e^mu, both sides computed independently."""
    bw = demazure_set(straight_path(datum, mu), w)
    return char_of_set(bw) == demazure_character(datum, w, mu)


# ---------------------------------------------------------------------------
# the product identity


@dataclass
class ProductIdentityRecord:
    ok: bool
    chi_product: FormalCharacter
    chi_operator: FormalCharacter
    chi_components: FormalCharacter


def verify_product_identity(datum: RootDatum, v: WeylElement, lam: Coords,
                            w: WeylElement, mu: Coords) -> ProductIdentityRecord:
    """Three routes to the character of B_v(lam) (x) B_w(mu), compared exactly:
    the product of the factor characters, Delta_v(e^lam * Delta_w e^mu), and
    the sum of the Demazure characters of the decomposition components."""
    report = decompose_tensor(datum, v, lam, w, mu)
    vmin = report.vmin
    chi_left = char_of_set(demazure_set(straight_path(datum, lam), vmin))
    chi_right = char_of_set(demazure_set(straight_path(datum, mu), w))
    chi_product = chi_left * chi_right

    inner = FormalCharacter.monomial(datum, lam) * demazure_character(datum, w, mu)
    chi_operator = demazure_word_op(inner, vmin.rword)

    chi_components = FormalCharacter.zero(datum)
    for comp in report.components:
        chi_components = chi_components + demazure_character(datum, comp.u, comp.nu)

    ok = chi_product == chi_operator == chi_components
    return ProductIdentityRecord(ok, chi_product, chi_operator, chi_components)


# ---------------------------------------------------------------------------
# Demazure characters as keys


def _reflect_to_dominant(datum: RootDatum, mu: Coords) -> tuple[Word, Coords]:
    """A reduced word for the minimal u with u(lambda) = mu, and the dominant
    conjugate lambda of the integral weight `mu`.

    While <mu, alpha_i^vee> < 0 for some i, reflect by the smallest such s_i;
    the letters, read in the order recorded, spell the word.  Finite type
    only: the loop takes at most as many steps as there are positive roots.
    """
    steps = len(datum.positive_roots) + 1  # ValueError off finite type
    if len(mu) != datum.m:
        raise ValueError(f"weight length {len(mu)} != coordinate rank {datum.m}")
    if not datum.is_integral(mu):
        raise NotInSpan(f"weight {weight_str(mu)} is not integral")
    lam, rec = mu, []
    for _ in range(steps):
        i = next((i for i in range(1, datum.n + 1) if datum.pair(lam, i) < 0), None)
        if i is None:
            return tuple(rec), lam
        lam = datum.reflect_weight(i, lam)
        rec.append(i)
    raise InvariantBroken("reflecting to the dominant chamber took more steps "
                          "than there are positive roots")


def composition_pair(datum: RootDatum, mu) -> tuple[WeylElement, Coords]:
    """The pair (u, lambda) of `_reflect_to_dominant`, with u as an element.

    On GL data the reflections are the adjacent swaps that sort a composition
    decreasingly, leftmost ascent first.
    """
    mu = vec(mu)
    word, lam = _reflect_to_dominant(datum, mu)
    u = datum.weyl(word)
    if u.length != len(word) or u.act_weight(lam) != mu:
        raise InvariantBroken("the reflecting word is not a reduced word of u")
    return u, lam


def key_polynomial(datum: RootDatum, mu) -> FormalCharacter:
    """kappa_mu = Delta_u e^lambda for (u, lambda) = composition_pair(mu)."""
    u, lam = composition_pair(datum, mu)
    return demazure_word_op(FormalCharacter.monomial(datum, lam), u.rword)


def key_expand(datum: RootDatum, chi: FormalCharacter) -> dict[Coords, int]:
    """Integer coordinates of `chi` in the keys kappa_mu, by peeling.

    Take the support weight mu whose label (u, lambda) maximises
    (<lambda, rho^vee>, l(u)), where rho^vee is 1 on every simple root; its
    coefficient is the coefficient of kappa_mu, so record it, subtract that
    multiple of kappa_mu and repeat until nothing is left.  This is exact by
    unitriangularity: kappa_{u lambda} holds e^{v lambda} exactly once for
    each v <= u in W/W_lambda, and every other weight in it has a dominant
    conjugate strictly below lambda.  Keys span every integral weight of a
    finite-type datum; a non-integral weight raises NotInSpan.
    """
    rho = [sum(col) for col in zip(*datum._root_left_inverse)]
    rho = vscale(lcm(*(x.denominator for x in rho)), rho)  # integral
    labels = {}

    def rank(mu):
        if mu not in labels:
            word, lam = _reflect_to_dominant(datum, mu)
            labels[mu] = (_dot(rho, lam), len(word)), word, lam
        return labels[mu][0]

    out: dict[Coords, int] = {}
    while chi:
        mu = max(chi.terms, key=rank)
        c = out[mu] = chi.terms[mu]
        _, word, lam = labels[mu]
        chi = chi - c * demazure_word_op(FormalCharacter.monomial(datum, lam), word)
    return out


# ---------------------------------------------------------------------------
# key positivity for Demazure products


@dataclass
class KeyPairRecord:
    v: WeylElement
    w: WeylElement
    swapped: bool
    expansion: dict[Coords, int]
    from_components: dict[Coords, int]
    agree: bool
    nonneg: bool


@dataclass
class KeyPositivityReport:
    lam: Coords
    mu: Coords
    records: list[KeyPairRecord]
    pairs_checked: int
    pairs_skipped: int
    ok: bool


def verify_key_positivity(datum: RootDatum, lam: Coords,
                          mu: Coords) -> KeyPositivityReport:
    """For every (v, w) where the support test passes in either order, expand
    ch B_v(lam) * ch B_w(mu) in keys two ways and compare.

    Route one decomposes the tensor and reads off one key per component
    (kappa at the weight u(nu)); route two peels the character product with
    `key_expand`.  The report flags any disagreement or negative coefficient.
    Finite type only.
    """
    datum.positive_roots  # ValueError off finite type, before any Weyl group walk
    from .demazure import criterion_finite
    group = weyl_group_elements(datum)
    records: list[KeyPairRecord] = []
    skipped = 0
    ok = True
    for v in group:
        for w in group:
            if criterion_finite(datum, v, lam, w, mu)[0]:
                report = decompose_tensor(datum, v, lam, w, mu)
                swapped = False
            elif criterion_finite(datum, w, mu, v, lam)[0]:
                report = decompose_tensor(datum, w, mu, v, lam)
                swapped = True
            else:
                skipped += 1
                continue
            from_components = Counter(comp.u.act_weight(comp.nu)
                                      for comp in report.components)
            chi_left = char_of_set(demazure_set(straight_path(datum, lam),
                                                min_coset_rep(v, lam)))
            chi_right = char_of_set(demazure_set(straight_path(datum, mu),
                                                 min_coset_rep(w, mu)))
            expansion = key_expand(datum, chi_left * chi_right)
            agree = expansion == from_components
            nonneg = all(a >= 0 for a in expansion.values())
            ok = ok and agree and nonneg
            records.append(KeyPairRecord(v, w, swapped, expansion,
                                         from_components, agree, nonneg))
    return KeyPositivityReport(vec(lam), vec(mu), records,
                               len(records), skipped, ok)

"""Formal characters, Demazure operators, and key polynomials.

Characters are finite integer combinations of exponentials e^mu indexed by
weights in the datum's coordinates; all arithmetic is exact.  The Demazure
operator acts monomial by monomial through the closed form of
(e^mu - e^{-alpha_i} e^{s_i mu}) / (1 - e^{-alpha_i}), which depends only on
m = <mu, alpha_i^vee>:

    m >= 0   ->   e^mu + e^{mu-alpha_i} + ... + e^{mu-m alpha_i}
    m == -1  ->   0
    m <= -2  ->  -(e^{mu+alpha_i} + ... + e^{mu+(-m-1) alpha_i})

Key polynomials live on GL-style data (coordinates Z^m, alpha_i the difference
of adjacent unit vectors): kappa_c for a composition c is Delta_u e^lambda,
where lambda sorts c decreasingly and u is the minimal permutation with
u(lambda) = c.  They form a basis of the span of the monomials, so expansion
coefficients are obtained degree by degree from the exact inverse of the
key-to-monomial matrix, which is built and inverted once per degree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .crystals import CrystalSet
from .demazure import decompose_tensor, demazure_set
from .paths import straight_path
from .rootdata import (Coords, InvariantBroken, RootDatum, WeylElement, Word,
                       _mat_vec, mat_inverse, min_coset_rep, rational_str, vec,
                       weyl_group_elements)


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
# key polynomials (GL-style data)


def is_gl_like(datum: RootDatum) -> bool:
    """Coordinates Z^m with alpha_i = e_i - e_{i+1} on both sides of the pairing."""
    if datum.m != datum.n + 1:
        return False
    for i in range(1, datum.n + 1):
        want = tuple(1 if j == i - 1 else -1 if j == i else 0 for j in range(datum.m))
        if datum.simple_root(i) != want:
            return False
        if tuple(datum.pairing[i - 1]) != want:
            return False
    return True


def _as_composition(mu: Coords) -> tuple[int, ...]:
    out = []
    for x in mu:
        if type(x) is not int or x < 0:
            raise NotInSpan(f"weight entry {x} is not a nonnegative integer")
        out.append(x)
    return tuple(out)


def composition_pair(datum: RootDatum, comp) -> tuple[WeylElement, Coords]:
    """The pair (u, lambda) with lambda the decreasing sort of `comp` and u the
    minimal permutation mapping lambda to comp.

    Adjacent swaps that fix an ascent, taken leftmost first, both sort the
    composition and spell a word for u when read in the order recorded.
    """
    c = [int(x) for x in comp]
    if any(x < 0 for x in c):
        raise ValueError("composition entries must be nonnegative")
    if len(c) != datum.m:
        raise ValueError(f"composition length {len(c)} != coordinate rank {datum.m}")
    rec: list[int] = []
    while True:
        j = next((j for j in range(len(c) - 1) if c[j] < c[j + 1]), None)
        if j is None:
            break
        c[j], c[j + 1] = c[j + 1], c[j]
        rec.append(j + 1)
    lam = vec(c)
    u = min_coset_rep(datum.weyl(tuple(rec)), lam)
    if u.act_weight(lam) != vec(comp):
        raise InvariantBroken("sorting word does not map the partition to the composition")
    return u, lam


def key_polynomial(datum: RootDatum, comp) -> FormalCharacter:
    """kappa_comp = Delta_u e^lambda for (u, lambda) = composition_pair(comp)."""
    if not is_gl_like(datum):
        raise ValueError("key polynomials need a GL-style datum")
    u, lam = composition_pair(datum, comp)
    return demazure_word_op(FormalCharacter.monomial(datum, lam), u.rword)


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _key_basis(datum: RootDatum, degree: int):
    """The compositions of `degree` into datum.m parts, and the exact inverse
    of the square matrix whose column k holds the monomial coefficients of
    the k-th one's key polynomial (rows in the same composition order), or
    None when that matrix is singular.  Built and inverted once per datum and
    degree and kept on the datum (`RootDatum._key_bases`), so it is freed
    with it; the tuples are shared by every caller."""
    basis = datum._key_bases.get(degree)
    if basis is not None:
        return basis
    comps = tuple(_compositions(degree, datum.m))
    pos = {c: k for k, c in enumerate(comps)}
    cols = []
    for c in comps:
        col = [0] * len(comps)
        for mu, coeff in key_polynomial(datum, c).terms.items():
            col[pos[_as_composition(mu)]] = coeff
        cols.append(col)
    basis = datum._key_bases[degree] = (comps, mat_inverse(tuple(zip(*cols))))
    return basis


def key_expand(datum: RootDatum, chi: FormalCharacter) -> dict[tuple[int, ...], int]:
    """Integer coordinates of `chi` in the key polynomial basis.

    Works degree by degree: monomial exponents and key labels of one total
    degree form the same finite composition set, and the key-to-monomial
    matrix is square and invertible, so its cached exact inverse applied to
    the monomial coefficients gives the unique solution.  Raises NotInSpan on
    fractional or negative exponents, a singular basis, or a non-integral
    coefficient.
    """
    if not is_gl_like(datum):
        raise ValueError("key polynomials need a GL-style datum")
    by_degree: dict[int, dict[tuple[int, ...], int]] = {}
    for mu, c in chi.terms.items():
        comp = _as_composition(mu)
        by_degree.setdefault(sum(comp), {})[comp] = c

    out: dict[tuple[int, ...], int] = {}
    for d, wanted in sorted(by_degree.items()):
        comps, inverse = _key_basis(datum, d)
        if inverse is None:
            raise NotInSpan(f"degree {d} block is not a key combination")
        sol = _mat_vec(inverse, [wanted.get(c, 0) for c in comps])
        for c, a in zip(comps, sol):
            if type(a) is not int:
                raise NotInSpan(f"coefficient of kappa_{c} is non-integral: {a}")
            if a:
                out[c] = a
    return out


# ---------------------------------------------------------------------------
# key positivity for Demazure products


@dataclass
class KeyPairRecord:
    v: WeylElement
    w: WeylElement
    swapped: bool
    expansion: dict[tuple[int, ...], int]
    from_components: dict[tuple[int, ...], int]
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


def verify_key_positivity(datum: RootDatum, lam: Coords, mu: Coords,
                          *, cap: int = 10_000) -> KeyPositivityReport:
    """For every (v, w) where the support test passes in either order, expand
    ch B_v(lam) * ch B_w(mu) in key polynomials two ways and compare.

    Route one decomposes the tensor and reads off one key per component
    (kappa at the composition u(nu)); route two expands the character product
    in the key basis directly.  The report flags any disagreement or negative
    coefficient.
    """
    if not is_gl_like(datum):
        raise ValueError("key positivity needs a GL-style datum")
    from .demazure import criterion_finite
    group = weyl_group_elements(datum, cap)
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
            from_components: dict[tuple[int, ...], int] = {}
            for comp in report.components:
                c = _as_composition(comp.u.act_weight(comp.nu))
                from_components[c] = from_components.get(c, 0) + 1
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

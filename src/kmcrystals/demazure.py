"""Demazure crystals, the tensor decomposition, and the equivalence checks.

The basic set operation is T_i S = {f_i^k b : b in S, k >= 0} minus null;
composing along a reduced word of w from the right gives the Demazure crystal
B_w(lambda) = T_w {b_lambda} (and B_w(infinity) from b_infinity).  The result
does not depend on the reduced word, which the tests exercise directly.

The headline operation decomposes B_v(lambda) (x) B_w(mu) into Demazure
pieces.  The precondition is a support test: writing v_min for the minimal
representative of v modulo the stabilizer of lambda, every letter of v_min
must index a simple reflection that is "harmless" for w, namely
<w mu, alpha_i^vee> <= 0 in the finite case and l(s_i w) < l(w) in the
B(infinity) case.  Under it, each component of the product is headed by
b_lambda (x) b for a primitive b, is recognized as a Demazure set B_y inside
its ambient component, and the pair (y, v_min) is folded into the element
u(b, v) whose Demazure crystal matches the component.

`decompose_tensor`, `check_equivalence` and `closure_product_check` share one
set-up, `_TensorSetup` (criterion, v_min, both factors, membership, product),
and build every component with the one walk `crystals.enumerate_from`,
restricted to that membership.

All set comparisons in the infinite mode happen inside matched depth windows;
enumeration by depth is exact (truncating the true set and truncating the
search commute).  Neither membership nor recognition needs a window: string
peeling decides membership in B_w(infinity) (`WindowedClosure.contains`), and
probes at extremal elements name u exactly (`recognize_demazure`).  Probes
see extremal elements only, so `check_equivalence` certifies each component:
its walk must equal T_u {top} down to the deeper of the product's window and
D_L + l(w) + 1 below its top, D_L the depth of B_{v_min}(lam).  That is
exact for w = e, where the product is D_L deep; the l(w) further layers are
measured, not proved (README).
"""

from __future__ import annotations

from dataclasses import dataclass

from .binfinity import binf_top
from .crystals import (CrystalSet, Element, MismatchWitness, TensorPair,
                       enumerate_from, is_extremal, match_highest_weight,
                       primitive_elements, product_set, set_from_elements,
                       string_top, t_word_closure, verify_axioms)
from .paths import straight_path
from .rootdata import (Coords, RootDatum, WeylElement, Word, check_reduced,
                       in_parabolic, min_coset_rep, rational_str, vadd, vscale,
                       weight_str, word_str)


class CriterionFails(Exception):
    """The support precondition for the decomposition does not hold."""

    def __init__(self, letters: frozenset[int], offending: tuple[int, ...]):
        self.letters = letters
        self.offending = offending
        super().__init__(
            f"support letters {sorted(offending)} fall outside the allowed set "
            f"{sorted(letters)}")


class EquivalenceViolation(Exception):
    """Two routes that must agree produced conclusively different answers."""


class VerificationMismatch(Exception):
    """An internal cross-check (matching, partition, recognition) failed."""


# ---------------------------------------------------------------------------
# basic Demazure sets


def demazure_set(seed: Element, w: WeylElement | None = None, *,
                 word: Word | None = None, window: int | None = None,
                 require_reduced: bool = True) -> CrystalSet:
    """B_w(seed) = T_w {seed} as an enumerated set.

    Either a Weyl element (its canonical reduced word is used) or an explicit
    word may be given; explicit words are checked reduced unless opted out.
    A window is mandatory for seeds with unbounded strings (B(infinity)).

    A complete set (no window) depends on the seed and the word alone, so it
    is built and axiom-checked once per datum and that set is returned to
    every later caller, who must not mutate it.  Windowed sets are built
    afresh on every call.
    """
    if word is None:
        if w is None:
            raise ValueError("need a Weyl element or a word")
        word = w.rword
    elif require_reduced:
        check_reduced(seed.datum, word)
    key = (seed, tuple(word))
    memo = seed.datum._demazure_sets
    if window is None and key in memo:
        return memo[key]
    top_wt = seed.wt()
    els, cut = t_word_closure([seed], word, top_wt, window=window)
    xset = set_from_elements(els, top_wt, window=window, truncated=cut)
    if window is None:
        memo[key] = xset
    return xset


# ---------------------------------------------------------------------------
# the support criterion


def criterion_finite(datum: RootDatum, v: WeylElement, lam: Coords,
                     w: WeylElement, mu: Coords):
    """Support test for B_v(lam) (x) B_w(mu): every letter of v_min^lam must
    have <w mu, alpha_i^vee> <= 0.  Returns (holds, letters, v_min)."""
    datum.check_dominant_integral(lam)
    datum.check_dominant_integral(mu)
    wmu = w.act_weight(mu)
    letters = frozenset(i for i in range(1, datum.n + 1) if datum.pair(wmu, i) <= 0)
    vmin = min_coset_rep(v, lam)
    return in_parabolic(vmin, letters), letters, vmin


def criterion_infinity(datum: RootDatum, v: WeylElement, lam: Coords, w: WeylElement):
    """Support test for B_v(lam) (x) B_w(infinity): the allowed letters are the
    left descents of w.  Returns (holds, letters, v_min)."""
    datum.check_dominant_integral(lam)
    letters = frozenset(i for i in range(1, datum.n + 1) if w.left_descent(i))
    vmin = min_coset_rep(v, lam)
    return in_parabolic(vmin, letters), letters, vmin


def _primitive_depth_bound(datum: RootDatum, lam: Coords) -> int | None:
    """D_lam = weight_drop(lam, w0 lam), the greatest depth of a primitive
    (an element b of B(infinity) with eps_i(b) <= <lam, alpha_i^vee> for all
    i): these are in bijection with B(lam), weight for weight.  None off
    finite type, where B(lam) is infinite and there is no bound."""
    from .characters import _reflect_to_dominant  # characters imports this module
    try:
        _, top = _reflect_to_dominant(datum, vscale(-1, lam))  # -w0 lam
    except ValueError:  # raised off finite type
        return None
    return datum.weight_drop(lam, vscale(-1, top))


# ---------------------------------------------------------------------------
# membership oracles


class WindowedClosure:
    """A Demazure set B_word(seed) as a membership oracle, plus its windows.

    `contains` decides membership exactly by string peeling, with no
    enumeration: for word = (i_1, ..., i_k), apply e_{i_1}^max first, then
    e_{i_2}^max, and so on through e_{i_k}^max, and test whether the result is
    the seed.  This is exact because a Demazure crystal is e-stable and meets
    every i-string in nothing, the top alone, or the whole string
    (Kashiwara's string property, Duke Math. J. 71, 1993): x lies in
    T_i S for an e_i-stable S exactly when e_i^max x lies in S, and x lies in
    T_i {seed} exactly when e_i^max x is the seed.  The seed must therefore
    be a highest-weight element.  `ensure` enumerates the set to a depth
    window when the elements themselves are needed; nothing is cached, and
    each tensor routine asks for one window.
    """

    def __init__(self, seed: Element, word: Word):
        if any(seed.e(i) is not None for i in range(1, seed.datum.n + 1)):
            raise ValueError("string peeling needs a highest-weight seed")
        self.seed = seed
        self.word = tuple(word)

    def ensure(self, depth: int) -> CrystalSet:
        # each call's t_word_closure is one oracle rebuild
        top_wt = self.seed.wt()
        els, cut = t_word_closure([self.seed], self.word, top_wt, window=depth)
        return set_from_elements(els, top_wt, window=depth, truncated=cut,
                                 check_axioms=False)

    def contains(self, x: Element) -> bool:
        for i in self.word:
            x = string_top(x, i)
        return x == self.seed


# ---------------------------------------------------------------------------
# recognizing a Demazure set inside its ambient component


@dataclass
class RecognitionStats:
    states: int = 0     # probes tested
    dead_ends: int = 0  # up-steps from a passing coset other than u to one that is not


def _subword_closure(datum: RootDatum, start: tuple, word: Word) -> dict:
    """The cosets x W_Lambda with x below the element of the reduced `word`:
    the pairings of x Lambda (`start` those of Lambda) map to a reduced word
    of the minimal x, listed after the coset that its first letter steps up
    from (p_j > 0).  Down-steps stay inside, as the cosets form an interval.
    """
    reached = {start: ()}
    for j in reversed(word):  # the rightmost letter acts first
        for p, path in list(reached.items()):
            if p[j - 1] > 0:
                reached.setdefault(datum.reflect_pairings(p, j), (j,) + path)
    return reached


def recognize_demazure(top: Element, member, start, bound: WeylElement):
    """Name the members of the component headed by `top` as a Demazure crystal
    B_u, by one membership probe at the extremal element of each coset
    u' W_Lambda below `bound`.  `start` holds the pairings of Lambda: rho in a
    copy of B(infinity), the highest weight nu in a copy of B(nu).

    The probe of e is `top`, and that of s_j u' > u' is f_j^{p_j} of the probe
    of u', with p_j = <u' Lambda, alpha_j^vee>: the image of the extremal
    vector u' Lambda.  As B_u(Lambda) = (B_u(infinity) (x) t_Lambda) meet
    B(Lambda) (Kashiwara, Duke Math. J. 71, 1993) holds u' Lambda exactly when
    u' <= u modulo W_Lambda (Littelmann, Ann. Math. 142, 1995), B_u passes
    exactly the cosets below u.  Returns (u, stats), u the minimal
    representative of the longest passing coset if the passing cosets are
    those below it, else None, which proves the members are not Demazure.
    A u says less: the members are B_u if they are Demazure at all.
    """
    datum = top.datum
    stats = RecognitionStats()
    probes: dict = {}   # reduced word -> probe
    passing: dict = {}  # pairings -> reduced word, for the passing cosets
    for q, word in _subword_closure(datum, start, bound.rword).items():
        x = top
        if word:  # s_j flips the sign of the j-th pairing
            x = probes[word[1:]]
            for _ in range(-q[word[0] - 1]):
                x = x.f(word[0])
        probes[word] = x
        stats.states += 1
        if member(x):
            passing[q] = word
    if start not in passing:
        return None, stats
    u = max(passing, key=lambda q: len(passing[q]))  # the first of the longest
    for p in passing:
        if p != u:
            stats.dead_ends += sum(1 for j in range(1, datum.n + 1) if p[j - 1] > 0
                                   and datum.reflect_pairings(p, j) not in passing)
    if _subword_closure(datum, start, passing[u]).keys() != passing.keys():
        return None, stats
    return datum.weyl(passing[u]), stats


def u_from_y(y: WeylElement, v_word: Word) -> WeylElement:
    """The Demazure product v * y for v of the reduced `v_word`: walking it
    from the right, s_i u replaces u whenever it is longer.  It is the u whose
    Demazure crystal matches the component headed by the primitive that
    produced y, and it bounds the u of every component of B_v (x) B_y.
    """
    datum = y.datum
    check_reduced(datum, v_word)
    u = y
    for i in reversed(v_word):
        su = datum.simple(i) * u
        if su.length > u.length:
            u = su
    return u


# ---------------------------------------------------------------------------
# components of a tensor product


class _TensorSetup:
    """B_v(lam) (x) B_w(mu) as the tensor routines start from it: the
    criterion and v_min, both factors, the right factor's membership test
    and the product, windowed at `depth` in the B(infinity) mode (mu None).

    With `need_criterion` a failing criterion raises CriterionFails before any
    set is built.  In the B(infinity) mode the right factor is one window of a
    string-peeling oracle, which also answers its membership exactly.
    """

    def __init__(self, datum: RootDatum, v: WeylElement, lam: Coords,
                 w: WeylElement, mu: Coords | None, depth: int | None, *,
                 need_criterion: bool = False):
        infinite = mu is None
        if infinite:
            if depth is None:
                raise ValueError("the B(infinity) mode needs a depth")
            holds, letters, vmin = criterion_infinity(datum, v, lam, w)
        else:
            holds, letters, vmin = criterion_finite(datum, v, lam, w, mu)
        if need_criterion and not holds:
            raise CriterionFails(letters, tuple(sorted(vmin.support() - letters)))
        self.holds, self.letters, self.vmin = holds, letters, vmin
        self.infinite = infinite
        self.left = demazure_set(straight_path(datum, lam), vmin)
        if infinite:
            oracle = WindowedClosure(binf_top(datum), w.rword)
            self.right, self.right_member = oracle.ensure(depth), oracle.contains
        else:
            self.right = demazure_set(straight_path(datum, mu), w)
            self.right_member = self.right.__contains__
        self.xprod = product_set(self.left, self.right,
                                 window=depth if infinite else None)

    def member(self, x: Element) -> bool:
        """Whether x lies in B_{v_min}(lam) (x) B_w(mu or infinity)."""
        return (isinstance(x, TensorPair) and x.left in self.left.index
                and self.right_member(x.right))

    def probe_start(self, nu: Coords) -> tuple:
        """The pairings of recognition's Lambda: rho in the B(infinity) mode, nu otherwise."""
        datum = self.left.datum
        return tuple(1 if self.infinite else datum.pair(nu, i) for i in range(1, datum.n + 1))


# ---------------------------------------------------------------------------
# the decomposition


@dataclass
class ComponentReport:
    primitive: Element
    primitive_depth: int
    y: WeylElement
    u: WeylElement
    nu: Coords
    size: int
    window: int | None
    matched: bool

    def to_json(self) -> dict:
        return {
            "primitive": self.primitive.payload(),
            "primitive_depth": self.primitive_depth,
            "y_word": list(self.y.rword),
            "u_word": list(self.u.rword),
            "nu": [rational_str(x) for x in self.nu],
            "size": self.size,
            "window": self.window,
            "matched": self.matched,
        }


@dataclass
class DecompositionReport:
    datum: RootDatum
    mode: str                      # "finite" | "infinity"
    v: WeylElement
    lam: Coords
    w: WeylElement
    mu: Coords | None
    depth: int | None
    letters: frozenset[int]
    vmin: WeylElement
    components: list[ComponentReport]
    partition_ok: bool
    primitives_saturated: bool | None
    recognition_backtracked: bool
    total_size: int

    def to_json(self) -> dict:
        return {
            "config": {
                "datum": self.datum.name,
                "mode": self.mode,
                "lambda": [rational_str(x) for x in self.lam],
                "mu": None if self.mu is None else [rational_str(x) for x in self.mu],
                "v_word": list(self.v.rword),
                "w_word": list(self.w.rword),
                "depth": self.depth,
            },
            "criterion": {"holds": True, "letters": sorted(self.letters),
                          "v_min_word": list(self.vmin.rword)},
            "components": [c.to_json() for c in self.components],
            "checks": {
                "partition_ok": self.partition_ok,
                "primitives_saturated": self.primitives_saturated,
                "recognition_backtracked": self.recognition_backtracked,
                "total_size": self.total_size,
            },
        }


def decompose_tensor(datum: RootDatum, v: WeylElement, lam: Coords,
                     w: WeylElement, mu: Coords | None, *,
                     depth: int | None = None) -> DecompositionReport:
    """Decompose B_v(lam) (x) B_w(mu) into Demazure components.

    `mu` None selects the B(infinity) mode, where `depth` bounds the
    enumerated window (and is required).  Raises CriterionFails when the
    support precondition does not hold, and VerificationMismatch when any
    internal cross-check (component matching, partition) fails.
    """
    infinite = mu is None
    s = _TensorSetup(datum, v, lam, w, mu, depth, need_criterion=True)
    right, xprod = s.right, s.xprod
    b_lam = s.left.top()

    def id_member(x):  # the product's members whose left factor is b_lam
        return isinstance(x, TensorPair) and x.left == b_lam and s.member(x)

    prims = primitive_elements(right, lam)
    saturated = None
    if infinite:
        saturated = all(right.depth_of(b) < depth for b in prims)

    components: list[ComponentReport] = []
    covered: list[CrystalSet] = []
    backtracked = False
    for b in prims:
        d0 = right.depth_of(b)
        nu = vadd(lam, b.wt())
        top = TensorPair(b_lam, b)
        # the identity component is B_y for some y <= w
        y, stats = recognize_demazure(top, id_member, s.probe_start(nu), w)
        if y is None:
            raise VerificationMismatch(
                f"identity component at primitive depth {d0} is not a Demazure set")
        backtracked = backtracked or stats.dead_ends > 0
        u = u_from_y(y, s.vmin.rword)
        if not infinite:
            u = min_coset_rep(u, nu)

        w_cmp = depth - d0 if infinite else None
        comp = enumerate_from([top], nu, window=w_cmp, member=s.member)
        model_seed: Element
        if infinite:
            model_seed = binf_top(datum, nu)
        else:
            model_seed = straight_path(datum, nu)
        model = demazure_set(model_seed, u, window=w_cmp)
        outcome = match_highest_weight(comp, model)
        if isinstance(outcome, MismatchWitness):
            raise VerificationMismatch(
                f"component at primitive depth {d0} does not match "
                f"B_{word_str(u.rword)}({weight_str(nu)}): {outcome.where} "
                f"{outcome.detail}")
        components.append(ComponentReport(
            primitive=b, primitive_depth=d0, y=y, u=u, nu=nu,
            size=len(comp), window=w_cmp, matched=True))
        covered.append(comp)

    # the components must tile the enumerated product exactly
    seen: dict[Element, int] = {}
    for ci, comp in enumerate(covered):
        for x in comp:
            if x in seen:
                raise VerificationMismatch(f"components {seen[x]} and {ci} overlap")
            seen[x] = ci
    missing = [x for x in xprod if x not in seen]
    extra = [x for x in seen if x not in xprod.index]
    partition_ok = not missing and not extra
    if not partition_ok:
        # Both sides are exact truncations at one absolute depth, and each
        # component is f-connected from its top through shallower members,
        # so a gap even at the boundary layer is a fault, not a window
        raise VerificationMismatch(
            f"partition check failed: {len(missing)} uncovered, {len(extra)} stray")

    return DecompositionReport(
        datum=datum, mode="infinity" if infinite else "finite", v=v, lam=lam,
        w=w, mu=mu, depth=depth, letters=s.letters, vmin=s.vmin,
        components=components, partition_ok=partition_ok,
        primitives_saturated=saturated, recognition_backtracked=backtracked,
        total_size=len(xprod))


# ---------------------------------------------------------------------------
# the three-way equivalence


@dataclass
class EquivalenceRecord:
    criterion: bool
    letters: frozenset[int]
    extremal: str                  # "extremal" | "violated" | "inconclusive"
    decomposable: str              # "yes" | "no" | "inconclusive"
    components: int
    agree: bool
    witness: str = ""

    def to_json(self) -> dict:
        return {"criterion": self.criterion,
                "letters": sorted(self.letters),
                "extremal": self.extremal,
                "decomposable": self.decomposable,
                "components": self.components,
                "agree": self.agree,
                "witness": self.witness}


def check_equivalence(datum: RootDatum, v: WeylElement, lam: Coords,
                      w: WeylElement, mu: Coords | None, *,
                      depth: int | None = None) -> EquivalenceRecord:
    """Run the three characterizations side by side and insist they agree.

    (a) the support criterion, (b) extremality of B_v(lam) (x) B_w(mu) inside
    its ambient tensor crystal, (c) decomposability: the per-primitive
    components are Demazure sets and they exhaust the product.  Conclusive
    disagreement raises EquivalenceViolation; windowed verdicts that could not
    be settled are reported as inconclusive, never coerced.  In particular a
    windowed "yes" stands only when the window holds every primitive: when
    B_w(infinity) is not cut, or the depth reaches D_lam (finite type only).
    """
    infinite = mu is None
    s = _TensorSetup(datum, v, lam, w, mu, depth)
    holds, right, xprod, member = s.holds, s.right, s.xprod, s.member
    b_lam = s.left.top()

    tail = None
    if infinite:
        def tail(x, i):  # noqa: F811
            # Undecided while f_i still acts on the left factor.  After the
            # first action on the right every later one stays right, so the
            # rest of the chain lies in the set iff the right factor's whole
            # i-string does; that string meets the right set in a top prefix
            # that is trivial or everything, so one probe just below the
            # string top settles it.
            if x.left.phi(i) > x.right.eps(i):
                return None
            return s.right_member(string_top(x.right, i).f(i))

    ext = is_extremal(xprod, member, tail_all_in=tail)

    prims = primitive_elements(right, lam)
    decomposable = "yes"
    witness = ""
    covered: set[Element] = set()
    vw = u_from_y(w, s.vmin.rword)  # every component is B_u for some u <= v_min * w
    reach = s.left.max_depth() + w.length + 1  # D_L + l(w) + 1, see the module docstring
    for b in prims:
        d0 = right.depth_of(b)
        nu = vadd(lam, b.wt())
        top = TensorPair(b_lam, b)
        u, _stats = recognize_demazure(top, member, s.probe_start(nu), vw)
        if u is not None:
            w_cmp = max(depth - d0, reach) if infinite else None
            comp = enumerate_from([top], nu, window=w_cmp, with_e=True, member=member)
            closure, _ = t_word_closure([top], u.rword, nu, window=w_cmp)
            if comp.element_set() == frozenset(closure):
                covered.update(comp.elements)
                continue
        decomposable = "no"
        witness = f"component of {weight_str(nu)} is not a Demazure set"
        break
    if decomposable == "yes":
        stray = [x for x in xprod if x not in covered]
        if stray:
            decomposable = "no"
            witness = (f"{len(stray)} elements lie outside every component "
                       f"headed by a primitive pair")
    if decomposable == "yes" and infinite and right.truncated:
        # the window holds every primitive only once it reaches D_lam
        bound = _primitive_depth_bound(datum, lam)
        if bound is None or depth < bound:
            decomposable = "inconclusive"
            witness = f"window {depth} may miss a primitive: " + (
                "their depth is unbounded off finite type" if bound is None
                else f"they lie as deep as D_λ = {bound}")

    extremal = ext.status
    if xprod.truncated and extremal == "extremal" and not holds:
        # In a truncated window "extremal" only means that no string through
        # the window is violated; a violated string may meet the set below it
        # alone.  A violation seen in the window stays conclusive.
        extremal = "inconclusive"
        witness = (f"{witness}; window {xprod.window} is truncated and no string "
                   f"through it is violated, but a violated string may meet the "
                   f"set only below it")
    verdicts = {"criterion": holds,
                "extremal": {"extremal": True, "violated": False}.get(extremal),
                "decomposable": {"yes": True, "no": False}.get(decomposable)}
    conclusive = {k: val for k, val in verdicts.items() if val is not None}
    agree = len(set(conclusive.values())) <= 1
    record = EquivalenceRecord(
        criterion=holds, letters=s.letters, extremal=extremal,
        decomposable=decomposable, components=len(prims), agree=agree,
        witness=witness or ext.reason or (f"string violated at color {ext.witness[1]}"
                                          if ext.witness else ""))
    if not agree:
        raise EquivalenceViolation(
            f"conclusive disagreement {conclusive} for v={word_str(v.rword)}, "
            f"w={word_str(w.rword)}, lam={weight_str(lam)}")
    return record


# ---------------------------------------------------------------------------
# the closure identity for products


@dataclass
class ClosureProductRecord:
    criterion: bool
    contains: bool
    equal: bool | None


def closure_product_check(datum: RootDatum, v: WeylElement, lam: Coords,
                          w: WeylElement, mu: Coords | None, *,
                          depth: int | None = None) -> ClosureProductRecord:
    """Check T_v(b_lam (x) B_w(mu)) against B_v(lam) (x) B_w(mu).

    The closure always contains the product; under the support criterion the
    two coincide.  Windowed comparison in the B(infinity) mode.
    """
    s = _TensorSetup(datum, v, lam, w, mu, depth)
    if mu is None:  # the oracle's window is built without axiom checks
        verify_axioms(s.right)
    seeds = [TensorPair(s.left.top(), b) for b in s.right]
    closure, _ = t_word_closure(seeds, v.rword, s.xprod.top_wt,
                                window=depth if mu is None else None)
    closure_set = frozenset(closure)
    prod_elements = s.xprod.element_set()
    contains = prod_elements <= closure_set
    equal = (closure_set == prod_elements) if s.holds else None
    return ClosureProductRecord(criterion=s.holds, contains=contains, equal=equal)

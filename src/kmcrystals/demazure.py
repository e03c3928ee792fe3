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
search commute).  Membership in B_w(infinity) needs no window at all: by
Kashiwara's string property (Duke Math. J. 71, 1993) a Demazure crystal is
e-stable and meets each i-string in nothing, its top alone, or the whole
string, so x lies in B_w exactly when peeling a reduced word (i_1, ..., i_k)
of w from the left, applying e_{i_1}^max, then e_{i_2}^max, ..., then
e_{i_k}^max, returns the highest element (`WindowedClosure.contains`).  The
only window-sensitive step is therefore recognizing y, which is re-verified
one layer deeper and widened on instability.
"""

from __future__ import annotations

from dataclasses import dataclass

from .binfinity import binf_top
from .crystals import (CrystalSet, Element, MismatchWitness, TensorPair,
                       enumerate_from, is_extremal, match_highest_weight,
                       primitive_elements, product_set, set_from_elements,
                       string_top, t_closure, t_word_closure)
from .paths import straight_path
from .rootdata import (Coords, InvariantBroken, RootDatum, WeylElement, Word,
                       check_reduced, in_parabolic, min_coset_rep, rational_str,
                       vadd, weight_str, word_str)


class CriterionFails(Exception):
    """The support precondition for the decomposition does not hold."""

    def __init__(self, letters: frozenset[int], offending: tuple[int, ...]):
        self.letters = letters
        self.offending = offending
        super().__init__(
            f"support letters {sorted(offending)} fall outside the allowed set "
            f"{sorted(letters)}")


class WindowTooSmall(Exception):
    """A depth-window comparison failed exactly at the truncation boundary."""


class EquivalenceViolation(Exception):
    """Two routes that must agree produced conclusively different answers."""


class VerificationMismatch(Exception):
    """An internal cross-check (matching, partition, recognition) failed."""


class TopNotInSet(ValueError):
    """Recognition was asked about a set missing its highest-weight element."""


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
    xset = set_from_elements(els, top_wt, window=window, truncated=cut,
                             e_stable=True)
    if window is None:
        memo[key] = xset
    return xset


def extremal_element(top: Element, w: WeylElement) -> Element:
    """The extremal element of weight w(top weight), by stringwise lowering.

    Walking the reduced word of w from the right, each step applies f_i
    exactly <current weight, alpha_i^vee> times, landing on the far end of
    the i-string.  The seed must be a highest-weight element (eps = 0
    everywhere), e.g. a straight path.
    """
    datum = top.datum
    cur = top
    for i in reversed(w.rword):
        c = datum.pair(cur.wt(), i)
        if c.denominator != 1 or c < 0:
            raise ValueError(f"pairing {c} at letter {i} is not a nonnegative integer")
        for _ in range(int(c)):
            nxt = cur.f(i)
            if nxt is None:
                raise InvariantBroken("string ended before the pairing was exhausted")
            cur = nxt
    return cur


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
                                 e_stable=True, check_axioms=False)

    def contains(self, x: Element) -> bool:
        for i in self.word:
            x = string_top(x, i)
        return x == self.seed


# ---------------------------------------------------------------------------
# recognizing a Demazure set inside its ambient component


@dataclass
class RecognitionStats:
    states: int = 0
    dead_ends: int = 0


def recognize_demazure(xset: CrystalSet, *, nu_for_coset: Coords | None = None):
    """Identify `xset` as B_y inside its ambient highest-weight component.

    The ambient is implicit: starting from the top of `xset`, candidate sets
    grow by free T_i closures (depth-capped at the set's window), and a
    depth-first search over strictly growing closure chains looks for the
    target.  The shortest successful chain is taken, with smallest-index
    tie-breaking; when several chains of minimal length exist they produce
    the same set, and in the finite case the returned element is canonicalized
    modulo the stabilizer of `nu_for_coset`.  Returns (y, stats) with y None
    when no chain reaches the target (the set is not Demazure at this window).
    """
    try:
        top = xset.top()
    except ValueError as exc:
        raise TopNotInSet(str(exc)) from None
    datum = xset.datum
    target = xset.element_set()
    window = xset.window
    top_wt = xset.top_wt
    stats = RecognitionStats()
    memo: dict[frozenset, int | None] = {}
    choice: dict[frozenset, int] = {}

    def solve(state: frozenset) -> int | None:
        if state == target:
            return 0
        if state in memo:
            return memo[state]
        stats.states += 1
        memo[state] = None  # growth is strict, so recursion cannot revisit
        best: int | None = None
        best_i: int | None = None
        ordered = sorted(state, key=lambda x: x.skey())
        for i in range(1, datum.n + 1):
            nxt, _ = t_closure(ordered, i, top_wt, window=window)
            nxts = frozenset(nxt)
            if len(nxts) == len(state):
                continue  # no growth at this window
            if not nxts <= target:
                stats.dead_ends += 1
                continue
            sub = solve(nxts)
            if sub is not None and (best is None or sub + 1 < best):
                best, best_i = sub + 1, i
        memo[state] = best
        if best_i is not None:
            choice[state] = best_i
        return best

    result = solve(frozenset([top]))
    if result is None:
        return None, stats
    applied: list[int] = []
    state = frozenset([top])
    while state != target:
        i = choice[state]
        applied.append(i)
        nxt, _ = t_closure(sorted(state, key=lambda x: x.skey()), i, top_wt, window=window)
        state = frozenset(nxt)
    y = datum.weyl(tuple(reversed(applied)))
    if nu_for_coset is not None:
        y = min_coset_rep(y, nu_for_coset)
    return y, stats


def u_from_y(y: WeylElement, v_word: Word) -> WeylElement:
    """Fold the letters of a reduced word back onto y, keeping only the
    length-increasing left multiplications.

    Walking v_word = (i_1, ..., i_k) from the right, each step replaces the
    running element u by s_{i_j} u exactly when that is longer.  The result
    is the element whose Demazure crystal matches the component headed by the
    primitive that produced y.
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


# how far past its first window recognition may widen before giving up
_MAX_EXTRA = 8


def _recognize_component_y(top: Element, member, nu: Coords, *,
                           base_window: int | None, nu_for_coset: Coords | None,
                           induced: bool = False):
    """Recognize the component of `top` in the member set as B_y, with
    windowed re-checks.

    In the finite case (base_window None) recognition is exact.  Otherwise the
    candidate found at window W is confirmed by rebuilding both sides one
    layer deeper; on failure the window widens.  Returns (y, stats, window,
    walks) with y None when the component is conclusively not a Demazure set:
    a recognition that would succeed at a deeper window restricts to a
    success at every shallower one, so a miss needs no retry.  `walks` maps
    each window walked to the component set built there, for callers that
    need the same component again.  With `induced` the component is walked
    along e-steps as well as f-steps, which finds members reachable only
    through a raising step.
    """
    walks: dict[int | None, CrystalSet] = {}

    def build(window):
        walks[window] = enumerate_from([top], nu, window=window, with_e=induced,
                                       member=member, check_axioms=False)
        return walks[window]

    w_try = base_window
    while True:
        y, stats = recognize_demazure(build(w_try), nu_for_coset=nu_for_coset)
        if y is None or w_try is None:
            return y, stats, w_try, walks
        closure, _ = t_word_closure([top], y.rword, nu, window=w_try + 1)
        if frozenset(closure) == build(w_try + 1).element_set():
            return y, stats, w_try, walks
        if w_try - base_window >= _MAX_EXTRA:
            raise VerificationMismatch(
                f"recognition unstable: candidate {word_str(y.rword)} at window "
                f"{w_try} does not persist one layer deeper")
        w_try += 2


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
    right, right_member, xprod = s.right, s.right_member, s.xprod
    b_lam = s.left.top()

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

        def id_member(x):
            return (isinstance(x, TensorPair) and x.left == b_lam
                    and right_member(x.right))

        base_window = None
        if infinite:
            base_window = max(w.length + 2, 4)
        y, stats, rec_window, _walks = _recognize_component_y(
            top, id_member, nu, base_window=base_window,
            nu_for_coset=None if infinite else nu)
        if y is None:
            raise VerificationMismatch(
                f"identity component at primitive depth {d0} not recognized as a "
                f"Demazure set (window {rec_window})")
        backtracked = backtracked or stats.dead_ends > 0
        u = u_from_y(y, s.vmin.rword)
        if not infinite:
            u = min_coset_rep(u, nu)

        w_cmp = depth - d0 if infinite else None
        comp = enumerate_from([top], nu, window=w_cmp, member=s.member,
                              check_axioms=False)
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
        if infinite and all(
                datum.weight_drop(xprod.top_wt, x.wt()) >= depth
                for x in missing + extra):
            raise WindowTooSmall(
                f"partition check failed only at the boundary layer {depth}")
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
    be settled are reported as inconclusive, never coerced.
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

    ext = is_extremal(xprod, membership=member, tail_all_in=tail)

    prims = primitive_elements(right, lam)
    decomposable = "yes"
    witness = ""
    comps: list[CrystalSet] = []
    for b in prims:
        d0 = right.depth_of(b)
        nu = vadd(lam, b.wt())
        top = TensorPair(b_lam, b)
        base_window = max(w.length + s.vmin.length + 2, 4) if infinite else None
        try:
            y, _stats, _wnd, walks = _recognize_component_y(
                top, member, nu, base_window=base_window, nu_for_coset=None,
                induced=True)
        except VerificationMismatch as exc:
            decomposable = "inconclusive"
            witness = str(exc)
            continue
        if y is None:
            decomposable = "no"
            witness = f"component of {weight_str(nu)} is not a Demazure set"
            break
        w_cmp = depth - d0 if infinite else None
        if w_cmp in walks:  # recognition already walked this window
            comps.append(walks[w_cmp])
        else:
            comps.append(enumerate_from([top], nu, window=w_cmp, with_e=True,
                                        member=member, check_axioms=False))
    if decomposable == "yes":
        covered: set[Element] = set()
        for comp in comps:
            covered.update(comp.elements)
        stray = [x for x in xprod if x not in covered]
        if stray:
            decomposable = "no"
            witness = (f"{len(stray)} elements lie outside every component "
                       f"headed by a primitive pair")

    extremal = ext.status
    if (xprod.truncated and extremal == "extremal" and not holds
            and decomposable == "no"):
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
        for b in s.right:
            b.check_c1()
    seeds = [TensorPair(s.left.top(), b) for b in s.right]
    closure, _ = t_word_closure(seeds, v.rword, s.xprod.top_wt,
                                window=depth if mu is None else None)
    closure_set = frozenset(closure)
    prod_elements = s.xprod.element_set()
    contains = prod_elements <= closure_set
    equal = (closure_set == prod_elements) if s.holds else None
    return ClosureProductRecord(criterion=s.holds, contains=contains, equal=equal)

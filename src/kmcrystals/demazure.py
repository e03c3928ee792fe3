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

from . import binfinity
from .binfinity import binf_top
from .crystals import (CrystalSet, Element, MismatchWitness, TensorPair,
                       is_extremal, match_highest_weight, primitive_elements,
                       product_set, set_from_elements, string_top,
                       t_closure, t_word_closure)
from .paths import straight_path
from .rootdata import (Coords, RootDatum, WeylElement, Word, check_reduced,
                       in_parabolic, min_coset_rep, rational_str, vadd,
                       weight_str, word_str)


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


def T_op(xs, i: int, top_wt: Coords, *, window: int | None = None) -> list[Element]:
    """T_i applied to an iterable of elements; returns the closure list."""
    out, _ = t_closure(xs, i, top_wt, window=window)
    return out


def demazure_set(seed: Element, w: WeylElement | None = None, *,
                 word: Word | None = None, window: int | None = None,
                 require_reduced: bool = True) -> CrystalSet:
    """B_w(seed) = T_w {seed} as an enumerated set.

    Either a Weyl element (its canonical reduced word is used) or an explicit
    word may be given; explicit words are checked reduced unless opted out.
    A window is mandatory for seeds with unbounded strings (B(infinity)).
    """
    if word is None:
        if w is None:
            raise ValueError("need a Weyl element or a word")
        word = w.rword
    elif require_reduced:
        check_reduced(seed.datum, word)
    top_wt = seed.wt()
    els, cut = t_word_closure([seed], word, top_wt, window=window)
    return set_from_elements(els, top_wt, window=window, truncated=cut,
                             e_stable=True)


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
                raise AssertionError("string ended before the pairing was exhausted")
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
    be a highest-weight element.  `ensure` and `set_at` enumerate the set to
    a depth window when the elements themselves are needed.
    """

    def __init__(self, seed: Element, word: Word):
        if any(seed.e(i) is not None for i in range(1, seed.datum.n + 1)):
            raise ValueError("string peeling needs a highest-weight seed")
        self.seed = seed
        self.word = tuple(word)
        self.top_wt = seed.wt()
        self.datum = seed.datum
        self._window = -1
        self._set: CrystalSet | None = None

    def ensure(self, depth: int) -> None:
        if depth > self._window:
            els, cut = t_word_closure([self.seed], self.word, self.top_wt, window=depth)
            self._set = set_from_elements(els, self.top_wt, window=depth,
                                          truncated=cut, e_stable=True,
                                          check_axioms=False)
            self._window = depth

    def set_at(self, depth: int) -> CrystalSet:
        self.ensure(depth)
        assert self._set is not None
        return self._set if self._window == depth else self._set.restricted(depth)

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
    window: int | None = None


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
    stats.window = window
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
# component builders


def _component_set(top: Element, member, top_wt: Coords, *,
                   window: int | None) -> CrystalSet:
    """f-closure of `top` filtered by `member`, cut at `window` steps.

    For a set known to decompose this is the whole connected component of
    `top`; the partition check downstream validates exactly that.
    """
    datum = top.datum
    elements = [top]
    index = {top: 0}
    depths = [0]
    edges: dict[tuple[int, int], int] = {}
    pos = 0
    truncated = False
    while pos < len(elements):
        x = elements[pos]
        for i in range(1, datum.n + 1):
            y = x.f(i)
            if y is None:
                continue
            d = depths[pos] + 1
            if window is not None and d > window:
                if member(y):
                    truncated = True
                continue
            if y in index:
                edges[(pos, i)] = index[y]
                continue
            if not member(y):
                continue
            index[y] = len(elements)
            elements.append(y)
            depths.append(d)
            edges[(pos, i)] = index[y]
        pos += 1
    return CrystalSet(datum, top_wt, elements, index, depths, edges,
                      window=window, truncated=truncated, e_stable=True)


def _induced_set(top: Element, member, top_wt: Coords, *,
                 window: int | None) -> CrystalSet:
    """Connected component of `top` in the graph induced on the member set,
    walking both e and f edges, cut at `window` f-depth.

    Unlike the plain f-closure this finds elements only reachable through a
    raising step, which matters when deciding whether a component actually is
    a Demazure set.
    """
    datum = top.datum
    seen = {top}
    order = [top]
    pos = 0
    truncated = False
    while pos < len(order):
        x = order[pos]
        d = datum.weight_drop(top_wt, x.wt())
        for i in range(1, datum.n + 1):
            y = x.f(i)
            if y is not None and y not in seen:
                if window is not None and d + 1 > window:
                    if member(y):
                        truncated = True
                elif member(y):
                    seen.add(y)
                    order.append(y)
            z = x.e(i)
            if z is not None and z not in seen and member(z):
                seen.add(z)
                order.append(z)
        pos += 1
    return set_from_elements(order, top_wt, window=window, truncated=truncated,
                             e_stable=True, check_axioms=False)


def _recognize_component_y(top: Element, member, nu: Coords, *,
                           base_window: int | None, nu_for_coset: Coords | None,
                           induced: bool = False, max_extra: int = 8):
    """Recognize the component of `top` in the member set as B_y, with
    windowed re-checks.

    In the finite case (base_window None) recognition is exact.  Otherwise the
    candidate found at window W is confirmed by rebuilding both sides one
    layer deeper; on failure the window widens.  Returns (y, stats, window)
    with y None when the component is conclusively not a Demazure set: a
    recognition that would succeed at a deeper window restricts to a success
    at every shallower one, so a miss needs no retry.
    """
    build = _induced_set if induced else _component_set
    if base_window is None:
        xset = build(top, member, nu, window=None)
        y, stats = recognize_demazure(xset, nu_for_coset=nu_for_coset)
        return y, stats, None
    w_try = base_window
    while True:
        xset = build(top, member, nu, window=w_try)
        y, stats = recognize_demazure(xset, nu_for_coset=nu_for_coset)
        if y is None:
            return None, stats, w_try
        deeper = build(top, member, nu, window=w_try + 1)
        closure, _ = t_word_closure([top], y.rword, nu, window=w_try + 1)
        if frozenset(closure) == deeper.element_set():
            return y, stats, w_try
        if w_try - base_window >= max_extra:
            raise VerificationMismatch(
                f"recognition unstable: candidate {word_str(y.rword)} at window "
                f"{w_try} does not persist one layer deeper")
        w_try += 2


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
    recognition_window: int | None

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
    if infinite:
        if depth is None:
            raise ValueError("the B(infinity) mode needs a depth")
        holds, letters, vmin = criterion_infinity(datum, v, lam, w)
    else:
        holds, letters, vmin = criterion_finite(datum, v, lam, w, mu)
    if not holds:
        raise CriterionFails(letters, tuple(sorted(vmin.support() - letters)))

    lam_path = straight_path(datum, lam)
    left = demazure_set(lam_path, vmin)
    b_lam = left.top()

    if infinite:
        oracle = WindowedClosure(binf_top(datum), w.rword)
        right = oracle.set_at(depth)
        right_member = oracle.contains
    else:
        right = demazure_set(straight_path(datum, mu), w)
        right_member = lambda x: x in right.index  # noqa: E731
    xprod = product_set(left, right, window=depth if infinite else None)

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
        y, stats, rec_window = _recognize_component_y(
            top, id_member, nu, base_window=base_window,
            nu_for_coset=None if infinite else nu)
        if y is None:
            raise VerificationMismatch(
                f"identity component at primitive depth {d0} not recognized as a "
                f"Demazure set (window {rec_window})")
        backtracked = backtracked or stats.dead_ends > 0
        u = u_from_y(y, vmin.rword)
        if not infinite:
            u = min_coset_rep(u, nu)

        def v_member(x):
            return (isinstance(x, TensorPair) and x.left in left.index
                    and right_member(x.right))

        w_cmp = depth - d0 if infinite else None
        comp = _component_set(top, v_member, nu, window=w_cmp)
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
            size=len(comp), window=w_cmp, matched=True,
            recognition_window=rec_window))
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
        w=w, mu=mu, depth=depth, letters=letters, vmin=vmin,
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
    if infinite:
        if depth is None:
            raise ValueError("the B(infinity) mode needs a depth")
        holds, letters, vmin = criterion_infinity(datum, v, lam, w)
    else:
        holds, letters, vmin = criterion_finite(datum, v, lam, w, mu)

    left = demazure_set(straight_path(datum, lam), vmin)
    b_lam = left.top()
    if infinite:
        oracle = WindowedClosure(binf_top(datum), w.rword)
        right = oracle.set_at(depth)
        right_member = oracle.contains
    else:
        oracle = None
        right = demazure_set(straight_path(datum, mu), w)
        right_member = lambda x: x in right.index  # noqa: E731
    xprod = product_set(left, right, window=depth if infinite else None)

    def member(x):
        return (isinstance(x, TensorPair) and x.left in left.index
                and right_member(x.right))

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
            return oracle.contains(string_top(x.right, i).f(i))

    ext = is_extremal(xprod, membership=member, tail_all_in=tail)

    prims = primitive_elements(right, lam)
    decomposable = "yes"
    witness = ""
    comps: list[CrystalSet] = []
    for b in prims:
        d0 = right.depth_of(b)
        nu = vadd(lam, b.wt())
        top = TensorPair(b_lam, b)
        base_window = max(w.length + vmin.length + 2, 4) if infinite else None
        try:
            y, _stats, _wnd = _recognize_component_y(
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
        comps.append(_induced_set(top, member, nu, window=w_cmp))
    if decomposable == "yes":
        covered: set[Element] = set()
        for comp in comps:
            covered.update(comp.elements)
        stray = [x for x in xprod if x not in covered]
        if stray:
            decomposable = "no"
            witness = (f"{len(stray)} elements lie outside every component "
                       f"headed by a primitive pair")

    verdicts = {"criterion": holds,
                "extremal": {"extremal": True, "violated": False}.get(ext.status),
                "decomposable": {"yes": True, "no": False}.get(decomposable)}
    conclusive = {k: val for k, val in verdicts.items() if val is not None}
    agree = len(set(conclusive.values())) <= 1
    record = EquivalenceRecord(
        criterion=holds, letters=letters, extremal=ext.status,
        decomposable=decomposable, components=len(prims), agree=agree,
        witness=witness or (f"string violated at color {ext.witness[1]}"
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
    infinite = mu is None
    if infinite:
        if depth is None:
            raise ValueError("the B(infinity) mode needs a depth")
        holds, _, vmin = criterion_infinity(datum, v, lam, w)
        right = binfinity.demazure_infinity(datum, w, depth)
    else:
        holds, _, vmin = criterion_finite(datum, v, lam, w, mu)
        right = demazure_set(straight_path(datum, mu), w)
    left_top = straight_path(datum, lam)
    seeds = [TensorPair(left_top, b) for b in right]
    top_wt = vadd(lam, right.top_wt)
    window = depth if infinite else None
    closure, _ = t_word_closure(seeds, v.rword, top_wt, window=window)
    closure_set = frozenset(closure)

    left = demazure_set(left_top, vmin)
    prod = product_set(left, right, window=window)
    prod_elements = prod.element_set()

    contains = prod_elements <= closure_set
    equal = (closure_set == prod_elements) if holds else None
    return ClosureProductRecord(criterion=holds, contains=contains, equal=equal)

"""Crystal elements, tensor products, and set-level operations.

Every model (paths, the B(infinity) sequences, tensor pairs) implements the
same small interface: weight, string statistics eps_i/phi_i, and the raising
and lowering operators e_i/f_i returning an element or None.  On top of that
this module provides enumerated crystal sets with their edges, i-strings,
extremality and primitivity tests, and the highest-weight matching used to
certify isomorphisms.

There is one crystal-graph walk, `enumerate_from`: breadth-first along f (and
e if asked), restricted to the members of a set when a test is given, and cut
at a depth window.  It builds whole crystals and the components of tensor
products.  `set_from_elements` and `product_set` package element lists found
otherwise and, like it, store exactly the f-edges between listed elements.
There is one axiom check, `verify_axioms`, run on a finished set.

Depth is always the height of the weight drop from the ambient top: each f
step increases it by exactly one and each e step lowers it by one, so the
walk computes weight drops only for its seeds, and truncating an enumeration
at depth D yields precisely the true set cut at D.

Every model's e_i and f_i are wrapped by `memoised_edge`, so each crystal
edge is computed once per datum (`RootDatum._edges`) however many closures,
peelings, walks and matchings cross it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass, field
from functools import wraps

from .rootdata import (Coords, InvariantBroken, RootDatum, rational_str, vadd,
                       vscale, weight_str)


class Element(ABC):
    """Common interface for crystal elements.  Instances are immutable,
    hashable, and compare by value."""

    __slots__ = ()

    datum: RootDatum

    @abstractmethod
    def wt(self) -> Coords: ...

    @abstractmethod
    def eps(self, i: int) -> int: ...

    @abstractmethod
    def phi(self, i: int) -> int: ...

    @abstractmethod
    def e(self, i: int) -> "Element | None": ...

    @abstractmethod
    def f(self, i: int) -> "Element | None": ...

    @abstractmethod
    def payload(self) -> object:
        """Canonical JSON-able description, including a "model" tag."""

    @abstractmethod
    def skey(self):
        """Deterministic sort key; comparable within one ambient crystal."""

    def check_c1(self) -> None:
        for i in range(1, self.datum.n + 1):
            lhs = self.phi(i)
            rhs = self.eps(i) + self.datum.pair(self.wt(), i)
            if lhs != rhs:
                raise InvariantBroken(
                    f"axiom C1 fails at i={i}: phi={lhs}, eps+<wt,a^vee>={rhs}")


def memoised_edge(op):
    """Wrap the root operator `op` (a model's `e` or `f`) in the per-datum memo.

    The first call on (element, colour) runs `op` and stores its result, None
    included, in the element's datum (`RootDatum._edges`); every later call
    returns the stored result.  The operators are pure, so this changes no
    result.  The raw operator stays reachable as `__wrapped__`.
    """
    name = op.__name__

    @wraps(op)
    def memoised(self, i):
        table = self.datum._edges[name][i]
        out = table.get(self, table)
        if out is table:
            out = table[self] = op(self, i)
        return out

    return memoised


@dataclass(frozen=True, slots=True)
class TensorPair(Element):
    """b1 (x) b2 with the Kashiwara convention.

    e_i acts on the left factor when phi_i(b1) >= eps_i(b2), else on the
    right; f_i acts on the left when phi_i(b1) > eps_i(b2), else on the
    right.  Factors may themselves be tensor pairs.
    """

    left: Element
    right: Element
    # hash of the compared fields, computed once: every memo lookup hashes
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.left, self.right)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt when loaded, so the hash is that of the loading process
        return type(self), (self.left, self.right)

    @property
    def datum(self) -> RootDatum:  # type: ignore[override]
        return self.left.datum

    def wt(self) -> Coords:
        return vadd(self.left.wt(), self.right.wt())

    def eps(self, i: int) -> int:
        return self.left.eps(i) + max(0, self.right.eps(i) - self.left.phi(i))

    def phi(self, i: int) -> int:
        return self.right.phi(i) + max(0, self.left.phi(i) - self.right.eps(i))

    @memoised_edge
    def e(self, i: int) -> "Element | None":
        if self.left.phi(i) >= self.right.eps(i):
            up = self.left.e(i)
            return None if up is None else TensorPair(up, self.right)
        up = self.right.e(i)
        return None if up is None else TensorPair(self.left, up)

    @memoised_edge
    def f(self, i: int) -> "Element | None":
        if self.left.phi(i) > self.right.eps(i):
            down = self.left.f(i)
            return None if down is None else TensorPair(down, self.right)
        down = self.right.f(i)
        return None if down is None else TensorPair(self.left, down)

    def payload(self) -> object:
        return {"model": "tensor", "left": self.left.payload(), "right": self.right.payload()}

    def skey(self):
        return ("tensor", self.left.skey(), self.right.skey())


def tensor(*factors: Element) -> Element:
    """Left-associated tensor product of the given factors."""
    out = factors[0]
    for x in factors[1:]:
        out = TensorPair(out, x)
    return out


# ---------------------------------------------------------------------------
# enumerated sets


@dataclass
class CrystalSet:
    """A finite enumerated piece of a crystal, with its internal f-edges.

    `window` is None when the set is complete (no element was pruned), else
    the depth D up to which the enumeration is guaranteed exhaustive; in that
    case `truncated` records whether anything was actually cut.
    """

    datum: RootDatum
    top_wt: Coords
    elements: list[Element]
    index: dict[Element, int]
    depths: list[int]
    edges: dict[tuple[int, int], int]
    window: int | None = None
    truncated: bool = False

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, x: Element) -> bool:
        return x in self.index

    def depth_of(self, x: Element) -> int:
        return self.depths[self.index[x]]

    def element_set(self) -> frozenset[Element]:
        return frozenset(self.elements)

    def max_depth(self) -> int:
        return max(self.depths, default=0)

    def top(self) -> Element:
        """The unique element of maximal weight (checked)."""
        tops = [x for x, d in zip(self.elements, self.depths) if d == 0]
        if len(tops) != 1:
            raise ValueError(f"set has {len(tops)} elements at depth 0, expected 1")
        return tops[0]

    def graded_sizes(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for d in self.depths:
            out[d] = out.get(d, 0) + 1
        return dict(sorted(out.items()))

    def to_json(self) -> dict:
        els = [{"id": i, "wt": [rational_str(x) for x in b.wt()], "payload": b.payload()}
               for i, b in enumerate(self.elements)]
        edges = sorted(({"from": a, "i": i, "to": b} for (a, i), b in self.edges.items()),
                       key=lambda e: (e["from"], e["i"]))
        meta = {"top_wt": [rational_str(x) for x in self.top_wt],
                "size": len(self.elements),
                "window": self.window,
                "truncated": self.truncated}
        return {"elements": els, "edges": edges, "meta": meta}

    def to_dot(self) -> str:
        lines = ["digraph crystal {", "  rankdir=TB;"]
        for i, b in enumerate(self.elements):
            wt = ",".join(rational_str(x) for x in b.wt())
            lines.append(f'  n{i} [label="{wt}"];')
        for (a, i), b in sorted(self.edges.items()):
            lines.append(f'  n{a} -> n{b} [label="{i}"];')
        lines.append("}")
        return "\n".join(lines)


def verify_axioms(xset: CrystalSet) -> None:
    """Check the crystal axioms on `xset`, raising InvariantBroken at the first
    failure: C1 on each element, and C2-C3 on every e_i and f_i edge leaving
    it, whether or not the edge ends inside the set."""
    datum = xset.datum
    for x in xset.elements:
        x.check_c1()
        for i in range(1, datum.n + 1):
            alpha = datum.simple_root(i)
            for op, back, step in (("f", "e", -1), ("e", "f", 1)):
                y = getattr(x, op)(i)
                if y is None:
                    continue
                if getattr(y, back)(i) != x:
                    raise InvariantBroken(
                        f"axiom C2 fails: {back}_{i}({op}_{i}(x)) != x for {x.payload()}")
                if y.wt() != vadd(x.wt(), vscale(step, alpha)):
                    sign = "+" if step > 0 else "-"
                    raise InvariantBroken(
                        f"axiom C3 fails: wt({op}_{i} x) != wt(x) {sign} alpha_{i}")
                if y.eps(i) != x.eps(i) - step or y.phi(i) != x.phi(i) + step:
                    raise InvariantBroken(f"axiom C3 fails: string statistics along {op}_{i}")


def enumerate_from(seeds, top_wt: Coords, *, window: int | None = None,
                   with_e: bool = False, member=None) -> CrystalSet:
    """Breadth-first walk from `seeds` along every f_i (and e_i if asked).

    Depths are measured from `top_wt`: the seeds' come from the weight drop,
    every other element's is its parent's plus one (f) or minus one (e).
    `member(x) -> bool`, when given, admits only members; the seeds are taken
    as members.  An f-step past `window` is not taken, and the result is
    flagged truncated when the element it reaches is a member.  The stored
    edges are exactly the f-edges inside the result.
    """
    seeds = list(seeds)
    datum = seeds[0].datum
    elements: list[Element] = []
    index: dict[Element, int] = {}
    depths: list[int] = []
    edges: dict[tuple[int, int], int] = {}
    truncated = False

    def admit(x: Element, d: int) -> int:
        index[x] = len(elements)
        elements.append(x)
        depths.append(d)
        return index[x]

    for s in seeds:
        if s not in index:
            admit(s, datum.weight_drop(top_wt, s.wt()))
    pos = 0
    while pos < len(elements):
        x, d = elements[pos], depths[pos]
        for i in range(1, datum.n + 1):
            y = x.f(i)
            if y is not None:
                idx = index.get(y)
                if idx is None and (member is None or member(y)):
                    if window is not None and d + 1 > window:
                        truncated = True
                    else:
                        idx = admit(y, d + 1)
                if idx is not None:
                    edges[(pos, i)] = idx
            if with_e:
                z = x.e(i)
                # its f_i-edge to x is stored when z itself is walked
                if z is not None and z not in index and (member is None or member(z)):
                    admit(z, d - 1)
        pos += 1
    return CrystalSet(datum, top_wt, elements, index, depths, edges,
                      window=window, truncated=truncated)


def _f_edges(elements: list[Element], index: dict[Element, int],
             n: int) -> dict[tuple[int, int], int]:
    """The f-edges between listed elements, keyed (source, color) -> target."""
    edges = {}
    for idx, x in enumerate(elements):
        for i in range(1, n + 1):
            y = x.f(i)
            if y is not None and y in index:
                edges[(idx, i)] = index[y]
    return edges


def set_from_elements(elements, top_wt: Coords, *, window: int | None = None,
                      truncated: bool = False, check_axioms: bool = True) -> CrystalSet:
    """Package an explicit element list (first-seen order kept) as a CrystalSet."""
    elements = list(elements)
    datum = elements[0].datum
    index = {x: i for i, x in enumerate(elements)}
    if len(index) != len(elements):
        raise ValueError("duplicate elements")
    depths = [datum.weight_drop(top_wt, x.wt()) for x in elements]
    if check_axioms:
        for x in elements:
            x.check_c1()
    return CrystalSet(datum, top_wt, elements, index, depths,
                      _f_edges(elements, index, datum.n), window=window,
                      truncated=truncated)


def t_closure(xs, i: int, top_wt: Coords, *, window: int | None = None):
    """All f_i^k images (k >= 0) of the given elements, depth-capped.

    Returns (elements_in_first_seen_order, truncated).
    """
    out: list[Element] = []
    seen: set[Element] = set()
    truncated = False
    datum = None
    for x in xs:
        datum = x.datum
        if x not in seen:
            seen.add(x)
            out.append(x)
        cur = x
        d = datum.weight_drop(top_wt, x.wt())
        while True:
            nxt = cur.f(i)
            if nxt is None:
                break
            d += 1
            if window is not None and d > window:
                truncated = True
                break
            if nxt in seen:
                break  # an equal element has an equal tail, already walked
            seen.add(nxt)
            out.append(nxt)
            cur = nxt
    return out, truncated


def t_word_closure(seeds, word, top_wt: Coords, *, window: int | None = None):
    """Iterated closure T_{i_1}(T_{i_2}(...({seeds})...)) for word = (i_1, ..., i_k).

    The rightmost letter acts first.  Returns (elements, truncated).
    """
    out = list(seeds)
    truncated = False
    for i in reversed(tuple(word)):
        out, cut = t_closure(out, i, top_wt, window=window)
        truncated = truncated or cut
    return out, truncated


def product_set(a: CrystalSet, b: CrystalSet, *, window: int | None = None) -> CrystalSet:
    """The literal element-wise tensor product set {x (x) y}, depth-filtered.

    Depth of x (x) y is the sum of the factor depths.  Edges are the f-edges
    that stay inside the product.  The result is complete to `window` when
    both factors are complete to it.
    """
    top = vadd(a.top_wt, b.top_wt)
    pairs = []
    for x, dx in zip(a.elements, a.depths):
        for y, dy in zip(b.elements, b.depths):
            d = dx + dy
            if window is None or d <= window:
                pairs.append((d, TensorPair(x, y)))
    pairs.sort(key=lambda t: (t[0], t[1].skey()))
    elements = [p for _, p in pairs]
    depths = [d for d, _ in pairs]
    index = {x: i for i, x in enumerate(elements)}
    truncated = a.truncated or b.truncated or (
        window is not None and any(da + db > window
                                   for da in set(a.depths) for db in set(b.depths)))
    return CrystalSet(a.datum, top, elements, index, depths,
                      _f_edges(elements, index, a.datum.n), window=window,
                      truncated=truncated)


# i_string collects at most this many nodes; is_extremal walks at most this
# many lowering steps down one string
_STRING_CAP = 200
_STEP_CAP = 10_000


def string_top(x: Element, i: int) -> Element:
    """e_i^max x, the top of the i-string through x."""
    while True:
        up = x.e(i)
        if up is None:
            return x
        x = up


def i_string(x: Element, i: int):
    """The i-string through x, from its top downward.

    Returns (nodes, truncated): at most eps_i(x) raising steps to the top,
    then lowering steps until null or until _STRING_CAP nodes were collected.
    """
    top = string_top(x, i)
    nodes = [top]
    cur = top
    truncated = False
    while True:
        if len(nodes) >= _STRING_CAP:
            truncated = cur.f(i) is not None
            break
        nxt = cur.f(i)
        if nxt is None:
            break
        nodes.append(nxt)
        cur = nxt
    return nodes, truncated


def is_primitive_pair(lam: Coords, b: Element) -> bool:
    """Whether eps_i(b) <= <lam, alpha_i^vee> for all i (lam dominant integral)."""
    datum = b.datum
    datum.check_dominant_integral(lam)
    return all(b.eps(i) <= datum.pair(lam, i) for i in range(1, datum.n + 1))


def primitive_elements(xset: CrystalSet, lam: Coords) -> list[Element]:
    out = [b for b in xset.elements if is_primitive_pair(lam, b)]
    out.sort(key=lambda b: (xset.depth_of(b), b.skey()))
    return out


# ---------------------------------------------------------------------------
# extremality


@dataclass
class ExtremalityVerdict:
    status: str  # "extremal" | "violated" | "inconclusive"
    witness: tuple[Element, int] | None = None
    strings_checked: int = 0
    strings_unresolved: int = 0
    reason: str = ""  # why an inconclusive verdict could not be settled

    def __bool__(self) -> bool:
        return self.status == "extremal"


def is_extremal(xset: CrystalSet, member, *, tail_all_in=None) -> ExtremalityVerdict:
    """Check that every i-string through `xset` meets the true set behind it
    in nothing, in its top alone, or entirely.

    `member(x) -> bool` decides exactly whether an ambient element lies in the
    true (possibly infinite) set, which must be e-stable.  Then every string
    meets it in a prefix from the string top, and a string is violated exactly
    when it leaves the set two or more steps below its top.  `tail_all_in(x,
    i)`, when given, returns True when the whole forward chain {f_i^k x : k >=
    0} stays inside; it settles infinite strings.  A string still inside after
    _STEP_CAP lowering steps counts as unresolved.

    Only strings through elements of `xset` are examined.  A truncated set
    that holds nothing below its top is inconclusive: only the strings through
    the top would be examined, and a violation can sit on any string below it.
    """
    datum = xset.datum
    if xset.truncated and xset.max_depth() == 0:
        return ExtremalityVerdict(
            "inconclusive",
            reason=f"window {xset.window} holds only the top; no string below it was examined")
    seen_strings: set[tuple[Element, int]] = set()
    checked = 0
    unresolved = 0

    for x in xset.elements:
        for i in range(1, datum.n + 1):
            top = string_top(x, i)
            if (top, i) in seen_strings:
                continue
            seen_strings.add((top, i))
            checked += 1
            cur: Element | None = top
            pos = 0
            while cur is not None and pos <= _STEP_CAP:
                if not member(cur):
                    if pos == 0:
                        raise InvariantBroken(
                            f"e_{i}^max of a member is not a member: the set is not e-stable")
                    if pos >= 2:
                        return ExtremalityVerdict("violated", (x, i), checked, unresolved)
                    break  # the top alone
                if tail_all_in is not None and tail_all_in(cur, i):
                    break  # the whole rest of the string is inside
                pos += 1
                cur = cur.f(i)
            else:
                if cur is not None:
                    unresolved += 1
    if unresolved:
        return ExtremalityVerdict("inconclusive", None, checked, unresolved)
    return ExtremalityVerdict("extremal", None, checked, unresolved)


# ---------------------------------------------------------------------------
# highest-weight matching


@dataclass
class MismatchWitness:
    """First disagreement found while matching two sets from their tops."""

    where: str
    x: Element | None = None
    i: int | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return False


def match_highest_weight(xset: CrystalSet, yset: CrystalSet):
    """Graph isomorphism from the top of `xset` to the top of `yset`.

    Both sets must have unique maximal elements; weights, string statistics,
    and f-edges are compared along a parallel breadth-first walk.  Returns the
    mapping dict on success, else a MismatchWitness.  Truncated sets must be
    cut at the same window for the comparison to be meaningful; the walk only
    compares edges stored in the sets.
    """
    try:
        x0, y0 = xset.top(), yset.top()
    except ValueError as exc:
        return MismatchWitness("top", detail=str(exc))
    datum = xset.datum
    if len(xset) != len(yset):
        return MismatchWitness("size", detail=f"{len(xset)} vs {len(yset)}")
    mapping: dict[Element, Element] = {x0: y0}
    queue = deque([x0])
    while queue:
        x = queue.popleft()
        y = mapping[x]
        if x.wt() != y.wt():
            return MismatchWitness("weight", x,
                                   detail=f"{weight_str(x.wt())} vs {weight_str(y.wt())}")
        for i in range(1, datum.n + 1):
            if x.eps(i) != y.eps(i) or x.phi(i) != y.phi(i):
                return MismatchWitness("string-statistics", x, i)
            xi = xset.index[x]
            yi = yset.index[y]
            xe = xset.edges.get((xi, i))
            ye = yset.edges.get((yi, i))
            if (xe is None) != (ye is None):
                return MismatchWitness("edge", x, i, "present on one side only")
            if xe is None:
                continue
            xn, yn = xset.elements[xe], yset.elements[ye]
            if xn in mapping:
                if mapping[xn] != yn:
                    return MismatchWitness("edge", x, i, "inconsistent merge")
            else:
                mapping[xn] = yn
                queue.append(xn)
    if len(mapping) != len(xset):
        return MismatchWitness("coverage", detail="some elements unreachable from the top")
    if len({yset.index[y] for y in mapping.values()}) != len(mapping):
        return MismatchWitness("coverage", detail="map is not injective")
    return mapping


"""Piecewise-linear paths and the Littelmann root operators.

A path is stored by its vertex chain (v_0 = 0, ..., v_s), the corners of a
piecewise-linear map [0,1] -> P x Q; the time parametrization carries no
information, so the canonical form simply drops repeated vertices and merges
consecutive segments that point the same way.  The crystal B(lambda) is the
closure of the straight path t -> t*lambda under the lowering operators.

For index i write h for the height function t -> <pi(t), alpha_i^vee> and m
for its minimum, an integer on every path this package generates.  f_i
reflects the portion of the path between the last time h attains m and the
first later time it attains m+1, then shifts the rest down by alpha_i, with
all interpolation done in exact arithmetic (vertex coordinates follow the
scalar rule of `rootdata`: ints where integral, Fractions elsewhere).  e_i is
its dual, e_i pi = (f_i pi*)* for the path pi*(t) = pi(1-t) - pi(1) run
backwards from 0 (Littelmann, Ann. Math. 142, 1995).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .crystals import Element, memoised_edge
from .rootdata import (Coords, RootDatum, Scalar, rational_str, vadd, vec, vsub,
                       vscale, vzero)


class NonIntegralPath(ValueError):
    """A root operator met a non-integral height minimum."""


def _canonical(vertices: tuple[Coords, ...]) -> tuple[Coords, ...]:
    # drop consecutive duplicates
    vs: list[Coords] = []
    for v in vertices:
        if not vs or v != vs[-1]:
            vs.append(v)
    # merge consecutive positive-parallel segments
    out: list[Coords] = vs[:1]
    for v in vs[1:]:
        if len(out) >= 2:
            d1 = vsub(out[-1], out[-2])
            d2 = vsub(v, out[-1])
            j = next((k for k, x in enumerate(d1) if x != 0), None)
            # d2 = c * d1 with c > 0, tested by cross-multiplying (ints must
            # not be divided into floats)
            if j is not None and d1[j] * d2[j] > 0 and all(
                    x * d2[j] == y * d1[j] for x, y in zip(d1, d2)):
                out[-1] = v
                continue
        out.append(v)
    return tuple(out)


@dataclass(frozen=True)
class PLPath(Element):
    datum: RootDatum
    vertices: tuple[Coords, ...]

    def __post_init__(self):
        if self.vertices[0] != vzero(self.datum.m):
            raise ValueError("paths must start at the origin")
        object.__setattr__(self, "vertices", _canonical(self.vertices))

    def wt(self) -> Coords:
        return self.vertices[-1]

    @cached_property
    def _height_cache(self) -> dict[int, tuple[Scalar, ...]]:
        return {}

    def _heights(self, i: int) -> tuple[Scalar, ...]:
        h = self._height_cache.get(i)
        if h is None:
            h = self._height_cache[i] = tuple(self.datum.pair(v, i) for v in self.vertices)
        return h

    def _min_height(self, i: int) -> tuple[tuple[Scalar, ...], int]:
        h = self._heights(i)
        m = min(h)
        if type(m) is not int:
            raise NonIntegralPath(f"height minimum {m} along alpha_{i} is not an integer")
        return h, m

    def eps(self, i: int) -> int:
        _, m = self._min_height(i)
        return -m

    def phi(self, i: int) -> int:
        h, m = self._min_height(i)
        top = h[-1] - m
        if type(top) is not int:
            raise NonIntegralPath(f"endpoint height {h[-1]} is not an integer")
        return top

    def _reflect_from(self, base: Coords, v: Coords, i: int) -> Coords:
        # base + s_i(v - base) = v - <v - base, alpha_i^vee> alpha_i
        return vsub(v, vscale(self.datum.pair(vsub(v, base), i), self.datum.simple_root(i)))

    @memoised_edge
    def f(self, i: int) -> "PLPath | None":
        h, m = self._min_height(i)
        if h[-1] - m < 1:
            return None
        jmax = max(j for j, x in enumerate(h) if x == m)
        # first index past jmax whose height reaches m+1 (continuity makes the
        # first such segment the true first crossing)
        jc = next(j for j in range(jmax + 1, len(h)) if h[j] >= m + 1)
        alpha = self.datum.simple_root(i)
        base = self.vertices[jmax]
        if h[jc] == m + 1:
            cross = self.vertices[jc]
            tail = self.vertices[jc + 1:]
            mids = self.vertices[jmax + 1: jc + 1]
        else:
            t = Fraction(m + 1 - h[jc - 1]) / (h[jc] - h[jc - 1])
            cross = vadd(self.vertices[jc - 1],
                         vscale(t, vsub(self.vertices[jc], self.vertices[jc - 1])))
            tail = self.vertices[jc:]
            mids = self.vertices[jmax + 1: jc] + (cross,)
        new = (self.vertices[: jmax + 1]
               + tuple(self._reflect_from(base, v, i) for v in mids)
               + tuple(vsub(v, alpha) for v in tail))
        return PLPath(self.datum, new)

    def _dual(self) -> "PLPath":
        end = self.vertices[-1]
        return PLPath(self.datum, tuple(vsub(v, end) for v in reversed(self.vertices)))

    @memoised_edge
    def e(self, i: int) -> "PLPath | None":
        up = self._dual().f(i)
        return None if up is None else up._dual()

    def payload(self) -> object:
        s = len(self.vertices) - 1
        breaks = ["0"] if s == 0 else [rational_str(Fraction(j, s)) for j in range(s + 1)]
        return {"model": "path",
                "breaks": breaks,
                "vertices": [[rational_str(x) for x in v] for v in self.vertices]}

    def skey(self):
        return ("path", self.vertices)


def straight_path(datum: RootDatum, lam: Coords) -> PLPath:
    """The path t -> t*lam, the highest element of B(lam) for dominant integral lam."""
    lam = datum.check_dominant_integral(vec(lam))
    zero = vzero(datum.m)
    if lam == zero:
        return PLPath(datum, (zero,))
    return PLPath(datum, (zero, lam))

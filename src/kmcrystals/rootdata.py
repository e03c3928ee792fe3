"""Symmetrizable Kac-Moody root data and exact Weyl group arithmetic.

A root datum packages a generalized Cartan matrix A together with a rational
coordinate realization of the weight lattice: column j of the matrix R holds
the coordinates of the simple root alpha_j, and row i of the matrix C reads
off the pairing with the simple coroot alpha_i^vee, so that C @ R == A.  All
arithmetic is exact: weights are tuples of exact scalars, Weyl group elements
act on the root lattice through integer matrices, and nothing is ever rounded.

One rule governs every exact scalar (coordinate, pairing, coefficient): it is
a plain int when it is integral and a Fraction only when its denominator
exceeds 1.  The vector helpers below and `_dot` restore the rule on every
result, so integral data never pay for Fraction arithmetic, while a rational
realization runs through the same code.  An int and a Fraction of equal value
compare and hash alike, so the rule changes no set, dict or printed output.

>>> sl2 = preset("A1")
>>> sl2.pair(sl2.fundamental_weight(1), 1)
1
>>> w = sl2.weyl((1,))
>>> w.act_weight(sl2.fundamental_weight(1))
(-1,)
>>> vscale(Fraction(1, 2), vec((2, 3)))
(1, Fraction(3, 2))
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cached_property

Scalar = int | Fraction
Coords = tuple[Scalar, ...]
RootCoords = tuple[Scalar, ...]
Word = tuple[int, ...]
IntMatrix = tuple[tuple[int, ...], ...]

# An element with more reduced-word letters than this in a descent strip is
# taken as evidence of a corrupted matrix rather than a long affine element.
_STRIP_CAP = 100_000


class NotGCM(ValueError):
    """The candidate matrix is not a generalized Cartan matrix."""


class NotSymmetrizable(ValueError):
    """No positive diagonal D with D @ A symmetric exists."""


class PairingInconsistent(ValueError):
    """The realization matrices R and C do not reproduce the Cartan matrix."""


class NotDominantIntegral(ValueError):
    """A weight required to be dominant integral is not."""


class WordNotReduced(ValueError):
    """A word handed to an operation that requires reducedness is not reduced."""


class InvariantBroken(AssertionError):
    """An internal invariant failed: a fault in the program, not in its input
    (a crystal axiom, a sorting word, a string length, a descent strip)."""


# ---------------------------------------------------------------------------
# exact vectors and small rational matrices


def _exact(x: Scalar) -> Scalar:
    """The scalar rule: an integral value as an int, any other as a Fraction."""
    return x.numerator if x.denominator == 1 else x


def _ruled(v: Coords) -> Coords:
    """Apply the scalar rule to a vector.  A result with no Fraction entry
    already obeys it; only Fraction arithmetic can yield an integral Fraction."""
    if Fraction in map(type, v):
        return tuple(map(_exact, v))
    return v


def vec(xs) -> Coords:
    return tuple(x if type(x) is int else _exact(Fraction(x)) for x in xs)


def vzero(m: int) -> Coords:
    return (0,) * m


def vadd(a: Coords, b: Coords) -> Coords:
    return _ruled(tuple(x + y for x, y in zip(a, b, strict=True)))


def vsub(a: Coords, b: Coords) -> Coords:
    return _ruled(tuple(x - y for x, y in zip(a, b, strict=True)))


def vscale(c, a: Coords) -> Coords:
    if type(c) is not int:
        c = _exact(Fraction(c))
    return _ruled(tuple(c * x for x in a))


def _dot(a, b) -> Scalar:
    s = sum(x * y for x, y in zip(a, b, strict=True))
    return s if type(s) is int else _exact(s)


def _mat_vec(rows, v):
    return tuple(_dot(r, v) for r in rows)


def _mat_mul_int(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    n = len(a)
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def _identity_int(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _gauss_jordan(matrix, rhs):
    """Solve matrix @ X == rhs by Gauss-Jordan elimination over the rationals.

    `matrix` is a sequence of rows and `rhs` holds one row of right-hand sides
    per row of `matrix`.  Returns X as a list of tuples, one per column of
    `matrix`, or None when the columns of `matrix` are dependent or the system
    is inconsistent.  Every entry follows the scalar rule, so a matrix with
    unit pivots is reduced in ints alone.
    """
    m = [vec(row) + vec(extra) for row, extra in zip(matrix, rhs, strict=True)]
    nrows, ncols = len(m), len(matrix[0])
    for c in range(ncols):
        piv = next((i for i in range(c, nrows) if m[i][c] != 0), None)
        if piv is None:
            return None  # column c depends on the earlier ones
        m[c], m[piv] = m[piv], m[c]
        if m[c][c] != 1:
            m[c] = vscale(Fraction(1, m[c][c]), m[c])
        pivot_row = m[c]
        for i in range(nrows):
            f = m[i][c]
            if i != c and f != 0:
                m[i] = _ruled(tuple(x - f * y for x, y in zip(m[i], pivot_row)))
    if any(x != 0 for row in m[ncols:] for x in row[ncols:]):
        return None  # inconsistent
    return [row[ncols:] for row in m[:ncols]]


def gauss_solve(matrix, rhs):
    """Solve matrix @ x = rhs over the rationals.

    `matrix` is a sequence of rows, `rhs` a vector of the same length.  Returns
    the unique solution as a tuple, or None when the system is singular or
    inconsistent.  Intended for the small dense systems this package meets.
    """
    x = _gauss_jordan(matrix, [(v,) for v in rhs])
    return None if x is None else tuple(row[0] for row in x)


def mat_inverse(matrix):
    """The exact inverse of a square matrix as a tuple of rows, or None when
    the matrix is singular (or not square).

    >>> mat_inverse([[2, 1], [1, 1]])
    ((1, -1), (-1, 2))
    >>> mat_inverse([[1, 2], [2, 4]]) is None
    True
    """
    x = _gauss_jordan(matrix, _identity_int(len(matrix)))
    return None if x is None else tuple(x)


def parse_rational(x) -> Fraction:
    """Accept ints, Fractions, and strings like '3' or '-5/2'."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise ValueError(f"cannot parse rational from {x!r}")


def rational_str(x: Scalar) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# the datum


@dataclass(frozen=True)
class RootDatum:
    """A symmetrizable Kac-Moody root datum with a rational weight realization.

    Fields: `n` simple roots, weight coordinates of dimension `m`, the Cartan
    matrix `cartan` (n x n integers), `roots[j]` the coordinates of
    alpha_{j+1} (length m), `pairing[i]` the linear functional of
    alpha_{i+1}^vee (length m), and `sym` a positive symmetrizer.  Simple-root
    and Weyl-letter indices are 1-based throughout the public interface.
    """

    name: str
    n: int
    m: int
    cartan: IntMatrix
    roots: tuple[Coords, ...]
    pairing: tuple[Coords, ...]
    sym: tuple[Scalar, ...]
    fundamentals: tuple[Coords, ...] | None = field(default=None, compare=False)

    # Every crystal element hashes its datum, so the hash of the exact
    # tables is computed once, over the fields `__eq__` compares.
    @cached_property
    def _hash(self) -> int:
        return hash((self.name, self.n, self.m, self.cartan, self.roots,
                     self.pairing, self.sym))

    def __hash__(self) -> int:
        return self._hash

    # A pickle carries the fields alone: the cached hash belongs to the
    # process that computed it, and the memos are rebuilt on demand.
    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    # -- basic linear data ---------------------------------------------------

    def simple_root(self, i: int) -> Coords:
        return self.roots[i - 1]

    def pair(self, mu: Coords, i: int) -> Scalar:
        """The evaluation <mu, alpha_i^vee>."""
        return _dot(self.pairing[i - 1], mu)

    def fundamental_weight(self, i: int) -> Coords:
        if self.fundamentals is None:
            raise ValueError(f"datum {self.name!r} carries no fundamental weights")
        return self.fundamentals[i - 1]

    def reflect_weight(self, i: int, mu: Coords) -> Coords:
        """s_i(mu) = mu - <mu, alpha_i^vee> alpha_i."""
        return vsub(mu, vscale(self.pair(mu, i), self.simple_root(i)))

    def is_integral(self, mu: Coords) -> bool:
        return all(self.pair(mu, i).denominator == 1 for i in range(1, self.n + 1))

    def is_dominant(self, mu: Coords) -> bool:
        return all(self.pair(mu, i) >= 0 for i in range(1, self.n + 1))

    def check_dominant_integral(self, mu: Coords) -> Coords:
        if not self.is_integral(mu):
            raise NotDominantIntegral(
                f"weight {weight_str(mu)} is not integral for {self.name!r}")
        if not self.is_dominant(mu):
            raise NotDominantIntegral(
                f"weight {weight_str(mu)} is not dominant for {self.name!r}")
        return mu

    @cached_property
    def _root_left_inverse(self):
        """Rows of L with L @ R == identity, via the exact normal equations."""
        n, m = self.n, self.m
        # gram = R^T R, invertible because the columns of R are independent
        gram = [[_dot(self.roots[a], self.roots[b]) for b in range(n)] for a in range(n)]
        ginv = mat_inverse(gram)
        if ginv is None:
            raise PairingInconsistent("columns of the root matrix are dependent")
        rt = [[self.roots[a][k] for k in range(m)] for a in range(n)]  # R^T rows
        return tuple(tuple(_dot(ginv[i], [rt[a][k] for a in range(n)]) for k in range(m))
                     for i in range(n))

    def root_coords(self, delta: Coords) -> RootCoords | None:
        """Write `delta` in the simple-root basis, or None if outside the span."""
        c = _mat_vec(self._root_left_inverse, delta)
        back = vzero(self.m)
        for j, cj in enumerate(c):
            back = vadd(back, vscale(cj, self.roots[j]))
        return c if back == delta else None

    @cached_property
    def _drops(self) -> dict[Coords, int]:
        return {}

    def weight_drop(self, top: Coords, mu: Coords) -> int:
        """Height of top - mu, which must be a nonnegative integer root-lattice vector.

        Valid differences are memoised; an invalid one is solved and rejected
        again on every query.
        """
        delta = vsub(top, mu)
        drop = self._drops.get(delta)
        if drop is not None:
            return drop
        c = self.root_coords(delta)
        if c is None:
            raise ValueError("weight difference lies outside the root lattice span")
        if any(type(x) is not int for x in c):
            raise ValueError("weight difference is not an integral root combination")
        drop = self._drops[delta] = sum(c)
        return drop

    # Complete Demazure sets keyed by (seed, word), filled by
    # `demazure.demazure_set`; they live as long as the datum.
    @cached_property
    def _demazure_sets(self) -> dict:
        return {}

    @cached_property
    def _edges(self) -> dict[str, dict[int, dict]]:
        """The crystal edges computed so far: for "e" and "f" and each colour
        i, a dict from an element to e_i or f_i of it (None included).

        Filled by `crystals.memoised_edge`, which wraps the root operators of
        every model.  The memo lives exactly as long as the datum: there is no
        size limit and no eviction, and an element is looked up only in the
        memo of its own datum object, so equal but distinct data never share
        entries.  Its elements point back at the datum, so the two form a
        reference cycle and are reclaimed together by the cyclic garbage
        collector once nothing else holds the datum.  The CLI builds a fresh
        datum per command, so each command's memo is freed with its datum.
        """
        return {op: {i: {} for i in range(1, self.n + 1)} for op in ("e", "f")}

    # -- Weyl group ----------------------------------------------------------

    def _gen_matrix(self, i: int) -> IntMatrix:
        """Action of s_i on root-lattice coordinates: alpha_j -> alpha_j - a_ij alpha_i."""
        row = self.cartan[i - 1]
        return tuple(
            tuple((1 if k == j else 0) - (row[j] if k == i - 1 else 0) for j in range(self.n))
            for k in range(self.n)
        )

    def identity(self) -> "WeylElement":
        eye = _identity_int(self.n)
        return WeylElement(self, eye, eye, ())

    def simple(self, i: int) -> "WeylElement":
        if not 1 <= i <= self.n:
            raise ValueError(f"simple reflection index {i} out of range 1..{self.n}")
        g = self._gen_matrix(i)
        return WeylElement(self, g, g, (i,))

    def weyl(self, word) -> "WeylElement":
        """The element s_{i_1} ... s_{i_k} for word = (i_1, ..., i_k)."""
        mat = inv = _identity_int(self.n)
        for i in word:
            g = self.simple(i).mat
            mat, inv = _mat_mul_int(mat, g), _mat_mul_int(g, inv)
        return WeylElement(self, mat, inv, _strip_word(self, mat))

    @cached_property
    def positive_roots(self) -> tuple[RootCoords, ...]:
        """All positive roots, in root coordinates.  Finite type only."""
        simples = [tuple(1 if k == j else 0 for k in range(self.n)) for j in range(self.n)]
        gens = [self._gen_matrix(i) for i in range(1, self.n + 1)]
        seen = set(simples)
        frontier = list(simples)
        while frontier:
            if len(seen) > 4096:
                raise ValueError("positive root enumeration requires finite type")
            nxt = []
            for c in frontier:
                for g in gens:
                    img = _mat_vec(g, c)
                    if img not in seen:
                        seen.add(img)
                        nxt.append(img)
            frontier = nxt
        pos = sorted(c for c in seen if all(x >= 0 for x in c))
        return tuple(pos)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "n": self.n,
            "m": self.m,
            "cartan": [list(r) for r in self.cartan],
            "roots": [[rational_str(x) for x in col] for col in self.roots],
            "pairing": [[rational_str(x) for x in row] for row in self.pairing],
        }


def _symmetrizer(cartan: IntMatrix) -> tuple[Scalar, ...]:
    """A positive diagonal d with d_i a_ij == d_j a_ji, or NotSymmetrizable."""
    n = len(cartan)
    d: list[Fraction | None] = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if cartan[i][j] == 0 or i == j:
                    continue
                want = d[i] * Fraction(cartan[i][j], cartan[j][i])
                if d[j] is None:
                    d[j] = want
                    stack.append(j)
                elif d[j] != want:
                    raise NotSymmetrizable("inconsistent ratios around a cycle")
    out = [x if x is not None else Fraction(1) for x in d]
    for i in range(n):
        for j in range(n):
            if out[i] * cartan[i][j] != out[j] * cartan[j][i]:
                raise NotSymmetrizable(f"d_i a_ij != d_j a_ji at ({i + 1},{j + 1})")
    if any(x <= 0 for x in out):
        raise NotSymmetrizable("symmetrizer is not positive")
    return tuple(map(_exact, out))


def validate_root_datum(name, n, m, cartan, roots, pairing, fundamentals=None) -> RootDatum:
    """Check every root-datum axiom and return the validated datum.

    `roots` is given column-wise (entry j holds the m coordinates of
    alpha_{j+1}); `pairing` row-wise (entry i holds the functional of
    alpha_{i+1}^vee).  Raises NotGCM, NotSymmetrizable, or PairingInconsistent.
    """
    cartan = tuple(tuple(int(x) for x in row) for row in cartan)
    if len(cartan) != n or any(len(r) != n for r in cartan):
        raise NotGCM(f"Cartan matrix must be {n}x{n}")
    for i in range(n):
        if cartan[i][i] != 2:
            raise NotGCM(f"diagonal entry a_{i + 1}{i + 1} = {cartan[i][i]} != 2")
        for j in range(n):
            if i != j and cartan[i][j] > 0:
                raise NotGCM(f"off-diagonal entry a_{i + 1}{j + 1} > 0")
            if (cartan[i][j] == 0) != (cartan[j][i] == 0):
                raise NotGCM(f"zero pattern asymmetric at ({i + 1},{j + 1})")
    sym = _symmetrizer(cartan)
    roots = tuple(vec(col) for col in roots)
    pairing = tuple(vec(row) for row in pairing)
    if len(roots) != n or any(len(col) != m for col in roots):
        raise PairingInconsistent(f"root matrix must have {n} columns of length {m}")
    if len(pairing) != n or any(len(row) != m for row in pairing):
        raise PairingInconsistent(f"pairing matrix must have {n} rows of length {m}")
    for i in range(n):
        for j in range(n):
            got = _dot(pairing[i], roots[j])
            if got != cartan[i][j]:
                raise PairingInconsistent(
                    f"<alpha_{j + 1}, alpha_{i + 1}^vee> = {got} but Cartan says {cartan[i][j]}")
    datum = RootDatum(name=name, n=n, m=m, cartan=cartan, roots=roots,
                      pairing=pairing, sym=sym,
                      fundamentals=None if fundamentals is None
                      else tuple(vec(f) for f in fundamentals))
    datum._root_left_inverse  # raises PairingInconsistent on dependent columns
    return datum


def datum_from_json(obj) -> RootDatum:
    """Build a datum from the documented JSON shape (dict or JSON string).

    The "roots" key holds the m x n matrix whose columns are the simple roots,
    given as m rows of length n; "pairing" holds the n x m matrix row-wise.
    """
    if isinstance(obj, str):
        obj = json.loads(obj)
    n = int(obj["n"])
    m = int(obj["m"])
    rows = [[parse_rational(x) for x in row] for row in obj["roots"]]
    if len(rows) != m or any(len(r) != n for r in rows):
        raise PairingInconsistent(f'"roots" must be an {m} x {n} matrix (rows of length {n})')
    cols = [tuple(rows[k][j] for k in range(m)) for j in range(n)]
    pairing = [[parse_rational(x) for x in row] for row in obj["pairing"]]
    return validate_root_datum(str(obj.get("name", "custom")), n, m,
                               obj["cartan"], cols, pairing)


def preset(name: str) -> RootDatum:
    """Built-in data: "A1", "A2", ... (simply laced, fundamental-weight
    coordinates) and "GL2", "GL3", ... (rank n-1 in n standard coordinates)."""
    key = name.strip().upper()
    if key.startswith("GL"):
        size = int(key[2:])
        if size < 2:
            raise ValueError("GL presets need size >= 2")
        n = size - 1
        cartan = [[2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n)]
                  for i in range(n)]
        cols = [tuple(1 if k == j else (-1 if k == j + 1 else 0) for k in range(size))
                for j in range(n)]
        funds = [tuple(1 if k <= i else 0 for k in range(size)) for i in range(n)]
        return validate_root_datum(key, n, size, cartan, cols, cols, funds)
    if key.startswith("A"):
        n = int(key[1:])
        if n < 1:
            raise ValueError("A presets need rank >= 1")
        cartan = [[2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n)]
                  for i in range(n)]
        cols = [tuple(cartan[k][j] for k in range(n)) for j in range(n)]
        unit = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
        return validate_root_datum(key, n, n, cartan, cols, unit, unit)
    raise ValueError(f"unknown preset {name!r}")


# ---------------------------------------------------------------------------
# Weyl elements


@dataclass(frozen=True)
class WeylElement:
    """A Weyl group element, identified by its action on the root lattice.

    Two elements are equal exactly when their integer matrices (and data)
    agree, independent of the words that produced them.  `rword` is the
    canonical reduced word found by descent stripping with smallest-index
    tie-breaking.
    """

    datum: RootDatum
    mat: IntMatrix
    inv: IntMatrix = field(compare=False)
    rword: Word = field(compare=False)

    @property
    def length(self) -> int:
        return len(self.rword)

    @property
    def is_identity(self) -> bool:
        return not self.rword

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        if self.datum is not other.datum and self.datum != other.datum:
            raise ValueError("cannot multiply elements over different data")
        mat = _mat_mul_int(self.mat, other.mat)
        inv = _mat_mul_int(other.inv, self.inv)
        return WeylElement(self.datum, mat, inv, _strip_word(self.datum, mat))

    def right_descent(self, i: int) -> bool:
        """True when l(w s_i) < l(w), i.e. w(alpha_i) < 0."""
        return _negates(self.mat, i)

    def left_descent(self, i: int) -> bool:
        """True when l(s_i w) < l(w), i.e. w^{-1}(alpha_i) < 0."""
        return _negates(self.inv, i)

    def act_weight(self, mu: Coords) -> Coords:
        for i in reversed(self.rword):
            mu = self.datum.reflect_weight(i, mu)
        return mu

    def act_root(self, coeffs: RootCoords) -> RootCoords:
        return _mat_vec(self.mat, coeffs)

    def inverse(self) -> "WeylElement":
        return WeylElement(self.datum, self.inv, self.mat,
                           _strip_word(self.datum, self.inv))

    def support(self) -> frozenset[int]:
        return frozenset(self.rword)

    def __repr__(self) -> str:
        return "e" if not self.rword else "*".join(f"s{i}" for i in self.rword)


def _negates(mat: IntMatrix, i: int) -> bool:
    """Whether the matrix sends alpha_i to a negative root (column i <= 0)."""
    return all(row[i - 1] <= 0 for row in mat)


def _strip_word(datum: RootDatum, mat: IntMatrix) -> Word:
    """Canonical reduced word by repeatedly removing the smallest right descent."""
    eye = _identity_int(datum.n)
    rec: list[int] = []
    cur = mat
    while cur != eye:
        if len(rec) > _STRIP_CAP:
            raise InvariantBroken("descent stripping did not terminate")
        for i in range(1, datum.n + 1):
            if _negates(cur, i):
                rec.append(i)
                cur = _mat_mul_int(cur, datum._gen_matrix(i))
                break
        else:
            raise InvariantBroken("non-identity element with no right descent")
    return tuple(reversed(rec))


def check_reduced(datum: RootDatum, word) -> WeylElement:
    """Build the element of `word` and insist the word is reduced."""
    word = tuple(int(i) for i in word)
    w = datum.weyl(word)
    if w.length != len(word):
        raise WordNotReduced(f"word {word} has length {w.length} < {len(word)}")
    return w


def in_parabolic(w: WeylElement, letters) -> bool:
    """Is w in the standard parabolic subgroup generated by {s_i : i in letters}?"""
    return w.support() <= frozenset(letters)


def _in_parabolic_by_stripping(w: WeylElement, letters) -> bool:
    # Second route, used to cross-check `in_parabolic` in the tests: strip
    # right descents using only the allowed letters and see whether we land
    # exactly at the identity.
    allowed = sorted(set(letters))
    cur = w
    while not cur.is_identity:
        for i in allowed:
            if cur.right_descent(i):
                cur = cur * w.datum.simple(i)
                break
        else:
            return False
    return True


def stabilizer_letters(datum: RootDatum, lam: Coords) -> frozenset[int]:
    """Indices i with <lam, alpha_i^vee> = 0, generating the stabilizer of lam."""
    datum.check_dominant_integral(lam)
    return frozenset(i for i in range(1, datum.n + 1) if datum.pair(lam, i) == 0)


def min_coset_rep(w: WeylElement, lam: Coords) -> WeylElement:
    """The minimal-length representative of w W_lam for dominant integral lam."""
    letters = sorted(stabilizer_letters(w.datum, lam))
    cur = w
    changed = True
    while changed:
        changed = False
        for i in letters:
            if cur.right_descent(i):
                cur = cur * w.datum.simple(i)
                changed = True
                break
    return cur


def bruhat_leq(u: WeylElement, w: WeylElement) -> bool:
    """Bruhat order: for a left descent s of w, u <= w iff min(u, su) <= sw,
    iterated on inverse matrices and lengths (two products per step)."""
    datum = w.datum
    uinv, lu, winv, lw = u.inv, u.length, w.inv, w.length
    while lu < lw:
        i = next(i for i in range(1, datum.n + 1) if _negates(winv, i))
        g = datum.simple(i).mat
        if _negates(uinv, i):
            uinv, lu = _mat_mul_int(uinv, g), lu - 1
        winv, lw = _mat_mul_int(winv, g), lw - 1
    return uinv == winv


def weyl_group_elements(datum: RootDatum, cap: int = 50_000) -> list[WeylElement]:
    """Every element of a finite Weyl group, sorted by (length, reduced word)."""
    seen = {datum.identity()}
    frontier = [datum.identity()]
    while frontier:
        if len(seen) > cap:
            raise ValueError("Weyl group enumeration requires finite type")
        nxt = []
        for w in frontier:
            for i in range(1, datum.n + 1):
                x = w * datum.simple(i)
                if x not in seen:
                    seen.add(x)
                    nxt.append(x)
        frontier = nxt
    return sorted(seen, key=lambda w: (w.length, w.rword))


# ---------------------------------------------------------------------------
# weight parsing and printing (shared by the CLI and the reports)

_OMEGA_NAMES = ("ω", "omega", "w")  # in decreasing parse priority


def parse_weight(datum: RootDatum, text: str) -> Coords:
    """Parse "0", "omega2", "ω1+ω2", "2ω1-ω3", or a coordinate vector "1,0,2"."""
    s = text.strip()
    if not s:
        raise ValueError("empty weight")
    if "," in s:
        return vec([parse_rational(p) for p in s.split(",")])
    if s == "0":
        return vzero(datum.m)
    total = vzero(datum.m)
    for chunk in s.replace("-", "+-").split("+"):
        chunk = chunk.strip()
        if not chunk:
            continue
        sign = 1
        if chunk.startswith("-"):
            sign = -1
            chunk = chunk[1:].strip()
        body = None
        for nm in _OMEGA_NAMES:
            pos = chunk.find(nm)
            if pos >= 0:
                coeff = chunk[:pos].strip()
                body = (Fraction(coeff) if coeff else 1, int(chunk[pos + len(nm):]))
                break
        if body is None:
            raise ValueError(f"cannot parse weight term {chunk!r}")
        c, idx = body
        if not 1 <= idx <= datum.n:
            raise ValueError(f"fundamental weight index {idx} out of range")
        total = vadd(total, vscale(sign * c, datum.fundamental_weight(idx)))
    return total


def parse_word(text: str) -> Word:
    """Parse "2,1,3,2" (or "" for the identity) as a 1-based Weyl word."""
    s = text.strip()
    if not s or s.lower() in {"e", "id"}:
        return ()
    return tuple(int(p) for p in s.split(","))


def weight_str(mu: Coords) -> str:
    return "(" + ",".join(rational_str(x) for x in mu) + ")"


def word_str(word: Word) -> str:
    return "e" if not word else " ".join(f"s{i}" for i in word)

"""The crystal B(infinity) as exponent sequences along a cyclic index word.

An element is a finitely supported sequence (a_1, a_2, a_3, ...) of
nonnegative integers, position k carrying the color iota(k) = ((k-1) mod n)+1.
Position k stands for the k-th factor counted from the right in the iterated
embedding of B(infinity) into elementary crystals ... (x) B_{iota(2)} (x)
B_{iota(1)}, so the zero sequence is the highest element b_infinity and f_1 of
it is (1, 0, 0, ...).

The operators are the tensor signature rule specialized to elementary
factors.  With h_k = -a_k * a_{i,iota(k)} (the i-pairing of the weight of
position k) put

    P(k) = -a_k + sum_{k' < k} h_{k'}        for positions of color i;

f_i bumps the entry at the smallest position maximizing P, where positions
beyond the support count as one virtual candidate with P equal to
<wt, alpha_i^vee>; e_i decrements the largest maximizer and returns None when
eps_i = 0.  The dual bracket B(k) = a_k - sum_{k' > k} h_{k'} differs from
P(k) by the constant <wt, alpha_i^vee>, has the same maximizers, and gives
eps_i = max(0, max_k B(k)).

A nonzero `offset` nu turns the model into B(infinity; nu): the abstract
crystal with the same strings but weights shifted so the highest element
weighs nu.  That is the shape in which Demazure pieces of B(infinity) get
matched against tensor components.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .crystals import Element, memoised_edge
from .rootdata import Coords, RootDatum, _ruled, rational_str, vec, vzero


@dataclass(frozen=True, slots=True)
class BSeq(Element):
    datum: RootDatum
    entries: tuple[int, ...] = ()
    offset: Coords = field(default=())
    # hash of the compared fields, computed once: every memo lookup hashes
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ent = tuple(int(a) for a in self.entries)
        while ent and ent[-1] == 0:
            ent = ent[:-1]
        if any(a < 0 for a in ent):
            raise ValueError("sequence entries must be nonnegative")
        object.__setattr__(self, "entries", ent)
        off = vec(self.offset) if self.offset else vzero(self.datum.m)
        if len(off) != self.datum.m:
            raise ValueError("offset has the wrong dimension")
        if not self.datum.is_integral(off):
            raise ValueError("offset must be an integral weight")
        object.__setattr__(self, "offset", off)
        object.__setattr__(self, "_hash", hash((self.datum, ent, off)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt when loaded, so the hash is that of the loading process
        return type(self), (self.datum, self.entries, self.offset)

    def iota(self, k: int) -> int:
        return ((k - 1) % self.datum.n) + 1

    def wt(self) -> Coords:
        # sum the entries of each colour, then subtract one multiple of each
        # simple root; the scalar rule is applied once, to the result
        n = self.datum.n
        out = self.offset
        for c, root in enumerate(self.datum.roots):
            total = sum(self.entries[c::n])
            if total:
                out = tuple(x - total * r for x, r in zip(out, root))
        return _ruled(out)

    @classmethod
    def _derived(cls, datum: RootDatum, entries: tuple[int, ...], offset: Coords) -> "BSeq":
        """The result of e_i or f_i on a validated sequence.

        Its entries are nonnegative and its offset is the validated one it came
        from, so only trailing zeros need trimming; the public constructor
        keeps every check for outside input.
        """
        while entries and entries[-1] == 0:
            entries = entries[:-1]
        x = object.__new__(cls)
        object.__setattr__(x, "datum", datum)
        object.__setattr__(x, "entries", entries)
        object.__setattr__(x, "offset", offset)
        object.__setattr__(x, "_hash", hash((datum, entries, offset)))
        return x

    def _brackets(self, i: int) -> list[tuple[int, int]]:
        """(position, B(position)) for the stored positions of color i."""
        row = self.datum.cartan[i - 1]
        n = self.datum.n
        ent = self.entries
        out = []
        suffix = 0
        for k in range(len(ent), 0, -1):
            a = ent[k - 1]
            color = (k - 1) % n
            if color == i - 1:
                out.append((k, a - suffix))
            # h_k, the i-pairing of the weight -a_k alpha_{iota(k)} at position k
            suffix -= a * row[color]
        out.reverse()
        return out

    def eps(self, i: int) -> int:
        br = self._brackets(i)
        return max(0, max((b for _, b in br), default=0))

    def phi(self, i: int) -> int:
        # <wt, alpha_i^vee> = <offset, alpha_i^vee> - sum_k a_k a_{i, iota(k)};
        # the offset pairing is an int because the offset is integral
        row = self.datum.cartan[i - 1]
        n = self.datum.n
        drop = sum(a * row[k % n] for k, a in enumerate(self.entries))
        return self.eps(i) + self.datum.pair(self.offset, i) - drop

    @memoised_edge
    def e(self, i: int) -> "BSeq | None":
        br = self._brackets(i)
        if not br:
            return None
        best = max(b for _, b in br)
        if best <= 0:
            return None
        k = max(k for k, b in br if b == best)
        ent = list(self.entries)
        ent[k - 1] -= 1
        return BSeq._derived(self.datum, tuple(ent), self.offset)

    @memoised_edge
    def f(self, i: int) -> "BSeq":
        # P and B share maximizers; the virtual tail position has B = 0
        br = self._brackets(i)
        best = max(0, max((b for _, b in br), default=0))
        ks = [k for k, b in br if b == best]
        if best == 0:
            first_free = len(self.entries) + 1
            while self.iota(first_free) != i:
                first_free += 1
            ks.append(first_free)
        k = min(ks)
        ent = list(self.entries)
        while len(ent) < k:
            ent.append(0)
        ent[k - 1] += 1
        return BSeq._derived(self.datum, tuple(ent), self.offset)

    def payload(self) -> object:
        out = {"model": "bseq",
               "entries": [[k, a] for k, a in enumerate(self.entries, start=1) if a]}
        if any(x != 0 for x in self.offset):
            out["offset"] = [rational_str(x) for x in self.offset]
        return out

    def skey(self):
        return ("bseq", self.offset, self.entries)


def binf_top(datum: RootDatum, offset: Coords | None = None) -> BSeq:
    """b_infinity, or the highest element of B(infinity; offset)."""
    return BSeq(datum, (), offset if offset is not None else vzero(datum.m))


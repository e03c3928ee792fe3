"""The benchmark's workloads: named CLI inputs, and seeded held-out inputs.

Every operation is one `kmcrystals` CLI call with `--format json`.  Input set
0 is the named set, whose outputs are also gated by recorded digests and
paper tables.  Any other input set draws inputs of the same shape from its
own random stream: A3 words of the same lengths that satisfy the support
criterion, the same depths, and dominant weights of the same degrees.  The
Weyl group arithmetic here (type A as permutations) is the benchmark's own,
independent of the package under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import factorial

WHY = {
    "a3-infinity": "A3 infinity-mode decompositions: BSeq e/f, WindowedClosure "
                   "rebuilds, recognition DFS and weight_drop dominate",
    "a2-sweep": "all 72 (v, w) pairs of W(A2): many small problems, the only "
                "workload that runs is_extremal and the induced-set walk",
    "finite-gl3": "finite mode only (PLPath Fraction arithmetic, key_expand, "
                  "demazure_op, 159 KB JSON); never touches B(infinity)",
}


@dataclass(frozen=True)
class Op:
    """One CLI call and what its output must satisfy."""

    argv: tuple[str, ...]
    kind: str                      # decompose | check | keyprod | graph
    rank: int                      # n of the type A datum (GL_{n+1} or A_n)
    lam: tuple[int, ...] = ()      # graph: the dominant weight, in ω-coordinates
    word: tuple[int, ...] = ()     # graph: w; decompose: v
    table: str | None = None       # paper table to compare against: "unu" | "y"

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def preset(self) -> str:
        return self.argv[self.argv.index("--preset") + 1]


def _csv(xs) -> str:
    return ",".join(str(x) for x in xs)


def _decompose(lam: str, v, w, depth: int, table=None) -> Op:
    argv = ("decompose", "--preset", "A3", "--lambda", lam, "--w", _csv(w),
            "--mode", "infinity", "--v", _csv(v), "--depth", str(depth),
            "--format", "json")
    return Op(argv, "decompose", 3, word=tuple(v), table=table)


def _check(lam, mu, depth) -> Op:
    argv = ["check", "--preset", "A2", "--all-vw", "--lambda", _csv(lam)]
    argv += ["--mu", _csv(mu)] if mu is not None else ["--mode", "infinity", "--depth", str(depth)]
    return Op(tuple(argv + ["--format", "json"]), "check", 2)


def _keyprod(lam, mu) -> Op:
    argv = ("keyprod", "--preset", "GL3", "--lambda", _csv(lam), "--mu", _csv(mu),
            "--format", "json")
    return Op(argv, "keyprod", 2)


def _graph(lam, w) -> Op:
    argv = ("graph", "--preset", "A3", "--lambda", _csv(lam), "--w", _csv(w),
            "--format", "json")
    return Op(argv, "graph", 3, lam=tuple(lam), word=tuple(w))


def _named(workload: str) -> list[Op]:
    if workload == "a3-infinity":
        w = (2, 1, 3, 2)
        return [_decompose("ω2", (2,), w, 6, "unu"),
                _decompose("ω2", (), w, 6, "y"),
                _decompose("ω2", (2,), w, 8)]
    if workload == "a2-sweep":
        return [_check((1, 1), (1, 1), None), _check((1, 0), None, 5)]
    return [_keyprod((1, 1, 0), (1, 1, 0)), _keyprod((2, 2, 0), (2, 1, 0)),
            _graph((2, 2, 2), (1, 2, 3, 1, 2, 1))]


# -- type A Weyl groups as permutations of 0..n -------------------------------


def perm(word, n: int) -> tuple[int, ...]:
    """One-line notation of s_{i_1} ... s_{i_k} in S_{n+1}."""
    p = list(range(n + 1))
    for i in word:
        p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def length(p) -> int:
    return sum(1 for a in range(len(p)) for b in range(a + 1, len(p)) if p[a] > p[b])


def left_descent(p, i: int) -> bool:
    """l(s_i w) < l(w): s_i swaps the values i-1 and i."""
    q = tuple(i if x == i - 1 else i - 1 if x == i else x for x in p)
    return length(q) < length(p)


def random_reduced_word(rng: random.Random, n: int, size: int) -> tuple[int, ...]:
    """A reduced word of the given length in type A_n, grown one random
    length-increasing letter at a time."""
    word: list[int] = []
    while len(word) < size:
        grow = [i for i in range(1, n + 1) if length(perm(word + [i], n)) == len(word) + 1]
        word.append(rng.choice(grow))
    return tuple(word)


def _partitions(total: int, parts: int, cap: int | None = None):
    """Weakly decreasing nonnegative tuples of the given sum."""
    cap = total if cap is None else cap
    if parts == 1:
        if total <= cap:
            yield (total,)
        return
    for head in range(min(total, cap), -1, -1):
        for rest in _partitions(total - head, parts - 1, head):
            yield (head,) + rest


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _held_out(workload: str, inputs: int) -> list[Op]:
    rng = random.Random(f"{workload}:{inputs}")
    if workload == "a3-infinity":
        j = rng.randint(1, 3)
        while True:
            w = random_reduced_word(rng, 3, 4)
            if left_descent(perm(w, 3), j):
                break
        lam = _csv(1 if k == j else 0 for k in range(1, 4))
        return [_decompose(lam, (j,), w, 6), _decompose(lam, (), w, 6),
                _decompose(lam, (j,), w, 8)]
    if workload == "a2-sweep":
        degree2 = list(_compositions(2, 2))
        return [_check(rng.choice(degree2), rng.choice(degree2), None),
                _check(rng.choice([(1, 0), (0, 1)]), None, 5)]
    two = list(_partitions(2, 3))
    return [_keyprod(rng.choice(two), rng.choice(two)),
            _keyprod(rng.choice(list(_partitions(4, 3))),
                     rng.choice(list(_partitions(3, 3)))),
            _graph(rng.choice(list(_compositions(6, 3))), random_reduced_word(rng, 3, 6))]


def operations(workload: str, inputs: int = 0) -> list[Op]:
    """The workload's operations for input set `inputs` (0 = the named set)."""
    if workload not in WHY:
        raise ValueError(f"unknown workload {workload!r}")
    return _named(workload) if inputs == 0 else _held_out(workload, inputs)


def ordered(ops: list[Op], seed: int) -> list[Op]:
    """The order of the operations within a pass, drawn from `seed`."""
    out = list(ops)
    random.Random(seed).shuffle(out)
    return out


def weyl_order(rank: int) -> int:
    return factorial(rank + 1)

"""Correctness gates on the CLI output of one operation.

`check(op, result, digests)` returns the list of problems (empty when the
operation passed) and the work counts read from the output.  The checks come
from sources independent of the code under test:

- the paper's (u, ν) table for the flagship and y table for the identity
  case (the same tables `tests/test_acceptance.py` encodes);
- the report's own invariants: `partition_ok`, `matched`, component sizes
  adding up to the product, `agree` on every pair, no inconclusive verdict,
  `ok` for keyprod;
- the graph's character against Δ_w e^λ, computed here from the closed form
  of the Demazure operator;
- for the named inputs, the sha256 of stdout recorded at the seed commit.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from fractions import Fraction

from workloads import Op, perm, weyl_order

# A3 in ω-coordinates: α_i is column i of the Cartan matrix.
_A3_ALPHA = ((2, -1, 0), (-1, 2, -1), (0, -1, 2))
_OM2 = (0, 1, 0)


def _minus(base, *roots):
    out = list(base)
    for i in roots:
        out = [a - b for a, b in zip(out, _A3_ALPHA[i - 1])]
    return tuple(out)


# (u word, ν) for B_{s2}(ω2) ⊗ B_{s2s1s3s2}(∞), and y for B_e(ω2) ⊗ the same.
PAPER_UNU = [((2, 1, 3), _OM2),
             ((2, 3, 1, 2), _minus(_OM2, 2)),
             ((2, 1, 2), _minus(_OM2, 1, 2)),
             ((2, 3, 2), _minus(_OM2, 2, 3)),
             ((2, 1, 3), _minus(_OM2, 1, 2, 3)),
             ((2, 1, 3, 2), _minus(_OM2, 1, 2, 2, 3))]
PAPER_UNU_DEPTHS = [0, 1, 2, 2, 3, 4]
PAPER_Y = [(1, 3), (3, 1, 2), (2, 1, 2), (2, 3, 2), (2, 1, 3), (2, 1, 3, 2)]

COUNT_KEYS = ("product_elements", "components", "pairs", "keyprod_checked",
              "keyprod_skipped", "graph_elements")


def _vec(strings) -> tuple[Fraction, ...]:
    return tuple(Fraction(s) for s in strings)


def demazure_character(lam, word, alpha) -> Counter:
    """Δ_{i_1} ⋯ Δ_{i_k} e^λ in ω-coordinates, where <μ, α_i^∨> = μ_i and
    Δ_i e^μ = e^μ + e^{μ-α_i} + ... + e^{s_i μ} for μ_i >= 0, 0 for μ_i = -1,
    and -(e^{μ+α_i} + ... + e^{s_i μ - α_i}) for μ_i <= -2."""
    chi = Counter({tuple(Fraction(x) for x in lam): 1})
    for i in reversed(word):
        a = alpha[i - 1]
        out: Counter = Counter()
        for mu, c in chi.items():
            m = int(mu[i - 1])
            if m >= 0:
                for k in range(m + 1):
                    out[tuple(x - k * y for x, y in zip(mu, a))] += c
            else:
                for k in range(1, -m):
                    out[tuple(x + k * y for x, y in zip(mu, a))] -= c
        chi = Counter({mu: c for mu, c in out.items() if c})
    return chi


def _decompose(op: Op, out: dict, problems: list, counts: Counter) -> None:
    comps = out["components"]
    checks = out["checks"]
    counts["product_elements"] += checks["total_size"]
    counts["components"] += len(comps)
    if checks["partition_ok"] is not True:
        problems.append("partition_ok is not true")
    if not all(c["matched"] is True for c in comps):
        problems.append("a component is not matched")
    if sum(c["size"] for c in comps) != checks["total_size"]:
        problems.append("component sizes do not add up to the product")
    n = op.rank
    if not op.word and any(perm(c["u_word"], n) != perm(c["y_word"], n) for c in comps):
        problems.append("u != y although v is the identity")
    if op.table == "unu":
        got = Counter((perm(c["u_word"], n), _vec(c["nu"])) for c in comps)
        want = Counter((perm(u, n), _vec(nu)) for u, nu in PAPER_UNU)
        if got != want:
            problems.append("(u, nu) table differs from the paper")
        if [c["primitive_depth"] for c in comps] != PAPER_UNU_DEPTHS:
            problems.append("primitive depths differ from the paper")
    elif op.table == "y":
        got = Counter(perm(c["y_word"], n) for c in comps)
        if got != Counter(perm(y, n) for y in PAPER_Y):
            problems.append("y table differs from the paper")


def _check(op: Op, out: dict, problems: list, counts: Counter) -> None:
    rows, summary = out["records"], out["summary"]
    counts["pairs"] += summary["pairs"]
    if not summary["pairs"] == len(rows) == weyl_order(op.rank) ** 2:
        problems.append(f"{summary['pairs']} pairs, expected the whole W x W")
    if summary["agree"] != summary["pairs"] or not all(r["agree"] is True for r in rows):
        problems.append("a pair disagrees")
    if summary["inconclusive"] != 0:
        problems.append(f"{summary['inconclusive']} inconclusive verdicts")


def _keyprod(op: Op, out: dict, problems: list, counts: Counter) -> None:
    rows = out["records"]
    counts["keyprod_checked"] += out["pairs_checked"]
    counts["keyprod_skipped"] += out["pairs_skipped"]
    if out["ok"] is not True:
        problems.append("keyprod ok is not true")
    if not all(r["agree"] is True and r["nonneg"] is True for r in rows):
        problems.append("a key expansion disagrees or is negative")
    if out["pairs_checked"] != len(rows) or (
            out["pairs_checked"] + out["pairs_skipped"] != weyl_order(op.rank) ** 2):
        problems.append("pair counts do not cover W x W")


def _graph(op: Op, out: dict, problems: list, counts: Counter) -> None:
    els, meta = out["elements"], out["meta"]
    counts["graph_elements"] += len(els)
    if meta["size"] != len(els) or meta["truncated"] is not False:
        problems.append("graph metadata is inconsistent")
    wts = [_vec(e["wt"]) for e in els]
    for edge in out["edges"]:
        a = _A3_ALPHA[edge["i"] - 1]
        if wts[edge["to"]] != tuple(x - y for x, y in zip(wts[edge["from"]], a)):
            problems.append("an f-edge does not lower the weight by alpha_i")
            break
    if Counter(wts) != demazure_character(op.lam, op.word, _A3_ALPHA):
        problems.append("graph character differs from the Demazure operator character")


_GATES = {"decompose": _decompose, "check": _check, "keyprod": _keyprod, "graph": _graph}


def check(op: Op, result: dict, digests: dict | None) -> tuple[list[str], Counter]:
    """Problems with one operation's result, and the work counts it reports."""
    problems: list[str] = []
    counts: Counter = Counter()
    if result["error"] is not None:
        return [f"raised {result['error']}"], counts
    if result["code"] != 0:
        return [f"exit code {result['code']}"], counts
    text = result["stdout"]
    if digests is not None:
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if digest != digests.get(op.key):
            problems.append("stdout digest differs from the one recorded at the seed")
    try:
        out = json.loads(text)
        _GATES[op.kind](op, out, problems, counts)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problems.append(f"malformed output: {type(exc).__name__}: {exc}")
    return problems, counts

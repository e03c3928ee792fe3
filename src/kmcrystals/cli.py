"""Command line interface.

Four subcommands: `decompose` splits a Demazure tensor product into its
components, `check` runs the criterion / extremality / decomposability
comparison (optionally over every pair of Weyl elements), `graph` emits a
crystal graph, and `keyprod` verifies that character products expand
positively in keys (Demazure characters) on finite-type data.

Exit codes: 0 success, 1 configuration problems (bad flags, malformed datum,
non-reduced words), 2 the support criterion fails, 3 a verification that must
hold did not, or an internal check failed (a crystal axiom or another
invariant of the program; reported without a traceback).
Output is deterministic: identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys

from .binfinity import binf_top
from .characters import NotInSpan, verify_key_positivity
from .demazure import (CriterionFails, EquivalenceViolation,
                       VerificationMismatch, check_equivalence,
                       decompose_tensor, demazure_set)
from .paths import straight_path
from .rootdata import (InvariantBroken, NotDominantIntegral, NotGCM,
                       NotSymmetrizable, PairingInconsistent, WordNotReduced,
                       check_reduced, datum_from_json, parse_weight,
                       parse_word, preset, rational_str, vadd, vsub,
                       weight_str, weyl_group_elements, word_str)

_CONFIG_ERRORS = (NotGCM, NotSymmetrizable, PairingInconsistent,
                  NotDominantIntegral, WordNotReduced, NotInSpan, ValueError,
                  OSError, KeyError, json.JSONDecodeError)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route that through the
    # config-error path (exit 1) instead.
    def error(self, message):
        raise ValueError(message)


def _depth(text: str) -> int:
    try:
        depth = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid depth {text!r}") from None
    if depth < 0:
        raise argparse.ArgumentTypeError(f"depth must be nonnegative, got {depth}")
    return depth


def _get_datum(args):
    if args.preset:
        return preset(args.preset)
    with open(args.datum, encoding="utf-8") as fh:
        return datum_from_json(json.load(fh))


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="kmcrystals",
                description="Demazure crystals, tensor decompositions, and "
                            "character identities over symmetrizable root data.")
    # the options every subcommand takes
    common = argparse.ArgumentParser(add_help=False)
    g = common.add_mutually_exclusive_group(required=True)
    g.add_argument("--preset", help='built-in datum, e.g. "A3" or "GL3"')
    g.add_argument("--datum", metavar="FILE", help="root datum as a JSON file")
    common.add_argument("--out", help="write output to this file instead of stdout")
    common.add_argument("--seed", type=int, help="recorded in the output metadata")
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("decompose", parents=[common], help="decompose B_v(λ) ⊗ B_w(μ or ∞)")
    d.add_argument("--lambda", dest="lam", required=True, help='dominant weight, e.g. "ω2" or "1,1,0"')
    d.add_argument("--mu", help="dominant weight for the finite mode")
    d.add_argument("--v", default="", help='reduced word, e.g. "2" or "2,1,3,2" ("e" = identity)')
    d.add_argument("--w", default="", help="reduced word")
    d.add_argument("--mode", choices=("finite", "infinity"), default="finite")
    d.add_argument("--depth", type=_depth, help="enumeration window for the infinity mode")
    d.add_argument("--format", choices=("table", "json"), default="table")

    c = sub.add_parser("check", parents=[common],
                       help="criterion / extremality / decomposability comparison")
    c.add_argument("--lambda", dest="lam", required=True)
    c.add_argument("--mu")
    c.add_argument("--v", default="")
    c.add_argument("--w", default="")
    c.add_argument("--all-vw", action="store_true",
                   help="sweep every ordered pair (v, w) of the full Weyl group")
    c.add_argument("--mode", choices=("finite", "infinity"), default="finite")
    c.add_argument("--depth", type=_depth)
    c.add_argument("--format", choices=("table", "json"), default="table")

    g = sub.add_parser("graph", parents=[common],
                       help="emit the crystal graph of B_w(λ) or B_w(∞)")
    g.add_argument("--lambda", dest="lam", help="needed in the finite mode")
    g.add_argument("--w", default="")
    g.add_argument("--mode", choices=("finite", "infinity"), default="finite")
    g.add_argument("--depth", type=_depth)
    g.add_argument("--format", choices=("dot", "json"), default="dot")

    k = sub.add_parser("keyprod", parents=[common],
                       help="key positivity of ch·ch on finite-type data")
    k.add_argument("--lambda", dest="lam", required=True)
    k.add_argument("--mu", required=True)
    k.add_argument("--format", choices=("table", "json"), default="table")

    return p


def _mu(datum, args):
    """The dominant weight --mu in the finite mode, None in the infinity mode
    (which needs --depth instead)."""
    if args.mode == "infinity":
        if args.depth is None:
            raise ValueError("--mode infinity requires --depth")
        return None
    if args.mu is None:
        raise ValueError("--mode finite requires --mu")
    return datum.check_dominant_integral(parse_weight(datum, args.mu))


def _meta(args) -> dict:
    return {"seed": args.seed}


def _emit(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _nu_decomposed(datum, base, name, nu) -> str:
    """Render nu as `name`, the weight `base`, plus or minus simple roots: "λ+μ-α1"."""
    coeffs = datum.root_coords(vsub(base, nu))
    if coeffs is None:
        return weight_str(nu)
    parts = []
    for i, c in enumerate(coeffs, start=1):
        if c == 0:
            continue
        mag = "" if abs(c) == 1 else rational_str(abs(c))
        parts.append(f"{'-' if c > 0 else '+'}{mag}α{i}")
    return name + "".join(parts)


# ---------------------------------------------------------------------------
# subcommands


def _run_decompose(args) -> int:
    datum = _get_datum(args)
    lam = datum.check_dominant_integral(parse_weight(datum, args.lam))
    v = check_reduced(datum, parse_word(args.v))
    w = check_reduced(datum, parse_word(args.w))
    mu = _mu(datum, args)
    report = decompose_tensor(datum, v, lam, w, mu, depth=args.depth)

    if args.format == "json":
        payload = report.to_json()
        payload["meta"] = _meta(args)
        _emit(_dumps(payload), args.out)
        return 0

    right_name = "B_w(∞)" if mu is None else "B_w(μ)"
    lines = [f"decomposition of B_v(λ) ⊗ {right_name} over {datum.name}",
             f"  v = {word_str(parse_word(args.v))}   (v_min = {word_str(report.vmin.rword)})",
             f"  w = {word_str(parse_word(args.w))}",
             f"  λ = {weight_str(lam)}"]
    if mu is not None:
        lines.append(f"  μ = {weight_str(mu)}")
    if args.depth is not None:
        lines.append(f"  depth = {args.depth}")
    lines.append(f"criterion holds; letters = {{{','.join(map(str, sorted(report.letters)))}}}")
    lines.append(f"components ({len(report.components)}):")
    # measure ν from the product's top weight: λ+μ, or λ as b_∞ has weight 0
    base, name = (lam, "λ") if mu is None else (vadd(lam, mu), "λ+μ")
    header = f"  {'#':>2}  {'d0':>3}  {'ν':<22} {'ν from ' + name:<26} {'u':<18} {'size':>5}"
    lines.append(header)
    for k, comp in enumerate(report.components, start=1):
        lines.append(f"  {k:>2}  {comp.primitive_depth:>3}  "
                     f"{weight_str(comp.nu):<22} "
                     f"{_nu_decomposed(datum, base, name, comp.nu):<26} "
                     f"{word_str(comp.u.rword):<18} {comp.size:>5}")
    lines.append(f"total elements = {report.total_size}; partition ok")
    if report.primitives_saturated is not None:
        says = "yes" if report.primitives_saturated else "no (deepen to be sure)"
        lines.append(f"primitive list saturated within the window: {says}")
    _emit("\n".join(lines), args.out)
    return 0


def _check_one(datum, v, w, lam, mu, depth):
    rec = check_equivalence(datum, v, lam, w, mu, depth=depth)
    return {"v_word": list(v.rword), "w_word": list(w.rword), **rec.to_json()}


def _run_check(args) -> int:
    datum = _get_datum(args)
    lam = datum.check_dominant_integral(parse_weight(datum, args.lam))
    mu = _mu(datum, args)

    if args.all_vw:
        group = weyl_group_elements(datum)
        pairs = [(v, w) for v in group for w in group]
    else:
        pairs = [(check_reduced(datum, parse_word(args.v)),
                  check_reduced(datum, parse_word(args.w)))]

    rows = [_check_one(datum, v, w, lam, mu, args.depth) for v, w in pairs]
    inconclusive = sum(1 for r in rows
                       if r["extremal"] == "inconclusive"
                       or r["decomposable"] == "inconclusive")
    summary = {"pairs": len(rows), "agree": sum(1 for r in rows if r["agree"]),
               "criterion_holds": sum(1 for r in rows if r["criterion"]),
               "inconclusive": inconclusive}

    if args.format == "json":
        _emit(_dumps({"records": rows, "summary": summary, "meta": _meta(args)}),
              args.out)
        return 0
    lines = [f"equivalence check over {datum.name}; λ = {weight_str(lam)}"
             + ("" if mu is None else f", μ = {weight_str(mu)}")
             + ("" if args.depth is None else f", depth = {args.depth}")]
    for r in rows:
        lines.append(f"  v={word_str(tuple(r['v_word'])):<14} "
                     f"w={word_str(tuple(r['w_word'])):<14} "
                     f"criterion={'T' if r['criterion'] else 'F'} "
                     f"extremal={r['extremal']:<12} "
                     f"decomposable={r['decomposable']:<12} "
                     f"agree={'T' if r['agree'] else 'F'}")
    lines.append(f"pairs = {summary['pairs']}; agree = {summary['agree']}; "
                 f"criterion holds = {summary['criterion_holds']}; "
                 f"inconclusive = {summary['inconclusive']}")
    _emit("\n".join(lines), args.out)
    return 0


def _run_graph(args) -> int:
    datum = _get_datum(args)
    w = check_reduced(datum, parse_word(args.w))
    if args.mode == "infinity":
        if args.depth is None:
            raise ValueError("--mode infinity requires --depth")
        xset = demazure_set(binf_top(datum), w, window=args.depth)
    else:
        if args.lam is None:
            raise ValueError("--mode finite requires --lambda")
        lam = datum.check_dominant_integral(parse_weight(datum, args.lam))
        xset = demazure_set(straight_path(datum, lam), w)
    if args.format == "json":
        payload = xset.to_json()
        payload["meta"].update(_meta(args))
        _emit(_dumps(payload), args.out)
    else:
        _emit(xset.to_dot(), args.out)
    return 0


def _run_keyprod(args) -> int:
    datum = _get_datum(args)
    lam = datum.check_dominant_integral(parse_weight(datum, args.lam))
    mu = datum.check_dominant_integral(parse_weight(datum, args.mu))
    report = verify_key_positivity(datum, lam, mu)

    def ckey(c):
        return ",".join(str(x) for x in c)

    if args.format == "json":
        rows = [{"v_word": list(r.v.rword), "w_word": list(r.w.rword),
                 "swapped": r.swapped,
                 "expansion": {ckey(c): a for c, a in sorted(r.expansion.items())},
                 "agree": r.agree, "nonneg": r.nonneg}
                for r in report.records]
        payload = {"records": rows, "ok": report.ok,
                   "pairs_checked": report.pairs_checked,
                   "pairs_skipped": report.pairs_skipped,
                   "meta": _meta(args)}
        _emit(_dumps(payload), args.out)
    else:
        lines = [f"key expansion of ch B_v(λ)·ch B_w(μ) over {datum.name}; "
                 f"λ = {weight_str(lam)}, μ = {weight_str(mu)}"]
        for r in report.records:
            terms = " + ".join(
                (f"{a}·" if a != 1 else "") + f"κ({ckey(c)})"
                for c, a in sorted(r.expansion.items()))
            lines.append(f"  v={word_str(r.v.rword):<10} w={word_str(r.w.rword):<10} "
                         f"{'swapped ' if r.swapped else ''}"
                         f"agree={'T' if r.agree else 'F'} "
                         f"nonneg={'T' if r.nonneg else 'F'}  {terms}")
        lines.append(f"pairs checked = {report.pairs_checked}; "
                     f"skipped (criterion fails both ways) = {report.pairs_skipped}; "
                     f"ok = {report.ok}")
        _emit("\n".join(lines), args.out)
    return 0 if report.ok else 3


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "decompose":
            return _run_decompose(args)
        if args.command == "check":
            return _run_check(args)
        if args.command == "graph":
            return _run_graph(args)
        if args.command == "keyprod":
            return _run_keyprod(args)
        raise ValueError(f"unknown command {args.command!r}")
    except CriterionFails as exc:
        print(f"criterion fails: {exc}", file=sys.stderr)
        return 2
    except (VerificationMismatch, EquivalenceViolation) as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 3
    except InvariantBroken as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 3
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

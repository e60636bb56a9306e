"""Command-line front end.

Every run emits one self-describing JSON document (stable key order, so runs
with identical flags are byte-identical); the spectrum subcommand emits a
tab-separated table instead.  Each subcommand returns its document and exit
code, and main writes the document to --out (if given) and to stdout.  Exit
codes: 0 success, 1 failed checks, 2 usage errors, including winding's
missing or conflicting mode flags, a ValueError raised by the library on an
out-of-range input, an OverflowError, a result that strict JSON cannot hold
(NaN or Infinity) and an OSError on a bad --out path (each reported as one
"hypcross <command>: error: ..." line on stderr, without a traceback).

The numeric modules (collar, pants, winding, verifier) are imported inside the
subcommands that use them, so spectrum runs without loading numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__
from .spectrum import format_entry, min_witness, spectrum as compute_spectrum


def _document(command: str, config: dict, results: dict) -> str:
    doc = {
        "command": command,
        "config": config,
        "results": results,
        "version": __version__,
    }
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


def _emit(text: str, out: str | None) -> None:
    """Write --out first, so a bad path prints nothing on stdout."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


def _cmd_constants(args) -> tuple[str, int]:
    from . import verifier

    return _document("constants", {}, verifier.constants().as_dict()), 0


def _cmd_collar(args) -> tuple[str, int]:
    from . import collar

    x = args.length
    w = collar.collar_width(x)
    w1, narrow = collar.generalized_width(x)
    gap = collar.hexagon_gap(x)
    results = {
        "core_length": x,
        "width": w,
        "wide_width": w1,
        "narrow_width_raw": narrow,
        "narrow_width": max(narrow, 0.0),
        "degenerate": narrow < 0.0,
        "hexagon_gap": gap,
        "gap_identity_residual": gap - 2.0 * w1,
        "cusp_horocycle_bound": collar.CUSP_HOROCYCLE_LENGTH,
    }
    if args.scan:
        results["scan"] = collar.width_scan()
    return _document("collar", {"length": x, "scan": bool(args.scan)}, results), 0


def _cmd_pants_length(args) -> tuple[str, int]:
    from . import pants

    P = pants.PantsBoundary(args.l1, args.l2, args.l3)
    C = pants.CurveClass(args.m, args.n)
    value = pants.gamma_mn_length(P, C)
    results = {"length": value, "cosh_half_length": math.cosh(0.5 * value)}
    if args.oracle:
        oracle = pants.trace_length_oracle(P, C)
        results["oracle_length"] = oracle
        results["residual"] = value - oracle
    config = {"l1": args.l1, "l2": args.l2, "l3": args.l3, "m": args.m, "n": args.n, "oracle": bool(args.oracle)}
    return _document("pants-length", config, results), 0


def _cmd_pants_min(args) -> tuple[str, int]:
    from . import pants

    P, C, value = pants.minimize_over_moduli(args.cap, args.lmax, args.grid)
    target = 2.0 * math.acosh(5.0)
    results = {
        "minimum": value,
        "argmin": {"l1": P.l1, "l2": P.l2, "l3": P.l3, "m": C.m, "n": C.n},
        "sharp_constant": target,
        "matches_sharp_constant": abs(value - target) < 1e-9,
        "at_three_cusp_corner": P.l1 == 0.0 and P.l2 == 0.0 and P.l3 == 0.0,
    }
    config = {"cap": args.cap, "lmax": args.lmax, "grid": args.grid}
    passed = results["matches_sharp_constant"] and results["at_three_cusp_corner"]
    return _document("pants-min", config, results), 0 if passed else 1


def _cmd_winding(args) -> tuple[str, int]:
    from . import winding

    if args.collar == args.cusp:
        raise ValueError("exactly one of --collar / --cusp is required")
    if args.collar:
        if args.core is None or args.width is None:
            raise ValueError("--collar needs --core and --width")
        length = winding.collar_arc_length(args.w, args.core, args.width)
        back = winding.winding_from_length(length, args.core, args.width)
        oracle = winding.saccheri_top_length(args.w, args.core, args.width)
        results = {
            "arc_length": length,
            "roundtrip_residual": back - args.w,
            "quadrilateral_oracle": oracle,
            "oracle_residual": length - oracle,
        }
        config = {"collar": True, "w": args.w, "core": args.core, "width": args.width}
    else:
        length = winding.cusp_arc_length(args.w)
        back = winding.cusp_winding_from_length(length)
        results = {
            "arc_length": length,
            "roundtrip_residual": back - args.w,
            "distance_oracle_max_dev": winding.verify_cusp_lemma_geometrically(args.w),
        }
        config = {"cusp": True, "w": args.w}
    return _document("winding", config, results), 0


def _cmd_verify(args) -> tuple[str, int]:
    from . import verifier

    rep = verifier.run_verify_suite()
    return _document("verify", rep.config, rep.as_dict()), 0 if rep.passed else 1


def _cmd_spectrum(args) -> tuple[str, int]:
    min_witness([], args.k)  # refuses a --k below 1 before the search
    entries = compute_spectrum(args.max_word_len, args.cap, args.k)
    witness = min_witness(entries, args.k)
    lines = [
        f"# spectrum max_word_len={args.max_word_len} cap={args.cap!r} k={args.k}",
        "# word\ttrace\tlength\tcount\tmethod",
    ]
    lines.extend(map(format_entry, entries))
    if witness is None:
        lines.append(f"# witness k={args.k}: none")
    else:
        lines.append(f"# witness k={args.k}: " + format_entry(witness).rsplit("\t", 1)[0])  # no method column
    return "\n".join(lines), 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypcross",
        description="closed-geodesic length bounds, collar widths, and the self-crossing spectrum of the three-cusp sphere",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None)

    def add(name, help_text, func):
        p = sub.add_parser(name, help=help_text, parents=[out])
        p.set_defaults(func=func)
        return p

    add("constants", "sharp length bounds and the corkscrew length table", _cmd_constants)

    p = add("collar", "collar widths and the hexagon gap at a given core length", _cmd_collar)
    p.add_argument("--length", type=float, required=True)
    p.add_argument("--scan", action="store_true")

    p = add("pants-length", "length of the (m,n) winding curve in a pair of pants", _cmd_pants_length)
    p.add_argument("--l1", type=float, required=True)
    p.add_argument("--l2", type=float, required=True)
    p.add_argument("--l3", type=float, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--oracle", action="store_true")

    p = add("pants-min", "grid-search the winding-curve length over pants moduli", _cmd_pants_min)
    p.add_argument("--cap", type=int, required=True)
    p.add_argument("--lmax", type=float, required=True)
    p.add_argument("--grid", type=int, required=True)

    p = add("winding", "arc length of a winding arc in a collar or cusp neighborhood", _cmd_winding)
    p.add_argument("--collar", action="store_true")
    p.add_argument("--cusp", action="store_true")
    p.add_argument("--w", type=float, required=True)
    p.add_argument("--core", type=float, default=None)
    p.add_argument("--width", type=float, default=None)

    add("verify", "run the full inequality and oracle audit", _cmd_verify)

    p = add("spectrum", "bottom of the length spectrum with self-crossing counts", _cmd_spectrum)
    p.add_argument("--max-word-len", type=int, required=True)
    p.add_argument("--cap", type=float, required=True)
    p.add_argument("--k", type=int, required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text, code = args.func(args)
        _emit(text, args.out)
        return code
    except (ValueError, OverflowError, OSError) as exc:
        print(f"{parser.prog} {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

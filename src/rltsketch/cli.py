"""Command-line surface.

Exit codes: 0 success, 1 contract violation (distortion band breached),
2 input error (a malformed input or sketch file, or an input whose estimates
would overflow).
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import harness
from .codec import DecodeError, SketchBits, build_lp_sketch, read_header, size_report
from .estimator import QueryContext
from .euclid import build_euclidean_sketch
from .harness import InputError
from .metric import INF


def _parse_p(text: str):
    if text.lower() in ("inf", "infinity", "oo"):
        return INF
    p = int(text)
    if p < 1:
        # argparse reports this error (naming --p) and exits 2
        raise argparse.ArgumentTypeError(f"p must be >= 1 or inf, got {text}")
    return p


def _parse_band(text: str) -> float:
    band = float(text)
    if not (math.isfinite(band) and band > 0):
        raise argparse.ArgumentTypeError(f"band must be positive and finite, got {text}")
    return band


def _parse_fraction(text: str) -> float:
    fraction = float(text)
    if not 0.0 <= fraction <= 1.0:  # NaN fails too
        raise argparse.ArgumentTypeError(f"min-fraction must be in [0, 1], got {text}")
    return fraction


def _read_sketch(path: str) -> SketchBits:
    try:
        with open(path, "rb") as fh:
            return SketchBits(fh.read())
    except OSError as exc:
        raise InputError(f"cannot read sketch {path}: {exc}")


def _load_input(args):
    """Parses the input file once. Returns (PointSet, the file's own distance
    matrix for a metric file, else None)."""
    if args.format == "metric":
        metric = harness.load_metric_text(args.input)
        return harness.embed_general_metric(metric), metric.matrix
    return harness.ingest_points(args.input, args.format, args.p), None


def cmd_sketch(args) -> int:
    if args.strict_eps and args.euclidean:
        raise InputError("--strict-eps applies to the lp pipeline only, not to --euclidean")
    ps, _ = _load_input(args)
    eps = args.eps / 4.0 if args.strict_eps else args.eps
    t0 = time.perf_counter()
    if args.euclidean:
        if (INF if args.format == "metric" else args.p) != 2:
            raise InputError("--euclidean requires p = 2")
        sketch = build_euclidean_sketch(ps, eps, args.seed)
    else:
        sketch = build_lp_sketch(ps, eps)
    build_seconds = time.perf_counter() - t0
    with open(args.out, "wb") as fh:
        fh.write(sketch.data)
    rep = size_report(sketch)
    print(f"wrote {args.out}: {rep['file_bytes']} bytes "
          f"({rep['total_data_bits']} data bits), n={ps.n}, d={ps.d}, "
          f"seed={args.seed}, build={build_seconds:.3f}s")
    return 0


def cmd_estimate(args) -> int:
    ctx = QueryContext(_read_sketch(args.sketch))
    value = ctx.estimate(args.i, args.j)
    print(f"{value:.17g}")
    return 0


def cmd_evaluate(args) -> int:
    if args.pairs and not args.report:
        raise InputError("--pairs is written beside the summary: it needs --report")
    sketch = _read_sketch(args.sketch)
    # the header alone, checked; harness.evaluate decodes the rest
    header = read_header(sketch.data)
    args.p = header.p
    ps, exact = _load_input(args)
    if not header.euclidean and header.d != ps.d:
        raise InputError(f"sketch dimension {header.d} does not match input {ps.d}")
    if header.n != ps.n:
        raise InputError(f"sketch holds {header.n} points, input has {ps.n}")
    if exact is None:
        # ps.dist is cdist of the raw points divided by 2^scale_exponent, so
        # this is their exact distance matrix bit for bit
        exact = np.ldexp(ps.distance_matrix(), ps.scale_exponent)
    report = harness.evaluate(sketch, exact, band=args.band)
    summary = report.summary()
    for key, val in summary.items():
        if key != "section_data_bits":
            print(f"{key}: {val}")
    if args.report:
        report.write(args.report, args.pairs)
        print(f"report written to {args.report}")
    target = args.min_fraction
    if target is None:
        target = 0.999 if report.flavor == "euclidean" else 1.0
    if report.fraction_in_band < target:
        print(f"CONTRACT VIOLATION: fraction_in_band {report.fraction_in_band} "
              f"< {target} at band {report.band}", file=sys.stderr)
        return 1
    return 0


def cmd_info(args) -> int:
    rep = size_report(_read_sketch(args.sketch))
    print(json.dumps(rep, indent=2))
    return 0


def cmd_gen_lb_euclidean(args) -> int:
    pts = harness.gen_lowerbound_euclidean(args.n, args.eps, args.seed)
    harness.save_points_text(args.out, pts)
    print(f"wrote {args.out}: {pts.shape[0]} points in R^{pts.shape[1]}")
    return 0


def cmd_gen_lb_general(args) -> int:
    metric = harness.gen_lowerbound_general(args.n, args.eps, args.seed)
    harness.save_metric_text(args.out, metric)
    print(f"wrote {args.out}: {metric.n}x{metric.n} metric")
    return 0


def cmd_recover(args) -> int:
    bits = harness.recover_bits(_read_sketch(args.sketch), args.n, args.eps)
    if args.out:
        np.savetxt(args.out, bits, fmt="%d")
        print(f"wrote {args.out}")
    else:
        for row in bits:
            print("".join(str(int(b)) for b in row))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rltsketch",
        description="Compressed (1±eps) distance sketches for lp point sets.")
    sub = ap.add_subparsers(dest="command", required=True)

    sk = sub.add_parser("sketch", help="build a sketch from a point or metric file")
    sk.add_argument("--input", required=True)
    sk.add_argument("--format", default="text", choices=["text", "binary", "metric"])
    sk.add_argument("--p", type=_parse_p, default=2, help="norm order (int or 'inf')")
    sk.add_argument("--eps", type=float, required=True)
    sk.add_argument("--euclidean", action="store_true",
                    help="randomized Euclidean pipeline (p=2 only)")
    sk.add_argument("--seed", type=int, default=0)
    sk.add_argument("--strict-eps", action="store_true",
                    help="lp only: pre-divide eps by 4 so the guarantee band is (1±eps)")
    sk.add_argument("--out", required=True)
    sk.set_defaults(func=cmd_sketch)

    es = sub.add_parser("estimate", help="estimate one pairwise distance")
    es.add_argument("--sketch", required=True)
    es.add_argument("--i", type=int, required=True)
    es.add_argument("--j", type=int, required=True)
    es.set_defaults(func=cmd_estimate)

    ev = sub.add_parser("evaluate", help="compare all estimates to exact distances")
    ev.add_argument("--sketch", required=True)
    ev.add_argument("--input", required=True)
    ev.add_argument("--format", default="text", choices=["text", "binary", "metric"])
    ev.add_argument("--band", type=_parse_band, default=None,
                    help="relative error band (default 4*eps, squared 48*eps for euclidean)")
    ev.add_argument("--min-fraction", type=_parse_fraction, default=None)
    ev.add_argument("--report", default=None, help="write JSON summary here")
    ev.add_argument("--pairs", default=None, help="write per-pair JSONL here (needs --report)")
    ev.set_defaults(func=cmd_evaluate)

    info = sub.add_parser("info", help="per-section size report")
    info.add_argument("--sketch", required=True)
    info.set_defaults(func=cmd_info)

    g1 = sub.add_parser("gen-lb-euclidean", help="generate a bit-recovery instance")
    g1.add_argument("--n", type=int, required=True)
    g1.add_argument("--eps", type=float, required=True)
    g1.add_argument("--seed", type=int, default=0)
    g1.add_argument("--out", required=True)
    g1.set_defaults(func=cmd_gen_lb_euclidean)

    g2 = sub.add_parser("gen-lb-general", help="generate a random quantized metric")
    g2.add_argument("--n", type=int, required=True)
    g2.add_argument("--eps", type=float, required=True)
    g2.add_argument("--seed", type=int, default=0)
    g2.add_argument("--out", required=True)
    g2.set_defaults(func=cmd_gen_lb_general)

    rc = sub.add_parser("recover", help="recover planted bits from a sketch")
    rc.add_argument("--sketch", required=True)
    rc.add_argument("--n", type=int, required=True)
    rc.add_argument("--eps", type=float, required=True)
    rc.add_argument("--out", default=None)
    rc.set_defaults(func=cmd_recover)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, DecodeError, ValueError, IndexError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

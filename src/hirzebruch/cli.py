"""Command-line interface.

``classify`` prints the classification, the non-positivity check,
minimality and the Seshadri-type constant of a case; ``body`` computes the
Newton-Okounkov polygon with optional verification, oracle output and an
SVG plot.  Exit codes: 0 success, 2 validation failure, 3 verification
failure or a broken internal invariant.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .caseio import (
    body_payload,
    classify_payload,
    classify_text,
    dump_payload,
    load_case,
)
from .errors import HirzebruchError, VerificationFailed
from .svg import render_svg


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built on the first call and kept: parsing leaves the parser unchanged,
    # so in-process callers of ``main`` share one.
    parser = argparse.ArgumentParser(
        prog="hirzebruch",
        description="Exact Seshadri-type constants and Newton-Okounkov polygons "
        "for valuations of ruled surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    classify = sub.add_parser("classify", help="classify a case file")
    classify.add_argument("case", help="path to the case JSON file")
    classify.add_argument("-o", "--output", help="write the JSON report here")

    body = sub.add_parser("body", help="compute the Newton-Okounkov polygon")
    body.add_argument("case", help="path to the case JSON file")
    body.add_argument(
        "--verify", action="store_true", help="run every cross-check on the body"
    )
    body.add_argument(
        "--oracle", action="store_true", help="emit the decomposition-sweep polygon"
    )
    body.add_argument("--svg", help="write an SVG plot of body and cone triangle")
    body.add_argument("-o", "--output", help="write the JSON result here")
    return parser


def _cmd_classify(case, args) -> list[tuple[str, str]]:
    payload = classify_payload(case)
    print(classify_text(payload))
    return [(args.output, dump_payload(payload))]


def _cmd_body(case, args) -> list[tuple[str, str]]:
    payload, body, triangle, _ = body_payload(
        case, verify=args.verify, oracle=args.oracle
    )
    vertices = ", ".join(f"({x}, {y})" for x, y in payload["vertices"])
    print(f"{payload['shape']}: {vertices}")
    if args.verify:
        print("verification: " + ", ".join(f"{c}={s}" for c, s in payload["verification"]))
    svg = render_svg(triangle, body) if args.svg else ""
    return [(args.svg, svg), (args.output, dump_payload(payload))]


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    target = None  # the output being written, once the case is read
    try:
        case = load_case(args.case)
        command = _cmd_classify if args.command == "classify" else _cmd_body
        for target, text in command(case, args):
            if target:
                Path(target).write_text(text, encoding="utf-8")
        return 0
    except VerificationFailed as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 3
    except HirzebruchError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        if target is None:
            print(f"cannot read case file: {exc}", file=sys.stderr)
        else:
            print(f"cannot write {target}: {exc.strerror or exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

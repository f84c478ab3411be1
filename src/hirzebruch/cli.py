"""Command-line interface.

``classify`` prints the classification, the non-positivity check,
minimality and the Seshadri-type constant of a case; ``body`` computes the
Newton-Okounkov polygon with optional verification, oracle output and an
SVG plot.  Exit codes: 0 success, 2 validation failure, 3 verification
failure or a broken internal invariant.
"""

from __future__ import annotations

import argparse
import errno
import functools
import os
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


def _cmd_classify(case, args) -> tuple[list[str], list[tuple[str, str]]]:
    payload = classify_payload(case)
    return [classify_text(payload)], [(args.output, dump_payload(payload))]


def _cmd_body(case, args) -> tuple[list[str], list[tuple[str, str]]]:
    payload, body, triangle, _ = body_payload(
        case, verify=args.verify, oracle=args.oracle
    )
    vertices = ", ".join(f"({x}, {y})" for x, y in payload["vertices"])
    lines = [f"{payload['shape']}: {vertices}"]
    if args.verify:
        lines.append(
            "verification: " + ", ".join(f"{c}={s}" for c, s in payload["verification"])
        )
    svg = render_svg(triangle, body) if args.svg else ""
    return lines, [(args.svg, svg), (args.output, dump_payload(payload))]


def _write_outputs(outputs: list[tuple[str, str]]) -> tuple[str, str] | None:
    """Write each ``(target, text)``; return the refused target and the
    reason, or ``None``.  With two outputs a refused write leaves no file of
    this run behind: a new target is staged beside the path it resolves to
    and moved there once every write succeeded; an existing one (a file, a
    device, a link) is written in place, keeping its mode, after an access
    check and before the moves."""
    staged: list[tuple[str, Path, Path]] = []
    in_place: list[tuple[str, str]] = []
    try:
        for k, (target, text) in enumerate(outputs):
            path = Path(target)
            # A folder is refused before anything is written.
            if path.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            if len(outputs) == 1 or path.exists():
                if len(outputs) > 1 and not os.access(path, os.W_OK):
                    raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
                in_place.append((target, text))
                continue
            real = Path(os.path.realpath(path))
            temporary = real.with_name(f".{real.name}.{os.getpid()}-{k}.tmp")
            staged.append((target, temporary, real))
            temporary.write_text(text, encoding="utf-8")
        for target, text in in_place:
            Path(target).write_text(text, encoding="utf-8")
        for target, temporary, real in staged:
            os.replace(temporary, real)
    except OSError as exc:
        for _, temporary, _ in staged:
            temporary.unlink(missing_ok=True)
        return target, exc.strerror or str(exc)
    return None


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        case = load_case(args.case)
        command = _cmd_classify if args.command == "classify" else _cmd_body
        lines, outputs = command(case, args)
        # The files are written first, so a refused write prints nothing.
        refused = _write_outputs([(target, text) for target, text in outputs if target])
        if refused:
            print("cannot write {}: {}".format(*refused), file=sys.stderr)
            return 2
        for line in lines:
            print(line)
        return 0
    except VerificationFailed as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 3
    except HirzebruchError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read case file: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

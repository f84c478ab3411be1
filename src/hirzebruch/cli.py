"""Command-line interface.

``classify`` prints the classification, the non-positivity check,
minimality and the Seshadri-type constant of a case; ``body`` computes the
Newton-Okounkov polygon with optional verification, oracle output and an
SVG plot.  Exit codes: 0 success, 2 validation failure, 3 verification
failure or a broken internal invariant.

A plain argument list (a command, a case path and options spelled out in
full, each value its own token) is read directly; argparse is imported and
its parser built only when help, another spelling or a usage error needs it,
and the SVG module only for ``--svg``.
"""

from __future__ import annotations

import contextlib
import errno
import functools
import os
import stat
import sys
from pathlib import Path
from types import SimpleNamespace

from .caseio import (
    body_payload,
    classify_payload,
    classify_text,
    dump_payload,
    load_case,
)
from .errors import HirzebruchError, VerificationFailed


# The options of each command, by spelling, with the attribute each sets;
# the two flags take no value.
_OPTIONS = {
    "classify": {"-o": "output", "--output": "output"},
    "body": {
        "--verify": "verify",
        "--oracle": "oracle",
        "--svg": "svg",
        "-o": "output",
        "--output": "output",
    },
}
_FLAGS = ("verify", "oracle")


def _parse_plain(argv: list) -> SimpleNamespace | None:
    """The namespace the parser of :func:`_build_parser` returns for
    ``argv``, when ``argv`` is a command, one case path and options spelled
    out in full, in any order, with each value a token of its own that does
    not start with ``-``; ``None`` for any other list."""
    if not argv or not all(isinstance(a, str) for a in argv) or argv[0] not in _OPTIONS:
        return None
    options = _OPTIONS[argv[0]]
    values = {dest: False if dest in _FLAGS else None for dest in options.values()}
    values.update(command=argv[0], case=None)
    tokens = iter(argv[1:])
    for token in tokens:
        dest = options.get(token)
        if dest in _FLAGS:
            values[dest] = True
        elif dest:
            value = next(tokens, None)
            if value is None or value.startswith("-"):
                return None
            values[dest] = value
        elif token.startswith("-") or values["case"] is not None:
            return None
        else:
            values["case"] = token
    return None if values["case"] is None else SimpleNamespace(**values)


@functools.cache
def _build_parser():
    # Built only when help, another spelling or a usage error needs it, and
    # then kept: parsing leaves the parser unchanged, so in-process callers
    # of ``main`` share one.
    import argparse

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
    svg = ""
    if args.svg:
        from .svg import render_svg
        svg = render_svg(triangle, body)
    return lines, [(args.svg, svg), (args.output, dump_payload(payload))]


def _overwrite(path: Path, data: bytes) -> None:
    """Write ``data`` over the bytes of ``path``, which is created with mode
    ``0o666`` less the umask if absent, then cut a longer regular file to
    ``len(data)``.  The target is never opened ``O_TRUNC``: on ext4 a file
    truncated to zero and written again is flushed to disk when it is closed
    (``auto_da_alloc``), which costs far more than the write.  When a
    write fails, a regular file is cut to the bytes written so far, so it
    holds a prefix of ``data``, never new bytes followed by an old tail."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        st = os.fstat(fd)
        size = st.st_size if stat.S_ISREG(st.st_mode) else 0
        written = 0
        try:
            while written < len(data):
                written += os.write(fd, data[written:])
        finally:
            if size > written:
                os.ftruncate(fd, written)
    finally:
        os.close(fd)


def _write_outputs(outputs: list[tuple[str, str]]) -> tuple[str, str] | None:
    """Write each ``(target, text)``; return the refused target and the
    reason, or ``None``.  With two outputs a refused write leaves no file of
    this run behind: a new target is staged beside the path it resolves to
    and moved there once every write succeeded; an existing one (a file, a
    device, a link) is written in place, keeping its mode, after an access
    check and before the moves, and a readable regular file written so far
    gets its previous bytes back when a later write fails.  Every write goes
    through :func:`_overwrite`: an existing file is overwritten in place and
    cut to length, never truncated to zero first, which on ext4 would force
    a writeback at every close."""
    staged: list[tuple[str, Path, Path]] = []
    in_place: list[tuple[str, Path, str]] = []
    written: list[tuple[Path, bytes]] = []
    try:
        for k, (target, text) in enumerate(outputs):
            path = Path(target)
            # A folder is refused before anything is written.
            if path.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            if len(outputs) == 1 or path.exists():
                if len(outputs) > 1 and not os.access(path, os.W_OK):
                    raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
                in_place.append((target, path, text))
                continue
            real = Path(os.path.realpath(path))
            temporary = real.with_name(f".{real.name}.{os.getpid()}-{k}.tmp")
            staged.append((target, temporary, real))
            _overwrite(temporary, text.encode("utf-8"))
        for target, path, text in in_place:
            if len(outputs) > 1 and path.is_file() and os.access(path, os.R_OK):
                written.append((path, path.read_bytes()))
            _overwrite(path, text.encode("utf-8"))
        for target, temporary, real in staged:
            os.replace(temporary, real)
    except OSError as exc:
        for _, temporary, _ in staged:
            temporary.unlink(missing_ok=True)
        for path, previous in reversed(written):
            with contextlib.suppress(OSError):
                _overwrite(path, previous)
        return target, exc.strerror or str(exc)
    return None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_plain(argv) or _build_parser().parse_args(argv)
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

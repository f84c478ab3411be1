import contextlib
import errno
import io
import itertools
import json
import os
import random
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hirzebruch.cli import _build_parser, _parse_plain, main

from conftest import CASES, PACKAGE_ROOT

CLI = [sys.executable, "-m", "hirzebruch.cli"]


def run_cli(*args):
    return subprocess.run(
        CLI + list(args),
        capture_output=True,
        text=True,
        check=False,
        env={**os.environ, "PYTHONPATH": PACKAGE_ROOT},
    )


def write_case(tmp_path: Path, name: str, payload) -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def test_classify_special_fixture():
    out = run_cli("classify", str(CASES / "special_f2.json"))
    assert out.returncode == 0
    assert out.stdout.strip() == "special, NPI, never-minimal, mu_hat(F + 2M) = 156"


def test_classify_nonspecial_fixture():
    out = run_cli("classify", str(CASES / "nonspecial_f2.json"))
    assert out.returncode == 0
    assert (
        out.stdout.strip()
        == "non-special, NPI, never-minimal, mu_hat(2F + 5M) = 255"
    )


def test_classify_minimal_fixture():
    out = run_cli("classify", str(CASES / "minimal_f0.json"))
    assert out.returncode == 0
    assert out.stdout.strip() == "special, NPI, minimal, mu_hat(2F + M) = 4"


def test_body_special_fixture_with_verification(tmp_path):
    out_path = tmp_path / "body.json"
    out = run_cli(
        "body", str(CASES / "special_f2.json"), "--verify", "-o", str(out_path)
    )
    assert out.returncode == 0
    data = json.loads(out_path.read_text())
    assert data["shape"] == "quadrilateral"
    assert data["vertices"] == [
        ["0", "0"],
        ["153/7", "38/7"],
        ["1017/17", "253/17"],
        ["156", "39"],
    ]
    assert ["oracle", "pass"] in data["verification"]


def test_body_minimal_fixture_is_a_triangle(tmp_path):
    out_path = tmp_path / "body.json"
    out = run_cli("body", str(CASES / "minimal_f0.json"), "-o", str(out_path))
    assert out.returncode == 0
    data = json.loads(out_path.read_text())
    assert data["shape"] == "triangle"
    assert data["vertices"] == [["0", "0"], ["4", "0"], ["4", "1"]]


def test_body_oracle_output(tmp_path):
    out_path = tmp_path / "body.json"
    out = run_cli(
        "body", str(CASES / "nonspecial_f2.json"), "--oracle", "-o", str(out_path)
    )
    assert out.returncode == 0
    data = json.loads(out_path.read_text())
    assert data["oracle_vertices"] == data["vertices"]


def test_malformed_satellite_exits_2(tmp_path):
    case = write_case(
        tmp_path,
        "bad.json",
        {
            "surface": {"delta": 0, "point_kind": "special"},
            "configuration": {
                "points": [
                    {"on_f1": True, "on_m": True},
                    {"extra_proximity": 1},
                ]
            },
            "flag": {"kind": "free"},
            "divisor": {"a": 1, "b": 1},
        },
    )
    out = run_cli("classify", str(case))
    assert out.returncode == 2
    assert "BadSatellite" in out.stderr


def test_body_of_non_npi_case_exits_2(tmp_path):
    case = write_case(
        tmp_path,
        "nonnpi.json",
        {
            "surface": {"delta": 0, "point_kind": "special"},
            "configuration": {
                "points": [{"on_f1": i == 1, "on_m": i == 1} for i in range(1, 6)]
            },
            "flag": {"kind": "free"},
            "divisor": {"a": 1, "b": 1},
        },
    )
    out = run_cli("body", str(case))
    assert out.returncode == 2
    assert "NotNPI" in out.stderr
    assert "delta*phi_f1^2 = 2 < beta_bar[-1] = 5" in out.stderr
    # classification alone still succeeds and reports the failed check
    out = run_cli("classify", str(case))
    assert out.returncode == 0
    assert out.stdout.strip() == "special, not NPI"


def test_case_schema_violations_exit_2(tmp_path):
    case = write_case(
        tmp_path,
        "both.json",
        {
            "surface": {"delta": 2, "point_kind": "special"},
            "beta_bar": [1, 1],
            "configuration": {"points": [{"on_f1": True, "on_m": True}]},
            "flag": {"kind": "free"},
            "divisor": {"a": 1, "b": 1},
        },
    )
    out = run_cli("classify", str(case))
    assert out.returncode == 2
    assert "CaseFormatError" in out.stderr


@pytest.mark.parametrize(
    "path, value, field",
    [
        (("surface", "delta"), None, "surface.delta"),
        (("on_m",), [1], "on_m"),
        (("on_m",), {}, "on_m"),
        (("on_m",), "x", "on_m"),
        (("on_f1",), "x", "on_f1"),
        (("on_f1",), 1.7, "on_f1"),
        (("divisor", "a"), True, "divisor.a"),
        (("divisor", "b"), 2.0, "divisor.b"),
        (("beta_bar", 1), True, "beta_bar[1]"),
        (("flag", "eta"), True, "flag.eta"),
        (("configuration", "points", 1, "on_f1"), "false", "p2: on_f1"),
        (("configuration", "points", 1, "on_m"), 0.0, "p2: on_m"),
        (("configuration", "points", 1, "parent"), True, "p2: parent"),
        (("configuration", "points", 1, "parent"), 1.0, "p2: parent"),
        (("configuration", "points", 1, "parent"), "1", "p2: parent"),
    ],
)
def test_mistyped_case_fields_exit_2(tmp_path, path, value, field):
    # Point records live in the configuration case; their incidences are
    # booleans and their parents integers.
    source, expected = "special_f2.json", f"CaseFormatError: {field} must be an integer"
    if path[0] == "configuration":
        kind = "an integer" if path[-1] == "parent" else "true or false"
        source, expected = "minimal_f0.json", f"ChainBroken: {field} must be {kind}"
    case = json.loads((CASES / source).read_text())
    *outer, last = path
    target = case
    for key in outer:
        target = target[key]
    target[last] = value
    out = run_cli("classify", str(write_case(tmp_path, "typed.json", case)))
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert expected in out.stderr


def test_output_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    sa, sb = tmp_path / "a.svg", tmp_path / "b.svg"
    for out_path, svg_path in ((a, sa), (b, sb)):
        out = run_cli(
            "body",
            str(CASES / "special_f2.json"),
            "--oracle",
            "--svg",
            str(svg_path),
            "-o",
            str(out_path),
        )
        assert out.returncode == 0
    assert a.read_bytes() == b.read_bytes()
    assert sa.read_bytes() == sb.read_bytes()
    assert sa.read_bytes().startswith(b"<svg")


def test_missing_file_exits_2(tmp_path):
    missing = tmp_path / "nope.json"
    out = run_cli("classify", str(missing))
    assert out.returncode == 2
    assert out.stderr == (
        f"cannot read case file: [Errno 2] No such file or directory: '{missing}'\n"
    )


def _in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "content, message",
    [
        (b'\xff\xfe{"surface": {}}', "CaseFormatError: case file is not UTF-8 text: "),
        (b"1" * 5000, "CaseFormatError: invalid JSON: Exceeds the limit "),
        (b"[" * 100000, "CaseFormatError: invalid JSON: maximum recursion depth exceeded"),
        (None, "cannot read case file: [Errno 21] Is a directory: "),
    ],
    ids=["not-utf8", "long-integer", "deep-nesting", "directory"],
)
def test_unreadable_case_files_exit_2(tmp_path, content, message):
    # A case file that cannot be decoded or opened is refused with one
    # stderr line and exit 2, never a traceback.
    path = tmp_path / "case.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    for command in ("classify", "body"):
        code, out, err = _in_process([command, str(path)])
        assert (code, out) == (2, "")
        assert err.startswith(message) and len(err.splitlines()) == 1, err


NO_FOLDER, IS_FOLDER = "No such file or directory", "Is a directory"


@pytest.mark.parametrize(
    "outputs, refused, message",
    [
        ({"--svg": ""}, "", IS_FOLDER),
        ({"-o": ""}, "", IS_FOLDER),
        ({"-o": "missing/x.json"}, "missing/x.json", NO_FOLDER),
        ({"--svg": "missing/x.svg"}, "missing/x.svg", NO_FOLDER),
        ({"--svg": "x.svg", "-o": "missing/x.json"}, "missing/x.json", NO_FOLDER),
        ({"--svg": "missing/x.svg", "-o": "x.json"}, "missing/x.svg", NO_FOLDER),
        ({"--svg": "x.svg", "-o": ""}, "", IS_FOLDER),
    ],
    ids=[
        "svg-directory",
        "json-directory",
        "json-missing-folder",
        "svg-missing-folder",
        "good-svg-json-missing-folder",
        "svg-missing-folder-good-json",
        "good-svg-json-directory",
    ],
)
def test_unwritable_outputs_exit_2(tmp_path, outputs, refused, message):
    # A failed write names the output path: exit 2 and one stderr line, and
    # no file of the run is left behind, temporaries included.
    def where(target):
        return str(tmp_path / target if target else tmp_path)

    refused = where(refused)
    commands = ["body"] if "--svg" in outputs else ["classify", "body"]
    for command in commands:
        for extra in ([], ["--verify"]) if command == "body" else ([],):
            argv = [command, str(CASES / "special_f2.json"), *extra]
            for flag, target in outputs.items():
                argv += [flag, where(target)]
            code, out, err = _in_process(argv)
            # Nothing reaches stdout: the outputs are written before printing.
            assert (code, out, err) == (2, "", f"cannot write {refused}: {message}\n")
            assert list(tmp_path.iterdir()) == []


def test_outputs_replace_existing_files(tmp_path):
    # A written output replaces what was there, with the usual file mode.
    svg, json_out = tmp_path / "x.svg", tmp_path / "x.json"
    svg.write_text("old")
    argv = ["body", str(CASES / "special_f2.json"), "--svg", str(svg), "-o", str(json_out)]
    assert _in_process(argv)[0] == 0
    assert svg.read_text() != "old" and json.loads(json_out.read_text())["vertices"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.json", "x.svg"]
    umask = os.umask(0)
    os.umask(umask)
    assert json_out.stat().st_mode & 0o777 == 0o666 & ~umask
    # A target path is read as a path: a trailing separator names the file.
    argv = ["classify", str(CASES / "special_f2.json"), "-o", f"{tmp_path / 'y.json'}{os.sep}"]
    assert _in_process(argv)[0] == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.json", "x.svg", "y.json"]


@pytest.mark.parametrize("with_svg", [False, True], ids=["json-alone", "with-svg"])
def test_outputs_write_through_devices_links_and_modes(tmp_path, with_svg):
    # A target that exists is written through, as a plain write would: a
    # device stays a device, a link stays a link to the file it names, a
    # file keeps its mode and is written even where its folder takes no
    # new files.  Only the run's own outputs appear beside it.
    argv = ["body", str(CASES / "special_f2.json")]
    if with_svg:
        argv += ["--svg", str(tmp_path / "x.svg")]
    reference = tmp_path / "reference.json"
    printed = _in_process([*argv, "-o", str(reference)])
    assert printed[0] == 0

    def run(target):
        assert _in_process([*argv, "-o", str(target)]) == printed
        if target != os.devnull:
            assert Path(target).read_text() == reference.read_text()

    run(os.devnull)
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

    real = tmp_path / "real"
    real.mkdir()
    (real / "old.json").write_text("old")
    for name in ("old.json", "new.json"):
        link = tmp_path / f"link-{name}"
        link.symlink_to(real / name)
        run(link)
        assert link.is_symlink()
    assert sorted(p.name for p in real.iterdir()) == ["new.json", "old.json"]

    private = tmp_path / "private.json"
    private.write_text("old")
    private.chmod(0o600)
    run(private)
    assert private.stat().st_mode & 0o777 == 0o600

    locked = tmp_path / "locked"
    locked.mkdir()
    (locked / "x.json").write_text("old")
    locked.chmod(0o500)
    try:
        run(locked / "x.json")
        assert [p.name for p in locked.iterdir()] == ["x.json"]
    finally:
        locked.chmod(0o700)
    names = ["link-new.json", "link-old.json", "locked", "private.json", "real", "reference.json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names + ["x.svg"] * with_svg)


def _disk_fills_on(monkeypatch, target: Path, chunk: int = 0) -> list[int]:
    """Make the first ``os.write`` to the file ``target`` names take at most
    ``chunk`` bytes, a short write, and the next one fail with ``ENOSPC``;
    with ``chunk = 0`` the first one fails.  Later writes to it, and writes
    to every other file, go through.  Returns the lengths asked of each
    write to the target."""
    inode = target.stat().st_dev, target.stat().st_ino
    write = os.write
    calls = []

    def writing(fd, data):
        st = os.fstat(fd)
        if (st.st_dev, st.st_ino) != inode:
            return write(fd, data)
        calls.append(len(data))
        if len(calls) == 1 and chunk:
            return write(fd, data[:chunk])
        if len(calls) == 1 + bool(chunk):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return write(fd, data)

    monkeypatch.setattr(os, "write", writing)
    return calls


def _second_write_fails(tmp_path, monkeypatch, old_svg: bytes, old_json: bytes):
    # With --svg and -o naming existing files both are written in place; a
    # disk that fills up on the second write leaves both with their old
    # bytes, lengths and modes, stdout empty and the usual one-line refusal.
    svg, json_out = tmp_path / "x.svg", tmp_path / "x.json"
    svg.write_bytes(old_svg)
    json_out.write_bytes(old_json)
    svg.chmod(0o640)
    json_out.chmod(0o600)
    calls = _disk_fills_on(monkeypatch, json_out)
    argv = ["body", str(CASES / "special_f2.json"), "--svg", str(svg), "-o", str(json_out)]
    code, out, err = _in_process(argv)
    assert (code, out, err) == (
        2, "", f"cannot write {json_out}: {os.strerror(errno.ENOSPC)}\n"
    )
    # The new text was asked of the target, then its old bytes went back.
    assert len(calls) == 2 and calls[1] == len(old_json) != calls[0]
    assert (svg.read_bytes(), json_out.read_bytes()) == (old_svg, old_json)
    assert (svg.stat().st_mode & 0o777, json_out.stat().st_mode & 0o777) == (0o640, 0o600)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.json", "x.svg"]


def test_failed_second_write_restores_the_first(tmp_path, monkeypatch):
    _second_write_fails(tmp_path, monkeypatch, b"old svg\n", b"old json\n")


def test_failed_second_write_restores_longer_files(tmp_path, monkeypatch):
    # Old files longer than the new text get their length back as well: the
    # written svg was cut to the new text, the json to what it took.
    _second_write_fails(tmp_path, monkeypatch, b"old svg\n" * 2000, b"old json\n" * 2000)


def test_shorter_output_over_a_longer_file_leaves_the_new_bytes(tmp_path):
    # An existing file is overwritten in place and cut to the new length:
    # nothing of its old tail survives, alone or beside an svg.
    argv = ["body", str(CASES / "special_f2.json"), "--verify"]
    reference, svg_reference = tmp_path / "reference.json", tmp_path / "reference.svg"
    assert _in_process([*argv, "--svg", str(svg_reference), "-o", str(reference)])[0] == 0
    for extra in ([], ["--svg", str(tmp_path / "x.svg")]):
        target = tmp_path / "x.json"
        target.write_bytes(b"x" * 100_000)
        (tmp_path / "x.svg").write_bytes(b"y" * 100_000)
        assert _in_process([*argv, *extra, "-o", str(target)])[0] == 0
        assert target.read_bytes() == reference.read_bytes()
        if extra:
            assert (tmp_path / "x.svg").read_bytes() == svg_reference.read_bytes()


def test_no_output_is_opened_truncating(tmp_path, monkeypatch):
    # Every output, new or existing, alone or beside an svg, and every
    # staged temporary file is opened without O_TRUNC: on ext4 a file
    # truncated to zero and written again is flushed at close.
    opened = []
    real_open = os.open

    def opening(path, flags, *args, **kwargs):
        opened.append((Path(path).name, flags))
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", opening)
    case = str(CASES / "special_f2.json")
    svg, json_out = tmp_path / "x.svg", tmp_path / "x.json"
    for _ in range(2):  # new targets, then existing ones
        assert _in_process(["body", case, "-o", str(json_out)])[0] == 0
        assert _in_process(["body", case, "--svg", str(svg), "-o", str(json_out)])[0] == 0
        assert _in_process(["classify", case, "-o", str(json_out)])[0] == 0
    written = [name for name, _ in opened]
    # The new svg went through one staged temporary, the existing one in place.
    assert written.count("x.json") == 6 and written.count("x.svg") == 1
    assert len(written) == 8 and written[1].startswith(".x.svg.")
    assert [name for name, flags in opened if flags & os.O_TRUNC] == []
    assert all(flags & os.O_WRONLY for _, flags in opened)


def test_failed_lone_write_leaves_a_prefix_of_the_new_text(tmp_path, monkeypatch):
    # A lone output whose write fails partway is cut to what was written:
    # a prefix of the new text, never new bytes followed by an old tail.
    argv = ["body", str(CASES / "special_f2.json"), "--verify"]
    reference = tmp_path / "reference.json"
    assert _in_process([*argv, "-o", str(reference)])[0] == 0
    new = reference.read_bytes()
    target = tmp_path / "x.json"
    target.write_bytes(b"old json\n" * 2000)
    calls = _disk_fills_on(monkeypatch, target, chunk=100)
    code, out, err = _in_process([*argv, "-o", str(target)])
    assert (code, out, err) == (2, "", f"cannot write {target}: {os.strerror(errno.ENOSPC)}\n")
    # One short write of 100 bytes, then the rest was asked and refused.
    assert calls == [len(new), len(new) - 100]
    assert target.read_bytes() == new[:100]


@pytest.mark.parametrize(
    "record",
    [{"extra": 1}, {"extra_proximity": None, "extra": 1}, {"extra_proximity": 1, "extra": 1}],
    ids=["alone", "beside-null", "beside-value"],
)
def test_undocumented_point_field_exits_2(tmp_path, record):
    # Only ``extra_proximity`` marks a satellite: a point record with an
    # ``extra`` field is refused, neither read as a satellite nor dropped.
    case = json.loads((CASES / "minimal_f0.json").read_text())
    case["configuration"]["points"][2] = record
    path = write_case(tmp_path, "extra.json", case)
    for command in ("classify", "body"):
        code, out, err = _in_process([command, str(path)])
        assert (code, out, err) == (2, "", "ChainBroken: p3: unknown fields ['extra']\n")


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("surface", {"delta": 2, "pointkind": "general"}, "surface fields: ['pointkind']"),
        ("flag", {"kind": "free", "eeta": 3}, "flag fields: ['eeta']"),
        ("divisor", {"a": 2, "b": 5, "c": 1}, "divisor fields: ['c']"),
        ("configuration", {"points": [{}], "point": []}, "configuration fields: ['point']"),
    ],
    ids=["surface", "flag", "divisor", "configuration"],
)
def test_unknown_nested_fields_exit_2(tmp_path, field, value, message):
    # A misspelt field inside an object is refused, not read as absent: a
    # surface without ``point_kind`` would take a special center.
    case = json.loads((CASES / "nonspecial_f2.json").read_text())
    if field == "configuration":
        del case["beta_bar"], case["on_f1"], case["on_m"]
        case["flag"] = {"kind": "free"}
    case[field] = value
    path = write_case(tmp_path, "unknown.json", case)
    for command in ("classify", "body"):
        code, out, err = _in_process([command, str(path)])
        assert (code, out, err) == (2, "", f"CaseFormatError: unknown {message}\n")


@pytest.mark.parametrize(
    "exponent, svg, message",
    [
        (2200, False, "a number of the result has more than 4300 digits"),
        (400, True, "too large to plot: a vertex is past the float range"),
    ],
    ids=["past-the-digit-limit", "past-the-float-range"],
)
def test_huge_divisor_coefficients_exit_2(tmp_path, exponent, svg, message):
    # Coefficients inside the JSON digit limit whose area2 is past the
    # int-to-str limit, or whose plot is past the float range, are refused
    # with one stderr line and no file written; classify still succeeds.
    case = json.loads((CASES / "nonspecial_f2.json").read_text())
    case["divisor"] = {"a": 10**exponent, "b": 10**exponent}
    path = write_case(tmp_path, "huge.json", case)
    argv = ["body", str(path), "-o", str(tmp_path / "body.json")]
    if svg:
        argv += ["--svg", str(tmp_path / "body.svg")]
    assert _in_process(argv) == (2, "", f"NumberTooLarge: {message}\n")
    assert list(tmp_path.iterdir()) == [path]
    assert _in_process(["classify", str(path)])[0] == 0


def test_value_cap_refusal_past_the_digit_limit_exits_2(tmp_path):
    # Each alternating satellite multiplies the last value by about the
    # golden ratio squared: at r = 10289 it would have more than 4300 digits,
    # past what str() converts.  The multiplicities, filled backwards, run
    # through the Fibonacci numbers, and the refusal prints the square of the
    # first one whose square reaches the cap 2^24: 4181^2, on one line.
    points = [{"on_f1": True, "on_m": True}, {}]
    points += [{"extra_proximity": i - 2} for i in range(3, 10290)]
    case = json.loads((CASES / "minimal_f0.json").read_text())
    case["configuration"]["points"] = points
    path = write_case(tmp_path, "alternating.json", case)
    for command in ("classify", "body"):
        out = run_cli(command, str(path))
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr.startswith("SemigroupOverflow: semigroup value bound ")
        assert out.stderr.endswith(" exceeds cap\n") and out.stderr.count("\n") == 1
        assert out.stderr.split()[4] == str(4181 * 4181)


_OVERFLOW = "SemigroupOverflow: final contact value {} exceeds cap"
_TOO_MANY = "TooManyPoints: r = {} points exceed the cap of 65536"


@pytest.mark.parametrize(
    "beta_bar, on_m, eta, classified, body",
    [
        # One satellite block [n, n+1, n^2+n], r = n+1, at the largest n
        # whose last value stays below the value cap 2^24, and one past it.
        (
            [4095, 4096, 4095 * 4096], 1, 4095,
            (0, "special, NPI, never-minimal, mu_hat(F + 2M) = 28665"),
            (0, "quadrilateral: (0, 0), (28665, 28658), (24575/3, 24569/3), (4096, 4095)\n"
             "verification: area=pass, oracle=pass, containment=pass, unimodularity=pass"),
        ),
        ([4096, 4097, 4096 * 4097], 1, None, (2, _OVERFLOW.format(16781312)), None),
        # special_f2's free tail at the point cap 2^16, and one past it.
        (
            [20, 28, 153, 612 + 65536 - 12], 2, None,
            (0, "special, not NPI"),
            (2, "NotNPI: not non-positive at infinity: "
             "2*phi_m*phi_f1 + delta*phi_f1^2 = 1920 < beta_bar[-1] = 66136"),
        ),
        ([20, 28, 153, 612 + 65537 - 12], 2, None, (2, _TOO_MANY.format(65537)), None),
        # A free run up to just below the value cap is refused for its
        # length before any point is built; at the cap, for its value.
        ([2, 3, (1 << 24) - 1], 1, None, (2, _TOO_MANY.format(16777212)), None),
        ([2, 3, 1 << 24], 1, None, (2, _OVERFLOW.format(1 << 24)), None),
    ],
    ids=["block-4095", "block-4096", "tail-65536", "tail-65537", "run-below-cap", "run-at-cap"],
)
def test_beta_bar_at_the_caps(tmp_path, beta_bar, on_m, eta, classified, body):
    # Maximal contact values next to the value and point caps: each call
    # succeeds, or is refused with exit 2 and one stderr line, never a
    # traceback.  ``None`` for the body: refused as the classification is.
    case = {
        "surface": {"delta": 2, "point_kind": "special"},
        "beta_bar": beta_bar,
        "on_f1": 1,
        "on_m": on_m,
        "flag": {"kind": "free"} if eta is None else {"kind": "satellite", "eta": eta},
        "divisor": {"a": 1, "b": 2},
    }
    path = write_case(tmp_path, "caps.json", case)
    calls = [(["classify"], classified), (["body", "--verify", "--oracle"], body or classified)]
    for (command, *flags), (code, text) in calls:
        printed = (text + "\n", "") if code == 0 else ("", text + "\n")
        assert _in_process([command, str(path), *flags]) == (code, *printed)


def _near_the_caps(rng):
    """Maximal contact values a few units either side of the value cap 2^24
    and the point cap 2^16, with the flag and class of each case."""
    draws = []
    for _ in range(8):
        # A satellite block [n, n+1, n^2+n], r = n+1: n = 4095 is the last
        # one whose final value stays below the value cap.
        n = 4096 + rng.randint(-4, 3)
        draws.append(([n, n + 1, n * n + n], rng.choice([None, n])))
        # A free run after [2, 3]: refused for its length or its value.
        draws.append(([2, 3, (1 << 24) + rng.randint(-3, 3)], None))
        # special_f2's free tail at r points around the point cap.
        r = 65536 + rng.randint(-3, 3)
        draws.append(([20, 28, 153, 612 + r - 12], rng.choice([None, r - 1])))
    return draws


def test_beta_bar_fuzz_near_the_caps(tmp_path):
    # Seeded draws around both caps: every call succeeds, or is refused
    # with exit 2 or 3 and one stderr line, and never raises.
    rng = random.Random(20261020)
    for k, (beta_bar, eta) in enumerate(_near_the_caps(rng)):
        a, b = rng.choice([(1, 2), (2, 5), (0, 1), (3, 1)])
        case = {
            "surface": {"delta": 2, "point_kind": "special"},
            "beta_bar": beta_bar,
            "on_f1": 1,
            "on_m": rng.choice([1, 2]),
            "flag": {"kind": "free"} if eta is None else {"kind": "satellite", "eta": eta},
            "divisor": {"a": a, "b": b},
        }
        path = write_case(tmp_path, f"near-{k}.json", case)
        for argv in (["classify", str(path)], ["body", str(path), "--verify", "--oracle"]):
            code, out, err = _in_process(argv)
            assert code in (0, 2, 3), (case, argv, err)
            if code:
                assert out == "" and err.count("\n") == 1 and err.endswith("\n"), (case, argv)
            else:
                assert err == "" and out, (case, argv)
            assert "Traceback" not in out + err


def test_one_parser_serves_calls_in_one_process(tmp_path):
    # Calls in one process share state: the plain lists are read directly,
    # the abbreviated one builds the parser once and keeps it, and a refused
    # call followed by computed ones prints what fresh processes print.
    bad = write_case(tmp_path, "bad.json", {"surface": {"delta": 2}})
    special = str(CASES / "special_f2.json")
    calls = (["classify", str(bad)], ["body", special], ["body", special, "--ver"])
    for argv in calls:
        fresh = run_cli(*argv)
        assert _in_process(argv) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert [_in_process(argv)[0] for argv in calls] == [2, 0, 0]


# Both commands, a case path and a second value, each option in both
# spellings, and what only argparse reads: dashes, help, an abbreviation, an
# attached value and an empty token.
_ARGV_TOKENS = (
    "classify", "body", "c.json", "x.svg", "-o", "--output", "--verify", "--oracle",
    "--svg", "-", "--", "-h", "--out", "-oX", "--output=y", "",
)


def test_direct_parse_equals_argparse():
    # Every list of up to four tokens that the direct path reads, argparse
    # reads too, into the same attributes; the rest is left to argparse.
    parser = _build_parser()
    accepted = 0
    for n in range(5):
        for argv in itertools.product(_ARGV_TOKENS, repeat=n):
            direct = _parse_plain(list(argv))
            if direct is None:
                continue
            accepted += 1
            with contextlib.redirect_stderr(io.StringIO()) as err:
                try:
                    parsed = parser.parse_args(list(argv))
                except SystemExit:
                    pytest.fail(f"argparse refuses {argv}: {err.getvalue()}")
            assert vars(direct) == vars(parsed), argv
    assert accepted == 340


def test_usage_error_still_exits_2(capsys, tmp_path):
    for argv in (
        ["frobnicate"],
        ["body"],
        ["body", "x.json", "--nope"],
        ["body", "x.json", "-o"],
        ["classify", "x.json", "--svg", "s"],
        ["body", "a.json", "b.json"],
    ):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "usage: hirzebruch" in capsys.readouterr().err
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: hirzebruch")
    assert main(["classify", str(CASES / "minimal_f0.json")]) == 0
    capsys.readouterr()
    # The spellings only argparse reads give what the spelled-out form gives.
    special = str(CASES / "special_f2.json")
    outputs = {}
    for name, flags in (
        ("plain", ["--verify", "-o", str(tmp_path / "plain.json")]),
        ("attached", ["--verify", f"--output={tmp_path / 'attached.json'}"]),
        ("abbreviated", ["--ver", "-o", str(tmp_path / "abbreviated.json")]),
    ):
        assert main(["body", special, *flags]) == 0
        outputs[name] = (capsys.readouterr(), (tmp_path / f"{name}.json").read_bytes())
    assert outputs["attached"] == outputs["plain"] == outputs["abbreviated"]


def test_plain_call_imports_no_argparse(tmp_path):
    # A plain call never imports argparse, nor the gettext and locale it
    # would load; help in a fresh interpreter still goes through argparse.
    out = tmp_path / "body.json"
    plain = (
        "import sys\n"
        "from hirzebruch.cli import main\n"
        f"code = main(['body', {str(CASES / 'special_f2.json')!r}, '--verify', "
        f"'--oracle', '-o', {str(out)!r}])\n"
        "print(code, sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n"
    )
    helped = (
        "import sys\n"
        "from hirzebruch.cli import main\n"
        "try:\n"
        "    main(['--help'])\n"
        "except SystemExit as exc:\n"
        "    print(exc.code, 'argparse' in sys.modules, file=sys.stderr)\n"
    )
    env = {**os.environ, "PYTHONPATH": PACKAGE_ROOT}
    runs = [
        subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=False
        )
        for script in (plain, helped)
    ]
    assert runs[0].stdout.splitlines()[-1] == "0 []", runs[0].stderr
    assert json.loads(out.read_text())["shape"] == "quadrilateral"
    assert runs[1].stdout.startswith("usage: hirzebruch")
    assert runs[1].stderr == "0 True\n"


# What importing ``dataclasses`` loads, and the plotting module.
_HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize", "hirzebruch.svg")


def test_plain_call_imports_no_dataclasses_and_no_svg(tmp_path):
    # A fresh interpreter importing the package and making a plain call
    # loads none of the heavy modules (those loaded before the package are
    # not counted); only an ``--svg`` call loads the plotting module.
    out, svg = tmp_path / "body.json", tmp_path / "body.svg"
    case = str(CASES / "special_f2.json")
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import hirzebruch\n"
        "from hirzebruch.cli import main\n"
        "code = main(sys.argv[1:])\n"
        f"print(code, sorted(set({_HEAVY!r}) & (set(sys.modules) - before)))\n"
    )
    env = {**os.environ, "PYTHONPATH": PACKAGE_ROOT}
    plain = ["body", case, "--verify", "--oracle", "-o", str(out)]
    runs = [
        subprocess.run(
            [sys.executable, "-c", script, *argv],
            capture_output=True, text=True, env=env, check=False,
        )
        for argv in (plain, [*plain, "--svg", str(svg)])
    ]
    assert runs[0].stdout.splitlines()[-1] == "0 []", runs[0].stderr
    assert runs[1].stdout.splitlines()[-1] == "0 ['hirzebruch.svg']", runs[1].stderr
    assert json.loads(out.read_text())["shape"] == "quadrilateral"
    assert svg.read_text().startswith("<svg")


def test_verification_failure_exits_3(monkeypatch, capsys):
    import hirzebruch.cli as cli
    from hirzebruch.errors import VerificationFailed

    def broken(case, verify=False, oracle=False):
        raise VerificationFailed("area", "forced for the exit-code test")

    monkeypatch.setattr(cli, "body_payload", broken)
    code = cli.main(["body", str(CASES / "special_f2.json"), "--verify"])
    assert code == 3
    assert "verification failed" in capsys.readouterr().err


def test_broken_invariant_exits_3_without_traceback():
    # A failed internal invariant is a typed error: one stderr line, exit 3.
    script = (
        "import sys\n"
        "import hirzebruch.seshadri as seshadri\n"
        "from hirzebruch.cli import main\n"
        "seshadri.lower_bound = lambda val, d: (1, 2, False)\n"
        f"sys.exit(main(['body', {str(CASES / 'special_f2.json')!r}]))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=False,
        env={**os.environ, "PYTHONPATH": PACKAGE_ROOT},
    )
    assert out.returncode == 3, out.stderr
    assert "Traceback" not in out.stderr
    assert out.stderr.startswith("verification failed: minimality: bound 1 vs 2")
    assert len(out.stderr.splitlines()) == 1


def _json_paths(value, prefix=()):
    """The path of every field of a JSON value, the value itself first."""
    yield prefix
    if isinstance(value, dict):
        items = value.items()
    else:
        items = enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _json_paths(child, prefix + (key,))


def _mutate(case, path, action, value):
    """``case`` with the field at ``path`` replaced by ``value`` or deleted."""
    if not path:
        return value
    case = json.loads(json.dumps(case))
    *head, last = path
    parent = case
    for key in head:
        parent = parent[key]
    if action == "delete":
        del parent[last]
    else:
        parent[last] = value
    return case


# Small integers keep every mutated case far below the cap on points.
_small = st.integers(-3, 24)
_junk = st.one_of(
    _small,
    st.booleans(),
    st.none(),
    st.sampled_from(["", "free", "satellite", "special", "general"]),
    st.lists(_small, max_size=4),
    st.dictionaries(st.sampled_from(["kind", "eta", "a", "b", "points"]), _small, max_size=2),
)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_cases_exit_cleanly(data):
    # Any mutation of a shipped case is either computed or refused with a
    # typed error: exit code 0, 2 or 3 and no traceback, in process.
    source = data.draw(st.sampled_from(sorted(CASES.glob("*.json"))), label="case")
    case = json.loads(source.read_text(encoding="utf-8"))
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        paths = list(_json_paths(case))
        path = data.draw(st.sampled_from(paths), label="path")
        action = data.draw(st.sampled_from(["integer", "junk", "delete"]), label="action")
        if action == "delete" and not path:
            action = "junk"
        value = data.draw(_small if action == "integer" else _junk, label="value")
        case = _mutate(case, path, action, value)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "case.json"
        path.write_text(json.dumps(case), encoding="utf-8")
        for argv in (["classify", str(path)], ["body", str(path), "--verify", "--oracle"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 2, 3), (argv[0], case, err.getvalue())
            assert "Traceback" not in out.getvalue() + err.getvalue()

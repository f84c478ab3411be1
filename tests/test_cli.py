import contextlib
import errno
import io
import json
import os
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hirzebruch.cli import main

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


def test_failed_second_write_restores_the_first(tmp_path, monkeypatch):
    # With --svg and -o naming existing files both are written in place; a
    # disk that fills up on the second write leaves both with their old
    # bytes and modes, stdout empty and the usual one-line refusal.
    svg, json_out = tmp_path / "x.svg", tmp_path / "x.json"
    svg.write_bytes(b"old svg\n")
    json_out.write_bytes(b"old json\n")
    svg.chmod(0o640)
    json_out.chmod(0o600)
    calls = []
    write_text = Path.write_text

    def failing(self, *args, **kwargs):
        calls.append(self)
        if len(calls) == 2:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return write_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", failing)
    argv = ["body", str(CASES / "special_f2.json"), "--svg", str(svg), "-o", str(json_out)]
    code, out, err = _in_process(argv)
    assert (code, out, err) == (
        2, "", f"cannot write {json_out}: {os.strerror(errno.ENOSPC)}\n"
    )
    assert calls == [svg, json_out]
    assert (svg.read_bytes(), json_out.read_bytes()) == (b"old svg\n", b"old json\n")
    assert (svg.stat().st_mode & 0o777, json_out.stat().st_mode & 0o777) == (0o640, 0o600)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.json", "x.svg"]


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


def test_one_parser_serves_calls_in_one_process(tmp_path):
    # main keeps its parser between calls: a refused call followed by a
    # computed one prints what two fresh processes print.
    bad = write_case(tmp_path, "bad.json", {"surface": {"delta": 2}})
    calls = (["classify", str(bad)], ["body", str(CASES / "special_f2.json")])
    for argv in calls:
        fresh = run_cli(*argv)
        assert _in_process(argv) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert [_in_process(argv)[0] for argv in calls] == [2, 0]


def test_usage_error_still_exits_2(capsys):
    for argv in (["frobnicate"], ["body"], ["body", "x.json", "--nope"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "usage: hirzebruch" in capsys.readouterr().err
    assert main(["classify", str(CASES / "minimal_f0.json")]) == 0


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

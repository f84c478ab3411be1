import json
import os
import subprocess
import sys
from pathlib import Path

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
    out = run_cli("classify", str(tmp_path / "nope.json"))
    assert out.returncode == 2


def test_verification_failure_exits_3(monkeypatch, capsys):
    import hirzebruch.cli as cli
    from hirzebruch.errors import VerificationFailed

    def broken(case, verify=False, oracle=False):
        raise VerificationFailed("area", "forced for the exit-code test")

    monkeypatch.setattr(cli, "body_payload", broken)
    code = cli.main(["body", str(CASES / "special_f2.json"), "--verify"])
    assert code == 3
    assert "verification failed" in capsys.readouterr().err

"""End-to-end command-line behavior via dispatch()."""

import hashlib
import json

import potseq.potential
from potseq.cli import CACHE_ENV, MAX_TARGET_FILE_VERTICES, dispatch


def run(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_seq_check_reports_graphicality(capsys):
    code, out = run(capsys, "seq", "check", "3,1,1")
    assert code == 0
    assert "graphical: false" in out
    code, out = run(capsys, "seq", "check", "5^2,3^4")
    assert code == 0
    assert "graphical: true" in out


def test_seq_realize_prints_graph_text(capsys):
    code, out = run(capsys, "seq", "realize", "2^3")
    assert code == 0
    assert out.splitlines()[0] == "3 3"


def test_seq_realize_fails_on_non_graphical(capsys):
    code, out = run(capsys, "seq", "realize", "3,3,1")
    assert code == 1
    assert "not graphical" in out


def test_seq_enumerate_lists_the_slice(capsys):
    code, out = run(capsys, "seq", "enumerate", "--n", "3", "--sum", "4")
    assert code == 0
    assert out == "2^1,1^2\n"


def test_potential_check_false_is_still_exit_zero(capsys):
    code, out = run(capsys, "potential", "check", "4^6", "--target", "kp11:3")
    assert code == 0
    assert "potentially: false" in out


def test_potential_check_true_prints_certificate(capsys):
    code, out = run(capsys, "potential", "check", "5^2,3^4", "--target", "kp11:3")
    assert code == 0
    assert "potentially: true" in out
    assert "certificate:" in out


def test_potential_check_requires_exactly_one_target(capsys):
    code, out = run(capsys, "potential", "check", "4^6")
    assert code == 1
    assert "error:" in out


def test_certificate_round_trip(tmp_path, capsys):
    cert = tmp_path / "cert.txt"
    code, _ = run(
        capsys, "potential", "check", "5^2,3^4", "--target", "kp11:3", "--out", str(cert)
    )
    assert code == 0
    code, out = run(
        capsys, "verify-certificate", str(cert), "--seq", "5^2,3^4", "--target", "kp11:3"
    )
    assert code == 0
    assert "certificate: valid" in out

    # corrupt one embedding line and the verifier must say no
    lines = cert.read_text().splitlines()
    lines[-1] = "H:4 -> G:0"
    cert.write_text("\n".join(lines) + "\n")
    code, out = run(
        capsys, "verify-certificate", str(cert), "--seq", "5^2,3^4", "--target", "kp11:3"
    )
    assert code == 1
    assert "certificate: invalid" in out


def test_witness_writes_a_verifiable_certificate(tmp_path, capsys):
    cert = tmp_path / "wit.txt"
    code, out = run(capsys, "witness", "k311", "4^8", "--trace", "--out", str(cert))
    assert code == 0
    assert "trace:" in out
    code, out = run(
        capsys, "verify-certificate", str(cert), "--seq", "4^8", "--target", "kp11:3"
    )
    assert code == 0
    assert "certificate: valid" in out


def test_witness_known_exception_exits_one(capsys):
    code, out = run(capsys, "witness", "k311", "4^6")
    assert code == 1
    assert "4^6" in out


def test_sigma_verify_theorem2_n6(capsys):
    code, out = run(capsys, "sigma", "verify-theorem2", "--n", "6")
    assert code == 0
    assert "computed-sigma: 26" in out
    assert "exceptions-at-or-above-22: 4^6" in out
    assert "result: pass" in out


def test_sigma_compute_lists_exceptions(capsys):
    code, out = run(capsys, "sigma", "compute", "--target", "kp11:3", "--n", "5")
    assert code == 0
    assert "sigma: 18" in out


def test_sigma_compute_from_target_file(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(CACHE_ENV, raising=False)
    k33 = tmp_path / "k33.txt"
    k33.write_text("6 9\n" + "".join(f"{u} {v}\n" for u in range(3) for v in range(3, 6)))
    code, out = run(capsys, "sigma", "compute", "--target-file", str(k33), "--n", "7")
    assert code == 0
    assert "sigma: 34" in out
    assert "exceptions: 244" in out
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "50be0d80fa2d91a090a22e1d71371ef64192d2b9f64ee9eeea9d3c1a71667677"
    )


def test_oversized_target_file_is_rejected_before_any_scan(tmp_path, monkeypatch, capsys):
    def no_scan(*_args):
        raise AssertionError("the oversized target reached a factorial scan")

    monkeypatch.setattr(potseq.potential, "_automorphisms", no_scan)
    monkeypatch.setattr(potseq.potential, "canonical_form", no_scan)
    n = MAX_TARGET_FILE_VERTICES + 1
    cycle = tmp_path / "c9.txt"
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    cycle.write_text(f"{n} {n}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    code, out = run(capsys, "sigma", "compute", "--target-file", str(cycle), "--n", "9")
    assert code == 1
    assert out.startswith("error:")
    assert f"{n} vertices" in out


def test_sigma_verify_conjecture(capsys):
    code, out = run(capsys, "sigma", "verify-conjecture", "--p", "1", "--n", "6")
    assert code == 0
    assert "result: pass" in out


def test_extremal_build_and_bound(capsys):
    code, out = run(capsys, "extremal", "bound", "--p", "3", "--n", "7")
    assert code == 0
    assert out == "26\n"
    code, out = run(capsys, "extremal", "build", "--p", "3", "--n", "7", "--emit", "sequence")
    assert code == 0
    assert out == "6^1,3^6\n"


def test_decomp_emits_validated_parts(capsys):
    code, out = run(capsys, "decomp", "even", "--m", "2")
    assert code == 0
    assert out.splitlines()[0] == "one-factor"


def test_output_is_deterministic(capsys):
    argv = ("sigma", "compute", "--target", "kp11:3", "--n", "6")
    _, first = run(capsys, *argv)
    _, second = run(capsys, *argv)
    assert first == second


def test_json_report_shape(capsys):
    code, out = run(capsys, "--json", "seq", "check", "4^6")
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "seq check"
    assert report["outcome"] == "value"
    assert report["value"]["graphical"] is True
    assert report["inputs"]["sequence"] == "4^6"
    assert isinstance(report["elapsed_ms"], int)


def test_json_error_report(capsys):
    code, out = run(capsys, "--json", "seq", "realize", "3,3,1")
    assert code == 1
    report = json.loads(out)
    assert report["outcome"] == "fail"
    assert "not graphical" in report["value"]["error"]


def test_cache_dir_round_trip(tmp_path, capsys):
    argv = (
        "--cache-dir", str(tmp_path),
        "sigma", "compute", "--target", "kp11:3", "--n", "5",
    )
    _, first = run(capsys, *argv)
    assert list(tmp_path.iterdir())
    _, second = run(capsys, *argv)
    assert first == second


def test_usage_errors_exit_two(capsys):
    assert dispatch(["bogus"]) == 2
    assert dispatch([]) == 2
    assert dispatch(["seq"]) == 2
    capsys.readouterr()

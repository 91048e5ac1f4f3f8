"""End-to-end command-line behavior via dispatch()."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import potseq.cli
import potseq.potential
from potseq.cli import CACHE_ENV, MAX_TARGET_FILE_VERTICES, dispatch, main
from potseq.potential import certificate_errors, make_kp11
from potseq.sequences import parse_sequence


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


def test_seq_enumerate_walks_a_long_sequence_without_recursion(capsys):
    # one stack frame per position would pass the interpreter's
    # recursion limit long before 1,200 positions
    code, out = run(capsys, "seq", "enumerate", "--n", "1200", "--sum", "2")
    assert code == 0
    assert out == "1^2,0^1198\n"


def test_importing_the_cli_leaves_the_process_pool_unimported():
    # a serial sweep never pays for importing multiprocessing
    probe = "import sys, potseq.cli; print('concurrent.futures.process' in sys.modules)"
    src = str(Path(potseq.cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr


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


def test_named_kp11_check_skips_the_automorphism_scan(monkeypatch, capsys):
    def no_scan(*_args):
        raise AssertionError("a named K_{p,1,1} reached the factorial scan")

    monkeypatch.setattr(potseq.potential, "_automorphisms", no_scan)
    code, out = run(capsys, "potential", "check", "1^12", "--target", "kp11:10")
    assert code == 0
    assert "potentially: false" in out.splitlines()
    seq = parse_sequence("11^12")
    verdict = potseq.potential.is_potentially(seq, make_kp11(10))
    assert verdict.answer
    assert not certificate_errors(seq, make_kp11(10), verdict.certificate, verdict.embedding)


def test_kp11_target_larger_than_any_sequence_is_rejected(capsys):
    code, out = run(capsys, "sigma", "compute", "--target", "kp11:99999", "--n", "5")
    assert code == 1
    assert out.startswith("error:")


def test_sigma_verify_conjecture(capsys):
    code, out = run(capsys, "sigma", "verify-conjecture", "--p", "1", "--n", "6")
    assert code == 0
    assert "result: pass" in out


@pytest.mark.parametrize(
    "n, message", [("5", "n must be >= 2p + 4"), ("200004", "exceeds max_n")]
)
def test_verify_conjecture_domain_error_comes_before_the_target(n, message, monkeypatch, capsys):
    def no_target(_p):
        raise AssertionError("the out-of-range p reached make_kp11")

    monkeypatch.setattr(potseq.cli, "make_kp11", no_target)
    code, out = run(capsys, "sigma", "verify-conjecture", "--p", "100000", "--n", n)
    assert code == 1
    assert out.startswith("error:")
    assert message in out


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


def test_conflicting_cache_line_fails_the_sweep(tmp_path, capsys):
    argv = (
        "--cache-dir", str(tmp_path),
        "sigma", "compute", "--target", "kp11:3", "--n", "5",
    )
    run(capsys, *argv)
    (cache,) = tmp_path.iterdir()
    lines = cache.read_text().splitlines()
    text, bit = lines[0].split()
    with cache.open("a") as fh:
        fh.write(f"{text} {1 - int(bit)}\n")
    code, out = run(capsys, *argv)
    assert code == 1
    assert out.startswith("error: ") and f"{cache.name}:{len(lines) + 1}:" in out


def test_usage_errors_exit_two(capsys):
    assert dispatch(["bogus"]) == 2
    assert dispatch([]) == 2
    assert dispatch(["seq"]) == 2
    assert dispatch(["seq", "check", "-x"]) == 2
    assert dispatch(["seq", "check", "--bogus", "1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ("seq", "check", "-1,1"),
        ("potential", "check", "-1,1", "--target", "kp11:3"),
        ("witness", "k311", "-1,5"),
        ("verify-certificate", "cert.txt", "--seq", "-1,1"),
    ],
    ids=" ".join,
)
def test_negative_sequence_text_is_a_domain_error(argv, capsys):
    code, out = run(capsys, *argv)
    assert code == 1
    assert out == "error: degrees must be non-negative\n"
    code, out = run(capsys, "--json", *argv)
    assert code == 1
    assert json.loads(out)["value"] == {"error": "degrees must be non-negative"}


def test_closed_stdout_exits_one_without_a_traceback(monkeypatch, capsys):
    # a pipe whose reader has gone: every flush raises BrokenPipeError
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as broken:
        monkeypatch.setattr(sys, "stdout", broken)
        monkeypatch.setattr(sys, "argv", ["potseq", "sigma", "compute", "--target", "kp11:3", "--n", "8"])
        with pytest.raises(SystemExit) as exc:
            main()
        monkeypatch.undo()
    assert exc.value.code == 1
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("p", [2, 3])
def test_target_file_copy_of_kp11_sweeps_like_the_named_target(p, tmp_path, monkeypatch, capsys):
    # apexes on the two highest labels, so the file is not make_kp11's labeling
    apexes = (p, p + 1)
    edges = [apexes] + [(c, a) for c in range(p) for a in apexes]
    path = tmp_path / "kp11.txt"
    path.write_text(f"{p + 2} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    calls = []
    contains = potseq.potential.contains_subgraph
    monkeypatch.setattr(
        potseq.potential, "contains_subgraph", lambda g, h: calls.append(h) or contains(g, h)
    )
    _, named = run(capsys, "sigma", "compute", "--target", f"kp11:{p}", "--n", "7")
    _, from_file = run(capsys, "sigma", "compute", "--target-file", str(path), "--n", "7")
    # only the target line differs, and neither sweep reaches the general
    # engine's containment test
    assert named.splitlines()[1:] == from_file.splitlines()[1:]
    assert from_file.splitlines()[0].startswith("target: g")
    assert calls == []


# stdout sha256 per command, as (text mode, --json mode with elapsed_ms
# set to 0).  The header lines of the first five are rendered from the
# report's value fields, and the last one is an error report.
PINNED_STDOUT = {
    ("seq", "check", "3,1,1"): (
        "555438ee8f291c1426e60f93200f935f0ad458402f5fc183466b820622e5da8a",
        "5c070df340878dc624be3ded3967ecd2740dd5813b8a158a75081ce342d3dc80",
    ),
    ("potential", "check", "5^2,3^4", "--target", "kp11:3"): (
        "a8109685be13226c5d1a493cf8157fc8b6bea5cd03b0764d83ce88ff6c65bee2",
        "b192cd2ddaa4e18e2a15d15983700c74f01c0c6db4e85e88842aac355397f9be",
    ),
    ("extremal", "build", "--p", "3", "--n", "7"): (
        "4249218c0cedc6281d2be95eefb37f1c34eb4cf7fcc9d67a7b3aa831446110a0",
        "0adb839841102f8b1de19d5d233c87a801a7a6918c0ac37275833877f8cc1329",
    ),
    ("sigma", "compute", "--target", "kp11:3", "--n", "6"): (
        "176b171042876c4859b00b4c809a0db1be3354ca303eebb998eefd80c9520a4f",
        "51a79f64da128c5be23187bd5c1f93aafb707a64be690aa7f173217ee99159e8",
    ),
    ("sigma", "verify-conjecture", "--p", "1", "--n", "6"): (
        "1417e3a9e58d64c0254689d5d0a2c237dd12d3fbfe955a21b1c63bf2cfbed3b3",
        "eac481628552d8dda8608988e607fd0adbffac0a2bd8981d3109c35ef319819b",
    ),
    ("witness", "k311", "4^8", "--trace"): (
        "2f259dc94878894b0c807b042f05eb5f97d57ed351329f284b5f2db37fa42c64",
        "960626a34dcf92c1ac213c0a9468a1d96731a81bcd2929d5056f3e8aec1194e2",
    ),
    ("seq", "realize", "3,3,1"): (
        "f4632114bfc7d2a81f35bd705ff36bf74da4d00afd3ab8f3bd8796f7f30c78ec",
        "cfc6743f95e3e247886dd4d1e682dddb384ded17b57f6e863e2da3132a0e9b6e",
    ),
}


@pytest.mark.parametrize("argv", list(PINNED_STDOUT), ids=" ".join)
def test_stdout_bytes_are_pinned(argv, monkeypatch, capsys):
    monkeypatch.delenv(CACHE_ENV, raising=False)
    digests = []
    for mode in ((), ("--json",)):
        _, out = run(capsys, *mode, *argv)
        out = re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', out)
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    assert tuple(digests) == PINNED_STDOUT[argv]

"""Command-line interface.

Exit codes: a decided verdict (true or false) exits 0; a refuted theorem
check, an invalid certificate, a domain error, or a reader that closed
stdout early exits 1; malformed usage exits 2.

Stdout is deterministic for a fixed argv and cache state, except for the
elapsed_ms field of --json reports.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from .decomp import decompose_even, decompose_odd
from .errors import DomainError, PotseqError
from .extremal import build_lower_bound, sigma_lower_bound
from .graphs import graph_from_text, graph_to_text, realize
from .potential import (
    TargetPattern,
    certificate_errors,
    is_potentially,
    make_kp11,
)
from .sequences import MAX_SEQUENCE_TERMS, degree_sum, enumerate_graphical, format_sequence
from .sequences import is_graphical, parse_sequence
from .thresholds import (
    K311_N6_EXCEPTION_FLOOR,
    VerdictStore,
    compute_sigma,
    verify_conjectured_sigma,
    verify_k311_thresholds,
)
from .witness import (
    AttachStep,
    BaseCaseStep,
    EarlyContainmentStep,
    InterchangeStep,
    SeededCliqueStep,
    find_k311_realization,
)

CACHE_ENV = "POTSEQ_CACHE_DIR"

# The placement search scans all n! vertex permutations of a target for
# its automorphisms, and its cache key comes from a canonical form that
# is factorial in the degree-class sizes; past this size either can hang.
MAX_TARGET_FILE_VERTICES = 8


@dataclass
class Handled:
    outcome: str  # "pass", "fail", or "value"
    value: dict
    lines: list[str]
    artifacts: list[str] = field(default_factory=list)


def _parse_target(spec: str | None, path: str | None) -> TargetPattern:
    if (spec is None) == (path is None):
        raise PotseqError("give exactly one of --target or --target-file")
    if spec is not None:
        kind, sep, arg = spec.partition(":")
        if kind == "kp11" and sep:
            try:
                p = int(arg)
                if p + 2 <= MAX_SEQUENCE_TERMS:
                    return make_kp11(p)
            except ValueError:
                raise PotseqError(f"bad target spec {spec!r}") from None
            raise DomainError(f"{spec} needs {p + 2} terms; the limit is {MAX_SEQUENCE_TERMS}")
        raise PotseqError(f"unknown target spec {spec!r}; use kp11:P or --target-file")
    graph = graph_from_text(Path(path).read_text())
    if graph.n > MAX_TARGET_FILE_VERTICES:
        raise DomainError(
            f"target file has {graph.n} vertices; at most {MAX_TARGET_FILE_VERTICES} are supported"
        )
    return TargetPattern(graph)


def _store_for(args, target: TargetPattern, n: int) -> VerdictStore | None:
    root = args.cache_dir or os.environ.get(CACHE_ENV)
    return VerdictStore(root, target, n) if root else None


def _field_lines(value: dict) -> list[str]:
    """``key: value`` lines for report fields; ``_`` in a key becomes ``-``
    and booleans print as true/false."""
    return [
        f"{key.replace('_', '-')}: {str(v).lower() if isinstance(v, bool) else v}"
        for key, v in value.items()
    ]


def _embedding_lines(embedding: dict[int, int]) -> list[str]:
    return [f"H:{h} -> G:{embedding[h]}" for h in sorted(embedding)]


def _certificate_text(graph, embedding) -> str:
    return graph_to_text(graph) + "".join(f"{line}\n" for line in _embedding_lines(embedding))


def _parse_certificate(text: str):
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise PotseqError("empty certificate")
    try:
        _, m = (int(x) for x in lines[0].split())
    except ValueError:
        raise PotseqError(f"bad certificate header {lines[0]!r}") from None
    graph = graph_from_text("\n".join(lines[: 1 + m]))
    embedding: dict[int, int] = {}
    for ln in lines[1 + m :]:
        try:
            left, right = ln.split("->")
            h = int(left.strip().removeprefix("H:"))
            g = int(right.strip().removeprefix("G:"))
        except ValueError:
            raise PotseqError(f"bad embedding line {ln!r}") from None
        embedding[h] = g
    return graph, embedding


def _format_trace_step(step) -> str:
    if isinstance(step, BaseCaseStep):
        return "base-case: solved by the exact engine"
    if isinstance(step, SeededCliqueStep):
        return "seed-clique: realization with K4 on the top four slots"
    if isinstance(step, EarlyContainmentStep):
        return f"early: {step.note}"
    if isinstance(step, InterchangeStep):
        rem = " ".join(f"{u}-{v}" for u, v in step.removed)
        ins = " ".join(f"{u}-{v}" for u, v in step.inserted)
        return f"interchange: case={step.case} removed=[{rem}] inserted=[{ins}]"
    if isinstance(step, AttachStep):
        to = ",".join(str(v) for v in step.attached_to)
        return f"attach: degree={step.removed_degree} to=[{to}]"
    return f"step: {step!r}"


# ---------------------------------------------------------------- handlers


def _handle_seq_check(args) -> Handled:
    seq = parse_sequence(args.sequence)
    value = {
        "sequence": format_sequence(seq),
        "n": len(seq),
        "sum": degree_sum(seq),
        "graphical": is_graphical(seq),
    }
    return Handled("value", value, _field_lines(value))


def _handle_seq_realize(args) -> Handled:
    seq = parse_sequence(args.sequence)
    g = realize(seq)
    text = graph_to_text(g)
    return Handled("value", {"graph": text}, text.splitlines())


def _handle_seq_enumerate(args) -> Handled:
    seqs = [format_sequence(s) for s in enumerate_graphical(args.n, args.sum)]
    return Handled("value", {"n": args.n, "sum": args.sum, "sequences": seqs}, list(seqs))


def _handle_decomp(args) -> Handled:
    dec = decompose_even(args.m) if args.kind == "even" else decompose_odd(args.m)
    lines: list[str] = []
    parts_json = []
    for role, edges in dec.parts:
        lines.append(role)
        lines.append(f"{dec.n} {len(edges)}")
        ordered = sorted(edges)
        lines.extend(f"{u} {v}" for u, v in ordered)
        parts_json.append({"role": role, "edges": [[u, v] for u, v in ordered]})
    return Handled("value", {"n": dec.n, "parts": parts_json}, lines)


def _handle_extremal_bound(args) -> Handled:
    bound = sigma_lower_bound(args.p, args.n)
    return Handled("value", {"p": args.p, "n": args.n, "bound": bound}, [str(bound)])


def _handle_extremal_build(args) -> Handled:
    inst = build_lower_bound(args.p, args.n)
    seq_text = format_sequence(inst.sequence)
    graph_text = graph_to_text(inst.witness_graph)
    value = {
        "p": inst.p,
        "n": inst.n,
        "bound": inst.bound,
        "sequence": seq_text,
        "sum": degree_sum(inst.sequence),
    }
    if args.emit == "sequence":
        lines = [seq_text]
    elif args.emit == "graph":
        lines = graph_text.splitlines()
    else:
        lines = [*_field_lines(value), "graph:", *graph_text.splitlines()]
    value["graph"] = graph_text
    return Handled("value", value, lines)


def _handle_potential_check(args) -> Handled:
    seq = parse_sequence(args.sequence)
    target = _parse_target(args.target, args.target_file)
    verdict = is_potentially(seq, target)
    value = {
        "sequence": format_sequence(seq),
        "target": target.cache_key,
        "potentially": verdict.answer,
    }
    lines = _field_lines(value)
    artifacts: list[str] = []
    if verdict.answer:
        cert_text = _certificate_text(verdict.certificate, verdict.embedding)
        value["certificate"] = cert_text
        lines.extend(["certificate:", *cert_text.splitlines()])
        if args.out:
            Path(args.out).write_text(cert_text)
            artifacts.append(args.out)
    return Handled("value", value, lines, artifacts)


def _handle_sigma_compute(args) -> Handled:
    target = _parse_target(args.target, args.target_file)
    store = _store_for(args, target, args.n)
    progress = _stderr_progress(args)
    result = compute_sigma(target, args.n, jobs=args.jobs, store=store, progress=progress)
    exceptions = [
        {"sequence": format_sequence(seq), "sum": s} for seq, s in result.exceptions
    ]
    value = {
        "target": target.cache_key,
        "n": result.n,
        "sigma": result.sigma_value,
        "max_sum_checked": result.max_sum_checked,
    }
    lines = [*_field_lines(value), f"exceptions: {len(exceptions)}"]
    lines.extend(f"exception: {e['sequence']} sum={e['sum']}" for e in exceptions)
    value["exceptions"] = exceptions
    return Handled("value", value, lines)


def _handle_sigma_verify_theorem2(args) -> Handled:
    report = verify_k311_thresholds(
        args.n,
        jobs=args.jobs,
        store=_store_for(args, make_kp11(3), args.n),
        progress=_stderr_progress(args),
    )
    floor = K311_N6_EXCEPTION_FLOOR
    high = report.result.exceptions_with_sum_at_least(floor) if args.n == 6 else []
    value = {
        "n": report.n,
        "expected": report.expected,
        "computed": report.result.sigma_value,
        "passed": report.passed,
    }
    lines = [
        f"n: {report.n}",
        f"expected-sigma: {report.expected}",
        f"computed-sigma: {report.result.sigma_value}",
    ]
    if args.n == 6:
        listed = [format_sequence(s) for s in high]
        lines.append(f"exceptions-at-or-above-{floor}: {','.join(listed) or '(none)'}")
        value[f"exceptions_at_or_above_{floor}"] = listed
    lines.append(f"result: {'pass' if report.passed else 'fail'}")
    return Handled("pass" if report.passed else "fail", value, lines)


def _handle_sigma_verify_conjecture(args) -> Handled:
    if not 2 * args.p + 4 <= args.n <= args.max_n:
        # raises its DomainError before make_kp11 builds an O(p) target
        verify_conjectured_sigma(args.p, args.n, max_n=args.max_n)
    ok = verify_conjectured_sigma(
        args.p,
        args.n,
        max_n=args.max_n,
        jobs=args.jobs,
        store=_store_for(args, make_kp11(args.p), args.n),
        progress=_stderr_progress(args),
    )
    bound = sigma_lower_bound(args.p, args.n)
    value = {"p": args.p, "n": args.n, "lower_bound": bound}
    lines = [*_field_lines(value), f"result: {'pass' if ok else 'fail'}"]
    value["passed"] = ok
    return Handled("pass" if ok else "fail", value, lines)


def _handle_witness(args) -> Handled:
    seq = parse_sequence(args.sequence)
    result = find_k311_realization(seq)
    cert_text = _certificate_text(result.graph, result.embedding)
    value = {
        "sequence": format_sequence(seq),
        "certificate": cert_text,
    }
    lines = [f"sequence: {value['sequence']}", "graph:"]
    lines.extend(graph_to_text(result.graph).splitlines())
    lines.append("embedding:")
    lines.extend(_embedding_lines(result.embedding))
    if args.trace:
        steps = [_format_trace_step(s) for s in result.trace]
        lines.extend(["trace:", *steps])
        value["trace"] = steps
    artifacts: list[str] = []
    if args.out:
        Path(args.out).write_text(cert_text)
        artifacts.append(args.out)
    return Handled("value", value, lines, artifacts)


def _handle_verify_certificate(args) -> Handled:
    seq = parse_sequence(args.seq)
    target = _parse_target(args.target, args.target_file)
    graph, embedding = _parse_certificate(Path(args.certificate).read_text())
    problems = certificate_errors(seq, target, graph, embedding)
    value = {
        "sequence": format_sequence(seq),
        "target": target.cache_key,
        "valid": not problems,
        "problems": problems,
    }
    lines = [f"certificate: {'valid' if not problems else 'invalid'}"]
    lines.extend(f"problem: {p}" for p in problems)
    return Handled("pass" if not problems else "fail", value, lines)


def _stderr_progress(args):
    if not args.progress:
        return None

    def report(s: int, count: int, failures: int) -> None:
        print(f"sum={s} sequences={count} failures={failures}", file=sys.stderr)

    return report


# ---------------------------------------------------------------- parser


class _Parser(argparse.ArgumentParser):
    """Reads any argument that starts with ``-`` and a digit as a value, so
    sequence text such as ``-1,1`` reaches ``parse_sequence`` and fails
    there as a domain error.  No option of this program starts that way.

    This sets ``_negative_number_matcher``, a private attribute that
    argparse's ``_parse_optional`` reads; a Python whose argparse stops
    reading it would bring back the usage error (exit 2) for ``-1,1``.
    ``test_negative_sequence_text_is_a_domain_error`` guards against that."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="potseq",
        description="Potentially K_{p,1,1}-graphic sequences: thresholds, witnesses, certificates.",
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON run report")
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=f"verdict cache directory (default: ${CACHE_ENV} if set)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, help="parallel sweep workers, one degree sum per task"
    )
    parser.add_argument(
        "--progress", action="store_true", help="print sweep progress to stderr"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    seq = sub.add_parser("seq", help="degree-sequence operations")
    seq_sub = seq.add_subparsers(dest="subcommand", required=True)
    p = seq_sub.add_parser("check", help="graphicality and degree sum")
    p.add_argument("sequence")
    p.set_defaults(handler=_handle_seq_check, command_name="seq check")
    p = seq_sub.add_parser("realize", help="Havel-Hakimi realization")
    p.add_argument("sequence")
    p.set_defaults(handler=_handle_seq_realize, command_name="seq realize")
    p = seq_sub.add_parser("enumerate", help="all graphical sequences with a given sum")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sum", type=int, required=True)
    p.set_defaults(handler=_handle_seq_enumerate, command_name="seq enumerate")

    dec = sub.add_parser("decomp", help="complete-graph decompositions")
    dec_sub = dec.add_subparsers(dest="subcommand", required=True)
    p = dec_sub.add_parser("even", help="K_{2m}: one-factor plus spanning cycles")
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(handler=_handle_decomp, kind="even", command_name="decomp even")
    p = dec_sub.add_parser("odd", help="K_{2m+1}: spanning cycles")
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(handler=_handle_decomp, kind="odd", command_name="decomp odd")

    ext = sub.add_parser("extremal", help="lower-bound constructions")
    ext_sub = ext.add_subparsers(dest="subcommand", required=True)
    p = ext_sub.add_parser("bound", help="the degree-sum lower bound")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_handle_extremal_bound, command_name="extremal bound")
    p = ext_sub.add_parser("build", help="extremal sequence and witness realization")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--emit", choices=("graph", "sequence", "both"), default="both")
    p.set_defaults(handler=_handle_extremal_build, command_name="extremal build")

    pot = sub.add_parser("potential", help="potentially-target decisions")
    pot_sub = pot.add_subparsers(dest="subcommand", required=True)
    p = pot_sub.add_parser("check", help="decide and certify")
    p.add_argument("sequence")
    p.add_argument("--target", default=None, help="target spec, e.g. kp11:3")
    p.add_argument("--target-file", default=None, help="graph text file")
    p.add_argument("--out", default=None, help="write the certificate here")
    p.set_defaults(handler=_handle_potential_check, command_name="potential check")

    sig = sub.add_parser("sigma", help="exact threshold sweeps")
    sig_sub = sig.add_subparsers(dest="subcommand", required=True)
    p = sig_sub.add_parser("compute", help="full sweep for a target")
    p.add_argument("--target", default=None, help="target spec, e.g. kp11:3")
    p.add_argument("--target-file", default=None)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_handle_sigma_compute, command_name="sigma compute")
    p = sig_sub.add_parser("verify-theorem2", help="check the exact K_{3,1,1} table")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_handle_sigma_verify_theorem2, command_name="sigma verify-theorem2")
    p = sig_sub.add_parser("verify-conjecture", help="computed sigma vs the bound formula")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-n", type=int, default=9)
    p.set_defaults(handler=_handle_sigma_verify_conjecture, command_name="sigma verify-conjecture")

    wit = sub.add_parser("witness", help="constructive realizations")
    wit_sub = wit.add_subparsers(dest="subcommand", required=True)
    p = wit_sub.add_parser("k311", help="realization containing K_{3,1,1}")
    p.add_argument("sequence")
    p.add_argument("--trace", action="store_true", help="print the construction steps")
    p.add_argument("--out", default=None, help="write the certificate here")
    p.set_defaults(handler=_handle_witness, command_name="witness k311")

    p = sub.add_parser("verify-certificate", help="re-validate an emitted certificate")
    p.add_argument("certificate", help="certificate file: graph text plus embedding lines")
    p.add_argument("--seq", required=True)
    p.add_argument("--target", default=None)
    p.add_argument("--target-file", default=None)
    p.set_defaults(handler=_handle_verify_certificate, command_name="verify-certificate")

    return parser


def dispatch(argv: list[str]) -> int:
    """Parse argv, run the command, print its output; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    started = time.monotonic()
    try:
        handled = args.handler(args)
    except PotseqError as exc:
        handled = Handled("fail", {"error": str(exc)}, [f"error: {exc}"])
    if args.json:
        print(json.dumps({
            "command": args.command_name,
            "inputs": _echo_inputs(args),
            "outcome": handled.outcome,
            "value": handled.value,
            "artifacts": handled.artifacts,
            "elapsed_ms": int((time.monotonic() - started) * 1000),
        }))
    else:
        for line in handled.lines:
            print(line)
    return 0 if handled.outcome in ("pass", "value") else 1


def _echo_inputs(args) -> dict:
    skip = {"handler", "command_name", "json", "kind", "command", "subcommand", "progress"}
    return {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in skip and v is not None and not callable(v)
    }


def main() -> None:
    try:
        code = dispatch(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone (``| head``).  Point stdout at devnull so the
        # flush at exit cannot raise again, and report the cut output.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()

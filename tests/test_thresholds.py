"""Exact threshold sweeps and the verdict cache."""

import os

import pytest

import potseq.thresholds
from potseq.errors import CorruptCache
from potseq.potential import is_potentially, make_kp11
from potseq.sequences import DegreeSequence, degree_sum, enumerate_graphical, format_sequence
from potseq.thresholds import (
    K311_SIGMA_TABLE,
    VerdictStore,
    compute_sigma,
    verify_conjectured_sigma,
    verify_k311_thresholds,
)


def test_sigma_k311_n5_is_18():
    result = compute_sigma(make_kp11(3), 5)
    assert result.sigma_value == 18
    assert result.max_sum_checked == 20


def test_sigma_k311_n6_is_26_with_the_known_exception():
    result = compute_sigma(make_kp11(3), 6)
    assert result.sigma_value == 26
    high = result.exceptions_with_sum_at_least(22)
    assert high == [DegreeSequence((4,) * 6)]


def test_sigma_is_sharp_at_its_boundary():
    # the largest failing sum must be exactly sigma - 2
    for n in (5, 6, 7):
        result = compute_sigma(make_kp11(3), n)
        top_failure = result.exceptions[0]
        assert top_failure[1] == result.sigma_value - 2
        assert not is_potentially(top_failure[0], make_kp11(3)).answer


def test_every_recorded_exception_really_fails():
    result = compute_sigma(make_kp11(3), 6)
    for seq, s in result.exceptions:
        assert degree_sum(seq) == s
        assert not is_potentially(seq, make_kp11(3)).answer


def test_sequences_at_or_above_sigma_all_succeed():
    result = compute_sigma(make_kp11(3), 6)
    for s in range(result.sigma_value, 32, 2):
        for seq in enumerate_graphical(6, s):
            assert is_potentially(seq, make_kp11(3)).answer, seq


def test_sigma_for_triangle_matches_known_small_values():
    # sigma(K_3, n) = 2n for n >= 6; at n = 5 the cycle 2^5 pushes it to 12
    result5 = compute_sigma(make_kp11(1), 5)
    assert result5.sigma_value == 12
    assert result5.exceptions[0] == (DegreeSequence((2,) * 5), 10)
    for n in (6, 7):
        assert compute_sigma(make_kp11(1), n).sigma_value == 2 * n


def test_sigma_k311_n12_is_46():
    # beyond the paper's table: 4n - 2 again, equal to the construction bound
    result = compute_sigma(make_kp11(3), 12)
    assert result.sigma_value == 46
    assert len(result.exceptions) == 1378


def test_computed_sigma_never_undercuts_the_construction_bound():
    from potseq.extremal import sigma_lower_bound

    for p in (1, 2, 3):
        for n in range(p + 2, 8):
            computed = compute_sigma(make_kp11(p), n).sigma_value
            assert computed >= sigma_lower_bound(p, n), (p, n)


def test_verify_table_passes_for_tabulated_n():
    for n in (5, 6, 7):
        report = verify_k311_thresholds(n)
        assert report.passed
        assert report.expected == K311_SIGMA_TABLE[n]
    with pytest.raises(ValueError):
        verify_k311_thresholds(4)
    with pytest.raises(ValueError):
        verify_k311_thresholds(10)


def test_verify_conjecture_small_cases():
    assert verify_conjectured_sigma(1, 6)
    assert verify_conjectured_sigma(2, 8)
    # any p >= 1 is accepted; p = 4 at n = 12 stops on the size guard alone
    with pytest.raises(ValueError, match="exceeds max_n=9"):
        verify_conjectured_sigma(4, 12)
    with pytest.raises(ValueError, match="p must be >= 1"):
        verify_conjectured_sigma(0, 6)
    with pytest.raises(ValueError):
        verify_conjectured_sigma(3, 9)
    with pytest.raises(ValueError):
        verify_conjectured_sigma(1, 20)


def test_compute_sigma_rejects_undersized_n():
    with pytest.raises(ValueError):
        compute_sigma(make_kp11(3), 4)


def test_verdict_store_round_trip(tmp_path):
    target = make_kp11(3)
    store = VerdictStore(tmp_path, target, 6)
    assert store.get("4^6") is None
    store.put("4^6", False)
    store.put("5^2,3^4", True)
    assert store.get("4^6") is False
    assert store.get("5^2,3^4") is True

    reloaded = VerdictStore(tmp_path, target, 6)
    assert reloaded.get("4^6") is False
    assert reloaded.get("5^2,3^4") is True
    # a second target or n must not see these entries
    assert VerdictStore(tmp_path, target, 7).get("4^6") is None
    assert VerdictStore(tmp_path, make_kp11(2), 6).get("4^6") is None


def test_cached_sweep_matches_fresh_sweep(tmp_path):
    target = make_kp11(3)
    fresh = compute_sigma(target, 6)
    primed = compute_sigma(target, 6, store=VerdictStore(tmp_path, target, 6))
    cached = compute_sigma(target, 6, store=VerdictStore(tmp_path, target, 6))
    assert fresh.sigma_value == primed.sigma_value == cached.sigma_value
    assert fresh.exceptions == primed.exceptions == cached.exceptions


def test_parallel_sweep_matches_serial():
    target = make_kp11(3)
    serial = compute_sigma(target, 6)
    parallel = compute_sigma(target, 6, jobs=2)
    assert serial.sigma_value == parallel.sigma_value
    assert serial.exceptions == parallel.exceptions


def test_jobs_are_clamped_to_the_cpu_count(monkeypatch):
    # The fake pool records the worker count and maps in-process, so no
    # worker is ever started, whatever the requested count.
    created = []

    class RecordingPool:
        def __init__(self, max_workers, initializer, initargs):
            created.append(max_workers)
            initializer(*initargs)

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

        def shutdown(self, cancel_futures=False):
            pass

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(potseq.thresholds, "ProcessPoolExecutor", RecordingPool)
    target = make_kp11(3)
    result = compute_sigma(target, 6, jobs=10**6)
    assert created == [2]
    assert result.exceptions == compute_sigma(target, 6).exceptions
    assert created == [2]


def sweep_with_log(tmp_path, jobs):
    target = make_kp11(3)
    calls = []
    store = VerdictStore(tmp_path, target, 7)
    result = compute_sigma(target, 7, jobs=jobs, store=store,
                           progress=lambda s, k, f: calls.append((s, k, f)))
    return result, calls, store.path.read_bytes()


def test_pool_sweep_matches_serial_in_result_progress_and_cache_bytes(tmp_path, monkeypatch):
    # a two-worker pool even on a one-CPU machine
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    serial = sweep_with_log(tmp_path / "serial", 1)
    pooled = sweep_with_log(tmp_path / "pool", 2)
    assert pooled == serial
    # a second pooled sweep over the warm cache decides nothing new
    again = sweep_with_log(tmp_path / "pool", 2)
    assert again == serial


def test_progress_callback_sees_every_sum():
    calls = []
    compute_sigma(make_kp11(3), 5, progress=lambda s, k, f: calls.append((s, k, f)))
    assert [s for s, _, _ in calls] == list(range(20, -1, -2))
    # failure counts never decrease as the sweep descends
    fails = [f for _, _, f in calls]
    assert fails == sorted(fails)


def test_verdict_lines_are_plain_text(tmp_path):
    target = make_kp11(3)
    store = VerdictStore(tmp_path, target, 6)
    store.put("4^6", False)
    files = list(tmp_path.iterdir())
    assert len(files) == 1
    assert files[0].read_text() == "4^6 0\n"
    assert format_sequence(DegreeSequence((4,) * 6)) == "4^6"


def test_sweep_cache_file_matches_one_put_per_sequence(tmp_path):
    target = make_kp11(3)
    compute_sigma(target, 7, store=VerdictStore(tmp_path / "sweep", target, 7))
    one_by_one = VerdictStore(tmp_path / "puts", target, 7)
    for s in range(42, -1, -2):
        for seq in enumerate_graphical(7, s):
            one_by_one.put(format_sequence(seq), is_potentially(seq, target).answer)
    swept = (tmp_path / "sweep" / one_by_one.path.name).read_bytes()
    assert swept == one_by_one.path.read_bytes()


def test_put_many_skips_stored_verdicts_and_writes_nothing_when_empty(tmp_path):
    target = make_kp11(3)
    store = VerdictStore(tmp_path, target, 6)
    store.put_many([])
    assert not store.path.exists()
    store.put_many([("4^6", False), ("5^2,3^4", True), ("4^6", False)])
    store.put_many([("5^2,3^4", True)])
    assert store.path.read_text() == "4^6 0\n5^2,3^4 1\n"


def test_verdict_store_refuses_an_edited_verdict(tmp_path):
    target = make_kp11(3)
    store = VerdictStore(tmp_path, target, 6)
    store.put_many([("4^6", False), ("5^2,3^4", True)])
    with store.path.open("a") as fh:
        fh.write("4^6 1\n")
    with pytest.raises(CorruptCache, match=r"__n6\.txt:3: verdict 1 for 4\^6"):
        VerdictStore(tmp_path, target, 6)


@pytest.mark.parametrize("line", ["garbage", "4^6", "4^6 2", "4^6  0", "4^6 0 1"])
def test_verdict_store_refuses_a_line_it_cannot_parse(tmp_path, line):
    target = make_kp11(3)
    store = VerdictStore(tmp_path, target, 6)
    store.path.write_text(f"5^2,3^4 1\n{line}\n")
    with pytest.raises(CorruptCache, match=r"__n6\.txt:2: cannot parse"):
        VerdictStore(tmp_path, target, 6)


def test_verdict_store_accepts_identical_duplicates(tmp_path):
    target = make_kp11(3)
    store = VerdictStore(tmp_path, target, 6)
    store.path.write_text("4^6 0\n5^2,3^4 1\n4^6 0\n\n")
    reloaded = VerdictStore(tmp_path, target, 6)
    assert reloaded.get("4^6") is False
    assert reloaded.get("5^2,3^4") is True

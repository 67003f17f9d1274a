"""The check registry itself: ids, suites, and failure capture."""

import dataclasses

import pytest

from klcells import verification
from klcells.verification import ALL_CHECK_IDS, SUITES, run_check, run_suite


def test_check_ids():
    assert ALL_CHECK_IDS == tuple(f"A{i}" for i in range(1, 13))


def test_suite_definitions():
    assert set(SUITES) == {"paper", "quick", "full"}
    assert SUITES["quick"] == ALL_CHECK_IDS
    assert SUITES["full"] == ALL_CHECK_IDS
    assert set(SUITES["paper"]) < set(ALL_CHECK_IDS)
    # the "paper" suite covers the structural checks but skips the slow sweeps
    assert "A2" in SUITES["paper"]
    assert "A11" not in SUITES["paper"]


def test_unknown_check_rejected():
    with pytest.raises(ValueError):
        run_check("A13")
    with pytest.raises(ValueError):
        run_suite("nightly")


def test_single_check_result_shape():
    result = run_check("A3", mode="quick")
    assert result.check_id == "A3"
    assert result.passed
    assert result.elapsed_seconds >= 0.0
    assert "basis (s, sts, ts)" in result.detail


def test_paper_suite_passes():
    results = run_suite("paper")
    assert [r.check_id for r in results] == list(SUITES["paper"])
    assert all(r.passed for r in results)


def test_a2_catches_a_corrupted_preorder(monkeypatch):
    real = verification.compute_cells

    def corrupted(n):
        partition = real(n)
        return dataclasses.replace(partition, left_leq=partition.left_leq - {(0, 3)})

    monkeypatch.setattr(verification, "compute_cells", corrupted)
    result = run_check("A2", mode="full")
    assert not result.passed
    assert "left_leq" in result.detail

"""Cross-check suites: every stored identity holds, failures are reported."""

from __future__ import annotations

import pytest

from detmom import verify
from detmom.verify import (
    CheckResult,
    VerificationReport,
    run_suite,
    suite_montecarlo,
    suite_series,
    suite_small,
)


def test_small_suite_is_all_green():
    report = suite_small()
    assert report.ok
    assert report.first_failure() is None
    assert len(report.checks) > 20


def test_series_suite_is_all_green():
    report = suite_series()
    assert report.ok


def test_montecarlo_suite_is_all_green_at_reduced_size():
    report = suite_montecarlo(seed=5, samples=20_000)
    assert report.ok


def test_run_suite_rejects_unknown_names():
    with pytest.raises(ValueError):
        run_suite("everything")


def test_run_suite_calls_the_module_function(monkeypatch):
    # A wrapper set on the module (a tracer, say) is the function that runs.
    calls = []

    def recorder(**kwargs):
        calls.append(kwargs)
        return VerificationReport("series", [])

    monkeypatch.setattr(verify, "suite_series", recorder)
    assert run_suite("series", seed=3).suite == "series"
    assert calls == [{"workers": 1, "seed": 3, "samples": verify.MC_SAMPLES}]


def test_failure_reporting():
    bad = CheckResult("two equals three", "2", "3", passed=False)
    good = CheckResult("one equals one", "1", "1", passed=True)
    report = VerificationReport("demo", [good, bad])
    assert not report.ok
    assert report.first_failure() is bad
    data = report.to_json_dict()
    assert data["pass"] is False
    assert data["checks"][1] == {
        "name": "two equals three",
        "expected": "2",
        "got": "3",
        "pass": False,
    }

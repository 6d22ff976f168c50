"""The end-to-end gates that `fedlora run --check` applies to a report."""

import pytest

from fedlora import checks
from fedlora.cli import main
from fedlora.federated import SCHEDULE_COMBOS


def _report(ae_f1=99.0, combos=SCHEDULE_COMBOS):
    def summary(f1):
        return {"stats": {"f1": {"mean": f1}, "tnr": {"mean": 98.0}}}

    sweep = [
        {"epochs_per_round": e, "rounds": r, "initial_loss": 1.0, "final_loss": 0.1}
        for e, r in combos
    ]
    return {"comparison": {"AE": summary(ae_f1), "AEFL": summary(ae_f1)}, "sweep": sweep}


@pytest.fixture
def report_gates_only(monkeypatch):
    # the seven report-free checks run in test_checks.py and the acceptance
    # criteria; without them a failure here can only come from a report gate
    monkeypatch.setattr(checks, "CHECKS", ())


@pytest.mark.parametrize(
    "report, failed",
    [
        (_report(), []),
        (_report(ae_f1=89.0), ["e2e"]),
        (_report(combos=SCHEDULE_COMBOS[1:]), ["sweep"]),
    ],
    ids=["passing", "ae-f1-89", "missing-combo"],
)
def test_report_gates(report_gates_only, report, failed):
    results = checks.run_all_checks(report)
    assert [r.name for r in results] == ["e2e", "sweep"]
    assert [r.name for r in results if not r.passed] == failed


def test_run_check_exits_one_when_a_report_gate_fails(report_gates_only, monkeypatch, capsys,
                                                      tmp_path):
    monkeypatch.setattr("fedlora.cli.run_experiment", lambda *a, **k: _report(ae_f1=89.0))
    assert main(["run", "--out", str(tmp_path), "--check"]) == 1
    out = capsys.readouterr().out
    assert "CHECK FAIL e2e: AE F1 89.00 below 90" in out
    assert "CHECK ok   sweep" in out

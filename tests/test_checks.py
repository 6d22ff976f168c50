"""The self-checks behind `fedlora --check`."""

from fedlora import checks
from fedlora.cli import main


def test_every_self_check_passes():
    results = checks.run_all_checks()
    assert [r.name for r in results] == [
        "size_accounting",
        "planner_figures",
        "fedavg_properties",
        "threshold_sweep",
        "metric_identities",
        "gradients",
        "iforest_recovery",
    ]
    assert [r.name for r in results if not r.passed] == []


def test_cli_check_alone_exits_zero(capsys):
    assert main(["--check"]) == 0
    out = capsys.readouterr().out
    assert out.count("CHECK ok") == 7
    assert "FAIL" not in out

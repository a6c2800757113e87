"""The example scripts built on the counting engine and condition monitoring.

Each script asserts its own result; running it here keeps a change to the
library from breaking an example unnoticed.  The scripts not run here are
left to CI's run of every example.
"""

import runpy
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, capsys):
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


def test_materialized_warehouse(capsys):
    out = run_example("materialized_warehouse.py", capsys)
    assert "maintained views agree with recomputation: True" in out


def test_active_inventory(capsys):
    out = run_example("active_inventory.py", capsys)
    assert "reordering Widget" in out
    assert "after undo" in out


def test_condition_monitoring_alerts(capsys):
    out = run_example("condition_monitoring_alerts.py", capsys)
    assert "monitor -> {+Alert(Office), -Alert(Lab)}" in out
    assert "Blind condition achievable" in out
    safe = next(line for line in out.splitlines()
                if "alert-free extensions" in line)
    assert len(safe.split("; ")) == 47
    assert "alerts changed = False" in out


def test_no_alert_free_extension_raises_an_alert():
    from repro import Transaction, UpdateProcessor, insert

    network = runpy.run_path(str(EXAMPLES / "condition_monitoring_alerts.py"))
    db = network["build_network"]()
    db.declare_base("Vent", 1)
    monitor = UpdateProcessor(db)
    risky = Transaction([insert("Hot", "S2")])
    safe = monitor.prevent_condition_activation(risky, "Alert")
    assert len(safe.translations) == 47
    for translation in safe.translations:
        assert insert("Hot", "S2") in translation.transaction
        induced = monitor.upward(translation.transaction)
        assert not induced.insertions_of("Alert"), translation

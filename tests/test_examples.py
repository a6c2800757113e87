"""The example scripts built on the counting engine and condition monitoring.

Each script asserts its own result; running it here keeps a change to the
library from breaking an example unnoticed.  The slow scripts are left to
CI's run of every example.
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

"""tools/budget_table.py end to end, at 2 trials with tiny budgets."""

import importlib.util
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("budget_table", _ROOT / "tools" / "budget_table.py")
budget_table = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(budget_table)


def test_budget_table_smoke(capsys):
    # this tree as its own baseline: both sides make the same runs, so their
    # columns agree and no run ends lower
    argv = ["--baseline", str(_ROOT), "--trials", "2", "--draws", "2", "--elements", "25",
            "--long", "110", "--budgets-cold", "4,8", "--budgets-warm", "4,8"]
    assert budget_table.main(argv) == 0
    out = capsys.readouterr().out
    rows = {}
    for line in out.splitlines():
        if line.startswith("| "):
            key, *cells = line.strip(" |").split(" | ")
            rows[key] = cells
    for key in ("25", "10 dBm", "40 dBm"):
        cells = rows[key]
        half = len(cells) // 2
        assert cells[:half] == cells[half:]
        assert all(" / " in cell for cell in cells)
    # --long 110 is the tree's own cold budget, so its column stays
    assert "this tree 110" in rows["N"]
    assert "Basins" in out and "10 dBm" in out.split("Basins")[1]
    assert out.rstrip().endswith(": 0")  # no run lists as lower
    # a budget above --long, here the tree's own, would be read at --long
    with pytest.raises(RuntimeError, match="above --long 12"):
        budget_table.main([*argv, "--long", "12"])  # the last --long counts

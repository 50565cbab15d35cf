"""Smoke tests: each script in scripts/ runs to exit 0 on small inputs."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    return proc.stdout


def test_constants_table():
    out = _run_script("constants_table.py")
    for q in ("1", "2", "6", "inf"):
        assert f"\nq = {q}\n" in out
    # one row per theta under each q header
    assert sum(line.startswith("  0.500 ") for line in out.splitlines()) == 4
    assert "C_table and C_consistency" in out


def test_search_counterexamples():
    out = _run_script("search_counterexamples.py", "--draws", "50")
    lines = out.splitlines()
    assert lines[0].startswith("s = 1, tau = 1")
    for kind in ("paper-c", "paper-with-factor", "paper-bigc-table", "sharp-oracle", "unit"):
        row = [line for line in lines if line.split()[:1] == [kind]]
        assert len(row) == 1 and "worst margin = " in row[0]
    sharp = next(line for line in lines if line.split()[:1] == ["sharp-oracle"])
    assert sharp.endswith(" ok")


def test_run_invgauss_demo(tmp_path):
    out_dir = tmp_path / "demo"
    out = _run_script(
        "run_invgauss_demo.py",
        "--out-dir", str(out_dir), "--n-cells", "200", "--u-grid", "0.05:0.6:5",
        cwd=tmp_path,
    )
    assert f"wrote {out_dir}/demo_table.csv (5 rows)" in out
    table = (out_dir / "demo_table.csv").read_text().splitlines()
    assert len(table) == 6
    assert table[1].startswith("0.05,") and table[-1].startswith("0.6,")
    assert (out_dir / "demo_steps.csv").read_text().startswith("t_break,value\n")
    metadata = json.loads((out_dir / "demo_metadata.json").read_text())
    assert metadata["n_cells"] == 200
    if importlib.util.find_spec("matplotlib") is None:
        assert "matplotlib not available, skipping the plot" in out
    else:
        assert (out_dir / "demo_plot.png").exists()

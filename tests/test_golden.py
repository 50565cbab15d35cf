"""CLI stdout, byte for byte, against a committed corpus.

tests/golden/ holds the inputs and, under out/, the exact stdout of each
case below in JSON and CSV.  The corpus guards refactors that must not move
a single output byte.  When an output change is intended, regenerate it and
say which cases changed and why:

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

from bjaudit.cli import main

GOLDEN = Path(__file__).parent / "golden"
INSTANCE = str(GOLDEN / "instance.csv")
MATRIX = str(GOLDEN / "matrix.csv")
STATE = str(GOLDEN / "state.csv")
COEFFS = str(GOLDEN / "coeffs.csv")

PROVIDERS = ("paper-c", "paper-with-factor", "paper-bigc-table", "sharp-oracle", "unit")
GRIDS = {"default": [], "log": ["--grid", "log:0.1:10:7"]}
S_TAU = ["--s", "0.5", "--tau", "0.5"]


def _cases() -> list[tuple[str, list[str]]]:
    base: list[tuple[str, list[str]]] = []
    audit = ["audit", "--input", INSTANCE]
    for grid, grid_args in GRIDS.items():
        for prov in PROVIDERS:
            base.append(
                (
                    f"audit-jackson-{prov}-{grid}",
                    audit + ["--name", "jackson", "--provider", prov] + S_TAU + grid_args,
                )
            )
        for variant in ("paper-2-over-pi", "safe-unit"):
            base.append(
                (
                    f"audit-weak-l1-{variant}-{grid}",
                    audit + ["--name", "weak-l1", "--variant", variant] + grid_args,
                )
            )
        base.append(
            (f"audit-q2-{grid}", audit + ["--name", "q2", "--theta", "0.3"] + grid_args)
        )
    base.append(("audit-bernstein-right", audit + ["--name", "bernstein-right"] + S_TAU))
    for prov in PROVIDERS:
        base.append(
            (
                f"search-random-atoms-{prov}",
                ["search", "--provider", prov, "--n-max", "5", "--draws", "25"]
                + ["--seed", "3"]
                + S_TAU,
            )
        )
    base.append(
        (
            "search-indicator-sweep",
            ["search", "--provider", "paper-c", "--generator", "indicator-sweep"] + S_TAU,
        )
    )
    spectral = ["spectral", "--matrix", MATRIX, "--state", STATE]
    base += [
        ("spectral-identity-default", spectral + ["--g", "identity"]),
        ("spectral-square-default", spectral + ["--g", "square"]),
        ("spectral-identity-log", spectral + ["--g", "identity"] + GRIDS["log"]),
        ("rearrange", ["rearrange", "--input", INSTANCE]),
        ("quasinorm", ["quasinorm", "--input", INSTANCE] + S_TAU),
        ("constants", ["constants"] + S_TAU),
        ("trig", ["trig", "--input", COEFFS]),
        ("demo-invgauss", ["demo-invgauss", "--n-cells", "200", "--u-grid", "0.5:3:6"]),
    ]
    return [
        (f"{name}.{fmt}", argv + ["--format", fmt])
        for name, argv in base
        for fmt in ("json", "csv")
    ]


CASES = _cases()


def cli_stdout(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0, argv
    return buf.getvalue()


@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_cli_stdout_matches_golden(name, argv):
    assert cli_stdout(argv).encode() == (GOLDEN / "out" / name).read_bytes()


@pytest.mark.parametrize("kernel_min", [1], indirect=True)
@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_cli_stdout_matches_golden_through_the_kernel(kernel_min, name, argv):
    # every plain-float column, however short, rendered by jsonutil's kernel
    test_cli_stdout_matches_golden(name, argv)


# CSV header names whose JSON list has another key
JSON_KEY = {"t": "grid", "t_break": "breaks", "value": "values"}


def _field(text: str):
    return None if text == "" else float(text)


def _json_value(v):
    return math.inf if v == "inf" else v


@pytest.mark.parametrize("stem", sorted({name.rsplit(".", 1)[0] for name, _ in CASES}))
def test_csv_agrees_with_json(stem):
    doc = json.loads((GOLDEN / "out" / f"{stem}.json").read_text())
    lines = (GOLDEN / "out" / f"{stem}.csv").read_text().splitlines()
    header, *rows = [line.split(",") for line in lines]
    if header == ["key", "value"]:
        assert [(k, _field(v)) for k, v in rows] == [(k, _json_value(v)) for k, v in doc.items()]
        return
    # an audit's columns sit in the document, a search's in its report (null
    # when nothing was audited), the demo's in its table
    table = (doc["report"] or {}) if "report" in doc else doc.get("table", doc)
    columns = [list(col) for col in zip(*rows)] or [[] for _ in header]
    for name, col in zip(header, columns):
        want = table.get(JSON_KEY.get(name, name), [])
        if name == "value" and want:
            want = want + [0.0]  # the row where the step function falls to zero
        assert [_field(x) for x in col] == want, name


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python tests/test_golden.py --write")
    for name, argv in CASES:
        (GOLDEN / "out" / name).write_bytes(cli_stdout(argv).encode())
    print(f"wrote {len(CASES)} cases to {GOLDEN / 'out'}")

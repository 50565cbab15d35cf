import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import bjaudit
import bjaudit.cli as cli_mod
import bjaudit.params as params_mod
from bjaudit import DomainError, NumericError, QuadratureError, UsageError
from bjaudit.cli import main, parse_grid
from bjaudit.params import c_big, constant_consistency_report

UNIT_INDICATOR = "atom_id,weight,magnitude\na0,1.0,1.0\n"
REF_INSTANCE = (
    "atom_id,weight,magnitude\n"
    "a0,0.5,5.0\n"
    "a1,1.0,3.0\n"
    "a2,2.0,1.0\n"
)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_unknown_subcommand_exits_two(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_parse_grid_forms():
    assert parse_grid("2.0").tolist() == [2.0]
    assert parse_grid("1:3:5").tolist() == [1.0, 1.5, 2.0, 2.5, 3.0]
    np.testing.assert_allclose(
        parse_grid("log:0.1:10:3"), [0.1, 1.0, 10.0], rtol=1e-12
    )


@pytest.mark.parametrize(
    "text, why",
    [
        ("3:1:5", "grid needs lo <= hi"),
        ("log:0:1:4", "log grid needs 0 < lo <= hi"),
        ("1:2", "use VALUE, lo:hi:n, or log:lo:hi:n"),
        ("abc", "not a number"),
        ("1:3:0", "grid needs n >= 1"),
        ("log:2:1:3", "log grid needs 0 < lo <= hi"),
        ("inf:1:2", "grid needs lo <= hi"),
        ("x:1:3", "could not convert string to float: 'x'"),
    ],
)
def test_parse_grid_rejects(text, why):
    msg = f"cannot parse grid {text!r}: {why}"
    with pytest.raises(UsageError, match=f"^{re.escape(msg)}$") as err:
        parse_grid(text)
    assert str(err.value).count(text) == 1


def test_constants_json(capsys):
    code, out, err = run(capsys, ["constants", "--s", "2", "--tau", "2"])
    assert code == 0 and err == ""
    assert "0.33333333333333331" in out
    doc = json.loads(out)
    assert doc["c_exact"] == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert doc["theta"] == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert doc["q"] == 6.0
    assert doc["n_integral"] is not None


def test_constants_csv_infinite_tau(capsys):
    code, out, err = run(
        capsys, ["constants", "--s", "1", "--tau", "inf", "--format", "csv"]
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "key,value"
    as_map = dict(line.split(",", 1) for line in lines[1:])
    assert as_map["c_exact"] == "1.0"
    assert as_map["n_algebraic"] == ""  # undefined at q = inf


def test_constants_computes_each_constant_once(capsys, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return c_big(*args)

    monkeypatch.setattr(cli_mod, "c_big", counted)
    monkeypatch.setattr(params_mod, "c_big", counted)
    code, out, err = run(capsys, ["constants", "--theta", "0.3", "--q", "3"])
    assert (code, err) == (0, "") and len(calls) == 2  # table and consistency
    monkeypatch.undo()
    # the report's abs_diff, bit for bit, from the two values the run reports
    assert json.loads(out)["consistency_abs_diff"] == constant_consistency_report(0.3, 3.0)["abs_diff"]
    # q = inf: the report raises DomainError there, so there is no difference
    code, out, err = run(capsys, ["constants", "--theta", "0.5", "--q", "inf"])
    assert code == 0 and '"consistency_abs_diff": null' in out
    assert json.loads(out)["c_big_table"] is not None
    code, out, err = run(capsys, ["constants", "--theta", "0.5", "--q", "inf", "--format", "csv"])
    assert code == 0 and "\nconsistency_abs_diff,\n" in out


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["constants"], "parameters required"),
        (["constants", "--s", "2"], "must be given together"),
        (["constants", "--s", "2", "--tau", "2", "--theta", "0.5", "--q", "2"], "not both"),
    ],
)
def test_param_resolution_errors(capsys, argv, fragment):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert fragment in err


def test_rearrange_golden(capsys, tmp_path):
    path = tmp_path / "inst.csv"
    path.write_text(REF_INSTANCE)
    code, out, err = run(capsys, ["rearrange", "--input", str(path)])
    assert code == 0
    assert out == "t_break,value\n0.0,5.0\n0.5,3.0\n1.5,1.0\n3.5,0.0\n"


def test_rearrange_of_the_zero_function_keeps_its_break(capsys, tmp_path):
    path = tmp_path / "zero.csv"
    path.write_text("atom_id,weight,magnitude\na0,1.0,0.0\na1,2.0,0.0\n")
    code, out, err = run(capsys, ["rearrange", "--input", str(path), "--format", "csv"])
    assert (code, out, err) == (0, "t_break,value\n0.0,0.0\n", "")
    code, out, err = run(capsys, ["rearrange", "--input", str(path), "--format", "json"])
    assert code == 0 and json.loads(out)["breaks"] == [0]


def test_rearrange_malformed_input(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,w,m\na0,1.0,1.0\n")
    code, out, err = run(capsys, ["rearrange", "--input", str(path)])
    assert code == 2
    assert "row 1" in err


def test_quasinorm_values(capsys, tmp_path):
    path = tmp_path / "inst.csv"
    path.write_text(REF_INSTANCE)
    code, out, err = run(
        capsys, ["quasinorm", "--input", str(path), "--s", "2", "--tau", "2"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["quasinorm"] == pytest.approx(6.920305267833204, rel=1e-14)
    assert doc["l0"] == 3.5
    assert doc["l1"] == 7.5
    assert doc["linf"] == 5.0


def test_audit_jackson_violation_exits_zero(capsys, tmp_path):
    path = tmp_path / "ind.csv"
    path.write_text(UNIT_INDICATOR)
    code, out, err = run(
        capsys,
        [
            "audit",
            "--name",
            "jackson",
            "--input",
            str(path),
            "--s",
            "1",
            "--tau",
            "1",
            "--provider",
            "paper-with-factor",
            "--grid",
            "0.9",
        ],
    )
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["violated"] is True
    assert doc["min_margin"] == pytest.approx(-4.0 / 9.0, abs=1e-12)
    assert doc["witness_t"] == 0.9


def test_audit_default_provider_and_grid(capsys, tmp_path):
    path = tmp_path / "ind.csv"
    path.write_text(UNIT_INDICATOR)
    code, out, err = run(
        capsys,
        ["audit", "--name", "jackson", "--input", str(path), "--s", "1", "--tau", "1"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["params"]["provider"] == "paper-c"
    assert len(doc["grid"]) >= 3


def test_audit_q2_flag_rules(capsys, tmp_path):
    path = tmp_path / "ind.csv"
    path.write_text(UNIT_INDICATOR)
    code, out, err = run(
        capsys,
        ["audit", "--name", "q2", "--input", str(path), "--theta", "0.5", "--s", "1"],
    )
    assert code == 2
    assert "only --theta" in err
    code, out, err = run(
        capsys, ["audit", "--name", "q2", "--input", str(path), "--theta", "0.5"]
    )
    assert code == 0
    code, out, err = run(
        capsys, ["audit", "--name", "q2", "--input", str(path)]
    )
    assert code == 2
    assert "requires --theta" in err


def test_audit_unknown_name(capsys, tmp_path):
    path = tmp_path / "ind.csv"
    path.write_text(UNIT_INDICATOR)
    code, out, err = run(
        capsys, ["audit", "--name", "nikolskii", "--input", str(path)]
    )
    assert code == 2
    assert "unknown audit name" in err


def test_audit_underscore_names_accepted(capsys, tmp_path):
    path = tmp_path / "ind.csv"
    path.write_text(UNIT_INDICATOR)
    code, out, err = run(
        capsys,
        ["audit", "--name", "weak_l1", "--input", str(path), "--grid", "0.8"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["inequality_name"] == "weak_l1"
    assert doc["min_margin"] == pytest.approx(-0.20422528454052316, abs=1e-9)


def test_search_deterministic_bytes(capsys):
    argv = [
        "search",
        "--provider",
        "paper-with-factor",
        "--s",
        "1",
        "--tau",
        "1",
        "--generator",
        "random-atoms",
        "--n-max",
        "5",
        "--draws",
        "30",
        "--seed",
        "11",
    ]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["n_instances"] == 30


def test_search_indicator_sweep_finds_violation(capsys):
    code, out, err = run(
        capsys,
        [
            "search",
            "--provider",
            "paper-with-factor",
            "--s",
            "1",
            "--tau",
            "1",
            "--generator",
            "indicator-sweep",
        ],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["violated"] is True
    assert doc["report"]["min_margin"] < -0.49
    assert doc["instance_csv"].startswith("atom_id,weight,magnitude")


def test_search_zero_budget_csv(capsys):
    code, out, err = run(
        capsys,
        [
            "search",
            "--provider",
            "unit",
            "--s",
            "1",
            "--tau",
            "1",
            "--budget",
            "0",
            "--format",
            "csv",
        ],
    )
    assert code == 0
    assert out == "t,lhs,rhs,margin\n"


@pytest.mark.parametrize("generator", ["random-atoms", "indicator-sweep"])
def test_search_negative_budget_exits_two(capsys, generator):
    # a negative budget is refused as a negative --draws is, not read as zero
    argv = ["search", "--provider", "unit", "--generator", generator, "--s", "1", "--tau", "1"]
    code, out, err = run(capsys, argv + ["--budget", "-1"])
    assert (code, out) == (2, "")
    assert err == "error: the budget must be a nonnegative integer\n"
    code, out, err = run(capsys, argv + ["--draws", "-1"])
    assert code == (2 if generator == "random-atoms" else 0)
    # the budget caps the draws taken, not the few the screen audits, and
    # indicator-sweep ignores the draw options
    assert main(["search", "--help"]) == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert "cap on instances drawn" in help_text
    assert "--n-max, --draws and --seed apply to random-atoms only" in help_text


def test_out_flag_writes_file(capsys, tmp_path):
    out_path = tmp_path / "c.json"
    code, out, err = run(
        capsys,
        ["constants", "--s", "2", "--tau", "2", "--out", str(out_path)],
    )
    assert code == 0
    assert out == ""
    code2, stdout_text, _ = run(capsys, ["constants", "--s", "2", "--tau", "2"])
    assert out_path.read_text() == stdout_text


def test_spectral_subcommand(capsys, tmp_path):
    mat = tmp_path / "m.csv"
    mat.write_text(
        "row,col,re,im\n0,0,0.0,0.0\n0,1,1.0,0.0\n1,0,1.0,0.0\n1,1,0.0,0.0\n"
    )
    state = tmp_path / "s.csv"
    state.write_text("index,re,im\n0,1.0,0.0\n1,0.0,0.0\n")
    code, out, err = run(
        capsys, ["spectral", "--matrix", str(mat), "--state", str(state)]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["inequality_name"] == "spectral_weak_l1"
    assert doc["eigenvalues"] == [-1.0, 1.0]
    assert doc["violated"] is True
    assert doc["min_margin"] == pytest.approx(-0.36274297060302163, abs=1e-9)
    # g = zero has an empty rearrangement and a clean non-violated report
    code, out, err = run(
        capsys,
        ["spectral", "--matrix", str(mat), "--state", str(state), "--g", "zero"],
    )
    assert code == 0
    assert json.loads(out)["violated"] is False


def test_demo_invgauss_csv_and_sidecars(capsys, tmp_path):
    steps = tmp_path / "steps.csv"
    meta = tmp_path / "meta.json"
    code, out, err = run(
        capsys,
        [
            "demo-invgauss",
            "--n-cells",
            "200",
            "--u-grid",
            "0.25:1:4",
            "--steps-out",
            str(steps),
            "--metadata-out",
            str(meta),
        ],
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "u,f_star,e_value,jackson_bound"
    assert len(lines) == 5
    assert steps.read_text().startswith("t_break,value\n")
    doc = json.loads(meta.read_text())
    assert doc["n_cells"] == 200
    assert doc["s"] == 2.0


def test_trig_golden(capsys, tmp_path):
    path = tmp_path / "coeffs.csv"
    path.write_text("k,re,im\n0,1,0\n1,0.5,0\n-1,0,0.5\n2,0.25,0\n")
    code, out, err = run(capsys, ["trig", "--input", str(path)])
    assert code == 0
    assert out == "n,e_value\n1,0.75\n2,0.25\n3,0.0\n"
    code, out, err = run(
        capsys, ["trig", "--input", str(path), "--n-max", "2", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == [1, 2]
    assert doc["e_value"] == [0.75, 0.25]


def test_trig_table_is_linear_in_its_size(capsys, tmp_path):
    # per-n tails would sum 20,000 coefficients 20,000 times over
    k = np.arange(20_000)
    path = tmp_path / "coeffs.csv"
    path.write_text("k,re,im\n" + "".join(f"{i},{1.0 / (i + 1)},0\n" for i in k))
    start = time.perf_counter()
    code, out, err = run(capsys, ["trig", "--input", str(path)])
    assert time.perf_counter() - start < 5.0
    assert code == 0 and out.count("\n") == 20_001


def test_trig_bad_n_max(capsys, tmp_path):
    path = tmp_path / "coeffs.csv"
    path.write_text("k,re,im\n0,1,0\n")
    code, out, err = run(capsys, ["trig", "--input", str(path), "--n-max", "0"])
    assert code == 2


def test_numeric_error_exit_code(capsys, monkeypatch, tmp_path):
    import bjaudit.measures as measures_mod

    def boom(path):
        raise NumericError("synthetic numeric failure")

    monkeypatch.setattr(measures_mod, "load_instance_csv", boom)
    path = tmp_path / "inst.csv"
    path.write_text(UNIT_INDICATOR)
    code, out, err = run(capsys, ["rearrange", "--input", str(path)])
    assert code == 3
    assert err.startswith("numeric error:")


@pytest.mark.parametrize(
    "error, want_code, want_prefix",
    [
        (DomainError, 2, "error: "),
        (UsageError, 2, "error: "),
        (NumericError, 3, "numeric error: "),
        (QuadratureError, 3, "numeric error: "),
    ],
)
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_every_package_error_maps_to_its_exit_code(
    capsys, monkeypatch, tmp_path, error, want_code, want_prefix, fmt
):
    import bjaudit.measures as measures_mod

    def boom(path):
        raise error("synthetic failure")

    monkeypatch.setattr(measures_mod, "load_instance_csv", boom)
    path = tmp_path / "inst.csv"
    path.write_text(UNIT_INDICATOR)
    code, out, err = run(capsys, ["rearrange", "--input", str(path), "--format", fmt])
    assert (code, out, err) == (want_code, "", want_prefix + "synthetic failure\n")


EXTREME_INSTANCE = "atom_id,weight,magnitude\na0,1.0,1e300\na1,1.0,1e-300\n"
OVERFLOWING_MASS = "atom_id,weight,magnitude\na0,1e308,2.0\na1,1e308,1.0\n"
HUGE_Q = "atom_id,weight,magnitude\na0,1e10,1e300\n"
# ||f||_0^2 = 1e320 overflows, though Q_{2,1} and c_{2,1} Q_{2,1} do not
HUGE_SUPPORT = "atom_id,weight,magnitude\na0,1e160,1e-100\n"
# total mass 0.75: at s = 1e6 the t^s factors vanish and Q stays finite
SMALL_MASS = "atom_id,weight,magnitude\na0,0.5,2.0\na1,0.25,1.0\n"


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "input_text, argv",
    [
        # t^-s at t = 1e-200 overflows the Jackson right-hand side
        (
            REF_INSTANCE,
            ["audit", "--name", "jackson", "--s", "2", "--tau", "2", "--grid", "1e-200"],
        ),
        # ||f||_2 of a 1e300 magnitude overflows
        (EXTREME_INSTANCE, ["quasinorm", "--s", "3", "--tau", "4"]),
        # two weights of 1e308 put the last break of f* at inf
        (OVERFLOWING_MASS, ["rearrange"]),
        # |1e200|^2 in the l2 tail overflows
        ("k,re,im\n0,1,0\n1,1e200,0\n", ["trig"]),
        # each |c_k|^2 is finite, their sum is not
        ("k,re,im\n1,1.3e154,0\n2,1.3e154,0\n", ["trig"]),
        # u^-s overflows to inf and the quasinorm underflows to 0: the bound,
        # formed in log space, is about 1e554 at u = 0.25 (at u = 0.5 it is
        # 1.0e-48, see test_invgauss; both were nan while it was formed directly)
        (None, ["demo-invgauss", "--s", "2000", "--tau", "2", "--u-grid", "0.25:1:2"]),
        # the overflowing break of f* also stops the Jackson audit
        (OVERFLOWING_MASS, ["audit", "--name", "jackson", "--s", "1", "--tau", "2"]),
    ],
)
def test_non_finite_output_exits_three(capsys, tmp_path, input_text, argv, fmt):
    if input_text is not None:
        path = tmp_path / "input.csv"
        path.write_text(input_text)
        argv = argv + ["--input", str(path)]
    with np.errstate(all="ignore"):
        code, out, err = run(capsys, argv + ["--format", fmt])
    assert code == 3
    assert out == ""
    assert err.startswith("numeric error:") and "Traceback" not in err


def _subprocess_cli(argv):
    src = str(Path(bjaudit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, "-m", "bjaudit.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


@pytest.mark.parametrize(
    "input_text, argv",
    [
        (None, ["demo-invgauss", "--s", "2000", "--tau", "2", "--u-grid", "0.25:1:2"]),
        (OVERFLOWING_MASS, ["audit", "--name", "jackson", "--s", "1", "--tau", "2"]),
        (OVERFLOWING_MASS, ["rearrange"]),
        # the L^1 sum of the two 1e308 weights overflows
        (OVERFLOWING_MASS, ["audit", "--name", "weak-l1"]),
        # the direct form's total^(1/tau) overflows
        (HUGE_Q, ["quasinorm", "--s", "1", "--tau", "0.001"]),
        # Q_{1,tau} is about 7e309 (tau = 2) or 1e310 (tau = inf): the log-space
        # branches pass the float range
        *(
            (HUGE_Q, [*command, "--s", "1", "--tau", tau, "--format", fmt])
            for command in (["quasinorm"], ["audit", "--name", "jackson"])
            for tau in ("2", "inf")
            for fmt in ("json", "csv")
        ),
        (HUGE_SUPPORT, ["audit", "--name", "bernstein-right", "--s", "2", "--tau", "1"]),
        # constant powers past the float range: (q^2 theta)^(-1/(q theta)) in
        # C_theta,q, and 2^((s+1)/2) in the paper-with-factor constant
        (None, ["constants", "--s", "1e3", "--tau", "0.001"]),
        *(
            (text, [*command, "--s", "1e6", "--tau", "3", "--provider", "paper-with-factor"])
            for text, command in (
                (SMALL_MASS, ["audit", "--name", "jackson"]),
                (None, ["search", "--draws", "5"]),
            )
        ),
    ],
)
def test_numeric_error_stderr_is_one_line(tmp_path, input_text, argv):
    # numpy RuntimeWarnings must not reach stderr ahead of the error line
    if input_text is not None:
        path = tmp_path / "input.csv"
        path.write_text(input_text)
        argv = argv + ["--input", str(path)]
    proc = _subprocess_cli(argv)
    assert proc.returncode == 3
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numeric error:"), proc.stderr


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("grid", ["abc", "0.5:2:4"])
def test_bernstein_right_rejects_grid(capsys, tmp_path, fmt, grid):
    path = tmp_path / "inst.csv"
    path.write_text(REF_INSTANCE)
    argv = ["audit", "--name", "bernstein-right", "--input", str(path), "--grid", grid]
    code, out, err = run(capsys, argv + ["--format", fmt])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--grid" in err


def _reject_constant(name):
    raise ValueError(f"JSON constant {name} is not allowed")


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "argv",
    [
        ["constants"],
        ["quasinorm", "--input", "INSTANCE"],
        ["audit", "--name", "jackson", "--input", "INSTANCE"],
        ["search", "--provider", "paper-c", "--draws", "5"],
        ["demo-invgauss", "--n-cells", "200", "--u-grid", "0.5:1:2"],
    ],
)
def test_infinite_tau_is_echoed_in_both_formats(capsys, tmp_path, argv, fmt):
    # JSON has no infinity, so an infinite echoed parameter is the string "inf"
    path = tmp_path / "inst.csv"
    path.write_text(REF_INSTANCE)
    argv = [str(path) if a == "INSTANCE" else a for a in argv]
    code, out, err = run(capsys, argv + ["--s", "1", "--tau", "inf", "--format", fmt])
    assert code == 0, err
    if fmt == "json":
        json.loads(out, parse_constant=_reject_constant)
        assert '"tau": "inf"' in out


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "argv",
    [
        ["constants", "--theta", "0.5", "--q", "1e-5"],
        ["constants", "--s", "1", "--tau", "1e-300"],
    ],
)
def test_c_exact_overflow_exits_three(capsys, argv, fmt):
    # [s/(tau (s+1)^2)]^(1/tau) overflows a float for small tau
    code, out, err = run(capsys, argv + ["--format", fmt])
    assert code == 3
    assert out == ""
    assert err.startswith("numeric error:") and "Traceback" not in err


SCIPY_PROBE = (
    "import sys; {stmt}; "
    "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
)


@pytest.mark.parametrize(
    "stmt",
    [
        "import bjaudit",
        "import bjaudit.cli, os; "
        "assert bjaudit.cli.main("
        "['constants', '--s', '1', '--tau', '2', '--out', os.devnull]) == 0",
        "from bjaudit import DiscreteMeasureSpace, SimpleFunction, interp_quasinorm; "
        "interp_quasinorm(SimpleFunction([5.0, 3.0, 1.0]), "
        "DiscreteMeasureSpace(weights=[0.5, 1.0, 2.0]), 1 / 3, 6.0)",
    ],
)
def test_scipy_stays_unloaded(stmt):
    # No path of the package imports scipy, the K2 interpolation quasinorm
    # included.
    src = str(Path(bjaudit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE.format(stmt=stmt)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def test_missing_input_file(capsys):
    code, out, err = run(capsys, ["rearrange", "--input", "/no/such/file.csv"])
    assert code == 2
    assert err.startswith("error:")

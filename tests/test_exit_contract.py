"""The exit-code contract under warnings as errors.

Every run exits 0 (result), 2 (usage or domain error) or 3 (numeric error)
with no traceback, and no numpy RuntimeWarning may reach the user: here a
warning would surface as an exception out of cli.main.  Library functions
that the CLI does not reach are held to the same rule: a typed
NumericError or a finite value, never a warning.
"""

import io
import json
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bjaudit import (
    PROVIDER_KINDS,
    WEAK_L1_VARIANTS,
    DiscreteMeasureSpace,
    DomainError,
    NumericError,
    SimpleFunction,
    decreasing_rearrangement,
    distribution_function,
    interp_quasinorm,
    k2_exhaustive,
    k2_functional,
    k_envelope,
    kinf_exhaustive,
    kinf_functional,
    lp_from_rearrangement,
    lp_norm,
    truncation_profile,
)
from bjaudit.cli import MAX_ROWS, main

INPUTS = {
    "ref": "atom_id,weight,magnitude\na0,0.5,5.0\na1,1.0,3.0\na2,2.0,1.0\n",
    "extreme": "atom_id,weight,magnitude\na0,1.0,1e300\na1,1.0,1e-300\n",
    "overflowing_mass": "atom_id,weight,magnitude\na0,1e308,2.0\na1,1e308,1.0\n",
    "huge_q": "atom_id,weight,magnitude\na0,1e10,1e300\n",
    "huge_support": "atom_id,weight,magnitude\na0,1e160,1e-100\n",
    "small_mass": "atom_id,weight,magnitude\na0,0.5,2.0\na1,0.25,1.0\n",
    # t^-s = inf at the grid's t < 1 while Q_{s,tau} underflows to 0
    "light_atom": "atom_id,weight,magnitude\na0,0.05,1.0\n",
    # one atom whose grid point b (1 + 1e-3) passes the float range
    "max_weight": "atom_id,weight,magnitude\na0,1.7e308,1.0\n",
    # ||f||_1 = 3e150 over t near 5e-324: the weak-L1 right-hand side overflows
    "weak_l1_overflow": (
        "atom_id,weight,magnitude\na0,1e-150,1e-300\na1,5e-324,1.7e308\na2,1e150,3\n"
    ),
    "trig_square_overflow": "k,re,im\n0,1,0\n1,1e200,0\n",
    "trig_sum_overflow": "k,re,im\n1,1.3e154,0\n2,1.3e154,0\n",
    "ref_matrix": "row,col,re,im\n0,0,1,0\n",
    "ref_state": "index,re,im\n0,1,0\n",
    # spectral inputs whose checks overflow: A - A^H, ||psi||, |A_ij| and the residual
    "huge_imaginary_diagonal": "row,col,re,im\n0,0,0,8.98846567431158e307\n",
    "huge_state": "index,re,im\n0,0,1.3407807929942597e154\n",
    "huge_modulus": "row,col,re,im\n0,0,0,0\n0,1,1.3e308,1.3e308\n1,0,5,0\n1,1,0,0\n",
    "huge_hermitian": "row,col,re,im\n0,0,1e200,0\n0,1,1e200,0\n1,0,1e200,0\n1,1,0,0\n",
    "huge_imaginary_pair": "row,col,re,im\n0,0,0,0\n0,1,0,9e307\n1,0,0,-9e307\n1,1,0,0\n",
    "unit_state_2": "index,re,im\n0,1,0\n1,0,0\n",
    # keys past the int64 range
    "huge_matrix_key": "row,col,re,im\n99999999999999999999999,0,1,0\n",
    "huge_state_index": "index,re,im\n99999999999999999999999,1,0\n",
    "huge_trig_k": "k,re,im\n99999999999999999999999,1,0\n",
    # inputs the csv module refuses: a field past its size limit, a bare CR
    "long_field": "atom_id,weight,magnitude\n" + "a" * 200_000 + ",1,2\n",
    "bare_cr": "atom_id,weight,magnitude\na\rb,1,2\n",
}
EXTREMES = (
    "extreme", "overflowing_mass", "huge_q", "huge_support", "max_weight", "weak_l1_overflow"
)
GOLDEN_INSTANCE = str(Path(__file__).parent / "golden" / "instance.csv")
DEMO = ["demo-invgauss", "--n-cells", "10", "--u-grid", "0.5:1:2"]
AUDIT_GOLDEN = ["audit", "--name", "jackson", "--s", "1", "--tau", "1", "--input", GOLDEN_INSTANCE]
JACKSON_HUGE_S = ["--s", "1e6", "--tau", "3", "--provider", "paper-with-factor"]

CASES = [
    ("max_weight", ["audit", "--name", "q2", "--theta", "0.5"], 3),
    ("weak_l1_overflow", ["audit", "--name", "weak-l1"], 3),
    ("ref", ["audit", "--name", "jackson", "--s", "2", "--tau", "2", "--grid", "1e-200"], 3),
    ("extreme", ["quasinorm", "--s", "3", "--tau", "4"], 3),
    ("overflowing_mass", ["rearrange"], 3),
    ("overflowing_mass", ["audit", "--name", "jackson", "--s", "1", "--tau", "2"], 3),
    ("overflowing_mass", ["audit", "--name", "weak-l1"], 3),
    ("huge_q", ["quasinorm", "--s", "1", "--tau", "0.001"], 3),
    ("huge_q", ["quasinorm", "--s", "1", "--tau", "inf"], 3),
    ("huge_q", ["audit", "--name", "jackson", "--s", "1", "--tau", "2"], 3),
    ("huge_support", ["audit", "--name", "bernstein-right", "--s", "2", "--tau", "1"], 3),
    ("small_mass", ["audit", "--name", "jackson", *JACKSON_HUGE_S], 3),
    ("trig_square_overflow", ["trig"], 3),
    ("trig_sum_overflow", ["trig"], 3),
    (None, ["search", "--draws", "5", *JACKSON_HUGE_S], 3),
    (None, ["constants", "--s", "1e3", "--tau", "0.001"], 3),
    # the bound past the float range at u = 0.25 (at u = 0.5 it is finite)
    (None, ["demo-invgauss", "--s", "2000", "--tau", "2", "--u-grid", "0.25:1:2"], 3),
    # every command on every extreme instance keeps the contract, whatever its code
    *(
        (name, argv, None)
        for name in EXTREMES
        for argv in (
            ["rearrange"],
            ["quasinorm", "--s", "1", "--tau", "2"],
            ["audit", "--name", "jackson", "--s", "1", "--tau", "2"],
            ["audit", "--name", "bernstein-right", "--s", "1", "--tau", "2"],
            ["audit", "--name", "weak-l1"],
            ["audit", "--name", "q2", "--theta", "0.5"],
        )
    ),
    (None, ["spectral", "--matrix", "@huge_matrix_key", "--state", "@ref_state"], 2),
    (None, ["spectral", "--matrix", "@ref_matrix", "--state", "@huge_state_index"], 2),
    # the trig table stops at MAX_ROWS rows, whether n_max is implied or given
    ("huge_trig_k", ["trig"], 2),
    ("huge_trig_k", ["trig", "--n-max", "3"], 0),
    ("huge_trig_k", ["trig", "--n-max", str(MAX_ROWS + 1)], 2),
    ("huge_trig_k", ["trig", "--n-max", "99999999999999999999999"], 2),
    ("long_field", ["rearrange"], 2),
    ("bare_cr", ["rearrange"], 2),
    # the demo's windows and density at extreme t_max and mean
    (None, [*DEMO, "--t-max", "1.4e154"], 0),
    (None, [*DEMO, "--t-max", "1e308"], 2),
    (None, [*DEMO, "--t-max", "1e-320"], 0),
    (None, [*DEMO, "--m", "1e-300"], 0),
    (None, [*DEMO, "--m", "1e154"], 0),
    (None, [*DEMO, "--m", "1e300"], 3),
    (None, [*DEMO, "--t-max", "5e-324"], 3),
    # s tau so small that the log-space quasinorm's (t_{i-1}/t_i)^(s tau) rounds to 1
    (None, ["quasinorm", "--s", "2", "--tau", "1e-17", "--input", GOLDEN_INSTANCE], 3),
    (None, ["demo-invgauss", "--tau", "1e-300"], 3),
    # a bad generator argument is a domain error whatever the budget
    (None, ["search", "--provider", "unit", "--n-max", "0", "--budget", "0"], 2),
    # grid points, demo cells and atoms per search draw past MAX_ROWS, refused
    # before any array is built
    *(
        (None, argv, 2)
        for n in (str(MAX_ROWS + 1), "10000000000000")
        for argv in (
            [*AUDIT_GOLDEN, "--grid", f"0.5:2:{n}"],
            [*AUDIT_GOLDEN, "--grid", f"log:0.5:2:{n}"],
            ["spectral", "--matrix", "@ref_matrix", "--state", "@ref_state", "--grid", f"1:2:{n}"],
            ["demo-invgauss", "--u-grid", f"0.5:2:{n}"],
            ["demo-invgauss", "--n-cells", n],
            ["search", "--provider", "unit", "--s", "1", "--tau", "1", "--draws=1", "--n-max", n],
        )
    ),
    # a negative seed is a domain error, not numpy's traceback
    (None, ["search", "--provider", "paper-c", "--s", "1", "--tau", "2", "--seed", "-1"], 2),
    # a converted parameter that rounds out of its range is named beside the
    # pair given: (exit code, stderr line)
    *(
        (None, argv, (2, f"error: converting {given}: {problem}\n"))
        for argv, given, problem in (
            (
                ["constants", "--s", "1", "--tau", "1e308"],
                "s = 1.0, tau = 1e+308",
                "q must be a positive finite real, got inf",
            ),
            (
                ["search", "--provider", "unit", "--s", "1", "--tau", "1e308", "--draws", "3"],
                "s = 1.0, tau = 1e+308",
                "q must be a positive finite real, got inf",
            ),
            (
                ["constants", "--s", "1e-300", "--tau", "1"],
                "s = 1e-300, tau = 1.0",
                "theta must lie in (0,1), got 1.0",
            ),
            (
                ["constants", "--theta", "1e-310", "--q", "2"],
                "theta = 1e-310, q = 2.0",
                "s must be a positive finite real, got inf",
            ),
            (
                ["constants", "--theta", "1e-300", "--q", "1e-300"],
                "theta = 1e-300, q = 1e-300",
                "tau must be a positive finite real, got 0.0",
            ),
            (
                ["constants", "--s", "1.4328128329040766e308", "--tau", "1"],
                "s = 1.4328128329040766e+308, tau = 1.0",
                "coupling s + 1 = 1/theta violated",
            ),
        )
    ),
    # spectral checks that overflow fail, without a warning; the state's norm
    # is reported as it is, not as the overflowed sum of squares
    (None, ["spectral", "--matrix", "@huge_imaginary_diagonal", "--state", "@ref_state"], 2),
    (
        None,
        ["spectral", "--matrix", "@ref_matrix", "--state", "@huge_state"],
        (2, "error: state must be unit norm, got ||psi|| = 1.3407807929942597e+154\n"),
    ),
    (None, ["spectral", "--matrix", "@huge_modulus", "--state", "@unit_state_2"], 2),
    (None, ["spectral", "--matrix", "@huge_hermitian", "--state", "@unit_state_2"], 3),
    (None, ["spectral", "--matrix", "@huge_imaginary_pair", "--state", "@unit_state_2"], 0),
    # an argparse error is one line, like every other usage error
    (
        None,
        ["constants", "--s", "-1e+16", "--tau", "1"],
        (2, "error: argument --s: expected one argument\n"),
    ),
    # t^-s = inf (or 0) times Q = 0 (underflowed): the right-hand side is
    # formed in log space, so the report has a verdict.  The demo's bound
    # rounds to 0.0 at every u (test_invgauss), the atom's rhs lies within
    # 1e-12 of mpmath (test_audit); both exited 3 on a NaN rhs before.
    (None, ["demo-invgauss", "--n-cells", "199", "--s", "4.4691023859347256e16"], (0, "")),
    (
        "light_atom",
        ["audit", "--name", "jackson", "--s", "300", "--tau", "2", "--provider", "sharp-oracle"],
        (0, ""),
    ),
]


def _input_file(tmp_path, name):
    path = tmp_path / f"{name}.csv"
    path.write_text(INPUTS[name])
    return str(path)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("name, argv, want", CASES)
def test_exit_contract_without_warnings(capsys, tmp_path, name, argv, want, fmt):
    # an argument "@key" stands for a file holding INPUTS[key]
    argv = [_input_file(tmp_path, arg[1:]) if arg.startswith("@") else arg for arg in argv]
    if name is not None:
        argv = argv + ["--input", _input_file(tmp_path, name)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv + ["--format", fmt])
    out, err = capsys.readouterr()
    if isinstance(want, tuple):
        want, want_err = want
        assert err == want_err
    assert code in (0, 2, 3) if want is None else code == want
    assert "Traceback" not in err and "Warning" not in err
    if code:
        assert out == "" and err.count("\n") == 1
    else:
        assert err == ""


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("where", ["missing directory", "directory"])
@pytest.mark.parametrize(
    "argv, flag",
    [
        pytest.param(["constants", "--s", "1", "--tau", "2"], "--out", id="constants-out"),
        pytest.param(AUDIT_GOLDEN, "--out", id="audit-out"),
        pytest.param(DEMO, "--out", id="demo-out"),
        pytest.param(DEMO, "--steps-out", id="demo-steps-out"),
        pytest.param(DEMO, "--metadata-out", id="demo-metadata-out"),
    ],
)
def test_unwritable_output_path_is_a_usage_error(capsys, tmp_path, argv, flag, where, fmt):
    # a path in a missing directory, or a directory, exits 2 with one line
    path = tmp_path / "missing" / "out.txt" if where == "missing directory" else tmp_path
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([*argv, flag, str(path), "--format", fmt])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write output: [Errno ") and err.count("\n") == 1
    assert str(path) in err


def _instance(weights, mags):
    return DiscreteMeasureSpace(weights=np.array(weights)), SimpleFunction(np.array(mags))


def test_lp_from_rearrangement_root_overflow_is_numeric_error():
    # the sum 1e125 is finite, but its fourth power is not; lp_norm agrees
    sp, f = _instance([1e100], [1e100])
    sf = decreasing_rearrangement(f, sp)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="norm overflows"):
            lp_from_rearrangement(sf, 0.25)
        assert lp_from_rearrangement(sf, 0.5) == pytest.approx(1e300, rel=1e-12)


@pytest.mark.parametrize(
    "call",
    [
        truncation_profile,
        k_envelope,
        lambda f, sp: k_envelope(f, sp, "kinf"),
        lambda f, sp: interp_quasinorm(f, sp, 0.5, 2.0),
        lambda f, sp: interp_quasinorm(f, sp, 0.5, 2.0, kfunc="kinf"),
        lambda f, sp: interp_quasinorm(f, sp, 0.5, np.inf),
        lambda f, sp: distribution_function(f, sp, 0.5),
        lambda f, sp: lp_norm(f, sp, 0),
    ],
    ids=["truncation_profile", "k_envelope", "k_envelope_kinf", "interp_k2", "interp_kinf",
         "interp_qinf", "distribution_function", "lp_norm_0"],
)
def test_mass_past_the_float_range_is_numeric_error(call):
    # the running sum of the weights passes the float range
    sp, f = _instance([1e308, 1e308], [2.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError):
            call(f, sp)


@pytest.mark.parametrize(
    "k", [k2_functional, kinf_functional, k2_exhaustive, kinf_exhaustive],
    ids=["k2_functional", "kinf_functional", "k2_exhaustive", "kinf_exhaustive"],
)
def test_k_checks_t_before_the_mass(k):
    # a bad t is a domain error even where the weights pass the float range
    sp, f = _instance([1e308, 1e308], [2.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            k(f, sp, -1.0)


def test_k2_is_finite_where_its_squares_overflow():
    # K2(1e100) = ||f||_0 = 1e200, while m^2 and (t v)^2 pass the float range;
    # K_inf(1e100) too, where t v = 1e400 of the split v = 1e300 overflows
    sp, f = _instance([1e-200, 1.0, 1e200], [1e-300, 1.0, 1e300])
    t = 1e100
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [
            float(k_envelope(f, sp, "k2")(np.array([t]))[0]),
            k2_functional(f, sp, t),
            k2_exhaustive(f, sp, t),
            float(k_envelope(f, sp, "kinf")(np.array([t]))[0]),
            kinf_functional(f, sp, t),
            kinf_exhaustive(f, sp, t),
        ]
    assert got == [1e200] * 6


@pytest.mark.parametrize("theta, q", [(0.5, 1e308), (0.5, 1.7e308), (0.9, 1e308)])
def test_interp_k2_at_huge_q_is_numeric_error(theta, q):
    rng = np.random.default_rng(41)
    wide = _instance(rng.uniform(0.1, 3.0, 24), rng.uniform(0.05, 5.0, 24))
    narrow = _instance([1.0, 2.0], [3.0, 1.0])
    for sp, f in (wide, narrow):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError):
                interp_quasinorm(f, sp, theta, q)


def _run(argv):
    """(exit code, stdout, stderr) of cli.main(argv), warnings raised as errors."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# s and tau from 0.001 up to inf, half of them below 10 so that most runs search
_positive = st.floats(1e-3, 10.0) | st.floats(min_value=1e-3, allow_nan=False)


@given(
    provider=st.sampled_from(PROVIDER_KINDS),
    n_max=st.integers(1, 64),
    draws=st.integers(0, 300),
    budget=st.none() | st.integers(-5, 400),
    seed=st.integers() | st.integers(min_value=2**128, max_value=2**200),
    s=_positive,
    tau=_positive,
)
@example(provider="paper-c", n_max=6, draws=200, budget=None, seed=-1, s=1.0, tau=2.0)
@settings(max_examples=40, deadline=None)
def test_search_cli_keeps_the_exit_contract(provider, n_max, draws, budget, seed, s, tau):
    argv = ["search", "--provider", provider, "--n-max", str(n_max), "--draws", str(draws)]
    argv += ["--seed", str(seed), "--s", repr(s), "--tau", repr(tau)]
    if budget is not None:
        argv += ["--budget", str(budget)]
    code, out, err = _run(argv + ["--format", "json"])
    assert code in (0, 2, 3)
    assert "Traceback" not in err and "Warning" not in err
    assert err.count("\n") == (1 if code else 0)
    csv_code, csv_out, csv_err = _run(argv + ["--format", "csv"])
    assert (csv_code, csv_err) == (code, err)
    if code:
        assert out == csv_out == ""
        return
    # the CSV rows are the report's columns, or none where nothing was audited
    report = json.loads(out)["report"] or {}
    header, *rows = [line.split(",") for line in csv_out.splitlines()]
    assert header == ["t", "lhs", "rhs", "margin"]
    columns = [list(map(float, col)) for col in zip(*rows)] or [[]] * 4
    assert columns == [report.get(key, []) for key in ("grid", "lhs", "rhs", "margin")]


# weights and magnitudes over the whole float range, zero included
_extent = st.floats(0.0, 1.7e308) | st.floats(1e-3, 1e3)
_atoms = st.lists(st.tuples(_extent, _extent), min_size=1, max_size=5)


@st.composite
def _instance_argv(draw):
    s, tau = repr(draw(_positive)), repr(draw(_positive))
    return draw(st.sampled_from([
        ["rearrange"],
        ["quasinorm", "--s", s, "--tau", tau],
        ["audit", "--name", "jackson", "--s", s, "--tau", tau,
         "--provider", draw(st.sampled_from(PROVIDER_KINDS))],
        ["audit", "--name", "bernstein-right", "--s", s, "--tau", tau],
        ["audit", "--name", "weak-l1", "--variant", draw(st.sampled_from(WEAK_L1_VARIANTS))],
        ["audit", "--name", "q2", "--theta",
         repr(draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)))],
    ]))


def _csv_columns(command, doc):
    """The columns the CSV rendering of `command`'s JSON document `doc` holds."""
    if command == "rearrange":  # one row per step and an end row, 0.0,0.0 for f = 0
        return [doc["breaks"], doc["values"] + [0.0]]
    if command == "quasinorm":
        return [list(doc), list(doc.values())]
    if command == "trig":
        return [doc["n"], doc["e_value"]]
    if command == "demo-invgauss":
        return list(doc["table"].values())
    return [doc[key] for key in ("grid", "lhs", "rhs", "margin")]


def _cell(text):
    """A CSV field as its JSON value: a float, None for an empty field, or text."""
    if text == "":
        return None
    try:
        return text if text == "inf" else float(text)
    except ValueError:
        return text


def _check_contract(argv, files):
    """Run argv, whose "@key" arguments stand for files holding files[key], in
    JSON and in CSV: each exits 0, 2 or 3 with at most one stderr line and no
    traceback, and the CSV columns are the JSON document's."""
    with tempfile.TemporaryDirectory() as tmp:
        for key, text in files.items():
            (Path(tmp) / f"{key}.csv").write_text(text)
        argv = [str(Path(tmp) / f"{a[1:]}.csv") if a.startswith("@") else a for a in argv]
        code, out, err = _run(argv + ["--format", "json"])
        csv_code, csv_out, csv_err = _run(argv + ["--format", "csv"])
    assert code in (0, 2, 3)
    assert "Traceback" not in err and "Warning" not in err
    assert err.count("\n") == (1 if code else 0)
    assert (csv_code, csv_err) == (code, err)
    if code:
        assert out == csv_out == ""
        return
    header, *rows = [line.split(",") for line in csv_out.splitlines()]
    columns = [[_cell(x) for x in col] for col in zip(*rows)] or [[]] * len(header)
    assert columns == _csv_columns(argv[0], json.loads(out))


@given(atoms=_atoms, argv=_instance_argv())
@example(atoms=[(1.0, 0.0), (2.0, 0.0)], argv=["rearrange"])
@settings(max_examples=60, deadline=None)
def test_instance_cli_keeps_the_exit_contract(atoms, argv):
    text = "atom_id,weight,magnitude\n"
    text += "".join(f"a{i},{w!r},{m!r}\n" for i, (w, m) in enumerate(atoms))
    _check_contract(argv + ["--input", "@instance"], {"instance": text})


# entries of either sign over the whole float range, zero included
_signed = _extent | _extent.map(lambda x: -x)
_grid = st.one_of(
    st.none(),
    _signed.map(repr),
    st.builds("{!r}:{!r}:{}".format, _signed, _signed, st.integers(-1, 5)),
    st.builds("log:{!r}:{!r}:{}".format, _signed, _signed, st.integers(1, 5)),
)


def _with_option(argv, flag, value):
    # flag=value, as argparse reads a separate "-1e+16" as an option
    return argv if value is None else argv + [f"{flag}={value}"]


@st.composite
def _spectral_case(draw):
    """A matrix of dimension 1-3, Hermitian or not, and a state, unit or not."""
    n = draw(st.integers(1, 3))
    hermitian = draw(st.booleans())
    entries = {}
    for i in range(n):
        for j in range(n):
            if hermitian and j < i:
                re, im = entries[j, i]
                entries[i, j] = (re, -im)
            else:
                entries[i, j] = (draw(_signed), 0.0 if hermitian and i == j else draw(_signed))
    psi = np.array([complex(draw(_signed), draw(_signed)) for _ in range(n)])
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.linalg.norm(psi)
        if draw(st.booleans()) and 0.0 < norm < np.inf:
            psi = psi / norm
    files = {
        "matrix": "row,col,re,im\n"
        + "".join(f"{i},{j},{re!r},{im!r}\n" for (i, j), (re, im) in entries.items()),
        "state": "index,re,im\n"
        + "".join(f"{i},{x.real!r},{x.imag!r}\n" for i, x in enumerate(psi.tolist())),
    }
    argv = ["spectral", "--matrix", "@matrix", "--state", "@state",
            "--g", draw(st.sampled_from(["identity", "square", "zero"])),
            "--variant", draw(st.sampled_from(WEAK_L1_VARIANTS))]
    return _with_option(argv, "--grid", draw(_grid)), files


@st.composite
def _trig_case(draw):
    """Up to four coefficients, keys repeated at times, and --n-max or not."""
    rows = draw(st.lists(st.tuples(st.integers(-60, 60), _signed, _signed), max_size=4))
    text = "k,re,im\n" + "".join(f"{k},{re!r},{im!r}\n" for k, re, im in rows)
    n_max = draw(st.none() | st.integers(-1, 60))
    argv = ["trig", "--input", "@coefficients"]
    return _with_option(argv, "--n-max", n_max), {"coefficients": text}


@st.composite
def _demo_case(draw):
    argv = ["demo-invgauss", "--n-cells", str(draw(st.integers(-1, 200)))]
    for flag in ("--C", "--m", "--l", "--s", "--tau", "--t-max"):
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(st.floats(1e-3, 1e3) | _signed)!r}")
    return _with_option(argv, "--u-grid", draw(_grid)), {}


@given(case=_spectral_case() | _trig_case() | _demo_case())
@example(case=(["demo-invgauss", "--C", "1e10", "--m", "0.001", "--l", "0.001", "--s",
                "1.7e308", "--tau", "5e-324", "--t-max", "0.001", "--n-cells", "2"], {}))
@settings(max_examples=60, deadline=None)
def test_spectral_trig_and_demo_cli_keep_the_exit_contract(case):
    _check_contract(*case)

"""What each entry point loads, observed in fresh interpreters.

`import bjaudit` loads nothing; the first name looked up fills the whole
namespace at once; each CLI subcommand loads only its own modules, and none
loads numpy.ma (np.unique's first call imports it).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bjaudit

SRC = str(Path(bjaudit.__file__).resolve().parents[1])
GOLDEN = Path(__file__).parent / "golden"
INSTANCE = str(GOLDEN / "instance.csv")
S_TAU = ["--s", "1", "--tau", "2"]

# The package namespace, frozen: each submodule and the names taken from it.
PUBLIC = {
    "audit": "PROVIDER_KINDS WEAK_L1_VARIANTS AuditReport ConstantProvider SearchResult"
    " audit_bernstein_right audit_jackson audit_q2 audit_weak_l1 counterexample_search"
    " indicator_sweep random_atoms straddling_grid",
    "errors": "BJAuditError DomainError NumericError QuadratureError UsageError",
    "functionals": "KEnvelope e_exhaustive e_functional_L0Linf e_functional_trig"
    " interp_quasinorm k_envelope k2_exhaustive k2_functional k2_scalar kinf_exhaustive"
    " kinf_functional load_trig_csv truncation_profile",
    "invgauss": "DemoResult InvGaussParams demo_pipeline invgauss_density",
    "jsonutil": "",
    "measures": "DiscreteMeasureSpace SimpleFunction distribution_function instance_csv_text"
    " load_instance_csv lp_norm sorted_mass_profile",
    "params": "ApproxParams c_big c_exact constant_consistency_report n_factor_algebraic"
    " n_factor_integral params_from_s_tau params_from_theta_q",
    "rearrange": "StepFunction approx_quasinorm decreasing_rearrangement eval_step"
    " lp_from_rearrangement step_csv_text",
    "spectral": "SpectralModel audit_spectral_bound load_matrix_csv load_state_csv"
    " matrix_csv_text spectral_instance spectral_measure spectral_rearrangement state_csv_text",
}

# cli_mix's eight subcommands and the bjaudit modules each may load (run as
# `python -m bjaudit.cli`, cli itself runs as __main__).
BASE = {"bjaudit", "errors", "jsonutil", "params"}
LAYERS = BASE | {"measures", "rearrange"}
SUBCOMMANDS = [
    (["constants", *S_TAU], BASE),
    (["rearrange", "--input", INSTANCE], LAYERS),
    (["quasinorm", "--input", INSTANCE, *S_TAU], LAYERS),
    (["audit", "--name", "jackson", "--input", INSTANCE, *S_TAU], LAYERS | {"audit"}),
    (["search", "--provider", "sharp-oracle", *S_TAU], LAYERS | {"audit"}),
    (
        ["spectral", "--matrix", str(GOLDEN / "matrix.csv"), "--state", str(GOLDEN / "state.csv")],
        LAYERS | {"audit", "spectral"},
    ),
    (["demo-invgauss", "--n-cells", "200"], LAYERS | {"audit", "invgauss"}),
    (["trig", "--input", str(GOLDEN / "coeffs.csv")], LAYERS | {"functionals"}),
]


def _python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def _loaded(stmt):
    """The modules loaded after running stmt in a fresh interpreter."""
    proc = _python("-c", f"import sys, json; {stmt}; print(json.dumps(sorted(sys.modules)))")
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _ours(modules):
    return {m.partition(".")[2] or m for m in modules if m.split(".")[0] == "bjaudit"}


def test_import_loads_no_submodule_and_no_numpy():
    loaded = _loaded("import bjaudit")
    assert _ours(loaded) == {"bjaudit"}
    assert "numpy" not in loaded


@pytest.mark.parametrize("argv, want", SUBCOMMANDS, ids=[a[0] for a, _ in SUBCOMMANDS])
def test_each_subcommand_loads_only_its_modules(argv, want):
    # -X importtime lists every module the `python -m` run imports
    proc = _python("-X", "importtime", "-m", "bjaudit.cli", *argv)
    loaded = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    }
    assert _ours(loaded) == want
    assert "numpy.ma" not in loaded
    assert ("numpy" in loaded) == (argv[0] != "constants")


def test_first_lookup_fills_the_whole_namespace():
    # bench/tracing.py reads every layer module out of sys.modules after one
    # `from bjaudit import audit`
    stmt = (
        "from bjaudit import audit; import bjaudit; "
        "names = {n: type(getattr(bjaudit, n)).__name__ for n in dir(bjaudit) if n[0] != '_'}; "
        f"same = all(getattr(bjaudit, n) is getattr(sys.modules['bjaudit.' + m], n) "
        f"for m, ns in {PUBLIC!r}.items() for n in ns.split()); "
        "print(json.dumps([names, same, bjaudit.__version__]))"
    )
    proc = _python("-c", f"import sys, json; {stmt}; print(json.dumps(sorted(sys.modules)))")
    names_line, modules_line = proc.stdout.splitlines()[-2:]
    names, same, version = json.loads(names_line)
    assert _ours(json.loads(modules_line)) == {"bjaudit", *PUBLIC}
    assert set(names) == set(PUBLIC) | {n for ns in PUBLIC.values() for n in ns.split()}
    assert all(names[m] == "module" for m in PUBLIC)
    assert same and version == "0.1.0"


@pytest.mark.parametrize("stmt", ["import bjaudit; bjaudit.audit_jackson", "from bjaudit import *"])
def test_namespace_fills_on_any_first_lookup(stmt):
    assert _ours(_loaded(stmt)) == {"bjaudit", *PUBLIC}

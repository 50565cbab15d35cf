"""Acceptance gate: one test and one printed verdict line per criterion.

Each criterion is evaluated without raising mid-check so its PASS/FAIL line
is always recorded (the conftest terminal hook echoes the lines after the
run); the assert at the end keeps pytest's ledger honest.
"""

import math
import time

import numpy as np

from bjaudit import (
    ConstantProvider,
    DiscreteMeasureSpace,
    SimpleFunction,
    approx_quasinorm,
    audit_jackson,
    audit_spectral_bound,
    audit_weak_l1,
    c_exact,
    constant_consistency_report,
    decreasing_rearrangement,
    demo_pipeline,
    distribution_function,
    e_exhaustive,
    eval_step,
    interp_quasinorm,
    k2_exhaustive,
    k2_functional,
    k2_scalar,
    kinf_exhaustive,
    kinf_functional,
    lp_from_rearrangement,
    lp_norm,
    n_factor_integral,
    params_from_s_tau,
    params_from_theta_q,
    random_atoms,
    spectral_measure,
    spectral_rearrangement,
    straddling_grid,
)
from bjaudit.cli import main as cli_main

CRITERION_LINES = []


def _criterion(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:2d}] {status} {name}"
    if detail:
        line += f" :: {detail}"
    CRITERION_LINES.append(line)
    print(line)
    assert ok, line


def _rel_ok(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def test_criterion_01_constants():
    t0 = time.perf_counter()
    ok = abs(c_exact(params_from_s_tau(2.0, 2.0)) - 1.0 / 3.0) <= 1e-15
    for theta in np.arange(0.1, 0.95, 0.1):
        for q in range(1, 10):
            p = params_from_theta_q(float(theta), float(q))
            ident = ((1.0 - theta) / q) ** (1.0 / (q * theta))
            ok = ok and abs(c_exact(p) - ident) <= 1e-12 * max(1.0, ident)
    for theta in np.arange(0.1, 0.95, 0.1):
        closed = math.sqrt(2.0 * math.sin(math.pi * theta) / math.pi)
        ok = ok and abs(n_factor_integral(float(theta), 2.0) - closed) <= 1e-8
    rep = constant_consistency_report(0.5, 2.0)
    ok = ok and abs(rep["abs_diff"] - (2.0 / math.pi - 0.5)) <= 1e-6
    dt = time.perf_counter() - t0
    ok = ok and dt < 1.0
    _criterion(1, "constants and normalization identities", ok, f"{dt:.2f}s")


def test_criterion_02_rearrangement_layer_cake():
    t0 = time.perf_counter()
    ok = True
    for sp, f in random_atoms(n_max=12, seed=2024, n_draws=500):
        sf = decreasing_rearrangement(f, sp)
        probes = set(f.magnitudes.tolist())
        probes |= {m / 2.0 for m in probes}
        probes.add(0.0)
        for sigma in probes:
            m_direct = distribution_function(f, sp, sigma)
            above = sf.values > sigma
            m_star = float(sf.breaks[1:][above][-1]) if np.any(above) else 0.0
            ok = ok and (m_direct == m_star)
        for p_exp in (0.5, 1.0, 2.0, math.inf):
            ok = ok and _rel_ok(
                lp_from_rearrangement(sf, p_exp), lp_norm(f, sp, p_exp), 1e-12
            )
        if not ok:
            break
    dt = time.perf_counter() - t0
    ok = ok and dt < 5.0
    _criterion(2, "equimeasurability and layer-cake norms", ok, f"{dt:.2f}s")


def test_criterion_03_e_functional_identity():
    t0 = time.perf_counter()
    ok = True
    for sp, f in random_atoms(n_max=10, seed=3, n_draws=200):
        sf = decreasing_rearrangement(f, sp)
        ts = straddling_grid(sf)
        ok = ok and bool((e_exhaustive(f, sp, ts) == eval_step(sf, ts)).all())
        if not ok:
            break
    dt = time.perf_counter() - t0
    ok = ok and dt < 30.0
    _criterion(3, "E-functional equals f* by exhaustive brute force", ok, f"{dt:.2f}s")


def test_criterion_04_k_sandwich_and_oracle():
    rng = np.random.default_rng(4)
    ok = True
    for sp, f in random_atoms(n_max=9, seed=4, n_draws=500):
        t = float(np.exp(rng.uniform(np.log(1e-3), np.log(50.0))))
        k2 = k2_functional(f, sp, t)
        kinf = kinf_functional(f, sp, t)
        ok = ok and (kinf <= k2 + 1e-12) and (k2 <= math.sqrt(2.0) * kinf + 1e-12)
        if not ok:
            break
    for sp, f in random_atoms(n_max=10, seed=44, n_draws=60):
        for t in (0.1, 0.7, 1.3, 5.0):
            ok = ok and _rel_ok(k2_functional(f, sp, t), k2_exhaustive(f, sp, t), 1e-12)
            ok = ok and _rel_ok(
                kinf_functional(f, sp, t), kinf_exhaustive(f, sp, t), 1e-12
            )
        if not ok:
            break
    _criterion(4, "K-functional sandwich and truncation oracle", ok)


def test_criterion_05_scalar_couple_and_bracket():
    scalar_ok = abs(k2_scalar(1.0, 1.0) - 2.0**-0.5) <= 1e-15
    theta, q = 1.0 / 3.0, 6.0
    s, tau = 1.0 / theta - 1.0, theta * q
    coeff = 2.0 ** (q / 2.0) / (theta * q * q)
    bracket_ok = True
    worst_ratio = math.inf
    for sp, f in random_atoms(n_max=6, seed=5, n_draws=20):
        sf = decreasing_rearrangement(f, sp)
        if sf.n_steps == 0:
            continue
        qpow = approx_quasinorm(sf, s, tau) ** (theta * q)
        ival = interp_quasinorm(f, sp, theta, q) ** q
        worst_ratio = min(worst_ratio, ival / qpow)
        # claimed: ival <= coeff * qpow <= 2^(q/2) * ival
        bracket_ok = bracket_ok and ival <= coeff * qpow * (1.0 + 1e-6)
        bracket_ok = bracket_ok and coeff * qpow <= 2.0 ** (q / 2.0) * ival * (1.0 + 1e-6)
    detail = (
        f"k2_scalar {'ok' if scalar_ok else 'BAD'}; stated upper coefficient "
        f"2^(q/2)/(theta q^2) = {coeff:.4f} but min observed I^q/Q^(theta q) "
        f"= {worst_ratio:.4f} (>= 1/theta = 3), so the first inequality fails "
        f"on every nonzero instance"
    )
    _criterion(5, "scalar couple and interpolation bracket", scalar_ok and bracket_ok, detail)


def test_criterion_06_sharp_oracle_jackson():
    t0 = time.perf_counter()
    prov = ConstantProvider("sharp-oracle")
    params = [
        params_from_s_tau(s, tau)
        for s in (0.5, 1.0, 2.0, 3.0)
        for tau in (0.5, 1.0, 2.0, 4.0)
    ]
    worst = math.inf
    for sp, f in random_atoms(n_max=8, seed=6, n_draws=1000):
        sf = decreasing_rearrangement(f, sp)
        grid = straddling_grid(sf)
        for p in params:
            rep = audit_jackson(f, sp, p, prov, grid)
            worst = min(worst, rep.min_margin)
    ok = worst >= -1e-12
    dt = time.perf_counter() - t0
    _criterion(
        6, "provable Jackson bound never violated", ok, f"worst margin {worst:.3e}, {dt:.1f}s"
    )


def test_criterion_07_pinned_falsifications():
    sp = DiscreteMeasureSpace(weights=np.array([1.0]))
    f = SimpleFunction(np.array([1.0]))
    p = params_from_s_tau(1.0, 1.0)
    rep_j = audit_jackson(f, sp, p, ConstantProvider("paper-with-factor"), [0.9])
    ok = rep_j.violated and rep_j.min_margin <= -0.44
    rep_w = audit_weak_l1(f, sp, "paper-2-over-pi", [0.8])
    ok = ok and rep_w.violated
    ok = ok and abs(rep_w.min_margin - (2.0 / math.pi / 0.8 - 1.0)) <= 1e-6
    _criterion(
        7,
        "claimed constants falsified on pinned instances",
        ok,
        f"jackson {rep_j.min_margin:.4f} at t=0.9, weak-L1 {rep_w.min_margin:.4f} at t=0.8",
    )


def test_criterion_08_demo_pipeline():
    t0 = time.perf_counter()
    res = demo_pipeline()
    dt = time.perf_counter() - t0
    fs = np.array(res.f_star)
    ok = bool(np.all(np.diff(fs) <= 0))
    ok = ok and res.e_value == res.f_star
    ok = ok and all(e <= j + 1e-12 for e, j in zip(res.e_value, res.jackson_bound))
    ok = ok and res.metadata["quasinorm_rel_change"] < 1e-3
    ok = ok and res.to_csv_text().startswith("u,f_star,e_value,jackson_bound\n")
    ok = ok and _rel_ok(res.quasinorm, 0.16583870074338575, 1e-9)
    ok = ok and _rel_ok(res.metadata["support_mass"], 0.4990026450783096, 1e-9)
    ok = ok and _rel_ok(res.metadata["sup_value"], 4.8394084445952119, 1e-9)
    ok = ok and dt < 10.0
    _criterion(8, "inverse-Gaussian demo tables and regression pins", ok, f"{dt:.2f}s")


def test_criterion_09_spectral_consistency():
    rng = np.random.default_rng(9)
    ok = True
    for _ in range(100):
        n = int(rng.integers(1, 9))
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = 0.5 * (b + b.conj().T)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        psi = v / np.linalg.norm(v)
        model = spectral_measure(a, psi)
        ok = ok and abs(float(model.weights.sum()) - 1.0) <= 1e-10
        quad_form = float(np.real(psi.conj() @ (a @ psi)))
        ok = ok and abs(float(model.weights @ model.eigenvalues) - quad_form) <= 1e-8
        sf = spectral_rearrangement(model)
        if sf.n_steps:
            rep = audit_spectral_bound(model, None, "safe-unit", straddling_grid(sf))
            ok = ok and not rep.violated
        if not ok:
            break
    _criterion(9, "spectral weights, trace, and safe weak-type bound", ok)


def test_criterion_10_cli_determinism(tmp_path, capsys):
    argv_sets = [
        [
            "search", "--provider", "paper-with-factor", "--s", "1", "--tau", "1",
            "--n-max", "5", "--draws", "25", "--seed", "7",
        ],
        ["constants", "--theta", "0.25", "--q", "4"],
        ["demo-invgauss", "--n-cells", "300", "--u-grid", "0.25:1:4"],
    ]
    ok = True
    for i, argv in enumerate(argv_sets):
        p1 = tmp_path / f"run{i}_a.txt"
        p2 = tmp_path / f"run{i}_b.txt"
        ok = ok and cli_main(argv + ["--out", str(p1)]) == 0
        ok = ok and cli_main(argv + ["--out", str(p2)]) == 0
        ok = ok and p1.read_bytes() == p2.read_bytes() and p1.stat().st_size > 0
    capsys.readouterr()
    _criterion(10, "CLI outputs byte-identical across repeated runs", ok)

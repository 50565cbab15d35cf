"""The four benchmark workloads: seeded inputs, one op each, and output checks.

Every input is generated here from the workload seed and written with this
file's own formatters, so the program under test only ever receives
generated data.  Each check recomputes what it needs with numpy alone, from
the generated arrays, never through bjaudit.

Parameters are fixed (s = 1, tau = 2, i.e. theta = 1/2, q = 4) so that op
times depend on input size only, not on the seed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stdout

import numpy as np

import bjaudit
from bjaudit import audit, functionals, measures, params, rearrange

S, TAU = 1.0, 2.0
CLI_TIMEOUT_S = 60.0


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


# ---------------------------------------------------------------- inputs


def random_instance(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Weights in [0.1, 3); magnitudes in [0.05, 5), n // 10 of them tied, n // 50 zero.

    The tie and zero counts (each at least 1) are fixed rather than drawn, so
    every seed gives the same number of distinct magnitudes, and with it the
    same work: the kink scan and quadrature of interp_k grow with that count.
    """
    w = rng.uniform(0.1, 3.0, n)
    m = rng.uniform(0.05, 5.0, n)
    n_tie, n_zero = max(1, n // 10), max(1, n // 50)
    perm = rng.permutation(n)
    tied, zero, rest = perm[:n_tie], perm[n_tie : n_tie + n_zero], perm[n_tie + n_zero :]
    m[tied] = m[rng.choice(rest, n_tie)]
    m[zero] = 0.0
    return w, m


def instance_csv(w, m) -> str:
    rows = "".join(f"a{i},{a!r},{b!r}\n" for i, (a, b) in enumerate(zip(w.tolist(), m.tolist())))
    return "atom_id,weight,magnitude\n" + rows


def hermitian_csvs(rng, n: int) -> tuple[str, str]:
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    a = (x + x.conj().T) / 2.0
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    psi /= np.linalg.norm(psi)
    matrix = "row,col,re,im\n" + "".join(
        f"{i},{j},{float(a[i, j].real)!r},{float(a[i, j].imag)!r}\n"
        for i in range(n)
        for j in range(n)
    )
    state = "index,re,im\n" + "".join(
        f"{i},{float(z.real)!r},{float(z.imag)!r}\n" for i, z in enumerate(psi)
    )
    return matrix, state


def trig_csv(rng, k_max: int) -> str:
    rows = "".join(
        f"{k},{float(rng.normal())!r},{float(rng.normal())!r}\n"
        for k in range(-k_max, k_max + 1)
    )
    return "k,re,im\n" + rows


# ------------------------------------------------------ numpy references


def step_function(w, m) -> tuple[np.ndarray, np.ndarray]:
    """Decreasing rearrangement: breaks (with leading 0) and strictly decreasing values."""
    pos = m > 0.0
    order = np.argsort(-m[pos], kind="stable")
    mags, cumw = m[pos][order], np.cumsum(w[pos][order])
    last = np.nonzero(np.diff(mags) != 0.0)[0]
    group_end = np.append(last, mags.size - 1)
    values = mags[np.concatenate([[0], last + 1])]
    breaks = np.concatenate([[0.0], cumw[group_end]])
    keep = np.diff(breaks) > 0.0
    return np.concatenate([[0.0], breaks[1:][keep]]), values[keep]


def quasinorm(breaks, values, s: float, tau: float) -> float:
    """Q_{s,tau} of a step function in closed form; tau = inf gives max v_i t_i^s."""
    if tau == math.inf:
        return float(np.max(values * breaks[1:] ** s))
    st = s * tau
    return float(np.sum(values**tau * np.diff(breaks**st) / st) ** (1.0 / tau))


def straddle(breaks, rel: float = 1e-3, extend: float = 1.5) -> np.ndarray:
    b = breaks[1:]
    mids = (breaks[:-1] + breaks[1:]) / 2.0
    pts = np.concatenate([b * (1.0 - rel), b * (1.0 + rel), mids, [breaks[-1] * extend]])
    return np.unique(pts[pts > 0])


def margin_summary(grid, margin, abs_tol: float = 1e-12) -> tuple[float, bool, float | None]:
    i = int(np.argmin(margin))
    violated = bool(margin[i] < -abs_tol)
    return float(margin[i]), violated, float(grid[i]) if violated else None


def _close(a: float, b: float, scale: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(scale, 1e-300)


def check_summary(label, got, want, scale) -> None:
    (g_min, g_vio, g_wit), (w_min, w_vio, w_wit) = got, want
    if not _close(g_min, w_min, scale):
        raise CheckFailed(f"{label}: min_margin {g_min!r} != reference {w_min!r}")
    if g_vio != w_vio:
        raise CheckFailed(f"{label}: violated {g_vio} != reference {w_vio}")
    if (g_wit is None) != (w_wit is None) or (
        g_wit is not None and not _close(g_wit, w_wit, abs(w_wit))
    ):
        raise CheckFailed(f"{label}: witness_t {g_wit!r} != reference {w_wit!r}")


# ------------------------------------------------------------- workloads


class Workload:
    """One op family.  setup() generates the inputs; op(i) runs op i; check() verifies it.

    The inputs stay fixed for the whole run, so the times of each op variant
    stay unimodal.
    """

    name = ""
    rotation = 1  # ops per cycle through the op variants

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> None:
        raise NotImplementedError


class CliMix(Workload):
    """One `python -m bjaudit.cli` subprocess per op; the eight subcommands rotate."""

    name = "cli_mix"

    def setup(self) -> None:
        from bjaudit import cli  # noqa: F401  (needed by the traced replay)

        rng = np.random.default_rng(self.seed)
        files = {
            "inst.csv": instance_csv(*random_instance(rng, 50)),
            "trig.csv": trig_csv(rng, 20),
        }
        files["matrix.csv"], files["state.csv"] = hermitian_csvs(rng, 64)
        paths = {}
        for fname, text in files.items():
            paths[fname] = os.path.join(self.workdir, fname)
            with open(paths[fname], "w", newline="") as fh:
                fh.write(text)
        inst = paths["inst.csv"]
        st = ["--s", repr(S), "--tau", repr(TAU)]
        self.argvs = [
            ["constants", *st],
            ["rearrange", "--input", inst],
            ["quasinorm", "--input", inst, *st],
            ["audit", "--name", "jackson", "--input", inst, *st],
            ["search", "--provider", "sharp-oracle", "--seed", str(self.seed), *st],
            ["spectral", "--matrix", paths["matrix.csv"], "--state", paths["state.csv"]],
            ["demo-invgauss"],
            ["trig", "--input", paths["trig.csv"]],
        ]
        self.formats = ["json", "csv", "json", "json", "json", "json", "csv", "csv"]
        self.rotation = len(self.argvs)
        self.env = child_env()
        self.first_output: dict[int, bytes] = {}

    def subcommand(self, i: int) -> str:
        return self.argvs[i % len(self.argvs)][0]

    def op(self, i: int):
        argv = [sys.executable, "-m", "bjaudit.cli", *self.argvs[i % len(self.argvs)]]
        return subprocess.run(
            argv, capture_output=True, env=self.env, cwd=self.workdir, timeout=CLI_TIMEOUT_S
        )

    def check(self, i: int, out) -> None:
        k = i % len(self.argvs)
        if out.returncode != 0:
            raise CheckFailed(f"{self.argvs[k][0]}: exit {out.returncode}: {out.stderr[-300:]!r}")
        text = out.stdout.decode()
        if self.formats[k] == "json":
            try:
                json.loads(text)
            except ValueError as exc:
                raise CheckFailed(f"{self.argvs[k][0]}: output is not JSON ({exc})") from None
        else:
            rows = list(csv.reader(io.StringIO(text)))
            if len(rows) < 2 or any(len(r) != len(rows[0]) for r in rows):
                raise CheckFailed(f"{self.argvs[k][0]}: output is not a rectangular CSV")
        if self.first_output.setdefault(k, out.stdout) != out.stdout:
            raise CheckFailed(f"{self.argvs[k][0]}: output differs from an earlier run")

    def replay(self, i: int) -> str:
        """Run op i's subcommand in this process through bjaudit.cli.main."""
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = bjaudit.cli.main(list(self.argvs[i % len(self.argvs)]))
        if code != 0:
            raise CheckFailed(f"in-process {self.subcommand(i)}: exit {code}")
        return buf.getvalue()


class AuditLarge(Workload):
    """Parse a large instance CSV, audit Jackson and weak-L1, render JSON and CSV."""

    name = "audit_large"
    n_atoms = 20_000

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        w, m = random_instance(rng, self.n_atoms)
        self.text = instance_csv(w, m)
        self.p = params.params_from_s_tau(S, TAU)
        self.provider = audit.ConstantProvider("paper-c")
        breaks, values = step_function(w, m)
        grid = straddle(breaks)
        idx = np.searchsorted(breaks, grid, side="right") - 1
        lhs = np.where(idx < values.size, values[np.minimum(idx, values.size - 1)], 0.0)
        const = (S / (TAU * (S + 1.0) ** 2)) ** (1.0 / TAU)
        jack = grid ** (-S) * const * quasinorm(breaks, values, S, TAU) - lhs
        weak = (2.0 / math.pi) * float(np.sum(w * m)) / grid - lhs
        self.n_grid = grid.size
        self.scale = float(values[0])
        self.want_jackson = margin_summary(grid, jack)
        self.want_weak = margin_summary(grid, weak)

    def op(self, i: int):
        sp, f = measures.load_instance_csv(self.text)
        sf = rearrange.decreasing_rearrangement(f, sp)
        grid = audit.straddling_grid(sf)
        jackson = audit.audit_jackson(f, sp, self.p, self.provider, grid)
        json_text = jackson.to_json_text()
        weak = audit.audit_weak_l1(f, sp, "paper-2-over-pi", grid)
        return json_text, weak.to_csv_text()

    def check(self, i: int, out) -> None:
        json_text, csv_text = out
        rep = json.loads(json_text)
        if len(rep["grid"]) != self.n_grid:
            raise CheckFailed(f"jackson grid has {len(rep['grid'])} points, want {self.n_grid}")
        got = (rep["min_margin"], rep["violated"], rep["witness_t"])
        check_summary("jackson", got, self.want_jackson, self.scale)
        table = np.loadtxt(io.StringIO(csv_text), delimiter=",", skiprows=1, ndmin=2)
        if table.shape != (self.n_grid, 4):
            raise CheckFailed(f"weak-L1 CSV has shape {table.shape}, want ({self.n_grid}, 4)")
        check_summary("weak_l1", margin_summary(table[:, 0], table[:, 3]), self.want_weak, self.scale)


class SearchSmall(Workload):
    """One counterexample_search over 2000 random small instances; providers rotate."""

    name = "search_small"
    draws = 2000

    def setup(self) -> None:
        self.p = params.params_from_s_tau(S, TAU)
        self.providers = [audit.ConstantProvider(k) for k in audit.PROVIDER_KINDS]
        self.rotation = len(self.providers)
        self.first_margin: dict[str, float] = {}

    def op(self, i: int):
        provider = self.providers[i % len(self.providers)]
        gen = audit.random_atoms(8, self.seed, self.draws)
        return provider.kind, audit.counterexample_search(self.p, provider, gen)

    def check(self, i: int, out) -> None:
        kind, res = out
        if res.n_instances != self.draws:
            raise CheckFailed(f"{kind}: audited {res.n_instances} of {self.draws} instances")
        if kind == "sharp-oracle" and res.report.violated:
            raise CheckFailed(f"sharp-oracle violated: min_margin {res.report.min_margin!r}")
        if self.first_margin.setdefault(kind, res.report.min_margin) != res.report.min_margin:
            raise CheckFailed(f"{kind}: search is not deterministic")


class InterpK(Workload):
    """K2 and K_inf interpolation quasinorms of one small instance."""

    name = "interp_k"
    n_atoms = 24
    cases = (
        ("k2", 0.5, 2.0),
        ("kinf", 0.5, 2.0),
        ("k2", 1.0 / 3.0, 6.0),
        ("kinf", 1.0 / 3.0, 6.0),
        ("k2", 0.5, math.inf),
    )

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        w, m = random_instance(rng, self.n_atoms)
        self.sp = measures.DiscreteMeasureSpace(weights=w)
        self.f = measures.SimpleFunction(m)
        self.breaks, self.values = step_function(w, m)

    def op(self, i: int):
        return [
            functionals.interp_quasinorm(self.f, self.sp, theta, q, kfunc=kfunc)
            for kfunc, theta, q in self.cases
        ]

    def check(self, i: int, out) -> None:
        got = dict(zip(self.cases, out))
        for theta, q in ((0.5, 2.0), (1.0 / 3.0, 6.0), (0.5, math.inf)):
            s = (1.0 - theta) / theta
            q_val = quasinorm(self.breaks, self.values, s, theta * q)
            if q == math.inf:
                i_inf = q_val**theta  # sup_t t^-theta K_inf(t) = Q_{s,inf}^theta
            else:
                i_inf = got[("kinf", theta, q)]
                want = q_val ** (theta * q) / theta
                if abs(i_inf**q - want) > 1e-8 * want:
                    raise CheckFailed(
                        f"K_inf at theta={theta:.4g}, q={q}: I^q = {i_inf**q!r}, "
                        f"(1/theta) Q^(theta q) = {want!r}"
                    )
            k2 = got[("k2", theta, q)]
            if not i_inf * (1.0 - 1e-9) <= k2 <= math.sqrt(2.0) * i_inf * (1.0 + 1e-9):
                raise CheckFailed(
                    f"K2 at theta={theta:.4g}, q={q}: {k2!r} outside "
                    f"[{i_inf!r}, sqrt(2) * {i_inf!r}]"
                )


WORKLOADS = {w.name: w for w in (CliMix, AuditLarge, SearchSmall, InterpK)}


def child_env() -> dict:
    """The environment of every child python: this one, with src/ importable."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(bjaudit.__file__))
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env

"""Command-line surface.

One subcommand per capability; every run is deterministic given argv, input
files, and --seed, and all JSON floats carry 17 significant digits.  Exit
codes: 0 for success (a detected inequality violation is a result, so it
also exits 0), 2 for usage or domain errors, 3 for numeric failures.

Each cmd_* returns the JSON object and the CSV header and columns, taken
from that object (a float column as a float64 array); main reads --format
and renders once (jsonutil).
Each cmd_* also imports the modules it uses when it runs, so a subcommand
loads only its own layers; `constants` needs neither numpy nor the audit
engine.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import TYPE_CHECKING

from .errors import BJAuditError, DomainError, UsageError
from .jsonutil import csv_text, dumps17, infinite_param
from .params import (
    PROVIDER_KINDS,
    WEAK_L1_VARIANTS,
    ApproxParams,
    c_big,
    c_exact,
    n_factor_algebraic,
    n_factor_integral,
    params_from_s_tau,
    params_from_theta_q,
)

if TYPE_CHECKING:
    import numpy as np

AUDIT_NAMES = ("jackson", "bernstein-right", "weak-l1", "q2")
SPECTRAL_G = {
    "identity": lambda lam: lam,
    "square": lambda lam: lam * lam,
    "zero": lambda lam: 0.0,
}
# The most grid points, demo cells, atoms per search draw or trig table rows
# a run may ask for; larger counts exit 2 before any array is built.
MAX_ROWS = 1_000_000


def _within_limit(what: str, n: int) -> int:
    if n > MAX_ROWS:
        raise UsageError(f"{what} {n} exceeds the limit {MAX_ROWS}")
    return n


def parse_grid(text: str) -> np.ndarray:
    """`lo:hi:n` linear, `log:lo:hi:n` logarithmic, or a single value."""
    import numpy as np

    parts = text.split(":")
    log = len(parts) == 4 and parts[0] == "log"
    if not (len(parts) in (1, 3) or log):
        raise UsageError(f"cannot parse grid {text!r}: use VALUE, lo:hi:n, or log:lo:hi:n")
    try:
        if len(parts) == 1:
            return np.array([float(parts[0])])
        lo, hi, n = float(parts[-3]), float(parts[-2]), int(parts[-1])
    except ValueError as exc:
        why = exc if len(parts) > 1 else "not a number"
        raise UsageError(f"cannot parse grid {text!r}: {why}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi and (lo > 0 or not log)):
        need = "log grid needs 0 < lo <= hi" if log else "grid needs lo <= hi"
        raise UsageError(f"cannot parse grid {text!r}: {need}")
    if n < 1:
        raise UsageError(f"cannot parse grid {text!r}: grid needs n >= 1")
    return (np.geomspace if log else np.linspace)(lo, hi, _within_limit("grid size", n))


def _add_param_group(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--s", type=float, default=None, help="smoothness s > 0")
    sub.add_argument("--tau", type=float, default=None, help="tau > 0 or inf")
    sub.add_argument("--theta", type=float, default=None, help="theta in (0,1)")
    sub.add_argument("--q", type=float, default=None, help="q > 0 or inf")


def resolve_params(args) -> ApproxParams:
    has_st = args.s is not None or args.tau is not None
    has_tq = args.theta is not None or args.q is not None
    if has_st and has_tq:
        raise UsageError("give either (--s, --tau) or (--theta, --q), not both")
    if has_st:
        if args.s is None or args.tau is None:
            raise UsageError("--s and --tau must be given together")
        return params_from_s_tau(args.s, args.tau)
    if has_tq:
        if args.theta is None or args.q is None:
            raise UsageError("--theta and --q must be given together")
        return params_from_theta_q(args.theta, args.q)
    raise UsageError("parameters required: (--s, --tau) or (--theta, --q)")


def _emit(text: str, out_path: str | None, mode: str = "w") -> None:
    """Write text to out_path, or to stdout for None or "-"; a path that
    cannot be opened (mode "a" leaves a file as it is) is a UsageError."""
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out_path, mode, newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write output: {exc}") from exc


def _check_writable(*out_paths: str | None) -> None:
    """_emit's UsageError for the first of out_paths it cannot open, before
    any is written; a file the check makes is removed."""
    for path in out_paths:
        made = path not in (None, "-") and not os.path.lexists(path)
        _emit("", path, "a")
        if made:
            os.remove(path)


def _kv_output(obj: dict):
    """A flat JSON object, in CSV one key,value row per entry."""
    values = ["inf" if infinite_param(k, v) else v for k, v in obj.items()]
    return obj, ("key", "value"), [list(obj), values]


def cmd_constants(args):
    p = resolve_params(args)
    out: dict[str, object] = {
        "theta": p.theta,
        "q": p.q,
        "s": p.s,
        "tau": p.tau,
        "c_exact": c_exact(p),
    }
    for key, fn in (
        ("n_algebraic", lambda: n_factor_algebraic(p.theta, p.q)),
        ("n_integral", lambda: n_factor_integral(p.theta, p.q)),
        ("c_big_table", lambda: c_big(p.theta, p.q, "table")),
        ("c_big_consistency", lambda: c_big(p.theta, p.q, "consistency")),
    ):
        try:
            out[key] = fn()
        except DomainError:
            out[key] = None
    # constant_consistency_report's abs_diff, which that report refuses at q = inf
    table, consistency = out["c_big_table"], out["c_big_consistency"]
    known = p.q < math.inf and None not in (table, consistency)
    out["consistency_abs_diff"] = abs(table - consistency) if known else None
    return _kv_output(out)


def cmd_rearrange(args):
    from .measures import load_instance_csv
    from .rearrange import decreasing_rearrangement, step_csv

    sp, f = load_instance_csv(args.input)
    sf = decreasing_rearrangement(f, sp)
    out = {
        "breaks": sf.breaks,
        "values": sf.values,
        "support_mass": sf.support_mass,
        "sup_value": sf.sup_value,
    }
    return (out, *step_csv(out["breaks"], out["values"]))


def cmd_quasinorm(args):
    from .measures import load_instance_csv, lp_norm
    from .rearrange import approx_quasinorm, decreasing_rearrangement

    p = resolve_params(args)
    sp, f = load_instance_csv(args.input)
    sf = decreasing_rearrangement(f, sp)
    q_val = approx_quasinorm(sf, p.s, p.tau)
    out = {
        "s": p.s,
        "tau": p.tau,
        "quasinorm": q_val,
        "l0": lp_norm(f, sp, 0),
        "l1": lp_norm(f, sp, 1.0),
        "l2": lp_norm(f, sp, 2.0),
        "linf": lp_norm(f, sp, math.inf),
    }
    return _kv_output(out)


def _grid(args) -> np.ndarray | None:
    return None if args.grid is None else parse_grid(args.grid)


def cmd_audit(args):
    from .audit import (
        ConstantProvider,
        audit_bernstein_right,
        audit_jackson,
        audit_q2,
        audit_weak_l1,
        report_csv,
    )
    from .measures import load_instance_csv

    name = args.name.replace("_", "-")
    sp, f = load_instance_csv(args.input)
    if name == "jackson":
        p = resolve_params(args)
        provider = ConstantProvider(args.provider or "paper-c")
        rep = audit_jackson(f, sp, p, provider, _grid(args))
    elif name == "bernstein-right":
        if args.grid is not None:
            raise UsageError("audit --name bernstein-right is t-less and takes no --grid")
        p = resolve_params(args)
        rep = audit_bernstein_right(f, sp, p)
    elif name == "weak-l1":
        rep = audit_weak_l1(f, sp, args.variant or "paper-2-over-pi", _grid(args))
    elif name == "q2":
        if args.theta is None:
            raise UsageError("audit --name q2 requires --theta")
        if args.s is not None or args.tau is not None or args.q is not None:
            raise UsageError("audit --name q2 takes only --theta")
        rep = audit_q2(f, sp, args.theta, _grid(args))
    else:
        raise UsageError(f"unknown audit name {args.name!r}; choose from {AUDIT_NAMES}")
    out = rep.to_json_dict()
    return (out, *report_csv(out))


def cmd_search(args):
    from .audit import (
        ConstantProvider,
        counterexample_search,
        indicator_sweep,
        random_atoms,
        report_csv,
    )

    p = resolve_params(args)
    provider = ConstantProvider(args.provider)
    if args.generator == "random-atoms":
        gen = random_atoms(_within_limit("--n-max", args.n_max), args.seed, args.draws)
    else:
        gen = indicator_sweep()
    out = counterexample_search(p, provider, gen, budget=args.budget).to_json_dict()
    return (out, *report_csv(out["report"]))


def cmd_spectral(args):
    from .audit import report_csv
    from .spectral import audit_spectral_bound, load_matrix_csv, load_state_csv, spectral_measure

    matrix = load_matrix_csv(args.matrix)
    psi = load_state_csv(args.state)
    model = spectral_measure(matrix, psi)
    rep = audit_spectral_bound(model, SPECTRAL_G[args.g], args.variant, _grid(args))
    out = rep.to_json_dict()
    out["eigenvalues"] = model.eigenvalues
    out["weights"] = model.weights
    return (out, *report_csv(out))


def cmd_demo_invgauss(args):
    from .invgauss import InvGaussParams, demo_pipeline
    from .rearrange import step_csv_text

    _check_writable(args.steps_out, args.metadata_out, args.out)
    p = InvGaussParams(amplitude=args.C, mean=args.m, shape=args.l)
    u_grid = parse_grid(args.u_grid) if args.u_grid is not None else None
    result = demo_pipeline(
        p,
        s=args.s,
        tau=args.tau,
        t_max=args.t_max,
        n_cells=_within_limit("--n-cells", args.n_cells),
        u_grid=u_grid,
    )
    if args.steps_out is not None:
        _emit(step_csv_text(result.rearrangement), args.steps_out)
    if args.metadata_out is not None:
        _emit(result.metadata_json_text(), args.metadata_out)
    table = result.table()
    return {"metadata": result.metadata, "table": table}, tuple(table), list(table.values())


def cmd_trig(args):
    import numpy as np

    from .functionals import _trig_errors, load_trig_csv

    coeffs = load_trig_csv(args.input)
    if args.n_max is not None:
        n_max = args.n_max
        if n_max < 1:
            raise UsageError(f"--n-max must be >= 1, got {n_max}")
    else:
        n_max = max((abs(int(k)) for k in coeffs), default=0) + 1
    ns = list(range(1, _within_limit("n_max", n_max) + 1))
    es = np.array(_trig_errors(coeffs, ns))
    return {"n": ns, "e_value": es}, ("n", "e_value"), [ns, es]


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one `error: <message>` line
    and exit 2, as every other usage error is; subparsers share the class."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bjaudit",
        description=(
            "Decreasing rearrangements, E/K-functionals, and numerical audits "
            "of approximation-theoretic inequalities."
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def common(sub, default_format):
        sub.add_argument(
            "--format", choices=("csv", "json"), default=default_format
        )
        sub.add_argument("--out", default=None, help="output path (default stdout)")

    sc = subs.add_parser("constants", help="exact and tabulated constants")
    _add_param_group(sc)
    common(sc, "json")
    sc.set_defaults(func=cmd_constants)

    sr = subs.add_parser("rearrange", help="instance CSV -> step-function CSV")
    sr.add_argument("--input", required=True, help="instance CSV path")
    common(sr, "csv")
    sr.set_defaults(func=cmd_rearrange)

    sq = subs.add_parser("quasinorm", help="approximation quasinorm and L^p values")
    sq.add_argument("--input", required=True, help="instance CSV path")
    _add_param_group(sq)
    common(sq, "json")
    sq.set_defaults(func=cmd_quasinorm)

    sa = subs.add_parser("audit", help="evaluate one inequality on one instance")
    sa.add_argument("--name", required=True, help="|".join(AUDIT_NAMES))
    sa.add_argument("--input", required=True, help="instance CSV path")
    sa.add_argument("--provider", choices=PROVIDER_KINDS, default=None)
    sa.add_argument("--variant", choices=WEAK_L1_VARIANTS, default=None)
    sa.add_argument(
        "--grid", default=None, help="t-grid lo:hi:n or log:lo:hi:n (default: straddle breaks)"
    )
    _add_param_group(sa)
    common(sa, "json")
    sa.set_defaults(func=cmd_audit)

    ss = subs.add_parser("search", help="hunt for the worst Jackson margin")
    ss.add_argument("--provider", choices=PROVIDER_KINDS, required=True)
    ss.add_argument(
        "--generator",
        choices=("random-atoms", "indicator-sweep"),
        default="random-atoms",
        help="--n-max, --draws and --seed apply to random-atoms only",
    )
    ss.add_argument("--n-max", type=int, default=6, help="max atoms per instance")
    ss.add_argument("--draws", type=int, default=200, help="instances to generate")
    ss.add_argument("--budget", type=int, default=None, help="cap on instances drawn")
    ss.add_argument("--seed", type=int, default=0)
    _add_param_group(ss)
    common(ss, "json")
    ss.set_defaults(func=cmd_search)

    sp = subs.add_parser("spectral", help="spectral measure weak-type audit")
    sp.add_argument("--matrix", required=True, help="matrix CSV (row,col,re,im)")
    sp.add_argument("--state", required=True, help="state CSV (index,re,im)")
    sp.add_argument("--g", choices=SPECTRAL_G, default="identity")
    sp.add_argument("--variant", choices=WEAK_L1_VARIANTS, default="paper-2-over-pi")
    sp.add_argument("--grid", default=None, help="t-grid (default: straddle breaks)")
    common(sp, "json")
    sp.set_defaults(func=cmd_spectral)

    sd = subs.add_parser("demo-invgauss", help="inverse-Gaussian demo tables")
    sd.add_argument("--C", type=float, default=10.0, help="amplitude")
    sd.add_argument("--m", type=float, default=2.0, help="mean")
    sd.add_argument("--l", type=float, default=4.0, help="shape")
    sd.add_argument("--s", type=float, default=2.0)
    sd.add_argument("--tau", type=float, default=2.0)
    sd.add_argument("--t-max", type=float, default=10.0)
    sd.add_argument("--n-cells", type=int, default=4000)
    sd.add_argument("--u-grid", default=None, help="u-grid lo:hi:n (default 0.5:11:106)")
    sd.add_argument(
        "--steps-out", default=None, help="also write the rearrangement step CSV here"
    )
    sd.add_argument(
        "--metadata-out", default=None, help="also write the metadata JSON here"
    )
    common(sd, "csv")
    sd.set_defaults(func=cmd_demo_invgauss)

    st = subs.add_parser("trig", help="L^2 trigonometric approximation errors")
    st.add_argument("--input", required=True, help="coefficient CSV (k,re,im)")
    st.add_argument("--n-max", type=int, default=None, help="tabulate n = 1..n_max")
    common(st, "csv")
    st.set_defaults(func=cmd_trig)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        obj, header, columns = args.func(args)
        text = dumps17(obj) + "\n" if args.format == "json" else csv_text(header, columns)
        _emit(text, args.out)
    except BJAuditError as exc:
        print(f"{exc.prefix}: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

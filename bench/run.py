"""bjaudit benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ./src (it need
not be installed).  With --trace 0 the run reports the end-to-end metrics;
with --trace 1 it reports per-layer metrics from spans recorded around
bjaudit's public functions, plus the size ladder and the tracing overhead.
End-to-end times are scaled by the host's current speed, which a reference
kernel measures around every op (see reference.py).  Every metric is printed
as a table (name, value, unit, sample count) with the machine facts and the
unscaled times; the last stdout line is the JSON result.  A copy of the
result with all details, and the spans of a traced run, go to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
SETUP_REPEATS = 3
# The tail percentile lies above the median only from 21 samples on.  The
# floor of 32 gives cli_mix at least 4 ops of each of its 8 subcommands, so
# that its tail stays among the ops of the same subcommand when the machine
# runs slow (with 3 each it would fall to the next faster one).
MIN_OPS = 32
CPUS = sorted(os.sched_getaffinity(0))
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import bjaudit; "
    "print(time.perf_counter() - t)"
)
LADDER_SIZES = (("n1e3", 10**3, 9), ("n1e5", 10**5, 3), ("n1e6", 10**6, 1))
SERIALIZE_MAX_ATOMS = 10**5  # rendering the 10^6-atom report would need gigabytes


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_bjaudit() -> float:
    """Import the package from ./src before anything else loads numpy."""
    src = ROOT / "src"
    if not (src / "bjaudit" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'bjaudit'} not found; run from a bjaudit checkout")
    sys.path.insert(0, str(src))
    t = time.perf_counter()
    import bjaudit  # noqa: F401

    return time.perf_counter() - t


def child_import_s(env) -> float:
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True,
        env=env, check=True, timeout=120,
    )
    return float(out.stdout.strip())


def tail(samples) -> tuple[float, float]:
    """Value at the highest percentile with at least 10 samples beyond it, and that percentile.

    With 10 samples or fewer no percentile qualifies and the maximum is reported.
    """
    xs = sorted(samples)
    if len(xs) <= 10:
        return xs[-1], 100.0
    k = len(xs) - 11
    return xs[k], 100.0 * (k + 1) / len(xs)


class Phase:
    """Op times and failures of one closed loop: the next op starts after the previous check.

    `times` are wall times; `ref` holds, for each op, the mean time of the
    reference kernel run right before and right after it.
    """

    def __init__(self):
        self.times: list[float] = []
        self.ref: list[float] = []
        self.failed = 0
        self.errors: list[str] = []

    def scaled(self) -> list[float]:
        """Op times on a host on which the reference kernel takes REFERENCE_S."""
        from reference import REFERENCE_S

        return [t * REFERENCE_S / r for t, r in zip(self.times, self.ref)]

    def attempt(self, wl, i: int, after_op=None) -> None:
        """Run and time op i, then check it; a raising op or a failed check is counted.

        Successive ops, and the same op variant in successive rotations, run
        on alternate CPUs of the ones this process may use (a child inherits
        the choice).  On a shared virtual machine the CPUs run at different
        speeds for minutes at a time, and a process left on one of them would
        read as a whole fast or slow run.
        """
        from reference import reference_s

        os.sched_setaffinity(0, {CPUS[(i + i // wl.rotation) % len(CPUS)]})
        before = reference_s()
        t0 = time.perf_counter()
        try:
            out = wl.op(i)
        except Exception as exc:  # a failure is counted, it does not end the run
            self.record(time.perf_counter() - t0, before)
            self.fail(i, exc)
            return
        self.record(time.perf_counter() - t0, before)
        try:
            wl.check(i, out)
            if after_op is not None:
                after_op(i, out, self.times[-1])
        except Exception as exc:
            self.fail(i, exc)

    def record(self, wall: float, ref_before: float) -> None:
        from reference import reference_s

        self.times.append(wall)
        self.ref.append((ref_before + reference_s()) / 2.0)

    def fail(self, i: int, exc: Exception) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"op {i}: {type(exc).__name__}: {exc}")


def run_phase(
    wl, seconds: float, first_op: int, phase: Phase, before_op=None, after_op=None, min_ops=0
) -> int:
    """Run whole rotations of ops until `seconds` have passed and `min_ops` ops ran.

    Whole rotations give every op variant of a workload the same share of the
    samples, so the median does not depend on where the clock stopped.
    Returns the next op index.  Only the op is timed; its check and the
    after_op hook run between ops.
    """
    i = first_op
    end = time.perf_counter() + seconds
    while time.perf_counter() < end or i - first_op < min_ops or (i - first_op) % wl.rotation:
        if before_op is not None:
            before_op(i)
        phase.attempt(wl, i, after_op)
        i += 1
    return i


def setup(wl_cls, seed: int, workdir: Path, import_s: float, env, warm: Phase):
    """Set up SETUP_REPEATS times, each ending in one warm-up op recorded in `warm`.

    The first import is this process's own; the others are timed in fresh
    child interpreters.  Returns the workload, the median set-up time scaled
    by the median reference kernel time taken around the set-ups, that
    median unscaled, and the median import time.
    """
    from reference import REFERENCE_S, reference_s

    ref = [reference_s()]
    imports = [import_s]
    for _ in range(SETUP_REPEATS - 1):
        imports.append(child_import_s(env))
        ref.append(reference_s())
    totals = []
    for k in range(SETUP_REPEATS):
        t = time.perf_counter()
        wl = wl_cls(seed, str(workdir))
        wl.setup()
        warm.attempt(wl, 0)
        totals.append(imports[k] + time.perf_counter() - t)
    ref += warm.ref
    wall = statistics.median(totals)
    return wl, wall * REFERENCE_S / statistics.median(ref), wall, statistics.median(imports)


def ladder(metrics: dict, seed: int) -> None:
    """Stage times at 10^3, 10^5 and 10^6 atoms, called directly (no spans)."""
    import numpy as np

    from bjaudit import audit, measures, params, rearrange
    from workloads import S, TAU, random_instance

    p = params.params_from_s_tau(S, TAU)
    provider = audit.ConstantProvider("paper-c")

    def timed(fn, reps):
        ts = []
        for _ in range(reps):
            t = time.perf_counter()
            out = fn()
            ts.append(time.perf_counter() - t)
        return out, statistics.median(ts)

    for label, n, reps in LADDER_SIZES:
        w, m = random_instance(np.random.default_rng(seed), n)
        sp, f = measures.DiscreteMeasureSpace(weights=w), measures.SimpleFunction(m)
        del w, m
        sf, t_rearr = timed(lambda: rearrange.decreasing_rearrangement(f, sp), reps)
        _, t_qn = timed(lambda: rearrange.approx_quasinorm(sf, S, TAU), reps)
        grid, t_grid = timed(lambda: audit.straddling_grid(sf), reps)
        rep, t_jack = timed(lambda: audit.audit_jackson(f, sp, p, provider, grid), reps)
        for name, val in (
            ("rearrange.decreasing_rearrangement", t_rearr),
            ("rearrange.approx_quasinorm", t_qn),
            ("audit.straddling_grid", t_grid),
            ("audit.audit_jackson", t_jack),
        ):
            metrics[f"{name}.{label}_s"] = (val, "s", reps)
        if n <= SERIALIZE_MAX_ATOMS:
            _, t_json = timed(rep.to_json_text, reps)
            _, t_csv = timed(rep.to_csv_text, reps)
            metrics[f"jsonutil.dumps17.{label}_s"] = (t_json, "s", reps)
            metrics[f"audit.to_csv_text.{label}_s"] = (t_csv, "s", reps)
        del sp, f, sf, grid, rep


def machine_facts(env) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = {k: env.get(k, "unset") for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "nproc": len(CPUS),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads_in_children": blas,
    }


def end_to_end(phase: Phase, setup_s: float, cli: bool) -> dict:
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    times = phase.scaled()
    n = len(times)
    tail_s, tail_pct = tail(times)
    return {
        "setup_s": (setup_s, "s", SETUP_REPEATS),
        "op_p50_s": (statistics.median(times), "s", n),
        "op_tail_s": (tail_s, "s", n, tail_pct),
        "ops_per_s": (n / sum(times), "1/s", n),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB", 1),
    }


def unscaled(phase: Phase, setup_wall_s: float) -> dict:
    """The wall times behind the scaled metrics, and the reference kernel's time."""
    return {
        "setup_s": setup_wall_s,
        "op_p50_s": statistics.median(phase.times),
        "op_tail_s": tail(phase.times)[0],
        "ops_per_s": len(phase.times) / sum(phase.times),
        "reference_kernel_s": statistics.median(phase.ref),
    }


def traced(wl, seconds: float, import_s: float) -> tuple[dict, Phase]:
    """Half the time untraced, half traced; per-layer metrics from the traced half."""
    from tracing import Tracer
    from workloads import CheckFailed, CliMix

    tracer = Tracer()
    plain = Phase()
    nxt = run_phase(wl, seconds / 2.0, 1, plain)
    spanned = Phase()
    startup: list[float] = []

    if isinstance(wl, CliMix):
        def after_op(i, out, wall):
            tracer.op_id = i
            with tracer.patched():
                idx = tracer.open(f"cli.{wl.subcommand(i)}")
                try:
                    text = wl.replay(i)
                finally:
                    tracer.close(idx)
            startup.append(wall - (tracer.end[idx] - tracer.start[idx]))
            if text != out.stdout.decode():
                raise CheckFailed(f"in-process {wl.subcommand(i)} output differs from the subprocess")

        run_phase(wl, seconds / 2.0, nxt, spanned, after_op=after_op)
    else:
        with tracer.patched():
            run_phase(wl, seconds / 2.0, nxt, spanned, before_op=lambda i: setattr(tracer, "op_id", i))

    metrics = tracer.layer_metrics()
    metrics["cli.import_s"] = (import_s, "s", SETUP_REPEATS)
    metrics["cli.startup_s"] = (statistics.median(startup) if startup else 0.0, "s", len(startup))
    untraced_p50 = statistics.median(plain.scaled())
    traced_p50 = statistics.median(spanned.scaled())
    metrics["trace.op_p50_untraced_s"] = (untraced_p50, "s", len(plain.times))
    metrics["trace.op_p50_traced_s"] = (traced_p50, "s", len(spanned.times))
    metrics["trace.overhead_s"] = (traced_p50 - untraced_p50, "s", len(spanned.times))
    metrics["host.reference_kernel_s"] = (
        statistics.median(plain.ref + spanned.ref), "s", len(plain.ref) + len(spanned.ref)
    )
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write(OUT / f"spans-{wl.name}-seed{wl.seed}.csv.gz")
    both = Phase()
    both.times = plain.times + spanned.times
    both.ref = plain.ref + spanned.ref
    both.failed = plain.failed + spanned.failed
    both.errors = plain.errors + spanned.errors
    return metrics, both


def report(args, metrics: dict, warm: Phase, phase: Phase, facts: dict, walls: dict) -> dict:
    """Print every metric with its unit and sample count; return the result object.

    The warm-up ops of set-up count as attempted ops, so that their failures show.
    """
    attempted = len(warm.times) + len(phase.times)
    failed = warm.failed + phase.failed
    print(f"# bjaudit benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for key, val in facts.items():
        print(f"# {key}: {val}")
    print(f"{'metric':48s} {'value':>16s} {'unit':6s} samples")
    for name, (value, unit, n, *extra) in metrics.items():
        note = f"  (p{extra[0]:.1f})" if extra else ""
        print(f"{name:48s} {value:16.9g} {unit:6s} {n}{note}")
    print(f"{'op_fail_ratio':48s} {failed / attempted:16.9g} {'ratio':6s} {attempted}")
    for name, value in walls.items():
        print(f"# wall {name}: {value:.9g}")
    for err in warm.errors + phase.errors:
        print(f"# failure: {err}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_bjaudit()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS, child_env

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if not (math.isfinite(args.seconds) and args.seconds > 0):
        sys.exit("error: --seconds must be positive")
    env = child_env()
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    warm = Phase()
    try:
        wl, setup_s, setup_wall_s, import_med = setup(
            WORKLOADS[args.workload], args.seed, workdir, import_s, env, warm
        )
        if args.trace:
            metrics, phase = traced(wl, args.seconds, import_med)
            ladder(metrics, args.seed)
        else:
            phase = Phase()
            run_phase(wl, args.seconds, 1, phase, min_ops=MIN_OPS)
            metrics = end_to_end(phase, setup_s, args.workload == "cli_mix")
        walls = unscaled(phase, setup_wall_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    facts = machine_facts(env)
    result = report(args, metrics, warm, phase, facts, walls)
    detail = dict(result, facts=facts, unscaled=walls, errors=warm.errors + phase.errors, metric_samples={
        k: {"samples": v[2], **({"percentile": v[3]} if len(v) > 3 else {})} for k, v in metrics.items()
    })
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

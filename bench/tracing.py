"""In-memory spans around bjaudit's public layer functions.

The benchmark times layers from outside the package: while a traced phase
runs, the public functions listed in LAYERS are replaced, in every bjaudit
module namespace that holds them, by wrappers that record one span per call
(name, start, end, parent span, op id) and the work counts named in LAYERS.
Nothing under src/ is modified and the originals are restored afterwards.
"""

from __future__ import annotations

import functools
import gzip
import math
import statistics
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager


def _interp_name(args, kwargs) -> str:
    q = kwargs.get("q", args[3] if len(args) > 3 else None)
    if q == math.inf:
        return "functionals.interp_quasinorm_qinf"
    return "functionals.interp_quasinorm_" + kwargs.get("kfunc", "k2")


# (module, attribute, span name or name(args, kwargs), (count name, count(out)))
LAYERS = (
    ("bjaudit.measures", "load_instance_csv", "measures.load_instance_csv",
     ("measures.atoms", lambda out: out[0].n_atoms)),
    ("bjaudit.measures", "instance_csv_text", "measures.instance_csv_text", None),
    ("bjaudit.jsonutil", "dumps17", "jsonutil.dumps17",
     ("jsonutil.bytes", len)),
    ("bjaudit.audit", "AuditReport.to_csv_text", "audit.to_csv_text", None),
    ("bjaudit.audit", "straddling_grid", "audit.straddling_grid", None),
    ("bjaudit.audit", "audit_jackson", "audit.audit_jackson",
     ("audit.grid_points", lambda out: len(out.grid))),
    ("bjaudit.audit", "audit_weak_l1", "audit.audit_weak_l1",
     ("audit.grid_points", lambda out: len(out.grid))),
    ("bjaudit.audit", "counterexample_search", "audit.counterexample_search",
     ("audit.instances", lambda out: out.n_instances)),
    ("bjaudit.rearrange", "decreasing_rearrangement", "rearrange.decreasing_rearrangement",
     ("rearrange.steps", lambda out: out.n_steps)),
    ("bjaudit.rearrange", "approx_quasinorm", "rearrange.approx_quasinorm", None),
    ("bjaudit.rearrange", "eval_step", "rearrange.eval_step", None),
    ("bjaudit.functionals", "truncation_profile", "functionals.truncation_profile",
     ("functionals.profile_len", lambda out: out[0].size)),
    ("bjaudit.functionals", "interp_quasinorm", _interp_name, None),
    ("bjaudit.spectral", "load_matrix_csv", "spectral.load_matrix_csv", None),
    ("bjaudit.spectral", "spectral_measure", "spectral.spectral_measure", None),
    ("bjaudit.spectral", "audit_spectral_bound", "spectral.audit_spectral_bound", None),
    ("bjaudit.invgauss", "demo_pipeline", "invgauss.demo_pipeline", None),
    ("bjaudit.params", "constant_consistency_report",
     "params.constant_consistency_report", None),
)

CLI_SUBCOMMANDS = (
    "constants", "rearrange", "quasinorm", "audit",
    "search", "spectral", "demo-invgauss", "trig",
)

# Span names whose total and self time are reported as per-layer metrics.
SPAN_METRICS = tuple(f"cli.{c}" for c in CLI_SUBCOMMANDS) + (
    "spectral.load_matrix_csv",
    "spectral.spectral_measure",
    "spectral.audit_spectral_bound",
    "invgauss.demo_pipeline",
    "params.constant_consistency_report",
    "measures.load_instance_csv",
    "measures.instance_csv_text",
    "jsonutil.dumps17",
    "audit.to_csv_text",
    "audit.straddling_grid",
    "audit.audit_jackson",
    "audit.audit_weak_l1",
    "audit.counterexample_search",
    "rearrange.decreasing_rearrangement",
    "rearrange.approx_quasinorm",
    "rearrange.eval_step",
    "functionals.truncation_profile",
    "functionals.interp_quasinorm_k2",
    "functionals.interp_quasinorm_kinf",
    "functionals.interp_quasinorm_qinf",
)

COUNT_METRICS = (
    "measures.atoms",
    "jsonutil.bytes",
    "audit.grid_points",
    "audit.instances",
    "rearrange.steps",
    "functionals.profile_len",
)


class Tracer:
    """Spans kept in compact arrays until the run ends."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list[int] = []
        self.op_id = -1
        self.counts: dict[tuple[int, str], float] = defaultdict(float)

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        return self.open_id(self._intern(name))

    def open_id(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counts[(self.op_id, name)] += value

    def wrap(self, fn, name, counter):
        tracer = self
        nid = self._intern(name) if isinstance(name, str) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open_id(nid if nid is not None else tracer._intern(name(args, kwargs)))
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if counter is not None:
                tracer.count(counter[0], counter[1](out))
            return out

        return traced

    @contextmanager
    def patched(self):
        """Route every bjaudit-internal call of a LAYERS function through a span."""
        undo = []
        try:
            for modname, attr, name, counter in LAYERS:
                mod = sys.modules[modname]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    setattr(cls, meth, self.wrap(orig, name, counter))
                    undo.append((cls, meth, orig))
                    continue
                orig = getattr(mod, attr)
                wrapper = self.wrap(orig, name, counter)
                for other in [m for k, m in sys.modules.items() if k.startswith("bjaudit")]:
                    for key, val in list(vars(other).items()):
                        if val is orig:
                            setattr(other, key, wrapper)
                            undo.append((other, key, orig))
            yield
        finally:
            for owner, key, orig in reversed(undo):
                setattr(owner, key, orig)

    def per_op(self) -> tuple[dict, dict]:
        """{name: {op: total_s}} and {name: {op: self_s}} from the spans."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        total: dict = defaultdict(lambda: defaultdict(float))
        own: dict = defaultdict(lambda: defaultdict(float))
        for i in range(n):
            name = self.names[self.name_id[i]]
            dur = self.end[i] - self.start[i]
            total[name][self.op[i]] += dur
            own[name][self.op[i]] += dur - child[i]
        return total, own

    def layer_metrics(self) -> dict[str, tuple[float, str, int]]:
        """Median over the ops that reached a layer of its per-op sum.

        A layer that no op reached reads 0 with sample count 0.
        """
        total, own = self.per_op()
        out: dict[str, tuple[float, str, int]] = {}
        for name in SPAN_METRICS:
            for suffix, table in (("_s", total), ("_self_s", own)):
                vals = list(table.get(name, {}).values())
                out[name + suffix] = (statistics.median(vals) if vals else 0.0, "s", len(vals))
        for name in COUNT_METRICS:
            vals = [v for (op, key), v in self.counts.items() if key == name]
            out[name] = (statistics.median(vals) if vals else 0.0, "count", len(vals))
        return out

    def write(self, path) -> None:
        """One CSV row per span: op, name, start_s, end_s, parent index."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", newline="") as fh:
            fh.write("index,op,name,start_s,end_s,parent\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.op[i]},{self.names[self.name_id[i]]},"
                    f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f},{self.parent[i]}\n"
                )

"""Run the inverse-Gaussian rearrangement demo and dump its tables.

Writes demo_table.csv (u, f*, E, bound), demo_steps.csv (the rearrangement),
and demo_metadata.json into --out-dir.  The default u-grid starts at 0.5,
which is just past the support of the rearrangement (the Gaussian window
carries mass ~0.499); pass --u-grid 0.05:0.6:100 to see the curve itself.
"""

import argparse
import pathlib

import numpy as np

from bjaudit import demo_pipeline, InvGaussParams
from bjaudit.cli import parse_grid
from bjaudit.rearrange import step_csv_text

ap = argparse.ArgumentParser()
ap.add_argument("--out-dir", default="demo_out")
ap.add_argument("--n-cells", type=int, default=4000)
ap.add_argument("--u-grid", default=None)
args = ap.parse_args()

out = pathlib.Path(args.out_dir)
out.mkdir(parents=True, exist_ok=True)

u_grid = parse_grid(args.u_grid) if args.u_grid else None
res = demo_pipeline(InvGaussParams(), n_cells=args.n_cells, u_grid=u_grid)

(out / "demo_table.csv").write_text(res.to_csv_text())
(out / "demo_steps.csv").write_text(step_csv_text(res.rearrangement))
(out / "demo_metadata.json").write_text(res.metadata_json_text())

md = res.metadata
print(f"wrote {out}/demo_table.csv ({len(res.u_grid)} rows)")
print(f"support mass  {md['support_mass']:.6f}")
print(f"sup value     {md['sup_value']:.6f}")
print(f"Q_{{s,tau}}     {md['quasinorm']:.8f}  (refined {md['quasinorm_refined']:.8f})")
print(f"L1 mass       {md['l1_mass']:.8f}")
print(f"tail ratio    {md['tail_l1_ratio']:.3e}")
for w in md["warnings"]:
    print(f"WARNING: {w}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    sf = res.rearrangement
    fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(9, 3.5))
    ax1.step(sf.breaks, np.append(sf.values, 0.0), where="post")
    ax1.set_xlabel("t")
    ax1.set_ylabel("f*(t)")
    ax2.plot(res.u_grid, res.e_value, label="E")
    ax2.plot(res.u_grid, res.jackson_bound, label="bound")
    ax2.set_xlabel("u")
    ax2.set_yscale("log" if max(res.jackson_bound) > 0 else "linear")
    ax2.legend()
    fig.tight_layout()
    fig.savefig(out / "demo_plot.png", dpi=120)
    print(f"wrote {out}/demo_plot.png")
except ImportError:
    print("matplotlib not available, skipping the plot")

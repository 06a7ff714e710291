#!/usr/bin/env python3
"""Scan driver strength to show that a stronger drive does not find the
target faster.

Intuition says a driver with norm far above the hidden term's scale E should
shortcut the sqrt(N)/E waiting time. The growth of the divergence
functional is capped by 2 E sqrt(N) independent of the driver, so it cannot.
This scan makes that concrete: discrimination times never drop below
eps sqrt(N) / (2E) no matter how hard the drive is pushed.

Each cell is a `qsearch bound` run through qsearch.cli.main, with its refusals.

Usage: python scripts/driver_strength_scan.py [--n 16] [--epsilon 1.0]
"""

import argparse
import json
import pathlib
import sys
import tempfile

from qsearch.cli import main as qsearch_main


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=16)
    parser.add_argument("--epsilon", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "bound.json"
        for family, mult in [("paper", 1.0)] + [("random-dense", m) for m in (1.0, 3.0, 10.0, 30.0, 100.0)]:
            code = qsearch_main(["bound", "--n", str(args.n), "--driver", family, "--driver-norm-mult", str(mult),
                                 "--epsilon", str(args.epsilon), "--seed", str(args.seed), "--out", str(out)])
            if code != 0:
                sys.exit(f"{family} driver at norm/E {mult:g}: qsearch bound exited with {code}")
            rep = json.loads(out.read_text())
            summary = rep["summary"]
            if family == "paper":  # the first cell: the CLI has accepted the flags
                print(f"N = {args.n}, oracle scale E = {rep['config']['energy']}, eps = {args.epsilon}, "
                      f"floor = eps sqrt(N)/(2E) = {summary['lower_bound']:.3f}")
                print(f"{'driver':>14} {'norm/E':>7} {'max D/bound':>12} {'t_eps':>9}")
            ratio = max(row[1] / row[2] for row in rep["series"]["rows"][1:])
            t_eps = f"{summary['t_epsilon_second']:.3f}" if summary["t_epsilon_second"] is not None else "never"
            if summary["lower_bound_satisfied"] is False:
                sys.exit(f"{family} driver at norm/E {mult:g}: t_eps {t_eps} falls more than a grid "
                         f"step below the floor {summary['lower_bound']:.3f}")
            print(f"{family:>14} {mult:>7.0f} {ratio:>12.4f} {t_eps:>9}")
    print("\nno driver beats the floor; the strongest ones are not even the fastest")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Run the four experiment families over their headline parameter grids.

Writes one JSON report per cell under results/ and prints a summary table
per family. Everything is seeded, so reruns reproduce the same numbers.

Usage: python scripts/reproduce_claims.py [--outdir results]
"""

import argparse
import json
import math
import pathlib
import sys

from qsearch.cli import main as qsearch_main


def run(outdir: pathlib.Path, name: str, args: list[str]) -> dict:
    path = outdir / f"{name}.json"
    code = qsearch_main(args + ["--out", str(path)])
    if code != 0:
        sys.exit(f"{name}: qsearch exited with {code}")
    return json.loads(path.read_text())


def analog_table(outdir):
    print("== analog evolution: rotation time pi sqrt(N) / (2E) ==")
    print(f"{'N':>6} {'E':>4} {'x':>10} {'t_m':>12} {'t_m*E/sqrt(N)':>14} {'max |dP|':>10}")
    for n in (4, 64, 1024):
        for e in (0.5, 1.0):
            rep = run(outdir, f"analog_n{n}_e{e}", ["analog", "--n", str(n), "--energy", str(e)])
            d = rep["derived"]
            scaled = d["t_m"] * e / math.sqrt(n)
            print(f"{n:>6} {e:>4} {d['x']:>10.6f} {d['t_m']:>12.4f} {scaled:>14.10f} {d['max_deviation']:>10.2e}")
    print(f"          (pi/2 = {math.pi / 2:.10f})\n")


def grover_table(outdir):
    print("== digital iteration: optimal count near pi sqrt(N) / 4 ==")
    print(f"{'N':>6} {'k*':>5} {'pi*sqrt(N)/4':>13} {'P at k*':>12} {'oracle calls':>13}")
    for n in (4, 64, 1024, 4096):
        rep = run(outdir, f"grover_n{n}", ["grover", "--n", str(n)])
        d = rep["derived"]
        p_final = rep["series"]["rows"][-1][1]
        print(f"{n:>6} {d['k_star']:>5} {math.pi * math.sqrt(n) / 4:>13.2f} "
              f"{p_final:>12.8f} {d['oracle_calls']:>13}")
    print()


def bound_table(outdir):
    print("== divergence growth: D(t) <= 2 E sqrt(N) t for every driver ==")
    print(f"{'driver':>14} {'norm x':>7} {'max D/bound':>12} {'t_eps(eps=1)':>13} {'floor':>7}")
    for family, mult in (("paper", 1), ("zero", 1), ("random-dense", 1),
                         ("random-dense", 100), ("piecewise", 10)):
        rep = run(
            outdir, f"bound_{family}_x{mult}",
            ["bound", "--n", "16", "--driver", family, "--driver-norm-mult", str(mult),
             "--epsilon", "1", "--seed", "11"],
        )
        rows = rep["series"]["rows"]
        ratios = [r[1] / r[2] for r in rows if r[2] > 0]
        t_eps = rep["summary"]["t_epsilon_second"]
        t_eps_text = f"{t_eps:.3f}" if t_eps is not None else "never"
        if rep["summary"]["lower_bound_satisfied"] is False:
            sys.exit(f"bound_{family}_x{mult}: t_eps {t_eps_text} falls more than a grid step below the floor")
        print(f"{family:>14} {mult:>7} {max(ratios):>12.4f} {t_eps_text:>13} "
              f"{rep['summary']['lower_bound']:>7.3f}")
    print("   (max D/bound stays below 1; crossings never beat the floor)\n")


def stats_table(outdir):
    print("== random overlaps: mean x^2 = 1/N ==")
    print(f"{'N':>6} {'mean x^2':>12} {'1/N':>12} {'sigmas off':>11}")
    for n in (16, 256, 1024):
        rep = run(outdir, f"stats_n{n}", ["stats", "--n", str(n), "--seed", "4"])
        d = rep["derived"]
        sigmas = abs(d["mean_x2"] - 1.0 / n) / d["stderr_x2"]
        print(f"{n:>6} {d['mean_x2']:>12.6g} {1.0 / n:>12.6g} {sigmas:>11.2f}")
    print()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results", type=pathlib.Path)
    args = parser.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)
    analog_table(args.outdir)
    grover_table(args.outdir)
    bound_table(args.outdir)
    stats_table(args.outdir)
    print(f"reports written to {args.outdir}/")


if __name__ == "__main__":
    main()

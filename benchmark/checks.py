"""Correctness gate for one benchmark case.

A case passes only if the CLI exited with code 0, the report says
``summary.pass`` is true, and the benchmark's own recomputation of the
paper's quantities agrees with the report:

- analog: ``t_m = pi / (2 E x)`` with ``x = |<s|w>|`` taken from the report's
  own vectors;
- grover: ``k*`` as the count maximising ``sin^2((2k+1) theta / 2)``;
- bound: ``lower_bound = eps sqrt(N) / (2E)`` and ``D(t) <= 2 E sqrt(N) t``
  on every row;
- stats: ``|mean_x2 - 1/N| <= 4 stderr``.

The byte-identity of repeated runs is checked by the runner, which sees
every pass. This module uses only the standard library, so it checks the
program's numbers with arithmetic the program does not share.
"""

from __future__ import annotations

import json
import math

REL_TOL = 1e-9
BOUND_SLACK = 1e-6


class CheckFailed(Exception):
    pass


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


def _flag(argv: tuple[str, ...], name: str, default: str) -> str:
    return argv[argv.index(name) + 1] if name in argv else default


def headroom_digits(report: dict) -> float:
    """log10(pass_tolerance / max(max_deviation, 1e-16)): decimal digits of
    accuracy left before the pass tolerance is hit."""
    dev = report["derived"]["max_deviation"]
    return math.log10(report["summary"]["pass_tolerance"] / max(dev, 1e-16))


def _check_analog(argv, rep) -> None:
    n = int(_flag(argv, "--n", "0"))
    e = float(_flag(argv, "--energy", "1.0"))
    d = rep["derived"]
    s = [complex(re, im) for re, im in d["s"]]
    w = [complex(re, im) for re, im in d["w"]]
    _require(len(s) == n and len(w) == n, "vector length differs from --n")
    x = abs(sum(a.conjugate() * b for a, b in zip(s, w)))
    _require(_close(x, d["x"], 1e-12), f"x {d['x']} vs recomputed {x}")
    _require(_close(d["t_m"], math.pi / (2.0 * e * x)), f"t_m {d['t_m']} vs pi/(2Ex)")
    w_flag = _flag(argv, "--w", "0")
    if w_flag.isdigit():
        _require(w[int(w_flag)] == 1.0, "w is not the requested basis state")
    worst = max(row[3] for row in rep["series"]["rows"])
    _require(worst == d["max_deviation"], "max_deviation differs from the series")
    _require(d["max_deviation"] < rep["summary"]["pass_tolerance"], "deviation above tolerance")


def _check_grover(argv, rep) -> None:
    n = int(_flag(argv, "--n", "0"))
    d = rep["derived"]
    theta = 2.0 * math.atan2(1.0, math.sqrt(n - 1.0))
    k0 = int(math.pi * math.sqrt(n) / 4.0)
    candidates = range(max(0, k0 - 3), k0 + 4)
    k_best = max(candidates, key=lambda k: (round(math.sin((2 * k + 1) * theta / 2.0) ** 2, 15), -k))
    _require(d["k_star"] == k_best, f"k* {d['k_star']} vs recomputed {k_best}")
    _require(d["iterations"] == k_best and d["oracle_calls"] == 2 * k_best, "iteration count")
    _require(d["marked"] == int(_flag(argv, "--marked", "0")), "marked index")
    p_final = rep["series"]["rows"][-1][1]
    p_expected = math.sin((2 * k_best + 1) * theta / 2.0) ** 2
    _require(abs(p_final - p_expected) < rep["summary"]["pass_tolerance"], "final probability")


def _check_bound(argv, rep) -> None:
    n = int(_flag(argv, "--n", "0"))
    e = float(_flag(argv, "--energy", "1.0"))
    eps = float(_flag(argv, "--epsilon", "1.0"))
    summ = rep["summary"]
    _require(_close(summ["lower_bound"], eps * math.sqrt(n) / (2.0 * e)), "lower_bound")
    _require(summ["bound_satisfied"] is True, "bound_satisfied")
    _require(summ["lower_bound_satisfied"] is not False, "lower_bound_satisfied")
    cap = 2.0 * e * math.sqrt(n)
    for t, div, *_ in rep["series"]["rows"]:
        _require(div <= cap * t + BOUND_SLACK, f"D({t}) = {div} above 2 E sqrt(N) t")


def _check_stats(argv, rep) -> None:
    n = int(_flag(argv, "--n", "0"))
    d = rep["derived"]
    _require(d["target_mean_x2"] == 1.0 / n, "target_mean_x2")
    _require(abs(d["mean_x2"] - 1.0 / n) <= 4.0 * d["stderr_x2"], "mean_x2 outside 4 sigma of 1/N")


_CHECKS = {"analog": _check_analog, "grover": _check_grover, "bound": _check_bound, "stats": _check_stats}


def check(argv: tuple[str, ...], code, data: bytes) -> tuple[str | None, float | None]:
    """Return (failure reason or None, headroom digits or None) for one case."""
    if code != 0:
        return f"exit code {code}", None
    try:
        rep = json.loads(data)
        _require(rep["command"] == argv[0], "report is for another command")
        _require(rep["summary"]["pass"] is True, "summary.pass is not true")
        _CHECKS[argv[0]](argv, rep)
    except CheckFailed as exc:
        return str(exc), None
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"malformed report: {exc!r}", None
    return None, headroom_digits(rep) if "max_deviation" in rep["derived"] else None

"""Workload case lists for the qsearch benchmark.

Each workload is a fixed list of CLI argument vectors. The only inputs that
vary are the per-case ``--seed`` and ``--marked`` values, and those are
derived from the benchmark's workload seed, so one seed always gives the
same cases. ``tiny=True`` keeps every case's command and flags but shrinks N
(and the stats sample count) for the benchmark's self-test.

Every case runs in about 3 s or less, so a run repeats each one several
times and can keep its fastest: on a shared VM a CPU's speed changes by up
to 1.4x every few seconds, and a long case averages over those changes
instead of escaping them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("dense-large", "grover-wide", "claims-grid")

GROVER_WIDE_CASES = 4
# The script's stats cases draw 100,000 samples; a fifth keeps stats-n1024
# near 1 s, short enough to repeat, and the 4-sigma check still applies.
CLAIMS_STATS_SAMPLES = 20000
BOUND_FAMILIES = (("paper", 1), ("zero", 1), ("random-dense", 1), ("random-dense", 100), ("piecewise", 10))


@dataclass(frozen=True)
class Case:
    """One CLI invocation. ``argv`` excludes ``--out``, which the runner adds."""

    name: str
    argv: tuple[str, ...]

    @property
    def command(self) -> str:
        return self.argv[0]


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(2**31))


def _dense_large(rng: random.Random, tiny: bool) -> list[Case]:
    n_analog, n_dense, n_piece = (32, 8, 8) if tiny else (1280, 128, 64)
    return [
        Case(f"analog-n{n_analog}-wrandom",
             ("analog", "--n", str(n_analog), "--w", "random", "--seed", _seed(rng))),
        Case(f"bound-n{n_dense}-random-dense",
             ("bound", "--n", str(n_dense), "--driver", "random-dense", "--seed", _seed(rng))),
        Case(f"bound-n{n_piece}-piecewise",
             ("bound", "--n", str(n_piece), "--driver", "piecewise", "--segments", "10",
              "--seed", _seed(rng))),
    ]


def _grover_wide(rng: random.Random, tiny: bool) -> list[Case]:
    n = 4096 if tiny else 262144
    return [Case(f"grover-n{n}-{i}", ("grover", "--n", str(n), "--marked", str(rng.randrange(n))))
            for i in range(GROVER_WIDE_CASES)]


def _claims_grid(rng: random.Random, tiny: bool) -> list[Case]:
    # The flags of scripts/reproduce_claims.py, except that its fixed --seed
    # values (11 for bound, 4 for stats) are replaced by derived ones and
    # stats draws CLAIMS_STATS_SAMPLES samples.
    cases = []
    for n in (4, 16) if tiny else (4, 64, 1024):
        for e in ("0.5", "1.0"):
            cases.append(Case(f"analog-n{n}-e{e}", ("analog", "--n", str(n), "--energy", e)))
    for n in (4, 64) if tiny else (4, 64, 1024, 4096):
        cases.append(Case(f"grover-n{n}", ("grover", "--n", str(n))))
    n_bound = "4" if tiny else "16"
    for family, mult in BOUND_FAMILIES:
        cases.append(Case(f"bound-{family}-x{mult}",
                          ("bound", "--n", n_bound, "--driver", family, "--driver-norm-mult", str(mult),
                           "--epsilon", "1", "--seed", _seed(rng))))
    for n in (16, 64) if tiny else (16, 256, 1024):
        samples = 1000 if tiny else CLAIMS_STATS_SAMPLES
        cases.append(Case(f"stats-n{n}", ("stats", "--n", str(n), "--seed", _seed(rng), "--samples", str(samples))))
    return cases


_BUILDERS = {"dense-large": _dense_large, "grover-wide": _grover_wide, "claims-grid": _claims_grid}


def cases(workload: str, seed: int, tiny: bool = False) -> list[Case]:
    """The case list of ``workload`` for workload seed ``seed``."""
    rng = random.Random(f"{workload}/{seed}")
    return _BUILDERS[workload](rng, tiny)

"""Workload inputs, generated from the seed with the standard library only.

Each workload is a fixed list of operations; one operation is one top-level
call a user of ``diracbag`` would make.  The seed perturbs the inputs inside
the ranges below; seed 0 is the default and gives the unperturbed inputs
(the ROADMAP configurations, whose eigensolve counts are known).  The ranges
are narrow on purpose: they change the numbers the program returns, so a
result cannot be memorised, but hardly the amount of work a run does, so runs
with different seeds stay comparable.
"""

from __future__ import annotations

import random

NAMES = ("halfplane", "sweep", "disk")

A0_SEED_COMMIT = 1.3132547103  # find_a0(4001) at the commit that defined the benchmark

# halfplane: gamma is kept away from 1 so that a shortcut valid only at
# gamma = 1 (where c_gamma = a0) cannot pass for a general speed-up.
HALFPLANE_N = 4001
GAMMA_RANGE = (0.75, 0.85)

# sweep: the theta dispersion points of `diracbag dispersion --branch theta`.
# Every point solves fresh fibers, so the value cache is bypassed.  The grid
# stays inside [-2, 4.5], where theta never falls back to its 0.0 floor.
SWEEP_N = 2001
SWEEP_XI0 = -2.0
SWEEP_XI_STEP = 0.5
SWEEP_XI_COUNT = 13
SWEEP_KS = (1, 2, 3)

# disk: one h of `diracbag disk --zigzag --oracle` and of its report, for the
# ROADMAP disk configurations (unit field, R = 1, n = 2001).  The report's
# predictions bring in `constants` (C_k of the centred disk) and `effective`
# (the fine-structure operator by its closed form and by Galerkin).  a0 is an
# input here, so find_a0 is not charged to the disk numbers.  b0 scales the
# field; the angular-mode window 6 R^2 / h does not depend on it.
DISK_N = 2001
DISK_R = 1.0
DISK_HS = (0.2, 0.1)
DISK_COUNT = 5
DISK_ZIGZAG_COUNT = 3
DISK_B0_RANGE = (0.95, 1.05)


def _draw(rng, lo_hi, default, seed):
    return default if seed == 0 else rng.uniform(*lo_hi)


def make_inputs(workload: str, seed: int) -> dict:
    """Plain-data inputs of one workload; the same seed gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "halfplane":
        gamma = _draw(rng, GAMMA_RANGE, 0.8, seed)
        ops = [
            {"kind": "find_a0", "n": HALFPLANE_N},
            {"kind": "c_gamma", "gamma": gamma, "n": HALFPLANE_N},
        ]
        return {"ops": ops}
    if workload == "sweep":
        offset = 0.0 if seed == 0 else rng.uniform(0.0, SWEEP_XI_STEP)
        xis = [SWEEP_XI0 + offset + j * SWEEP_XI_STEP for j in range(SWEEP_XI_COUNT)]
        ops = [
            {"kind": "theta", "sign": sign, "k": k, "xi": xi, "n": SWEEP_N}
            for sign in ("plus", "minus")
            for k in SWEEP_KS
            for xi in xis
        ]
        return {"ops": ops}
    if workload == "disk":
        b0 = _draw(rng, DISK_B0_RANGE, 1.0, seed)
        ops = [
            {"kind": "disk_h", "b0": b0, "R": DISK_R, "h": h, "n": DISK_N, "a0": A0_SEED_COMMIT,
             "count": DISK_COUNT, "zigzag_count": DISK_ZIGZAG_COUNT}
            for h in DISK_HS
        ]
        return {"ops": ops}
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(NAMES)}")

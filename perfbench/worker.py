"""One repetition of a workload, run by ``run.py`` in a fresh process.

Usage: worker.py --workload W --seed S --mode {setup,run,trace} --check {0,1}
                 [--spans-out PATH]

It imports the program, builds the program objects from the generated
inputs (set-up), runs the operations one after another and prints one JSON
object on its last line of standard output.  ``--mode setup`` stops after
set-up.  ``--check 1`` runs the correctness checks afterwards, untimed.
With ``--mode trace`` the calls into every layer are recorded as spans
(see spans.py) and the per-layer metrics come back instead.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here: imports, then inputs

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer, analyse  # noqa: E402

from diracbag import constants, disk, dispersion, effective, fiber, numerics  # noqa: E402

LAYERS = {
    "numerics": numerics,
    "fiber": fiber,
    "dispersion": dispersion,
    "disk": disk,
    "constants": constants,
    "effective": effective,
}
HERE = os.path.dirname(os.path.abspath(__file__))

# Check tolerances.  Each is the program's own stated accuracy or the
# repository's acceptance tolerance for the same property.
A0_TOL = 1e-8  # find_a0's bisection tolerance
C_GAMMA_STEP = 1e-7  # c_gamma's bisection tolerance: the root lies within it
THETA_RESIDUAL_TOL = 1e-8  # bisection to 1e-10 in alpha, |d(nu - alpha^2)/d alpha| <= 12 here
ELL_SIGN_STEP = 1e-6  # relative; 1000x the 1e-9 bracket of each disk root
HARDY_SLACK = 1e-12  # acceptance criterion C11
ZIGZAG_SLACK = 1e-3  # acceptance criterion C14 (relative)
ORACLE_TOL = 1e-4  # acceptance criterion C17 (relative)
REFERENCE_TOL = 1e-9  # seed-commit disk values on the default seed
CK_TOL = 1e-6  # acceptance criterion C15 (relative)
EFF_TOL = 1e-10  # acceptance criterion C16 (absolute)


# ------------------------------------------------------------------ set-up


def build(op):
    """Program objects an operation needs, made during set-up."""
    if op["kind"] != "disk_h":
        return None
    b0, R, h = op["b0"], op["R"], op["h"]
    spec = disk.DiskSpec.make(disk.RadialField(b0, R), h, n=op["n"])
    spec.gauge  # the lazy gauge set-up is part of set-up time
    return {
        "spec": spec,
        # as the disk report: the Gaussian weight of the well, the centred
        # circle, and the unit-field effective operator at h / b0
        "weight": constants.BargmannWeight.isotropic(2.0 * spec.gauge.hess),
        "curve": constants.BoundaryCurve.circle(R),
        "eff": effective.EffSpec.disk(R, h / b0, op["a0"]),
    }


# -------------------------------------------------------------- operations


def run_op(op, obj):
    """One top-level call; returns its outputs as plain data."""
    kind = op["kind"]
    if kind == "find_a0":
        r = dispersion.find_a0(op["n"])
        return {"a0": r.a0, "u0sq": r.u0sq, "d2xi_nu": r.d2xi_nu, "c0": r.c0}
    if kind == "c_gamma":
        return {"c": dispersion.c_gamma(op["gamma"], op["n"])}
    if kind == "theta":
        return {"theta": dispersion.theta(op["sign"], op["k"], op["xi"], op["n"]).theta}
    if kind == "disk_h":
        # one h of `diracbag disk --zigzag --oracle`, with the report's C_k and
        # effective-operator predictions
        spec, count, eff = obj["spec"], op["count"], obj["eff"]
        sp = disk.dirac_spectrum(spec, count)
        hardy = disk.hardy_nu_k(spec, count)
        zz_plus = disk.zigzag_spectrum(spec, "plus", op["zigzag_count"])
        zz_minus = disk.zigzag_spectrum(spec, "minus", op["zigzag_count"])
        m, _ = sp.neg_provenance[0]
        with warnings.catch_warnings(record=True) as filtered:
            warnings.simplefilter("always")
            direct = disk.dirac_radial_direct(spec, -(m + 1), 1, sigma=-sp.neg[0])
        below = direct[direct < 0]
        cks = [constants.ck_constant(k, obj["weight"], obj["curve"]) for k in range(1, count + 1)]
        return {
            "pos": sp.pos.tolist(), "neg": sp.neg.tolist(),
            "pos_prov": [list(p) for p in sp.pos_provenance],
            "neg_prov": [list(p) for p in sp.neg_provenance],
            "hardy": hardy.tolist(), "zz_plus": zz_plus.tolist(), "zz_minus": zz_minus.tolist(),
            "oracle_neg1": float(-below[-1]) if below.size else None,
            "oracle_filtered": len(filtered),
            "ck": [[r.Ck, r.dist_H, r.dist_B] for r in cks],
            "qeff_disk": effective.qeff_disk(eff.t_h, op["R"], count).values.tolist(),
            "qeff_general": effective.qeff_general(eff, count).values.tolist(),
        }
    raise ValueError(f"unknown operation kind {kind!r}")


# ------------------------------------------------------------------ checks


def _rel(a, b):
    return abs(a - b) / abs(b)


def check_op(op, obj, out, reference):
    """Problems with one operation's outputs; an empty list means it passed.

    Each check holds for any input in the workload's ranges.
    """
    kind = op["kind"]
    bad = []
    if kind == "find_a0":
        if abs(out["a0"] - workloads.A0_SEED_COMMIT) > A0_TOL:
            bad.append(f"a0 = {out['a0']!r} differs from {workloads.A0_SEED_COMMIT} by more than {A0_TOL}")
    elif kind == "c_gamma":
        # f(c) = nu(c gamma) - c^2 is positive below its root and negative above
        c, g = out["c"], op["gamma"]
        f_lo = dispersion.nu_of_alpha((c - C_GAMMA_STEP) * g, op["n"])[0] - (c - C_GAMMA_STEP) ** 2
        f_hi = dispersion.nu_of_alpha((c + C_GAMMA_STEP) * g, op["n"])[0] - (c + C_GAMMA_STEP) ** 2
        if not (f_lo > 0.0 > f_hi):
            bad.append(f"nu(c gamma) - c^2 does not change sign within {C_GAMMA_STEP} of c = {c!r}")
    elif kind == "theta":
        th = out["theta"]
        if th <= 0.0:
            bad.append(f"theta returned its {th} floor fallback")
        else:
            resid = fiber.nu_k(op["sign"], op["k"], th, op["xi"], op["n"]) - th * th
            if abs(resid) > THETA_RESIDUAL_TOL:
                bad.append(f"nu_k(theta, xi) - theta^2 = {resid:.3e}")
    elif kind == "disk_h":
        bad += _check_disk(op, obj, out, reference) + _check_report(op, obj, out)
    return bad


def _check_disk(op, obj, out, reference):
    spec, bad = obj["spec"], []
    for branch, vals, provs in (("plus", out["pos"], out["pos_prov"]),
                                ("minus", out["neg"], out["neg_prov"])):
        for E, (m, k) in zip(vals, provs):
            above = disk.mode_ell(spec, m, branch, E * (1.0 - ELL_SIGN_STEP), k)[k - 1]
            below = disk.mode_ell(spec, m, branch, E * (1.0 + ELL_SIGN_STEP), k)[k - 1]
            if not (above > 0.0 > below):
                bad.append(f"ell_{k} of mode {m} ({branch}) does not change sign at E = {E!r}")
    excess = max(p - q for p, q in zip(out["pos"], out["hardy"]))
    if excess > HARDY_SLACK:
        bad.append(f"positive eigenvalue above its Hardy bound by {excess:.3e}")
    floor = 2.0 * op["b0"] * op["h"] * (1.0 - ZIGZAG_SLACK)
    if min(out["zz_plus"]) < floor:
        bad.append(f"zigzag+ {min(out['zz_plus'])!r} below 2 b0 h")
    if out["oracle_neg1"] is None or _rel(out["oracle_neg1"], out["neg"][0]) > ORACLE_TOL:
        bad.append(f"oracle {out['oracle_neg1']!r} disagrees with neg[0] = {out['neg'][0]!r}")
    ref = reference.get(str(op["h"])) if reference else None
    if ref is not None:
        for key in ("pos", "neg"):
            if max(_rel(a, b) for a, b in zip(out[key], ref[key])) > REFERENCE_TOL:
                bad.append(f"{key} values moved from the seed commit by more than {REFERENCE_TOL}")
        for key in ("pos_prov", "neg_prov"):
            if out[key] != ref[key]:
                bad.append(f"{key} {out[key]} differs from the seed commit {ref[key]}")
    return bad


def _check_report(op, obj, out):
    """The disk report's C_k and effective-operator predictions."""
    bad = []
    b0, R = op["b0"], op["R"]
    for k, (ck, dist_h, dist_b) in enumerate(out["ck"], start=1):
        closed = b0**k / math.factorial(k - 1) * (R**2 / 2.0) ** (k - 1) * R
        if _rel(ck, closed) > CK_TOL:
            bad.append(f"centred disk C_{k} = {ck!r} != closed form {closed!r}")
        if _rel(ck, (dist_h / dist_b) ** 2) > 1e-12:
            bad.append(f"C_{k} differs from (dist_H / dist_B)^2")
    if np.max(np.abs(np.subtract(out["qeff_general"], out["qeff_disk"]))) > EFF_TOL:
        bad.append("constant-curvature Galerkin spectrum differs from qeff_disk")
    eff = obj["eff"]
    shifted = dataclasses.replace(eff, t_h=eff.t_h + 2.0 * math.pi / eff.L)
    moved = {
        "qeff_disk": effective.qeff_disk(shifted.t_h, R, op["count"]).values,
        "qeff_general": effective.qeff_general(shifted, op["count"]).values,
    }
    for key, values in moved.items():
        if np.max(np.abs(values - out[key])) > EFF_TOL:
            bad.append(f"{key} spectrum not periodic under t_h -> t_h + 2 pi / L")
    return bad


# -------------------------------------------------------------------- main


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), default="run")
    ap.add_argument("--check", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans-out", default=None, help="file to write the spans to (trace mode)")
    args = ap.parse_args()

    inputs = workloads.make_inputs(args.workload, args.seed)
    tracer = None
    if args.mode == "trace":
        tracer = Tracer()
        tracer.install(LAYERS)
    objs = [build(op) for op in inputs["ops"]]
    setup_s = time.perf_counter() - T0
    result = {"setup_s": setup_s, "program": os.path.abspath(fiber.__file__)}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    ops = []
    t_loop = time.perf_counter()
    for i, (op, obj) in enumerate(zip(inputs["ops"], objs)):
        if tracer is not None:
            tracer.op = i
        t = time.perf_counter()
        try:
            out, error = run_op(op, obj), None
        except Exception as exc:  # an operation that raises counts as failed
            out, error = None, f"{type(exc).__name__}: {exc}"
        ops.append({"s": time.perf_counter() - t, "out": out, "error": error})
    wall_s = time.perf_counter() - t_loop
    result.update(wall_s=wall_s, peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    if tracer is not None:
        tracer.uninstall()
        cache = fiber._values.cache_info()  # read once, before any check runs
        metrics, errors, per_op, span_cache = analyse(tracer.spans, wall_s)
        if (span_cache["hits"], span_cache["misses"]) != (cache.hits, cache.misses):
            errors.append(
                f"span-derived value cache hits/misses {span_cache['hits']}/{span_cache['misses']} "
                f"!= fiber._values.cache_info() {cache.hits}/{cache.misses}"
            )
        result.update(layers=metrics, trace_errors=errors, eig_per_op=per_op, spans=len(tracer.spans))
        if args.spans_out:
            with open(args.spans_out, "w") as fh:
                json.dump(tracer.spans, fh)

    if args.check:
        reference = None
        if args.seed == 0:
            with open(os.path.join(HERE, "reference.json")) as fh:
                reference = json.load(fh).get(args.workload)
        for op, obj, rec in zip(inputs["ops"], objs, ops):
            if rec["error"] is None:
                try:
                    rec["problems"] = check_op(op, obj, rec["out"], reference)
                except Exception as exc:
                    rec["problems"] = [f"check raised {type(exc).__name__}: {exc}"]

    result.update(
        ops=ops,
        versions={"python": sys.version.split()[0], "numpy": np.__version__, "scipy": scipy.__version__},
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

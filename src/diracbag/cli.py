"""Command-line front end.

Subcommands mirror the library: dispersion curves, the gap constant, moment
checks, direct disk spectra with a comparison report against every
asymptotic prediction, semiclassical prefactors, and the effective boundary
operator.  Outputs are deterministic CSV/JSON files embedding their full
run configuration and a content hash, so identical configs reproduce
byte-identical files.

Exit codes: 0 success, 2 configuration error, 3 solver non-convergence,
4 failed self-check in ``check`` mode.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import hashlib
import io
import json
import math
import sys
import warnings
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import constants as ckmod
from . import disk as diskmod
from . import dispersion as dispmod
from . import effective as effmod
from . import fiber as fibermod

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_CHECK = 4
_MAX_SWEEP_STEPS = 10**6  # each --xi point costs at least one eigensolve
_MAX_N = 10**6  # grid nodes of --n and --n-a0: each solve holds a few arrays of this size
_MAX_COUNT = 256  # effective levels: --kappa's dense Galerkin solves grow like count^3


class ConfigError(ValueError):
    pass


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def _parse_int_range(text: str) -> List[int]:
    """'1..4' or '1:4' or '1,2,3'; --k, its only user, must select a value."""
    text = text.strip()
    try:
        for sep in ("..", ":"):
            parts = text.split(sep)
            if "," not in text and len(parts) == 2:
                ks = list(range(int(parts[0]), int(parts[1]) + 1))
                break
        else:
            ks = [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise ConfigError(f"--k must be integers as 1..4, 1:4 or 1,2,3, got {text!r}") from None
    if not ks:
        raise ConfigError(f"--k selects no values, got {text!r}")
    if min(ks) < 1:
        raise ConfigError(f"--k must be >= 1, got {text!r}")
    return ks


def _finite(x, flag: str) -> float:
    value = float(x)
    if not math.isfinite(value):
        raise ConfigError(f"{flag} must be finite, got {value}")
    return value


def _check_ck_range(ks, b0: float, R: float) -> None:
    """C_k of an isotropic weight b0 on a circle of radius R takes powers up to
    b0^{+-k} and R^{2k-1}, and (b0/2)^2 scales the weight's nodes; fail unless
    those and C_k stay inside 2^{+-960}, where every row is finite (outside it
    they overflow, divide by a zero distance or turn into nan)."""
    lb, lr = math.log2(b0), math.log2(R)
    for k in ks:
        log2_ck = 1 + k * (lb - 1) + (2 * k - 1) * lr - math.lgamma(k) / math.log(2)
        for flags, size in ((f"--B {b0}", max(k, 2) * (abs(lb) + 1)),
                            (f"--R {R}", max(2 * k - 1, 2) * (abs(lr) + 1)),
                            (f"--B {b0} with --R {R}", abs(log2_ck))):
            if size > 960:
                raise ConfigError(f"{flags} is out of range for C_{k}: its closed form "
                                  f"reaches 2^{size:.0f}, past 2^960")


def _parse_sweep(text: str) -> np.ndarray:
    """'lo:hi:step' inclusive sweep."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"sweep must be lo:hi:step, got {text!r}")
    lo, hi, step = (_finite(p, "--xi") for p in parts)
    if step <= 0 or hi < lo:
        raise ConfigError(f"bad sweep {text!r}")
    steps = (hi - lo) / step  # inf when the count overflows
    if not steps <= _MAX_SWEEP_STEPS:
        raise ConfigError(f"--xi must take at most {_MAX_SWEEP_STEPS} steps, got {text!r}")
    return lo + step * np.arange(int(round(steps)) + 1)


def _parse_field(text: str, R: float) -> diskmod.RadialField:
    text = text.strip()
    try:
        value = float(text.removeprefix("const:"))
    except ValueError:
        raise ConfigError(f"unsupported field spec {text!r} (use const:<value>)")
    return diskmod.RadialField(_finite(value, "--B"), R)


def _config_dict(args: argparse.Namespace) -> Dict[str, str]:
    # out does not influence the computed payload; leaving it out keeps
    # reruns byte-identical regardless of where they write
    skip = {"func", "config", "out"}
    return {
        k: _fmt(v)
        for k, v in sorted(vars(args).items())
        if k not in skip and v is not None and not k.startswith("_")
    }


def _write_csv(path: Path, config: Dict[str, str], header: Sequence[str], rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(x) for x in row])
    payload = buf.getvalue()
    digest = hashlib.sha256(payload.encode()).hexdigest()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for k, v in config.items():
            fh.write(f"# {k} = {v}\n")
        fh.write(f"# sha256 = {digest}\n")
        fh.write(payload)


def _write_json(path: Path, config: Dict[str, str], data) -> None:
    body = json.dumps(data, sort_keys=True, default=_fmt)
    digest = hashlib.sha256(body.encode()).hexdigest()
    doc = {"config": config, "sha256": digest, "data": json.loads(body)}
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n", encoding="utf-8")


def _outdir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {args.out} cannot be a directory: {exc}") from None
    return out


def _check_fiber_range(xi: float, n: int, power: int = 2) -> None:
    """The fiber matrix on default_grid(xi, n) holds 1/step^2 and (tau +- xi)^2
    for tau in [0, x1], and the moments (xi - tau)^4; every |tau +- xi| is at
    most x1 + |xi|, and the step x1/(n - 1) is smaller, so fail unless
    (x1 + |xi|)^power is finite."""
    size = fibermod.default_grid(xi, n).x1 + abs(xi)
    if not size <= sys.float_info.max ** (1.0 / power):
        raise ConfigError(f"--xi {xi} is out of range: |tau +- xi| reaches {size:.3g} "
                          f"on the fiber grid, and its power {power} overflows")


# ----------------------------------------------------------------- dispersion


def cmd_dispersion(args) -> int:
    xi = _parse_sweep(args.xi)
    ks = _parse_int_range(args.k)
    k_max = args.n - (2 if args.branch == "theta" else 1)  # the fiber matrix has n - 1 rows
    if max(ks) > k_max:
        raise ConfigError(f"--k must be <= {k_max} for --branch {args.branch} "
                          f"at --n {args.n}, got {args.k!r}")
    _check_fiber_range(float(max(xi[0], xi[-1], key=abs)), args.n)
    out = _outdir(args)
    header = ["xi"]
    columns: List[List[float]] = []
    if args.branch in ("nu-minus", "nu-plus"):
        sign = "minus" if args.branch == "nu-minus" else "plus"
        nus = [fibermod.nu_values(sign, max(ks), args.alpha, x, args.n) for x in xi]
        for k in ks:
            header.append(f"nu_{sign}_{k}")
            columns.append([vals[k - 1] for vals in nus])
    elif args.branch == "theta":
        for sign in ("plus", "minus"):
            for k in ks:
                header.append(f"theta_{sign}_{k}")
                pts = [dispmod.theta(sign, k, x, args.n) for x in xi]
                for pt in pts:
                    if pt.theta == 0.0:
                        print(f"note: theta_{sign}_{k}(xi={_fmt(pt.xi)}) is below the "
                              f"resolution floor at n={args.n}; written as 0",
                              file=sys.stderr)
                columns.append([pt.theta if sign == "plus" else -pt.theta for pt in pts])
    else:
        raise ConfigError(f"unknown branch {args.branch!r}")
    rows = [[x] + [col[i] for col in columns] for i, x in enumerate(xi)]
    name = out / f"dispersion_{args.branch}.csv"
    _write_csv(name, _config_dict(args), header, rows)
    print(f"wrote {name}")
    return EXIT_OK


# ------------------------------------------------------------------------- a0


def cmd_a0(args) -> int:
    out = _outdir(args)
    res = dispmod.find_a0(args.n)
    data = {
        "a0": res.a0,
        "u0sq": res.u0sq,
        "d2xi_nu": res.d2xi_nu,
        "c0": res.c0,
        "grid_n": res.grid_n,
        "cxi_sign_convention": dispmod.CXI_SIGN_CONVENTION,
    }
    if args.refine:
        fine = dispmod.find_a0(2 * args.n - 1)
        data["refined"] = {"a0": fine.a0, "grid_n": fine.grid_n}
        data["a0_richardson"] = fine.a0 + (fine.a0 - res.a0) / 3.0
        data["grid_change"] = abs(fine.a0 - res.a0)
    name = out / "a0.json"
    _write_json(name, _config_dict(args), data)
    print(f"wrote {name}  (a0 = {res.a0:.6f})")
    return EXIT_OK


# -------------------------------------------------------------------- momenta


def cmd_momenta(args) -> int:
    if args.alpha is None or args.xi is None:
        raise ConfigError("momenta requires --alpha and --xi (flag or config file)")
    _check_fiber_range(args.xi, args.n, power=4)
    out = _outdir(args)
    mom = dispmod.momenta(args.alpha, args.xi, args.n)
    name = out / "momenta.csv"
    rows = [[j, mom[j]] for j in range(5)]
    _write_csv(name, _config_dict(args), ["j", "M_j"], rows)
    print(f"wrote {name}")
    return EXIT_OK


# ----------------------------------------------------------------------- disk


def _report_row(h, n, formula, direct, prediction, flag=None) -> list:
    """One report row; rel_or_flag is ``flag`` when given (a pass/fail test,
    or a deviation relative to something else), else |deviation| / prediction."""
    dev = direct - prediction
    return [h, n, formula, direct, prediction, dev,
            abs(dev) / prediction if flag is None else float(flag)]


def _disk_rows(args, spec: diskmod.DiskSpec, b0: float, a0res, cks):
    """Spectrum rows and report rows of one h of the disk sweep."""
    h = spec.h
    sp = diskmod.dirac_spectrum(spec, max(args.pos, args.neg))
    pos, neg = sp.pos[:args.pos], sp.neg[:args.neg]
    spec_rows = [[h, branch, i + 1, val, m, k]
                 for branch, vals, prov in (("pos", pos, sp.pos_provenance),
                                            ("neg", neg, sp.neg_provenance))
                 for i, (val, (m, k)) in enumerate(zip(vals, prov))]

    # leading negative order: a0 sqrt(b0 h)
    rows = [_report_row(h, 1, "lambda_minus_leading", neg[0], a0res.a0 * math.sqrt(b0 * h))]
    # fine structure vs effective operator; a constant field b0 maps
    # to the unit-field problem at h/b0 with energies scaled by b0
    eff = effmod.qeff_disk(effmod.EffSpec.disk(args.R, h / b0, a0res.a0).t_h, args.R, len(neg))
    rows += [_report_row(h, i + 1, "lambda_minus_fine", val,
                         b0 * effmod.lambda_minus_prediction(i + 1, h / b0, a0res, eff))
             for i, val in enumerate(neg)]
    # positive eigenvalues vs C_k and the Hardy bound
    hardy = diskmod.hardy_nu_k(spec, args.pos)
    for i, ck in enumerate(cks):
        rows.append(_report_row(h, i + 1, "lambda_plus_Ck", pos[i],
                                ckmod.lambda_plus_prediction(ck, spec.gauge.phi_min, h)))
        rows.append(_report_row(h, i + 1, "hardy_upper_bound", pos[i], hardy[i],
                                pos[i] <= hardy[i] + 1e-12))
    small = min(pos[0], neg[0])
    rows.append(_report_row(h, 1, "zero_gap", small, 0.0, small > 1e-6))
    if args.zigzag:
        lowest, bound = diskmod.zigzag_spectrum(spec, "plus", 3)[0], 2.0 * b0 * h
        rows.append(_report_row(h, 1, "zigzag_lower_bound", lowest, bound,
                                lowest >= bound * (1 - 1e-3)))
    if args.oracle:
        m, _ = sp.neg_provenance[0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            direct = diskmod.dirac_radial_direct(spec, -(m + 1), 1, sigma=-neg[0])
        below = direct[direct < 0]
        oracle = float(-below[-1]) if below.size else float("nan")
        # relative to the direct value: the oracle checks it, not a prediction
        rows.append(_report_row(h, 1, "oracle_agreement", neg[0], oracle,
                                abs(neg[0] - oracle) / neg[0]))
    return spec_rows, rows


def cmd_disk(args) -> int:
    hs = [_finite(t, "--h") for t in args.h.split(",") if t.strip()]
    if not hs or not all(h > 0 for h in hs):
        raise ConfigError(f"--h needs one or more positive values, got {args.h!r}")
    if args.pos < 1 or args.neg < 1:
        raise ConfigError(f"--pos and --neg must be >= 1, got {args.pos} and {args.neg}")
    if args.pos > ckmod.MAX_K:
        raise ConfigError(f"--pos must be <= {ckmod.MAX_K}, got {args.pos}")
    field = _parse_field(args.B, args.R)
    b0 = float(field.B)  # _parse_field only builds constant fields
    if not b0 > 0:
        raise ConfigError(f"--B must be positive, got {_fmt(b0)}")
    _check_ck_range(range(1, args.pos + 1), b0, args.R)
    specs = [diskmod.DiskSpec.make(field, h, n=args.n) for h in hs]
    for spec in specs:
        try:
            diskmod.check_grid(spec)
        except ValueError as exc:
            raise ConfigError(f"--n {args.n} is too coarse for h={spec.h}: {exc}") from None
    if min(hs) < diskmod.POSITIVE_H_MIN:
        raise ConfigError(f"--h must be >= {diskmod.POSITIVE_H_MIN}, got {args.h!r}")
    out = _outdir(args)
    a0res = dispmod.find_a0(args.n_a0)
    w, curve = ckmod.BargmannWeight.isotropic(b0), ckmod.BoundaryCurve.circle(args.R)
    cks = [ckmod.ck_constant(k, w, curve) for k in range(1, args.pos + 1)]
    blocks, errors = [], []
    for spec in specs:
        try:
            blocks.append((spec.h, *_disk_rows(args, spec, b0, a0res, cks)))
        except Exception as exc:  # row-level isolation
            errors.append([spec.h, 0, "error", math.nan, math.nan, math.nan,
                           f"{type(exc).__name__}: {exc}"])
    blocks.sort(key=lambda block: -block[0])  # stable: a repeated h keeps both blocks

    cfg = _config_dict(args)
    _write_csv(out / "disk_spectrum.csv", cfg,
               ["h", "branch", "k", "eigenvalue", "mode", "mode_k"],
               [row for _, rows, _ in blocks for row in rows])
    _write_csv(out / "disk_report.csv", cfg,
               ["h", "n", "formula", "direct", "prediction", "deviation", "rel_or_flag"],
               [row for _, _, rows in blocks for row in rows] + errors)
    print(f"wrote {out / 'disk_spectrum.csv'}")
    print(f"wrote {out / 'disk_report.csv'}")
    return EXIT_SOLVER if errors and not blocks else EXIT_OK


# ------------------------------------------------------------------ constants


def cmd_constants(args) -> int:
    ks = _parse_int_range(args.k)
    if max(ks) > ckmod.MAX_K:
        raise ConfigError(f"--k must lie in 1..{ckmod.MAX_K}, got {args.k!r}")
    b0 = float(args.B)
    if not b0 > 0:
        raise ConfigError(f"--B must be positive, got {args.B}")
    w = ckmod.BargmannWeight.isotropic(b0)
    curve = ckmod.BoundaryCurve.circle(args.R, z_min=complex(args.zmin_re, args.zmin_im))
    _check_ck_range(ks, b0, args.R)
    out = _outdir(args)
    rows = []
    for k in ks:
        res = ckmod.ck_constant(k, w, curve)
        closed = b0**k / math.factorial(k - 1) * (args.R**2 / 2) ** (k - 1) * args.R
        rows.append([k, res.dist_H, res.dist_B, res.Ck, closed, abs(res.Ck - closed)])
    name = out / "constants.csv"
    _write_csv(name, _config_dict(args),
               ["k", "dist_H", "dist_B", "Ck", "disk_closed_form", "deviation"], rows)
    print(f"wrote {name}")
    return EXIT_OK


# ------------------------------------------------------------------ effective


def _read_kappa(path: str) -> np.ndarray:
    """One column or one row of finite curvature samples, at least one."""
    try:
        with warnings.catch_warnings():
            # an empty file warns here; its shape is checked below
            warnings.simplefilter("ignore", UserWarning)
            samples = np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read --kappa file: {exc}") from None
    if min(samples.shape) != 1:
        raise ConfigError(f"--kappa {path} must hold one column or one row of numbers, "
                          f"got {samples.shape[0]} rows of {samples.shape[1]}")
    if not np.all(np.isfinite(samples)):
        raise ConfigError(f"--kappa {path} holds a sample that is not finite")
    return samples.ravel()


def cmd_effective(args) -> int:
    for flag, value in (("--R", args.R), ("--h", args.h), ("--L", args.L)):
        if value is not None and not value > 0:
            raise ConfigError(f"{flag} must be positive, got {value}")
    if args.count < 1:
        raise ConfigError(f"--count must be >= 1, got {args.count}")
    if args.count > _MAX_COUNT:
        raise ConfigError(f"--count must be <= {_MAX_COUNT}, got {args.count}")
    if args.area is not None and not args.area >= 0:
        raise ConfigError(f"--area must be >= 0, got {args.area}")
    for flag, value in (("--L", args.L), ("--area", args.area)):
        if value is not None and not args.kappa:
            raise ConfigError(f"{flag} applies only with --kappa")
    if args.kappa:
        samples = _read_kappa(args.kappa)
    elif not math.isfinite(args.h * math.sqrt(args.h)):
        raise ConfigError(f"--h {args.h} is out of range: the fine-structure term's "
                          f"h^(3/2) overflows")
    L = 2 * math.pi * args.R if args.L is None else args.L
    area = math.pi * args.R * args.R if args.area is None else args.area
    # the lowest levels sit at modes near -t_h L / (2 pi), and a0 < sqrt(2)
    if not (area / args.h + L * math.sqrt(2 / args.h)) / (2 * math.pi) <= 2**52:
        geometry = " ".join(f"{flag} {value}" for flag, value in (
            ("--R", args.R), ("--L", args.L), ("--area", args.area)) if value is not None)
        raise ConfigError(f"{geometry} with --h {args.h} puts the lowest levels at mode "
                          "numbers near (area/h + L sqrt(2/h))/(2 pi), past 2^52, where "
                          "doubles no longer hold every integer")
    out = _outdir(args)
    a0res = dispmod.find_a0(args.n_a0)
    t_h = effmod.flux_th(area, L, args.h, a0res.a0)
    if args.kappa:
        spec = effmod.EffSpec(L=L, t_h=t_h, kappa=samples)
        eff = effmod.qeff_general(spec, args.count)
        shifted = dataclasses.replace(spec, t_h=t_h + 2 * math.pi / L)
        gauge_err = float(np.max(np.abs(
            effmod.qeff_general(shifted, args.count).values - eff.values)))
        rows = [[n + 1, eff.values[n], ""] for n in range(args.count)]
        rows.append(["gauge_periodicity_error", gauge_err, ""])
    else:
        eff = effmod.qeff_disk(t_h, args.R, args.count)
        rows = [
            [n + 1, eff.values[n], eff.m_sequence[n]] for n in range(args.count)
        ]
        rows.append(["t_h", t_h, ""])
        rows.append(["prediction_lambda1", effmod.lambda_minus_prediction(
            1, args.h, a0res, eff), ""])
    name = out / "effective.csv"
    _write_csv(name, _config_dict(args), ["n", "lambda_n", "m_n"], rows)
    print(f"wrote {name}")
    return EXIT_OK


# ----------------------------------------------------------------------- check


def cmd_check(args) -> int:
    """Fast self-checks of the main identities; exits 4 on any failure."""
    failures: List[str] = []

    def check(name: str, ok: bool, detail: str = ""):
        print(f"[{'PASS' if ok else 'FAIL'}] {name} {detail}")
        if not ok:
            failures.append(name)

    check("landau_minus_1", abs(fibermod.whole_line_levels("minus", 1) - 2.0) == 0.0)
    # a0's grid error is O(step^2): 2.6e-6 at n = 2001, 6.5e-7 at n = 4001
    n, a0_tol = (2001, 3e-6) if not args.full else (4001, 7.5e-7)
    res = dispmod.find_a0(n)
    check("a0_range", 0 < res.a0 < math.sqrt(2.0), f"a0={res.a0:.6f}")
    check("a0_value", abs(res.a0 - dispmod.A0_REFERENCE) < 2e-3,
          f"|a0 - {dispmod.A0_REFERENCE}| = {abs(res.a0 - dispmod.A0_REFERENCE):.2e}")
    check("a0_exact", abs(res.a0 - dispmod.A0_EXACT) < a0_tol,
          f"|a0 - {dispmod.A0_EXACT}| = {abs(res.a0 - dispmod.A0_EXACT):.2e} (grid error < {a0_tol:.1e})")
    check("c0_positive", res.c0 > 0 and res.u0sq < 2 * res.a0)
    mom = dispmod.momenta(res.a0, res.a0, n)
    check("momentum_M1", abs(mom[1] - res.u0sq / 2) < 1e-3 * res.u0sq)
    w = ckmod.BargmannWeight.isotropic(1.0)
    curve = ckmod.BoundaryCurve.circle(1.0)
    ck1 = ckmod.ck_constant(1, w, curve)
    check("C1_disk", abs(ck1.Ck - 1.0) < 1e-6, f"C1={ck1.Ck:.8f}")
    eff = effmod.qeff_disk(0.5, 1.0, 2)
    check("qeff_tie", abs(eff.values[0] - eff.values[1]) < 1e-12)
    if args.full:
        field = diskmod.RadialField(1.0, 1.0)
        spec = diskmod.DiskSpec.make(field, 0.1, n=2001)
        sp = diskmod.dirac_spectrum(spec, 3)
        nus = diskmod.hardy_nu_k(spec, 3)
        check("hardy_bound", bool(np.all(sp.pos <= nus + 1e-12)))
        check("zero_gap", min(sp.pos[0], sp.neg[0]) > 1e-6)
        e1 = sp.neg[0] / math.sqrt(0.1)
        check("e1_near_a0", abs(e1 - res.a0) < 0.15, f"e1={e1:.6f}")
    return EXIT_CHECK if failures else EXIT_OK


# ---------------------------------------------------------------------- parse


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--config", default=None, help="key=value config file with sections")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="diracbag",
        description="Spectra of planar magnetic Dirac operators with MIT bag walls",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dispersion", help="fibered dispersion curves")
    p.add_argument("--branch", default="nu-minus",
                   choices=["nu-minus", "nu-plus", "theta"])
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--k", default="1..4")
    p.add_argument("--xi", default="-2:8:0.1")
    p.add_argument("--n", type=int, default=fibermod.DEFAULT_N)
    _add_common(p)
    p.set_defaults(func=cmd_dispersion)

    p = sub.add_parser("a0", help="the gap constant and derived quantities")
    p.add_argument("--n", type=int, default=fibermod.DEFAULT_N)
    p.add_argument("--refine", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_a0)

    p = sub.add_parser("momenta", help="ground-state moments")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--xi", type=float, default=None)
    p.add_argument("--n", type=int, default=fibermod.DEFAULT_N)
    _add_common(p)
    p.set_defaults(func=cmd_momenta)

    p = sub.add_parser("disk", help="direct disk spectra and comparison report")
    p.add_argument("--B", default="const:1")
    p.add_argument("--R", type=float, default=1.0)
    p.add_argument("--h", default="0.2,0.1")
    p.add_argument("--neg", type=int, default=4)
    p.add_argument("--pos", type=int, default=2)
    p.add_argument("--n", type=int, default=2001)
    p.add_argument("--n-a0", type=int, default=fibermod.DEFAULT_N, dest="n_a0")
    p.add_argument("--zigzag", action="store_true")
    p.add_argument("--oracle", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_disk)

    p = sub.add_parser("constants", help="Hardy/Bargmann distances and C_k")
    p.add_argument("--B", type=float, default=1.0)
    p.add_argument("--R", type=float, default=1.0)
    p.add_argument("--k", default="1..4")
    p.add_argument("--zmin-re", type=float, default=0.0, dest="zmin_re")
    p.add_argument("--zmin-im", type=float, default=0.0, dest="zmin_im")
    _add_common(p)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("effective", help="effective boundary operator")
    p.add_argument("--R", type=float, default=1.0)
    p.add_argument("--h", type=float, default=0.1)
    p.add_argument("--count", type=int, default=5)
    p.add_argument("--kappa", default=None, help="CSV file of curvature samples")
    p.add_argument("--L", type=float, default=None)
    p.add_argument("--area", type=float, default=None)
    p.add_argument("--n-a0", type=int, default=fibermod.DEFAULT_N, dest="n_a0")
    _add_common(p)
    p.set_defaults(func=cmd_effective)

    p = sub.add_parser("check", help="fast self-checks (exit 4 on failure)")
    p.add_argument("--full", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_check)

    return ap


def _glue_negative_sweeps(argv: List[str]) -> List[str]:
    """Join '--xi -2:8:0.1' into '--xi=-2:8:0.1' so argparse does not read
    the sweep (leading dash) as an option string."""
    out: List[str] = []
    for tok in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and tok.startswith("-") and any(c in tok for c in ":,")):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def _apply_config(parser: argparse.ArgumentParser, args: argparse.Namespace,
                  argv: List[str]) -> argparse.Namespace:
    """Re-parse argv with the config file's section as subcommand defaults,
    so command-line flags still win.  Keys name long flags (--B and --b
    differ); a key with no exact match may match one flag case-insensitively."""
    cp = configparser.ConfigParser()
    cp.optionxform = str
    if not cp.read(args.config):
        raise ConfigError(f"config file {args.config!r} not found")
    if not cp.has_section(args.command):
        return args
    subparsers = next(a for a in parser._actions if a.dest == "command")
    sub = subparsers.choices[args.command]
    options = sub._option_string_actions
    defaults = {}
    for key, value in cp.items(args.command):
        flag = f"--{key.replace('_', '-')}"
        folded = [f for f in options if f.lower() == flag.lower()]
        action = options.get(flag) or (options[folded[0]] if len(folded) == 1 else None)
        if action is None:
            raise ConfigError(f"unknown key {key!r} in section [{args.command}]")
        if action.nargs == 0:  # a store_true switch
            defaults[action.dest] = cp.getboolean(args.command, key)
            continue
        typed = action.type(value) if action.type else value
        if action.choices and typed not in action.choices:
            raise ConfigError(f"{key} = {value!r} is not one of {action.choices}")
        defaults[action.dest] = typed
    sub.set_defaults(**defaults)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    argv = _glue_negative_sweeps(list(argv) if argv is not None else sys.argv[1:])
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            args = _apply_config(parser, args, argv)
        for key, value in vars(args).items():
            flag = f"--{key.replace('_', '-')}"
            if isinstance(value, float):
                _finite(value, flag)
            if key in ("n", "n_a0") and not 3 <= value <= _MAX_N:
                raise ConfigError(f"{flag} must lie in 3..{_MAX_N}, got {value}")
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RuntimeError as exc:  # CutoffError too
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())

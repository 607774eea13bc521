import csv
import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from diracbag import cli


def run(argv):
    return cli.main(argv)


def read_csv(path: Path):
    comments = {}
    rows = []
    with open(path, newline="") as fh:
        for line in fh:
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                comments[key.strip()] = value.strip()
            else:
                rows.append(line)
    parsed = list(csv.reader(rows))
    return comments, parsed[0], parsed[1:]


def test_dispersion_command(tmp_path):
    out = tmp_path / "disp"
    code = run(["dispersion", "--branch", "nu-minus", "--alpha", "2",
                "--k", "1..2", "--xi", "0:2:1", "--n", "501",
                "--out", str(out)])
    assert code == 0
    meta, header, rows = read_csv(out / "dispersion_nu-minus.csv")
    assert header == ["xi", "nu_minus_1", "nu_minus_2"]
    assert len(rows) == 3
    assert "sha256" in meta
    assert meta["alpha"] == "2"
    # the first curve dips below its Landau limit 2 near its minimum
    v1 = [float(row[1]) for row in rows]
    v2 = [float(row[2]) for row in rows]
    assert min(v1) < 2.0
    assert all(a < b for a, b in zip(v1, v2))  # branch ordering


def test_dispersion_reproducible(tmp_path):
    args = ["dispersion", "--branch", "nu-plus", "--alpha", "1.5",
            "--k", "1..1", "--xi", "0:1:0.5", "--n", "401"]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    b1 = (out1 / "dispersion_nu-plus.csv").read_bytes()
    b2 = (out2 / "dispersion_nu-plus.csv").read_bytes()
    assert b1 == b2


def test_dispersion_theta_has_gap(tmp_path):
    out = tmp_path / "theta"
    assert run(["dispersion", "--branch", "theta", "--k", "1..1",
                "--xi", "1:2:0.5", "--n", "501", "--out", str(out)]) == 0
    meta, header, rows = read_csv(out / "dispersion_theta.csv")
    assert header == ["xi", "theta_plus_1", "theta_minus_1"]
    for row in rows:
        assert float(row[1]) >= 0.0  # upper band
        assert float(row[2]) <= -1.2  # lower band below the -a0 gap edge


def test_dispersion_theta_floor_is_reported(tmp_path, capsys):
    # theta_plus_1 at xi = -8 is below the resolution floor: the CSV keeps
    # its 0 and the note goes to stderr, outside the hashed payload
    out = tmp_path / "floor"
    assert run(["dispersion", "--branch", "theta", "--k", "1..1",
                "--xi", "-8:-8:1", "--n", "501", "--out", str(out)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err == ["note: theta_plus_1(xi=-8) is below the resolution floor at n=501; "
                   "written as 0"]
    meta, header, rows = read_csv(out / "dispersion_theta.csv")
    assert rows[0][:2] == ["-8", "0"]
    assert meta["sha256"] == (
        "ac575f90e52acb456c5798f10f4f038e05e67f9ed91070165fdfc1b5529a2d1d")


def test_a0_command(tmp_path):
    out = tmp_path / "a0"
    assert run(["a0", "--n", "1001", "--out", str(out)]) == 0
    doc = json.loads((out / "a0.json").read_text())
    assert abs(float(doc["data"]["a0"]) - 1.31325) < 2e-3
    assert doc["data"]["cxi_sign_convention"] == "minus-xi"
    assert len(doc["sha256"]) == 64
    assert set(doc) == {"config", "data", "sha256"}


def test_a0_refine(tmp_path):
    out = tmp_path / "a0r"
    assert run(["a0", "--n", "1001", "--refine", "--out", str(out)]) == 0
    doc = json.loads((out / "a0.json").read_text())
    assert "a0_richardson" in doc["data"]
    assert float(doc["data"]["grid_change"]) < 2e-3


def test_momenta_command(tmp_path):
    out = tmp_path / "mom"
    assert run(["momenta", "--alpha", "1.3132547", "--xi", "1.3132547",
                "--n", "1001", "--out", str(out)]) == 0
    meta, header, rows = read_csv(out / "momenta.csv")
    assert header == ["j", "M_j"]
    assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-10)


def test_momenta_requires_params(tmp_path):
    assert run(["momenta", "--out", str(tmp_path / "x")]) == cli.EXIT_CONFIG


def test_config_file_defaults_and_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[momenta]\nalpha = 1.0\nxi = 0.5\nn = 801\n")
    out = tmp_path / "viacfg"
    assert run(["momenta", "--config", str(cfg), "--out", str(out)]) == 0
    meta, _, _ = read_csv(out / "momenta.csv")
    assert meta["alpha"] == "1"
    # command line overrides the file
    out2 = tmp_path / "viacfg2"
    assert run(["momenta", "--config", str(cfg), "--alpha", "2.0",
                "--out", str(out2)]) == 0
    meta2, _, _ = read_csv(out2 / "momenta.csv")
    assert meta2["alpha"] == "2"


def test_config_out_named_like_subcommand(tmp_path, monkeypatch):
    # the subcommand name may appear again as a flag value
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text("[a0]\nn = 1001\n")
    assert run(["a0", "--config", "run.cfg", "--out", "a0"]) == 0
    doc = json.loads((tmp_path / "a0" / "a0.json").read_text())
    assert doc["config"]["n"] == "1001"


def test_config_key_case_fallback(tmp_path):
    # keys without an exact flag match are matched case-insensitively
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[momenta]\nALPHA = 1.0\nXi = 0.5\nN = 801\n")
    out = tmp_path / "case"
    assert run(["momenta", "--config", str(cfg), "--out", str(out)]) == 0
    meta, _, _ = read_csv(out / "momenta.csv")
    assert (meta["alpha"], meta["n"]) == ("1", "801")


def test_config_boolean_flag(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[disk]\nB = const:1\nzigzag = true\n")
    out = tmp_path / "zz"
    assert run(["disk", "--config", str(cfg), "--h", "0.25", "--neg", "1",
                "--pos", "1", "--n", "401", "--n-a0", "1001", "--out", str(out)]) == 0
    meta, _, rows = read_csv(out / "disk_report.csv")
    assert meta["zigzag"] == "True"
    assert "zigzag_lower_bound" in {r[2] for r in rows}


@pytest.mark.parametrize("body", ["[momenta]\nbogus = 1\n",
                                  "[dispersion]\nbranch = nu-middle\n",
                                  "[disk]\nzigzag = maybe\n",
                                  "[disk]\nworkers = 2\n",
                                  "[constants]\nR = inf\n"])
def test_config_bad_entry_is_config_error(tmp_path, body):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(body)
    command = body[1:body.index("]")]
    assert run([command, "--config", str(cfg), "--out", str(tmp_path / "x")]) == cli.EXIT_CONFIG


def test_constants_command(tmp_path):
    out = tmp_path / "ck"
    assert run(["constants", "--B", "1", "--R", "1",
                "--k", "1..4", "--out", str(out)]) == 0
    meta, header, rows = read_csv(out / "constants.csv")
    got = [float(r[3]) for r in rows]
    assert got == pytest.approx([1.0, 0.5, 0.125, 1.0 / 48.0], rel=1e-8)


@pytest.mark.parametrize("z_min", [["--zmin-re", "0.5"], ["--zmin-re", "0.9"],
                                   ["--zmin-re", "0.99"], ["--zmin-re", "0.3", "--zmin-im", "0.4"]],
                         ids=" ".join)
def test_constants_z_min_anywhere_inside(tmp_path, z_min):
    assert run(["constants", "--R", "2", "--k", "1..6", "--out", str(tmp_path)] + z_min) == 0
    a = abs(complex(*map(float, z_min[1::2]))) / 2.0
    _, _, rows = read_csv(tmp_path / "constants.csv")
    for row in rows:
        k = int(row[0])
        exact = math.sqrt(2 * math.pi * 2.0 ** (2 * k - 1) * (1 - a * a) ** (2 * k - 1))
        assert float(row[1]) == pytest.approx(exact, rel=1e-14)


def test_effective_command_disk(tmp_path):
    out = tmp_path / "eff"
    assert run(["effective", "--R", "1", "--h", "0.1",
                "--count", "5", "--n-a0", "1001", "--out", str(out)]) == 0
    meta, header, rows = read_csv(out / "effective.csv")
    names = [r[0] for r in rows]
    assert "t_h" in names
    th = float(rows[names.index("t_h")][1])
    # t_h with the computed a0 ~ 1.31325 (paper arithmetic gives ~1.3499)
    assert th == pytest.approx(5.5 - 1.31325 / math.sqrt(0.1), abs=3e-3)
    assert len([r for r in rows if r[0].isdigit()]) == 5


def test_effective_command_kappa_file(tmp_path):
    kap = tmp_path / "kappa.csv"
    s = np.arange(256) / 256 * 2 * math.pi
    np.savetxt(kap, 1.0 + 0.2 * np.cos(s), delimiter=",")
    out = tmp_path / "effk"
    assert run(["effective", "--kappa", str(kap), "--R", "1", "--h", "0.1",
                "--count", "3", "--n-a0", "1001", "--out", str(out)]) == 0
    meta, header, rows = read_csv(out / "effective.csv")
    names = [r[0] for r in rows]
    assert "gauge_periodicity_error" in names
    err = float(rows[names.index("gauge_periodicity_error")][1])
    assert err < 1e-10


def test_effective_constant_kappa_matches_the_disk_at_small_h(tmp_path):
    # kappa = 1 on the unit circle is the disk: at h = 0.001 the lowest levels
    # sit near mode -459, and both routes must find them
    kap = tmp_path / "kappa.csv"
    np.savetxt(kap, np.ones(4))
    values = []
    for extra in (["--kappa", str(kap)], []):
        assert run(["effective", "--h", "0.001", "--n-a0", "1001",
                    "--out", str(tmp_path)] + extra) == cli.EXIT_OK
        rows = read_csv(tmp_path / "effective.csv")[2]
        values.append([float(r[1]) for r in rows if r[0].isdigit()])
    assert np.max(np.abs(np.subtract(*values))) < 1e-12


def test_effective_command_short_kappa_file(tmp_path):
    # 8 samples determine kappa = 1 + 0.3 cos s: no CutoffError from aliases
    kap = tmp_path / "kappa.csv"
    np.savetxt(kap, 1.0 + 0.3 * np.cos(np.arange(8) / 8 * 2 * math.pi), delimiter=",")
    assert run(["effective", "--kappa", str(kap), "--count", "5", "--n-a0", "1001",
                "--out", str(tmp_path)]) == cli.EXIT_OK


def test_effective_kappa_area_is_read_when_zero(tmp_path, monkeypatch):
    # --area 0 is a value (t_h loses its area term), not "use the disk default"
    monkeypatch.chdir(tmp_path)
    s = np.arange(256) / 256 * 2 * math.pi
    np.savetxt("kappa.csv", 1.0 + 0.2 * np.cos(s), delimiter=",")
    digests = []
    for extra in ([], ["--area", repr(math.pi)], ["--area", "0"]):
        assert run(["effective", "--kappa", "kappa.csv", "--count", "3", "--n-a0", "1001",
                    "--out", "out"] + extra) == 0
        digests.append(read_csv(tmp_path / "out" / "effective.csv")[0]["sha256"])
    assert digests[0] == digests[1] != digests[2]


def test_disk_command(tmp_path):
    out = tmp_path / "disk"
    code = run(["disk", "--B", "const:1", "--R", "1", "--h", "0.25",
                "--neg", "1", "--pos", "1", "--n", "501", "--n-a0", "1001",
                "--zigzag", "--out", str(out)])
    assert code == 0
    meta, header, spec_rows = read_csv(out / "disk_spectrum.csv")
    assert header == ["h", "branch", "k", "eigenvalue", "mode", "mode_k"]
    assert any(r[1] == "pos" for r in spec_rows)
    assert any(r[1] == "neg" for r in spec_rows)
    meta2, header2, rep_rows = read_csv(out / "disk_report.csv")
    formulas = {r[2] for r in rep_rows}
    assert {"lambda_minus_leading", "lambda_minus_fine", "lambda_plus_Ck",
            "hardy_upper_bound", "zero_gap", "zigzag_lower_bound"} <= formulas
    # flags: hardy bound and zero gap hold
    for r in rep_rows:
        if r[2] in ("hardy_upper_bound", "zero_gap", "zigzag_lower_bound"):
            assert float(r[6]) == 1.0


def test_disk_error_row_names_exception_type(tmp_path, monkeypatch):
    # a solve that fails for one h becomes an error row naming the exception;
    # the other h keeps its rows
    real = cli.diskmod.dirac_spectrum

    def failing_at_quarter(spec, count):
        if spec.h == 0.25:
            raise ArithmeticError("no root")
        return real(spec, count)

    monkeypatch.setattr(cli.diskmod, "dirac_spectrum", failing_at_quarter)
    out = tmp_path / "err"
    assert run(["disk", "--h", "0.5,0.25", "--neg", "1", "--pos", "1", "--n", "401",
                "--n-a0", "1001", "--out", str(out)]) == cli.EXIT_OK
    _, _, rows = read_csv(out / "disk_report.csv")
    assert {r[0] for r in rows if r[2] != "error"} == {"0.5"}
    assert [r for r in rows if r[2] == "error"] == [
        ["0.25", "0", "error", "nan", "nan", "nan", "ArithmeticError: no root"]]


def test_disk_widens_a_narrow_mode_window(tmp_path, monkeypatch):
    # at R = 0.05 an end mode of the window (-1, 1) holds one of the four
    # lowest negative roots; started there, the solver widens it, and the run
    # writes the roots of the default window (-3, 3)
    field = cli.diskmod.RadialField(1.0, 0.05)
    spec = cli.diskmod.DiskSpec.make(field, 0.2, n=501)
    sp = cli.diskmod.dirac_spectrum(spec, 4)
    assert spec.m_range == (-3, 3) and any(abs(m) >= 1 for m, _ in sp.neg_provenance)
    make = cli.diskmod.DiskSpec.make
    monkeypatch.setattr(cli.diskmod.DiskSpec, "make", staticmethod(
        lambda field, h, n: dataclasses.replace(make(field, h, n), m_range=(-1, 1))))
    assert run(["disk", "--h", "0.2", "--R", "0.05", "--n", "501", "--n-a0", "1001",
                "--out", str(tmp_path)]) == cli.EXIT_OK
    expected = [[0.2, branch, i + 1, val, m, k]
                for branch, vals, prov in (("pos", sp.pos[:2], sp.pos_provenance),
                                           ("neg", sp.neg, sp.neg_provenance))
                for i, (val, (m, k)) in enumerate(zip(vals, prov))]
    assert read_csv(tmp_path / "disk_spectrum.csv")[2] == [
        [cli._fmt(x) for x in row] for row in expected]
    assert "error" not in {r[2] for r in read_csv(tmp_path / "disk_report.csv")[2]}


def test_disk_builds_each_mode_operator_once_while_widening(tmp_path, monkeypatch):
    # 400 negative roots outgrow the default window (-5, 5) several times;
    # each widening reuses the operators it has, so dirac_spectrum builds
    # every (m, branch) once rather than once per window, and it bisects each
    # (m, branch, k) once, in the final window
    built, bisected, depth = [], [], []
    real_init, real_spectrum = cli.diskmod._ModeOperator.__init__, cli.diskmod.dirac_spectrum
    real_bisect = cli.diskmod._bisect_ell

    def init(op, spec, m, field_sign):
        if depth:
            built.append((m, field_sign))
        real_init(op, spec, m, field_sign)

    def bisect(op, k, lo, hi):
        if depth:
            bisected.append((op.m, op.field_sign, k))
        return real_bisect(op, k, lo, hi)

    def spectrum(spec, count):
        depth.append(1)
        try:
            return real_spectrum(spec, count)
        finally:
            depth.pop()

    monkeypatch.setattr(cli.diskmod._ModeOperator, "__init__", init)
    monkeypatch.setattr(cli.diskmod, "dirac_spectrum", spectrum)
    monkeypatch.setattr(cli.diskmod, "_bisect_ell", bisect)
    assert run(["disk", "--h", "0.2", "--neg", "400", "--n", "501", "--n-a0", "1001",
                "--out", str(tmp_path)]) == cli.EXIT_OK
    assert len(built) == len(set(built))
    assert len(bisected) == len(set(bisected))
    assert {m for m, sign in built if sign == "minus"} > set(range(-15, 16))


GOLDEN = {
    "dispersion_nu-minus.csv": (
        ["dispersion", "--branch", "nu-minus", "--alpha", "2", "--k", "1..2",
         "--xi", "0:2:1", "--n", "501"],
        "ce790bd8bd8bf595818fce9003e011cd6aab76ed59055bdb0ced8c2ca8a96961"),
    "dispersion_theta.csv": (
        ["dispersion", "--branch", "theta", "--k", "1..1", "--xi", "1:2:0.5",
         "--n", "501"],
        "71083aebd530b5276377608cc1c4becfcbdc6762ddd110ea04fb56af9157ee6d"),
    "momenta.csv": (
        ["momenta", "--alpha", "1.3132547", "--xi", "1.3132547", "--n", "1001"],
        "f6849c8b4bf0e2a3aca107cd6d59040363337cf57504960fad295bc2f10e8d39"),
    "constants.csv": (
        ["constants", "--B", "1", "--R", "1", "--k", "1..4"],
        "b9932aeb36ddbccd8e84e967290fa364878c3dd17204bebb68104bdd8b0d8d17"),
    "a0.json": (
        ["a0", "--n", "1001"],
        "10514f203044b373134de680d233387dbf1424a38c4d4252d49e51aa820259e5"),
    "effective.csv": (
        ["effective", "--R", "1", "--h", "0.1", "--count", "5", "--n-a0", "1001"],
        "7c671ed95969b29dda8891fa17644f4f0cf903b39c6d7ff372266a141a179d2d"),
    "disk_spectrum.csv": (
        ["disk", "--h", "0.2", "--n", "501", "--n-a0", "1001", "--zigzag"],
        "9fef541085bd69f4f5c097ce821969c69caf73888f3725e01437d8912d152dd5"),
    "disk_report.csv": (
        ["disk", "--h", "0.2", "--n", "501", "--n-a0", "1001", "--zigzag"],
        "13376394fdc7450e07348a630caac516feb1b8e3e45749b313ff8f9679b1396d"),
    # an unsorted h list with a repeated h, and the oracle row
    "disk_spectrum_oracle.csv": (
        ["disk", "--h", "0.2,0.25,0.2", "--n", "501", "--n-a0", "1001", "--zigzag",
         "--oracle", "--neg", "3", "--pos", "2"],
        "6f3f46fa8d0aa3909ea6d26a9c0874871d4a1a9ec2db6b1f00bb61a90fd52914"),
    # re-pinned when the oracle's values became Rayleigh quotients of its
    # windowed eigenpairs: its column moved by 1.1e-14 at most (h = 0.25)
    "disk_report_oracle.csv": (
        ["disk", "--h", "0.2,0.25,0.2", "--n", "501", "--n-a0", "1001", "--zigzag",
         "--oracle", "--neg", "3", "--pos", "2"],
        "d593019125e6d789d7f275974f194e1962cf2beed533999dc0afc693f7984ea0"),
    "effective_kappa.csv": (
        ["effective", "--kappa", "kappa.csv", "--R", "1", "--h", "0.1",
         "--count", "3", "--n-a0", "1001"],
        "cb6a3f87581dd67a70407b09a809ebd90574027df35e2e4f3f08f95c980ad97c"),
    # check writes no file; its PASS/FAIL lines on stdout are the payload
    "check.stdout": (
        ["check"],
        "a89357cf8d2b57b41cbd742a30310ac3b34c6c2a7b01e4bcca1a7744b88cf2eb"),
    "check_full.stdout": (
        ["check", "--full"],
        "d89213017ea6e43e98ef76834ed5df0dd9730642becc31130f984d57b186768b"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_payload_sha256_golden(tmp_path, monkeypatch, capsys, name):
    # payload hashes are independent of the header, the output path and the
    # process; a change here means the printed numbers moved
    argv, digest = GOLDEN[name]
    monkeypatch.chdir(tmp_path)
    s = np.arange(256) / 256 * 2 * math.pi
    np.savetxt("kappa.csv", 1.0 + 0.2 * np.cos(s), delimiter=",")
    assert run(argv + ["--out", "out"]) == 0
    path = tmp_path / "out" / name.replace("_kappa", "").replace("_oracle", "")
    if name.endswith(".stdout"):
        got = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    elif name.endswith(".json"):
        got = json.loads(path.read_text())["sha256"]
    else:
        got = read_csv(path)[0]["sha256"]
    assert got == digest


@pytest.mark.parametrize("argv", [
    ["dispersion", "--k", "4..1"],
    ["dispersion", "--k", "0"],
    ["dispersion", "--k", "x"],
    ["dispersion", "--n", "2"],
    ["dispersion", "--branch", "nu-minus", "--alpha", "0"],
    ["momenta", "--alpha", "-1", "--xi", "1"],
    ["constants", "--k", "0"],
    ["constants", "--k", str(cli.ckmod.MAX_K + 1)],
    ["constants", "--k", "4..1"],
    ["constants", "--R", "0"],
    ["constants", "--R", "-1"],
    ["constants", "--B", "0"],
    ["constants", "--B", "-1"],
    ["constants", "--zmin-re", "1.5"],
    ["constants", "--zmin-re", "1.0"],
    ["effective", "--count", "0", "--n-a0", "1001"],
    ["effective", "--h", "-1", "--n-a0", "1001"],
    ["effective", "--h", "0"],
    ["effective", "--R", "0"],
    ["effective", "--L", "5"],
    ["effective", "--area", "1"],
    ["effective", "--kappa", "kappa.csv", "--L", "0"],
    ["effective", "--kappa", "kappa.csv", "--L", "-1"],
    ["effective", "--kappa", "kappa.csv", "--area", "-1"],
    ["a0", "--n", "2"],
    ["disk", "--R", "0"],
    ["disk", "--B", "1", "--R", "0"],
    ["disk", "--B", "0"],
    ["disk", "--neg", "0"],
    ["disk", "--pos", "0"],
    ["disk", "--h", ","],
    ["disk", "--h", "-0.1"],
    ["disk", "--h", "0.2,-1"],
    # --k below 1 on every branch, and non-finite numbers
    ["dispersion", "--k", "0..2"],
    ["dispersion", "--branch", "nu-plus", "--k", "0..1"],
    ["dispersion", "--branch", "theta", "--k", "0..1"],
    # --k above what the grid holds: theta needs k <= n - 2, nu k <= n - 1
    ["dispersion", "--branch", "theta", "--k", "1..500", "--xi", "0:4:0.5", "--n", "501"],
    ["dispersion", "--branch", "nu-plus", "--k", "1..501", "--n", "501"],
    ["dispersion", "--xi", "0:inf:1"],
    ["dispersion", "--xi", "0:1e300:1e-300"],
    ["dispersion", "--xi", "-1e308:1e308:1"],
    ["dispersion", "--alpha", "nan"],
    ["disk", "--R", "inf"],
    ["disk", "--h", "inf"],
    ["disk", "--h", "0.2,nan"],
    ["disk", "--B", "const:inf"],
    ["constants", "--R", "inf"],
    ["constants", "--B", "inf"],
    ["effective", "--h", "inf"],
], ids=" ".join)
def test_bad_input_is_config_error(tmp_path, capsys, argv):
    assert run(argv + ["--out", str(tmp_path / "x")]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("configuration error:")


MAX_K = cli.ckmod.MAX_K


def test_disk_pos_above_max_k_fails_before_solving(tmp_path, capsys, monkeypatch):
    # C_k is defined up to constants.MAX_K; the check must come before
    # the spectra are solved
    monkeypatch.setattr(cli.diskmod, "dirac_spectrum",
                        lambda *a, **kw: pytest.fail("dirac_spectrum was called"))
    assert run(["disk", "--pos", str(MAX_K + 1), "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"configuration error: --pos must be <= {MAX_K}, got {MAX_K + 1}\n")


MODES_PAST_2_52 = ("mode numbers near (area/h + L sqrt(2/h))/(2 pi), past 2^52, where "
                   "doubles no longer hold every integer")
FAIL_FAST = [
    (["constants", "--k", f"1..{MAX_K + 1}"], f"--k must lie in 1..{MAX_K}, got '1..{MAX_K + 1}'"),
    (["constants", "--k", "4..1"], "--k selects no values, got '4..1'"),
    (["constants", "--R", "0"], "R must be positive, got 0.0"),
    (["disk", "--h", "0.2,-1"], "--h needs one or more positive values, got '0.2,-1'"),
    (["constants", "--B", "0"], "--B must be positive, got 0.0"),
    (["constants", "--zmin-re", "1.5"], "need |z_min| < R, got |z_min| = 1.5, R = 1.0"),
    (["constants", "--zmin-re", "0.6", "--zmin-im", "0.8"],
     "need |z_min| < R, got |z_min| = 1.0, R = 1.0"),
    (["effective", "--R", "0"], "--R must be positive, got 0.0"),
    (["effective", "--h", "0"], "--h must be positive, got 0.0"),
    (["effective", "--count", "0"], "--count must be >= 1, got 0"),
    (["effective", "--L", "5"], "--L applies only with --kappa"),
    (["effective", "--area", "1"], "--area applies only with --kappa"),
    (["effective", "--kappa", "kappa.csv", "--L", "0"], "--L must be positive, got 0.0"),
    (["effective", "--kappa", "kappa.csv", "--area", "-1"], "--area must be >= 0, got -1.0"),
    (["effective", "--kappa", "missing.csv"], "cannot read --kappa file: missing.csv not found."),
    (["disk", "--n", "5", "--h", "0.2"], "--n 5 is too coarse for h=0.2: mode m=-15 "
     "unresolvable on this grid (centrifugal cut at 4/5)"),
    (["disk", "--h", "0.2,0.01", "--n", "301"], "--n 301 is too coarse for h=0.01: mode m=-300 "
     "unresolvable on this grid (centrifugal cut at 300/301)"),
    (["disk", "--h", "0.01"], "--h must be >= 0.05, got '0.01'"),
    (["disk", "--h", "0.2,0.04"], "--h must be >= 0.05, got '0.2,0.04'"),
    (["dispersion", "--k", "0..2"], "--k must be >= 1, got '0..2'"),
    (["dispersion", "--branch", "theta", "--k", "1..500", "--xi", "0:4:0.5", "--n", "501"],
     "--k must be <= 499 for --branch theta at --n 501, got '1..500'"),
    (["dispersion", "--branch", "nu-minus", "--k", "1..501", "--n", "501"],
     "--k must be <= 500 for --branch nu-minus at --n 501, got '1..501'"),
    (["constants", "--k", "0"], "--k must be >= 1, got '0'"),
    (["disk", "--R", "inf"], "--R must be finite, got inf"),
    (["disk", "--h", "0.2,inf"], "--h must be finite, got inf"),
    (["disk", "--B", "const:inf"], "--B must be finite, got inf"),
    (["dispersion", "--xi", "0:inf:1"], "--xi must be finite, got inf"),
    (["dispersion", "--xi", "0:1e300:1e-300"],
     "--xi must take at most 1000000 steps, got '0:1e300:1e-300'"),
    (["dispersion", "--xi", "0:1:1e-7"], "--xi must take at most 1000000 steps, got '0:1:1e-7'"),
    (["constants", "--B", "inf"], "--B must be finite, got inf"),
    (["effective", "--n-a0", "1001", "--h", "nan"], "--h must be finite, got nan"),
    # grid sizes, checked before any solve: the huge ones would not fit in memory
    (["dispersion", "--branch", "theta", "--n", "0", "--k", "1"],
     "--n must lie in 3..1000000, got 0"),
    (["a0", "--n", "2"], "--n must lie in 3..1000000, got 2"),
    (["a0", "--n", "1000000000"], "--n must lie in 3..1000000, got 1000000000"),
    (["momenta", "--alpha", "1", "--xi", "1", "--n", "1000001"],
     "--n must lie in 3..1000000, got 1000001"),
    (["disk", "--n", "2"], "--n must lie in 3..1000000, got 2"),
    (["disk", "--n-a0", "1000000000"], "--n-a0 must lie in 3..1000000, got 1000000000"),
    (["effective", "--n-a0", "0"], "--n-a0 must lie in 3..1000000, got 0"),
    # the effective levels, on both routes: the huge count would not fit in memory
    (["effective", "--count", "257"], "--count must be <= 256, got 257"),
    (["effective", "--h", "0.1", "--count", "100000000"],
     "--count must be <= 256, got 100000000"),
    (["effective", "--kappa", "kappa.csv", "--count", "100000000"],
     "--count must be <= 256, got 100000000"),
    # --k that is not an integer range
    (["dispersion", "--k", "1.."], "--k must be integers as 1..4, 1:4 or 1,2,3, got '1..'"),
    (["constants", "--k", "a"], "--k must be integers as 1..4, 1:4 or 1,2,3, got 'a'"),
    # values whose C_k rows would overflow, divide by a zero distance or be nan
    (["constants", "--R", "1e200", "--k", "2"],
     "--R 1e+200 is out of range for C_2: its closed form reaches 2^1996, past 2^960"),
    (["constants", "--B", "1e200", "--k", "3"],
     "--B 1e+200 is out of range for C_3: its closed form reaches 2^1996, past 2^960"),
    (["constants", "--B", "1e-300", "--k", "3"],
     "--B 1e-300 is out of range for C_3: its closed form reaches 2^2993, past 2^960"),
    (["constants", "--B", "1e90", "--R", "1e90", "--k", "2"],
     "--B 1e+90 with --R 1e+90 is out of range for C_2: its closed form reaches 2^1494, "
     "past 2^960"),
    (["disk", "--R", "1e200"],
     "--R 1e+200 is out of range for C_1: its closed form reaches 2^1331, past 2^960"),
    # geometries whose lowest levels sit at mode numbers past 2^52, on both routes
    (["effective", "--R", "1e200", "--h", "0.1"], "--R 1e+200 with --h 0.1 puts the lowest "
     f"levels at {MODES_PAST_2_52}"),
    (["effective", "--kappa", "kappa.csv", "--R", "1e100", "--h", "0.1"],
     f"--R 1e+100 with --h 0.1 puts the lowest levels at {MODES_PAST_2_52}"),
    (["effective", "--kappa", "kappa.csv", "--R", "1e200"],
     f"--R 1e+200 with --h 0.1 puts the lowest levels at {MODES_PAST_2_52}"),
    (["effective", "--kappa", "kappa.csv", "--L", "1e300"],
     f"--R 1.0 --L 1e+300 with --h 0.1 puts the lowest levels at {MODES_PAST_2_52}"),
    (["effective", "--kappa", "kappa.csv", "--area", "1e300"],
     f"--R 1.0 --area 1e+300 with --h 0.1 puts the lowest levels at {MODES_PAST_2_52}"),
    # Galerkin entries past the largest double
    (["effective", "--kappa", "kappa.csv", "--L", "1e-300"], "--L 1e-300 is out of range: "
     "the Galerkin diagonal (2 pi (cutoff + 8) / L)^2 overflows"),
    (["effective", "--kappa", "huge.csv"],
     "--kappa huge.csv is out of range: the sum of its kappa^2 / 12 overflows"),
    # --kappa files that are not one column or one row of finite numbers
    (["effective", "--kappa", "two_columns.csv"],
     "--kappa two_columns.csv must hold one column or one row of numbers, got 4 rows of 2"),
    (["effective", "--kappa", "empty.csv"],
     "--kappa empty.csv must hold one column or one row of numbers, got 0 rows of 1"),
    (["effective", "--kappa", "nan.csv"], "--kappa nan.csv holds a sample that is not finite"),
    (["effective", "--kappa", "inf.csv"], "--kappa inf.csv holds a sample that is not finite"),
    # values whose h^{3/2}, fiber matrix or moments overflow
    (["effective", "--h", "1e300"],
     "--h 1e+300 is out of range: the fine-structure term's h^(3/2) overflows"),
    (["momenta", "--alpha", "1", "--xi", "1e160", "--n", "101"], "--xi 1e+160 is out of "
     "range: |tau +- xi| reaches 2e+160 on the fiber grid, and its power 4 overflows"),
    (["momenta", "--alpha", "1", "--xi", "1e100", "--n", "101"], "--xi 1e+100 is out of "
     "range: |tau +- xi| reaches 2e+100 on the fiber grid, and its power 4 overflows"),
    (["dispersion", "--branch", "nu-minus", "--xi", "1e160:1e160:1", "--n", "101"],
     "--xi 1e+160 is out of range: |tau +- xi| reaches 2e+160 on the fiber grid, and its "
     "power 2 overflows"),
    (["dispersion", "--branch", "nu-plus", "--xi", "1e154:1e154:1", "--n", "100001"],
     "--xi 1e+154 is out of range: |tau +- xi| reaches 2e+154 on the fiber grid, and its "
     "power 2 overflows"),
]


@pytest.fixture
def no_solvers(monkeypatch):
    """Every solver the subcommands call fails the test when it runs."""
    monkeypatch.setattr(cli.dispmod, "theta", lambda *a, **kw: pytest.fail("theta was called"))
    monkeypatch.setattr(cli.fibermod, "nu_values",
                        lambda *a, **kw: pytest.fail("nu_values was called"))
    monkeypatch.setattr(cli.dispmod, "find_a0",
                        lambda *a, **kw: pytest.fail("find_a0 was called"))
    monkeypatch.setattr(cli.dispmod, "momenta",
                        lambda *a, **kw: pytest.fail("momenta was called"))
    monkeypatch.setattr(cli.ckmod, "ck_constant",
                        lambda *a, **kw: pytest.fail("ck_constant was called"))
    monkeypatch.setattr(cli.diskmod, "dirac_spectrum",
                        lambda *a, **kw: pytest.fail("dirac_spectrum was called"))
    for name in ("qeff_disk", "qeff_general"):
        monkeypatch.setattr(cli.effmod, name,
                            lambda *a, f=name, **kw: pytest.fail(f"{f} was called"))


@pytest.mark.parametrize("argv, err", FAIL_FAST, ids=[" ".join(a) for a, _ in FAIL_FAST])
def test_bad_flag_fails_before_solving(tmp_path, capsys, monkeypatch, no_solvers, argv, err):
    # a0, the moments, the C_k, the disk spectra and the dispersion curves
    # must not be computed for a run that fails
    monkeypatch.chdir(tmp_path)
    np.savetxt("kappa.csv", np.ones(4))
    np.savetxt("two_columns.csv", np.ones((4, 2)), delimiter=",")
    np.savetxt("nan.csv", [1.0, math.nan])
    np.savetxt("inf.csv", [math.inf])
    np.savetxt("huge.csv", [1e200])
    Path("empty.csv").touch()
    assert run(argv + ["--out", str(tmp_path)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"configuration error: {err}\n"


@pytest.mark.parametrize("command", [
    ["dispersion"], ["a0"], ["momenta", "--alpha", "1", "--xi", "1"], ["disk"],
    ["constants"], ["effective"]], ids=lambda argv: argv[0])
@pytest.mark.parametrize("out", ["file", "file/x"])
def test_out_that_cannot_be_a_directory_fails_before_solving(tmp_path, capsys, no_solvers,
                                                              command, out):
    # an existing file, or a path below one, is no output directory
    (tmp_path / "file").touch()
    assert run(command + ["--out", str(tmp_path / out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        f"configuration error: --out {tmp_path / out} cannot be a directory: ")


@pytest.mark.parametrize("k", (1, 3, MAX_K))
def test_ck_range_edges_write_finite_rows(tmp_path, k):
    # at each end of the --B and --R ranges the C_k check admits, the row is
    # finite and dist_B and C_k keep their closed forms; one step past, exit 2
    argv = ["constants", "--k", str(k), "--out", str(tmp_path)]
    for flag in ("--B", "--R"):
        def b0_R(e):
            return (1.37 * 2.0**e, 1.0) if flag == "--B" else (1.0, 1.37 * 2.0**e)

        def admitted(e):
            try:
                cli._check_ck_range([k], *b0_R(e))
            except cli.ConfigError:
                return False
            return True

        inside = [e for e in range(-1070, 1020) if admitted(e)]
        assert inside == list(range(inside[0], inside[-1] + 1))
        for e, step in ((inside[0], -1), (inside[-1], 1)):
            assert run(argv + [flag, repr(1.37 * 2.0**e)]) == cli.EXIT_OK
            row = [float(x) for x in read_csv(tmp_path / "constants.csv")[2][0]]
            _, dist_h, dist_b, ck, closed, _ = row
            log2_dist_b2 = (math.log2(math.pi) + math.lgamma(k) / math.log(2)
                            + k * (1 - math.log2(b0_R(e)[0])))
            assert 2 * math.log2(dist_b) == pytest.approx(log2_dist_b2, rel=1e-12)
            assert ck == pytest.approx(closed, rel=1e-9)
            assert all(map(math.isfinite, row)) and dist_h > 0
            assert run(argv + [flag, repr(1.37 * 2.0**(e + step))]) == cli.EXIT_CONFIG


def test_bare_field_value_reports_the_real_fault(tmp_path, capsys):
    # a bare --B value must fail like its const: form, not as an unknown spec
    errs = []
    for spec in ("1", "const:1"):
        assert run(["disk", "--B", spec, "--R", "0", "--out", str(tmp_path)]) == cli.EXIT_CONFIG
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1] == "configuration error: R must be positive, got 0.0\n"


def test_readme_usage_lines_parse():
    # every command line shown in the README must still be accepted
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = [ln.split("#")[0].split()[1:] for ln in readme.splitlines()
             if ln.startswith("diracbag ")]
    assert len(lines) >= 8
    parser = cli.build_parser()
    for argv in lines:
        parser.parse_args(cli._glue_negative_sweeps(argv))


def test_glue_negative_sweeps():
    # a dash value with ':' or ',' joins the flag before it; a joined pair
    # takes no further value
    argv = ["--xi", "-2:8:0.1", "-3:4", "--k", "--h", "-1,2", "--n", "-5", "--B=-1:2"]
    assert cli._glue_negative_sweeps(argv) == [
        "--xi=-2:8:0.1", "-3:4", "--k", "--h=-1,2", "--n", "-5", "--B=-1:2"]


def test_bad_sweep_is_config_error(tmp_path):
    assert run(["dispersion", "--xi", "nonsense", "--out",
                str(tmp_path / "bad")]) == cli.EXIT_CONFIG


def test_check_command():
    assert run(["check"]) == 0

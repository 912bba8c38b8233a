import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest
from fractions import Fraction

from localpolytope import cli
from localpolytope.cli import GEODESIC_SCHEDULES, main
from localpolytope import certify
from localpolytope.certify import (
    CertificateError,
    read_certificate,
    write_certificate,
)
from localpolytope.lmo import EXTRA_ATOMS
from localpolytope.polyhedra import geodesic_icosahedron
from localpolytope.states import ghz_polygon_tensor
from localpolytope.tensor import CorrelationTensor, Scenario, write_tensor
from util import chsh_corner_cert

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run(argv):
    return main(argv)


def test_polyhedron_gen_and_eta(tmp_path, capsys):
    out = tmp_path / "ico.txt"
    assert run(["polyhedron", "gen", "--schedule", "", "--tol", "1e-9",
                "--out", str(out)]) == 0
    assert run(["polyhedron", "eta", "--in", str(out)]) == 0
    text = capsys.readouterr().out
    val = float(text.split("eta^2 = ")[1].split("=")[1].split()[0])
    assert abs(val - (5 + 2 * math.sqrt(5)) / 15) < 1e-8


@pytest.mark.parametrize("solid, schedule", [("octahedron", "3"), ("pentakisdodecahedron", "2")])
def test_schedule_subdivides_only_the_icosahedron(tmp_path, capsys, solid, schedule):
    out = tmp_path / "v.txt"
    assert run(["polyhedron", "gen", "--solid", solid, "--schedule", schedule,
                "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: --schedule subdivides the icosahedron, not the {solid}\n")
    assert not out.exists()


def test_polyhedron_gen_pentakis(tmp_path, capsys):
    out = tmp_path / "pent.txt"
    assert run(["polyhedron", "gen", "--solid", "pentakisdodecahedron",
                "--out", str(out)]) == 0
    assert run(["polyhedron", "eta", "--in", str(out)]) == 0
    text = capsys.readouterr().out
    eta = float(text.split("eta   = ")[1].split()[0])
    assert abs(eta - 0.9226) < 1e-3
    # the octahedron's faces lie at distance 1/sqrt(3), exactly
    out = tmp_path / "oct.txt"
    assert run(["polyhedron", "gen", "--solid", "octahedron", "--out", str(out)]) == 0
    assert run(["polyhedron", "eta", "--in", str(out)]) == 0
    assert "eta^2 = 1/3 = " in capsys.readouterr().out
    # a vertex file may hold comment lines and blank lines
    first, *rest = out.read_text().splitlines(keepends=True)
    out.write_text("".join(["# the octahedron\n", first, "\n", *rest]))
    assert run(["polyhedron", "eta", "--in", str(out)]) == 0
    assert "eta^2 = 1/3 = " in capsys.readouterr().out


def test_solve_upper_chsh(tmp_path, capsys):
    cert = tmp_path / "up.cert"
    code = run(["solve", "upper", "--state", "werner", "--m", "2",
                "--v0", "0.75", "--seed", "1", "--out", str(cert)])
    assert code == 0
    out = capsys.readouterr().out
    v_up = float(out.split("v_up = ")[1].split()[0])
    assert abs(v_up - 0.70711) < 1e-3
    assert (tmp_path / "up.cert.run.json").exists()


# main(argv) in a fresh interpreter, then whether numpy.random was ever imported
_FRESH_MAIN = ("import sys; from localpolytope.cli import main; code = main(sys.argv[1:]); "
               "print('numpy.random' in sys.modules); sys.exit(code)")


def test_solve_and_verify_never_import_numpy_random(tmp_path):
    # the oracle draws from the stdlib generator; pytest itself loads
    # numpy.random, so only a fresh interpreter can tell
    low, up = str(tmp_path / "low.cert"), str(tmp_path / "up.cert")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for argv in (["solve", "lower", "--m", "6", "--v0", "0.5", "--restarts", "50",
                  "--out", low],
                 ["solve", "upper", "--state", "werner", "--m", "2", "--v0", "0.75",
                  "--out", up],
                 ["certify", "verify", "--in", low]):
        proc = subprocess.run([sys.executable, "-c", _FRESH_MAIN, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.splitlines()[-1] == "False", proc.stdout


def test_solve_lower_chsh(tmp_path, capsys):
    cert = tmp_path / "low.cert"
    code = run(["solve", "lower", "--state", "werner", "--m", "2",
                "--v0", "0.70", "--seed", "1", "--out", str(cert)])
    assert code == 0
    out = capsys.readouterr().out
    v_low = float(out.split("v_low = ")[1].split()[0])
    assert v_low >= 0.69
    assert run(["certify", "verify", "--in", str(cert)]) == 0



@pytest.mark.parametrize("v0", ["0", "1e-400"])
def test_solve_lower_at_a_vanishing_v0_writes_a_valid_certificate(tmp_path, capsys, v0):
    # v_low = 0 has no 1/v_low; at 1e-400 that bound is past the float range
    cert = tmp_path / "v.cert"
    assert run(["solve", "lower", "--m", "6", "--v0", v0, "--restarts", "300",
                "--out", str(cert)]) == 0
    assert run(["certify", "verify", "--in", str(cert)]) == 0
    out, err = capsys.readouterr()
    assert "VALID lower certificate" in out and err == ""
    assert ("K_G(3) <= 1/v_low = 1.58359e+400" in out) == (v0 == "1e-400")


def test_run_record_has_stage_times(tmp_path):
    cert = tmp_path / "m6.cert"
    assert run(["solve", "lower", "--m", "6", "--v0", "0.60", "--seed", "2",
                "--restarts", "300", "--out", str(cert)]) == 0
    meta = json.loads((tmp_path / "m6.cert.run.json").read_text())
    assert set(meta["stages"]) == {"build", "solve", "rationalize", "hull",
                                   "assemble", "verify", "write"}
    assert all(t >= 0 for t in meta["stages"].values())
    assert meta["elapsed_seconds"] == meta["stages"]["solve"]
    # what the solver did, next to the stage times
    solver = meta["solver"]
    assert set(solver["steps"]) == {"pairwise", "drop", "fw", "null", "face"}
    assert sum(solver["steps"].values()) == meta["iterations"]
    assert solver["oracle_calls"] == meta["lmo_calls"]
    assert 0 < solver["oracle_seconds"] <= meta["stages"]["solve"]
    assert solver["peak_atoms"] >= 1
    assert meta["peak_rss_mb"] > 0
    assert solver["oracle_rounds"] >= solver["oracle_calls"]
    assert 0 <= solver["oracle_early_exits"] <= solver["steps"]["fw"]
    assert 0 < solver["extra_atoms"] <= EXTRA_ATOMS * solver["oracle_early_exits"]


def test_werner_m16_upper_separates_well_before_the_cap(tmp_path, capsys):
    # pairwise steps alone ground this run to the 10^6 cap at distance 0.278;
    # face steps end it separated with the same certificate
    cert = tmp_path / "w16.cert"
    assert run(["solve", "upper", "--state", "werner", "--m", "16", "--v0", "0.75",
                "--restarts", "100", "--seed", "0", "--out", str(cert)]) == 0
    assert "certified upper bound v_up = 0.714707 (ell = 283988)" in capsys.readouterr().out
    meta = json.loads((tmp_path / "w16.cert.run.json").read_text())
    assert meta["status"] == "separated"
    assert meta["iterations"] < 100_000
    assert meta["solver"]["steps"]["face"] > 0


def test_run_record_written_on_inconclusive_exit(tmp_path):
    out = tmp_path / "inside.cert"
    assert run(["solve", "upper", "--state", "werner", "--m", "2",
                "--v0", "0.60", "--seed", "1", "--out", str(out)]) == 2
    assert not out.exists()
    meta = json.loads((tmp_path / "inside.cert.run.json").read_text())
    assert set(meta["stages"]) == {"build", "solve"}
    assert meta["status"] == "converged_inside"


def test_solve_lower_outside_the_polytope_is_inconclusive(tmp_path, capsys):
    out = tmp_path / "C"
    assert run(["solve", "lower", "--state", "werner", "--m", "6", "--v0", "0.9",
                "--restarts", "50", "--seed", "0", "--out", str(out)]) == 2
    assert "inconclusive: no convex decomposition within tolerance" in capsys.readouterr().out
    assert not out.exists()
    meta = json.loads((tmp_path / "C.run.json").read_text())
    assert meta["status"] == "separated"
    assert list(meta["stages"]) == ["build", "solve"]


EXACT_STAGES = ["build", "solve", "rationalize", "hull", "assemble", "verify", "write"]


@pytest.mark.parametrize("v0, cap, code, message, stages", [
    ("0.55", "1000", 0, "certified lower bound v_low = 0.460141 for all projective measurements",
     EXACT_STAGES),
    ("0.9", "1000", 2, "certificate assembly failed: residual too large: nu = 0.4008 < 0.5",
     ["build", "solve"]),
    ("0.9", "1000000", 2, "inconclusive: no convex decomposition within tolerance",
     ["build", "solve"]),
], ids=["capped", "capped-far-outside", "separated"])
def test_capped_lower_runs_certify_their_iterate(tmp_path, capsys, v0, cap, code, message,
                                                 stages):
    # a separated run, and one whose float nu misses 1/2 by more than rounding, are
    # refused before the exact stages; the exact rule prices the rest
    out = tmp_path / "C"
    assert run(["solve", "lower", "--state", "werner", "--m", "16", "--v0", v0,
                "--restarts", "100", "--seed", "0", "--max-iter", cap, "--out", str(out)]) == code
    assert message in capsys.readouterr().out
    meta = json.loads((tmp_path / "C.run.json").read_text())
    assert meta["status"] == ("separated" if cap == "1000000" else "iteration_cap")
    assert list(meta["stages"]) == stages
    assert out.exists() == (code == 0)
    if code == 0:
        assert run(["certify", "verify", "--in", str(out)]) == 0
        assert "VALID lower certificate: v = 0.460141" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["--state", "singlet"], ["--tol", "1e-6"]])
def test_solve_has_no_singlet_alias_or_tol(capsys, argv):
    assert run(["solve", "lower", "--m", "2", "--v0", "0.5", *argv]) == 1
    assert capsys.readouterr().err.startswith("error: ")


# sha256 of the certificates that the bench's solve workloads (seeds 0-3) and
# README's solve commands write; a change to any solver trajectory or to the
# certificate stages shows here first
LOWER_M16 = ["solve", "lower", "--state", "werner", "--m", "16", "--v0", "0.55",
             "--restarts", "100"]
GHZ3_M6 = ["solve", "upper", "--state", "ghz", "--N", "3", "--m", "6", "--v0", "0.80",
           "--restarts", "300"]
PINNED_CERTIFICATES = {
    "lower-m16-s0": (LOWER_M16 + ["--seed", "0"],
                     "573bde0e7c5757e7de21346ae689fce3389570b4c38f89d84ec89f9d40cbfeb5"),
    "lower-m16-s1": (LOWER_M16 + ["--seed", "1"],
                     "b446d1d70836f22a2b8161fdfde1fa389f1d5bf5623582e868d3e1bf6a049b1f"),
    "lower-m16-s2": (LOWER_M16 + ["--seed", "2"],
                     "81d4757282631875e2d2fed76b6deb7a25a83dc1efaa6722f471562b542223ba"),
    "lower-m16-s3": (LOWER_M16 + ["--seed", "3"],
                     "4e3850e7083b4067b1cbb28d7461d88d709c57c3588e3549dac7313cd768ddb3"),
    **{f"ghz3-m6-s{seed}": (GHZ3_M6 + ["--seed", str(seed)],
                            "6059b7a52f9395f8b8590e0372aab0279b58344bd3054224e7d21b82ae947438")
       for seed in range(4)},
    "readme-m6": (["solve", "lower", "--state", "werner", "--m", "6", "--v0", "0.60",
                   "--seed", "2"],
                  "b37a7ee57bd52e346316d777d33d5af32f3573adc2a4300a1ee8a872ed3be0aa"),
    "readme-chsh": (["solve", "upper", "--state", "werner", "--m", "2", "--v0", "0.75"],
                    "cd5cb15e4feed45cab4da9c5708cfdc73dd0c6bc440a485ad909819d0a863496"),
    "readme-ghz": (["solve", "upper", "--state", "ghz", "--N", "3", "--polygon", "--m", "2",
                    "--v0", "0.55"],
                   "adf90be2dafa38aeeba79c350d6bb1d0273618417d0399ae3263e1d05939fa54"),
}


@pytest.mark.parametrize("name", PINNED_CERTIFICATES)
def test_written_certificates_match_their_pinned_digests(tmp_path, name):
    argv, digest = PINNED_CERTIFICATES[name]
    out = tmp_path / "C"
    assert run([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def _refuse(*args, **kwargs):
    raise CertificateError("refused here")


@pytest.mark.parametrize("mode, v0, stage, fake, code, message", [
    ("lower", "0.60", "assemble_lower", _refuse, 2, "certificate assembly failed: refused here"),
    ("upper", "0.75", "assemble_upper", _refuse, 2,
     "inconclusive: no violation after integerization"),
    ("upper", "0.75", "verify", lambda cert: (False, "refused here"), 1,
     "certificate failed self-verification: refused here"),
], ids=["assemble-lower", "assemble-upper", "verify"])
def test_solve_exits_when_a_certificate_stage_fails(tmp_path, monkeypatch, capsys,
                                                    mode, v0, stage, fake, code, message):
    monkeypatch.setattr(cli, stage, fake)
    out = tmp_path / "c.cert"
    assert run(["solve", mode, "--state", "werner", "--m", "2", "--v0", v0,
                "--out", str(out)]) == code
    assert message in capsys.readouterr().out
    assert not out.exists()


def test_run_record_names_the_command_main_parsed(tmp_path, monkeypatch):
    # main(argv) called from Python records its argv, not the process's
    monkeypatch.setattr(sys, "argv", ["ignored", "x"])
    argv = ["solve", "upper", "--state", "werner", "--m", "2", "--v0", "0.60",
            "--seed", "1", "--out", str(tmp_path / "inside.cert")]
    assert run(argv) == 2
    meta = json.loads((tmp_path / "inside.cert.run.json").read_text())
    assert meta["command"] == " ".join(argv)


def test_solve_ghz_polygon_upper(tmp_path, capsys):
    cert = tmp_path / "ghz.cert"
    code = run(["solve", "upper", "--state", "ghz", "--N", "3", "--polygon",
                "--m", "2", "--v0", "0.55", "--seed", "1", "--out", str(cert)])
    assert code == 0
    with open(cert) as fp:
        c = read_certificate(fp)
    assert c.v_up == Fraction(1, 2)


def test_solve_five_party_ghz_upper(tmp_path, capsys):
    cert = tmp_path / "ghz5.cert"
    code = run(["solve", "upper", "--state", "ghz", "--N", "5", "--polygon",
                "--m", "2", "--v0", "0.5", "--restarts", "50", "--out", str(cert)])
    assert code == 0
    assert "v_up = 0.250000" in capsys.readouterr().out
    assert run(["certify", "verify", "--in", str(cert)]) == 0


def test_solve_decide_exit_codes():
    assert run(["solve", "decide", "--state", "werner", "--m", "2",
                "--v0", "0.65", "--seed", "1"]) == 0
    assert run(["solve", "decide", "--state", "werner", "--m", "2",
                "--v0", "0.75", "--seed", "1"]) == 2


def test_solve_upper_inside_is_inconclusive():
    assert run(["solve", "upper", "--state", "werner", "--m", "2",
                "--v0", "0.60", "--seed", "1"]) == 2


def test_solve_custom_tensor(tmp_path):
    t = ghz_polygon_tensor(3, 2)
    path = tmp_path / "ghz.tensor"
    with open(path, "w") as fp:
        write_tensor(t, fp)
    cert = tmp_path / "c.cert"
    code = run(["solve", "upper", "--state", "custom", "--tensor", str(path),
                "--v0", "0.55", "--seed", "3", "--out", str(cert)])
    assert code == 0
    with open(cert) as fp:
        c = read_certificate(fp)
    assert c.v_up == Fraction(1, 2)


def test_bound_command(tmp_path, capsys):
    sc = Scenario(2, 2, marginals=False)
    M = CorrelationTensor(sc, np.array([[1, 1], [1, -1]], dtype=object))
    path = tmp_path / "chsh.tensor"
    with open(path, "w") as fp:
        write_tensor(M, fp)
    assert run(["bound", "--functional", str(path), "--exact"]) == 0
    out = capsys.readouterr().out
    assert "local bound = 2 (exact)" in out


def test_bound_rejects_inexact_request(tmp_path):
    sc = Scenario(2, 2, marginals=False)
    M = CorrelationTensor(sc, np.array([[0.5, 0.0], [0.0, 0.0]]))
    path = tmp_path / "f.tensor"
    with open(path, "w") as fp:
        write_tensor(M, fp)
    assert run(["bound", "--functional", str(path), "--exact"]) == 1


def test_certify_rejects_mutation(tmp_path, capsys):
    cert = tmp_path / "low.cert"
    assert run(["solve", "lower", "--state", "werner", "--m", "2",
                "--v0", "0.70", "--seed", "1", "--out", str(cert)]) == 0
    text = cert.read_text()
    vline = [ln for ln in text.splitlines() if ln.startswith("V_LOW")][0]
    broken = text.replace(vline, "V_LOW 99/100")
    bad = tmp_path / "bad.cert"
    bad.write_text(broken)
    assert run(["certify", "verify", "--in", str(bad)]) == 1



@pytest.fixture(scope="module")
def chsh_lower_text(tmp_path_factory):
    cert = tmp_path_factory.mktemp("cert") / "low.cert"
    assert run(["solve", "lower", "--state", "werner", "--m", "2",
                "--v0", "0.70", "--seed", "1", "--out", str(cert)]) == 0
    return cert.read_text()


@pytest.mark.parametrize("key, broken", [
    ("V0", "V0"),                  # keyword without its value
    ("V0", "V0 1/0"),              # zero denominator
    ("RESIDUAL_SQ", "RESIDUAL"),   # renamed keyword
])
def test_certify_malformed_line_is_a_clean_error(chsh_lower_text, tmp_path, capsys,
                                                 key, broken):
    line = [ln for ln in chsh_lower_text.splitlines() if ln.split()[0] == key][0]
    bad = tmp_path / "bad.cert"
    bad.write_text(chsh_lower_text.replace(line, broken))
    capsys.readouterr()
    assert run(["certify", "verify", "--in", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err and "error:" in err


def test_million_digit_numbers_are_a_quick_clean_error(chsh_lower_text, tmp_path,
                                                       monkeypatch, capsys):
    # past every digit limit: no quadratic-time parse, no traceback
    monkeypatch.chdir(tmp_path)
    big = "7" * 10**6
    line = [ln for ln in chsh_lower_text.splitlines() if ln.startswith("RESIDUAL_SQ")][0]
    (tmp_path / "c.cert").write_text(chsh_lower_text.replace(line, "RESIDUAL_SQ 1/" + big))
    (tmp_path / "t.txt").write_text(f"2 2 false\n{big} 1 1 -1\n")
    for argv in (["certify", "verify", "--in", "c.cert"],
                 ["solve", "upper", "--state", "custom", "--tensor", "t.txt", "--v0", "0.8"]):
        capsys.readouterr()
        t0 = time.perf_counter()
        assert run(argv) == 1
        assert time.perf_counter() - t0 < 3
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and "digits" in err and "VALID" not in out


def test_failed_write_leaves_the_old_file_and_no_temporary(tmp_path, monkeypatch, capsys):
    out = tmp_path / "up.cert"
    out.write_text("old\n")

    def broken(cert, fp):
        fp.write("UPPER-CERT")
        raise OSError("disk full")

    monkeypatch.setattr(cli, "write_certificate", broken)
    assert run(["solve", "upper", "--state", "werner", "--m", "2", "--v0", "0.75",
                "--out", str(out)]) == 1
    assert "error: disk full" in capsys.readouterr().err
    assert out.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["up.cert", "up.cert.run.json"]


def test_report_table_and_csv(tmp_path, capsys):
    low = tmp_path / "low.cert"
    up = tmp_path / "up.cert"
    assert run(["solve", "lower", "--state", "werner", "--m", "2",
                "--v0", "0.69", "--seed", "1", "--out", str(low)]) == 0
    assert run(["solve", "upper", "--state", "werner", "--m", "2",
                "--v0", "0.7072", "--seed", "1", "--out", str(up)]) == 0
    capsys.readouterr()
    csv = tmp_path / "r.csv"
    assert run(["report", str(low), str(up), "--csv", str(csv)]) == 0
    out = capsys.readouterr().out
    assert "v_low" in out and "singlet" in out
    assert csv.exists() and len(csv.read_text().splitlines()) == 3


def test_report_flags_corrupted_file(tmp_path, capsys):
    bad = tmp_path / "junk.cert"
    bad.write_text("not a certificate\n")
    assert run(["report", str(bad)]) == 1
    assert "INVALID" in capsys.readouterr().out


def test_report_empty_is_ok(capsys):
    assert run(["report"]) == 0


@pytest.mark.parametrize("record, runtime", [
    ('{"elapsed_seconds": 1.5}', "1.50"),
    ("[1, 2]", ""),
    ('{"elapsed_seconds": null}', ""),
    ("not json {", ""),
    ('{"elapsed_seconds": "3"}', ""),
], ids=["well-formed", "list", "null", "not-json", "string"])
def test_report_leaves_a_malformed_run_record_blank(chsh_lower_text, tmp_path, capsys,
                                                    record, runtime):
    cert, csv = tmp_path / "low.cert", tmp_path / "r.csv"
    cert.write_text(chsh_lower_text)
    (tmp_path / "low.cert.run.json").write_text(record)
    capsys.readouterr()
    assert run(["report", str(cert), "--csv", str(csv)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert csv.read_text().splitlines()[1].split(",")[-1] == runtime


def test_reproducible_certificates(tmp_path):
    a = tmp_path / "a.cert"
    b = tmp_path / "b.cert"
    for path in (a, b):
        assert run(["solve", "lower", "--state", "werner", "--m", "2",
                    "--v0", "0.70", "--seed", "7", "--out", str(path)]) == 0
    assert a.read_text() == b.read_text()


def _twice(tmp_path, argv):
    """Certificate text, iterations, step counts, calls and run record's
    solver counters of two runs of the same command."""
    runs = []
    for name in ("a.cert", "b.cert"):
        path = tmp_path / name
        assert run([*argv, "--out", str(path)]) == 0
        meta = json.loads((tmp_path / (name + ".run.json")).read_text())
        runs.append((path.read_text(), meta["iterations"], meta["solver"]["steps"],
                     meta["lmo_calls"], meta["solver"]["extra_atoms"]))
    assert runs[0] == runs[1]
    return runs[0]


def test_reproducible_separated_certificates(tmp_path):
    # a separated run ends in null steps that reuse the call behind the one
    # before them; the seed still advances, so the certificate is reproducible
    _, _, steps, calls, _ = _twice(tmp_path, ["solve", "upper", "--state", "ghz", "--N", "3",
                                              "--m", "6", "--v0", "0.80", "--restarts", "300",
                                              "--seed", "0"])
    assert 1 + steps["fw"] + steps["null"] - calls > 0  # the reuse fired
    # a lower run whose oracle calls bring extra atoms along
    extra = _twice(tmp_path, ["solve", "lower", "--state", "werner", "--m", "16", "--v0", "0.55",
                              "--restarts", "100", "--seed", "0"])[4]
    assert extra > 0


@pytest.mark.parametrize("flag, value", [("--eps", "-1"), ("--eps", "0"), ("--restarts", "0"),
                                         ("--max-iter", "-5"), ("--eps", "1e200"),
                                         ("--eps", "inf"), ("--eps", "1e-200")])
def test_solve_rejects_bad_solver_settings(capsys, flag, value):
    capsys.readouterr()
    assert run(["solve", "decide", "--m", "6", "--v0", "0.5", "--restarts", "50",
                flag, value]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and "status=" not in out


@pytest.mark.parametrize("argv", [
    ["upper", "--state", "ghz", "--N", "3", "--polygon", "--m", "14", "--v0", "1",
     "--restarts", "0"],
    ["lower", "--state", "w", "--m", "6", "--v0", "0.25", "--eps", "-1"],
], ids=["upper-past-cap", "lower-marginals"])
def test_bad_solver_settings_are_an_error_before_a_refusal(capsys, argv):
    # each command would be refused, but a bad setting is the user's to fix
    capsys.readouterr()
    assert run(["solve", *argv]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and "inconclusive" not in out


def test_unknown_m_is_an_error(capsys):
    assert run(["solve", "decide", "--state", "werner", "--m", "7",
                "--v0", "0.5"]) == 1
    assert "no built-in polyhedron" in capsys.readouterr().err



def test_geodesic_schedules_match_their_input_counts(capsys):
    for m, schedule in GEODESIC_SCHEDULES.items():
        assert len(geodesic_icosahedron(schedule)) == 2 * m
    assert run(["solve", "decide", "--state", "werner", "--m", "91",
                "--v0", "0.5"]) == 1
    assert "no built-in polyhedron" in capsys.readouterr().err

def test_usage_error_exit_code():
    assert run(["solve", "lower"]) == 1  # missing --v0


def test_solve_ghz_polygon_lower(tmp_path):
    cert = tmp_path / "ghz_low.cert"
    code = run(["solve", "lower", "--state", "ghz", "--N", "3", "--polygon",
                "--m", "2", "--v0", "0.45", "--seed", "1", "--out", str(cert)])
    assert code == 0
    with open(cert) as fp:
        c = read_certificate(fp)
    assert c.scenario == Scenario(3, 2, marginals=False)
    assert float(c.v_low) >= 0.4499
    assert run(["certify", "verify", "--in", str(cert)]) == 0


@pytest.mark.filterwarnings("ignore:target tensor is not rational")
def test_solve_w_lower_is_refused(capsys):
    # tensors with marginal coordinates are outside the certified domain
    code = run(["solve", "lower", "--state", "w", "--m", "6", "--v0", "0.25",
                "--seed", "1", "--restarts", "100", "--eps", "1e-5"])
    assert code == 2
    assert "full-correlation" in capsys.readouterr().out


def test_solve_ghz_polygon_m3_exact_lower(tmp_path):
    # cos(k pi / 3) is rational, so the whole tripartite chain stays exact
    cert = tmp_path / "ghz3.cert"
    code = run(["solve", "lower", "--state", "ghz", "--N", "3", "--polygon",
                "--m", "3", "--v0", "0.40", "--seed", "1", "--out", str(cert)])
    assert code == 0
    with open(cert) as fp:
        c = read_certificate(fp)
    assert c.scenario == Scenario(3, 3, marginals=False)
    assert isinstance(c.residual_sq, Fraction)
    assert float(c.v_low) >= 0.3999
    assert run(["certify", "verify", "--in", str(cert)]) == 0


def test_solve_with_polyhedron_file(tmp_path):
    verts = tmp_path / "ico.txt"
    assert run(["polyhedron", "gen", "--schedule", "", "--tol", "1e-6",
                "--out", str(verts)]) == 0
    cert = tmp_path / "c.cert"
    code = run(["solve", "lower", "--state", "werner", "--polyhedron", str(verts),
                "--v0", "0.60", "--seed", "2", "--out", str(cert)])
    assert code == 0
    with open(cert) as fp:
        c = read_certificate(fp)
    assert c.eta_sq is not None
    assert float(c.v_low) >= 0.378


def _write_chsh_corner_cert(path, scale, ell, m=2):
    # ELL and V_UP = ELL / Q pass the rule, so that only the enumeration refutes them
    cert = chsh_corner_cert(Scenario(2, m, marginals=False),
                            [[scale, scale], [scale, -scale]], ell)
    with open(path, "w") as fp:
        write_certificate(cert, fp)


# 2^62 CHSH has local bound 2^63, which wraps to -2^63 in int64
@pytest.mark.parametrize("scale, ell, code, verdict", [
    (2**62, 2**63 - 1, 1, "INVALID certificate: local bound mismatch"),
    (2**62, 2**63, 0, "VALID upper certificate"),
    (2**70, 2**71, 0, "VALID upper certificate"),
    (2**70, 2**71 - 1, 1, "INVALID certificate: local bound mismatch"),
], ids=["int64-wrap", "int64-wrap-honest", "2^70", "2^70-understated"])
def test_certify_huge_functional_entries(tmp_path, capsys, scale, ell, code, verdict):
    path = tmp_path / "big.cert"
    _write_chsh_corner_cert(path, scale, ell)
    capsys.readouterr()
    assert run(["certify", "verify", "--in", str(path)]) == code
    out, err = capsys.readouterr()
    assert verdict in out
    assert "Traceback" not in err


# Alice's rows have |a|^2 - 1 = 8e-10, inside the unit tolerance, so Q exceeds
# ELL by 8e-10; Bob measures one direction twice, which is local at any visibility
FORGED_FLOAT_CERT = """UPPER-CERTIFICATE
SCENARIO 2 2 false
TARGET singlet
MEASUREMENTS_A 2
1.0000000004 0.0 0.0
0.0 0.0 1.0000000004
MEASUREMENTS_B 2
1.0 0.0 0.0
1.0 0.0 0.0
M
2 2 false
-1 -1
-1 1
ELL 2
Q 2.0000000008 TOL 1e-09
V_UP 0.9999999996
END
"""

# (N-1)*m = 26, at the enumeration cap: <M, p> = 169, far from the claimed Q
FORGED_M26_CERT = ("UPPER-CERTIFICATE\nSCENARIO 2 26 false\nTARGET tensor\nTENSOR\n2 26 false\n"
                   + "1/4 " * 676 + "\nM\n2 26 false\n" + "1 " * 676
                   + "\nELL 5\nQ 1000000\nV_UP 1/200000\nEND\n")


def test_certify_refutes_a_false_quantum_value_before_enumerating(tmp_path, monkeypatch,
                                                                 capsys):
    def never(*args, **kwargs):
        raise AssertionError("the local bound was enumerated")

    monkeypatch.setattr(certify, "local_bound", never)
    path = tmp_path / "m26.cert"
    path.write_text(FORGED_M26_CERT)
    capsys.readouterr()
    assert run(["certify", "verify", "--in", str(path)]) == 1
    assert capsys.readouterr().out == "INVALID certificate: quantum value mismatch\n"


# past the enumeration cap, so ELL is not enumerated: q = 0 and a negative ELL
ZERO_Q_CERT = ("UPPER-CERTIFICATE\nSCENARIO 2 27 false\nTARGET tensor\nTENSOR\n2 27 false\n"
               + "0/1 " * 729 + "\nM\n2 27 false\n1 " + "0 " * 728
               + "\nELL -1\nQ 0\nV_UP 1\nEND\n")


@pytest.mark.parametrize("text, reason", [
    (FORGED_FLOAT_CERT,
     "no violation: quantum value does not exceed the local bound by more than the tolerance"),
    (ZERO_Q_CERT, "local bound is negative"),
    (ZERO_Q_CERT.replace("Q 0\nV_UP 1", "Q 0.0 TOL 1e-09\nV_UP 1.0"), "local bound is negative"),
], ids=["float-within-tolerance", "zero-q-exact", "zero-q-float"])
def test_certify_refuses_claims_that_assembly_refuses(tmp_path, capsys, text, reason):
    path = tmp_path / "forged.cert"
    path.write_text(text)
    capsys.readouterr()
    assert run(["certify", "verify", "--in", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == f"INVALID certificate: {reason}\n"
    assert err == ""


def _lower_header_cert(m, target):
    """A lower certificate for ``SCENARIO 2 m false``: one atom, no polyhedron."""
    rows, measurements = "1 0 0\n" * m, ""
    if target == "singlet":
        measurements = f"MEASUREMENTS_A {m}\n{rows}MEASUREMENTS_B {m}\n{rows}"
    return (f"LOWER-CERTIFICATE\nSCENARIO 2 {m} false\nTARGET {target}\n{measurements}"
            f"ETA_SQ none\nV0 1/2\nATOMS 1\n{'+' * m}|{'+' * m}\nWEIGHTS 1\n1\n"
            "RESIDUAL_SQ 0\nNU 1\nV_LOW 1/2\nEND\n")


@pytest.mark.parametrize("m, target", [(1025, "singlet"), (10**4, "singlet"),
                                       (10**4, "ghz-polygon")])
def test_certify_refuses_lower_scenarios_past_the_entry_cap(tmp_path, monkeypatch, capsys,
                                                           m, target):
    # m^2 > EXACT_ENTRIES = 2^20: refused from the header, before any dense target
    def never(*args, **kwargs):
        raise AssertionError("a dense target was built")

    monkeypatch.setattr(certify, "singlet_tensor", never)
    monkeypatch.setattr(certify, "ghz_polygon_tensor", never)
    path = tmp_path / "big.cert"
    path.write_text(_lower_header_cert(m, target))
    capsys.readouterr()
    t0 = time.perf_counter()
    assert run(["certify", "verify", "--in", str(path)]) == 1
    assert time.perf_counter() - t0 < 1
    assert capsys.readouterr().out == ("INVALID certificate: lower certificates cover at most "
                                       f"{certify.EXACT_ENTRIES} entries, not {m * m}\n")


def test_certify_and_report_unproven_past_the_cap(tmp_path, capsys):
    path = tmp_path / "m27.cert"
    _write_chsh_corner_cert(path, 1, 2, m=27)
    capsys.readouterr()
    assert run(["certify", "verify", "--in", str(path)]) == 2
    assert "UNPROVEN upper certificate: local bound past" in capsys.readouterr().out
    assert run(["report", str(path)]) == 1
    out = capsys.readouterr().out
    assert "UNPROVEN: local bound past" in out and "VALID" not in out


def test_solve_upper_past_the_cap_is_inconclusive(tmp_path, capsys):
    out = tmp_path / "m14.cert"
    assert run(["solve", "upper", "--state", "ghz", "--N", "3", "--polygon", "--m", "14",
                "--v0", "1", "--restarts", "50", "--max-iter", "200",
                "--out", str(out)]) == 2
    assert "inconclusive: exact local bound unavailable at this size" in capsys.readouterr().out
    assert not out.exists()


def test_solve_upper_three_party_m9_is_certified(tmp_path, capsys):
    # (N-1)*m = 18 enumerated signs; the old cap on N*m = 27 refused it
    cert = tmp_path / "ghz9.cert"
    assert run(["solve", "upper", "--state", "ghz", "--N", "3", "--polygon", "--m", "9",
                "--v0", "1", "--restarts", "50", "--out", str(cert)]) == 0
    assert "v_up = 0.522831 (ell = 1837092)" in capsys.readouterr().out
    assert run(["certify", "verify", "--in", str(cert)]) == 0
    # the exact oracle confirmed the last null step
    assert json.loads((tmp_path / "ghz9.cert.run.json").read_text())["solver"]["exact_calls"] >= 1


@pytest.fixture(scope="module")
def ghz_m6_upper_text(tmp_path_factory):
    cert = tmp_path_factory.mktemp("cert") / "ghz.cert"
    assert run(["solve", "upper", "--state", "ghz", "--N", "3", "--m", "6", "--v0", "0.80",
                "--restarts", "300", "--seed", "0", "--out", str(cert)]) == 0
    return cert.read_text()


def test_certify_unknown_target_kind_is_invalid(ghz_m6_upper_text, tmp_path, capsys):
    # the reader accepts any target kind; verify rejects it when it rebuilds the target
    lines = ghz_m6_upper_text.splitlines(keepends=True)
    start, stop = lines.index("TARGET tensor\n"), lines.index("M\n")
    assert lines[start + 1] == "TENSOR\n"
    bad = tmp_path / "bad.cert"
    bad.write_text("".join(lines[:start] + ["TARGET bogus\n"] + lines[stop:]))
    capsys.readouterr()
    assert run(["certify", "verify", "--in", str(bad)]) == 1
    out, err = capsys.readouterr()
    assert out == ("INVALID certificate: target reconstruction failed: "
                   "unknown target kind 'bogus'\n")
    assert err == ""


NAN_TARGET_CERT = """UPPER-CERTIFICATE
SCENARIO 2 2 false
TARGET tensor
TENSOR
2 2 false
nan 0.7
0.7 -0.7
M
2 2 false
1 1
1 -1
ELL 2
Q nan TOL 0.0
V_UP 0.1
END
"""


# the same with a finite tensor, so that the reader gets past it
CHSH_TARGET_CERT = NAN_TARGET_CERT.replace("nan 0.7", "0.7 0.7").replace("Q nan", "Q 1.4")


@pytest.mark.parametrize("files, argv, message", [
    ({"v.txt": "1/0 0 0\n"}, ["polyhedron", "eta", "--in", "v.txt"], "bad vertex line"),
    ({"v.txt": "1/0 0 0\n"}, ["solve", "lower", "--polyhedron", "v.txt", "--v0", "0.5"],
     "bad vertex line"),
    ({"f.txt": "2 2 false\n1/0 1 1 -1\n"}, ["bound", "--functional", "f.txt"],
     "zero denominator"),
    ({"f.txt": "2 2 false\ninf 1 1 -1\n"}, ["bound", "--functional", "f.txt"],
     "non-finite number 'inf'"),
    ({}, ["polyhedron", "gen", "--tol", "1e-30", "--out", "g.txt"], "did not converge"),
    ({"t.txt": "2 2 false\nnan 0.5 0.5 -0.5\n"},
     ["solve", "upper", "--state", "custom", "--tensor", "t.txt", "--v0", "0.8"],
     "non-finite number 'nan'"),
    ({"c.cert": NAN_TARGET_CERT}, ["certify", "verify", "--in", "c.cert"],
     "malformed certificate"),
    ({"c.cert": NAN_TARGET_CERT.replace("Q nan", "Q 5.0")},
     ["certify", "verify", "--in", "c.cert"], "malformed certificate"),
    ({}, ["solve", "lower", "--m", "2", "--v0", "1/0"], "zero denominator"),
    ({}, ["polyhedron", "gen"], "needs --out"),
    ({}, ["solve", "lower", "--m", "2", "--v0", "1e400"], "v0 must lie in [0, 1]"),
    ({}, ["solve", "lower", "--m", "2", "--v0", "2"], "v0 must lie in [0, 1]"),
    ({"v.txt": "1 0 0\n-1 0 0\n1 0 0\n-1 0 0\n"}, ["polyhedron", "eta", "--in", "v.txt"],
     "all points collinear"),
    ({"v.txt": "1 0 0\n-1 0 0\n0 1 0\n0 -1 0\n0 0 1\n"},
     ["solve", "lower", "--polyhedron", "v.txt", "--v0", "0.5"], "not closed under antipodes"),
    ({}, ["solve", "lower", "--state", "werner", "--polygon", "--m", "2", "--v0", "0.5"],
     "only meaningful for the GHZ state"),
    ({}, ["solve", "lower", "--state", "custom", "--v0", "0.5"], "needs --tensor FILE"),
    ({"f.txt": "2 2 maybe\n1 1 1 -1\n"}, ["bound", "--functional", "f.txt"],
     "bad marginals flag 'maybe'"),
    ({"c.cert": CHSH_TARGET_CERT.replace("TENSOR\n2 2 false\n0.7 0.7\n0.7 -0.7\n", "")},
     ["certify", "verify", "--in", "c.cert"], "missing TENSOR section"),
    ({"c.cert": CHSH_TARGET_CERT.replace("Q 1.4 TOL 0.0", "Q 1.4 FOO 0.0")},
     ["certify", "verify", "--in", "c.cert"], "expected a Q line"),
    ({"v.txt": "1 0 0\n-1 0 0\n0 1 0\n"}, ["polyhedron", "eta", "--in", "v.txt"],
     "need at least 4 vertices"),
], ids=["vertex-1/0", "solve-vertex-1/0", "tensor-1/0", "tensor-inf", "gen-tol-1e-30",
        "custom-nan", "cert-nan-target", "cert-nan-target-q5", "v0-1/0", "gen-no-out",
        "v0-1e400", "v0-2", "eta-collinear", "polyhedron-not-antipodal",
        "polygon-not-ghz", "custom-no-tensor", "tensor-bad-marginals",
        "cert-missing-tensor", "cert-bad-q-tag", "eta-three-vertices"])
def test_malformed_input_is_a_clean_error(tmp_path, monkeypatch, capsys, files, argv,
                                          message):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    capsys.readouterr()
    assert run(argv) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and message in err and "VALID" not in out


@pytest.mark.parametrize("argv, reason", [
    (["upper", "--state", "ghz", "--N", "3", "--polygon", "--m", "14", "--v0", "1"],
     "exact local bound unavailable at this size"),
    (["lower", "--state", "w", "--m", "6", "--v0", "0.25"], "full-correlation scenario"),
    (["lower", "--state", "ghz", "--N", "3", "--polygon", "--m", "4", "--v0", "0.4"],
     "exact rational target"),
    (["lower", "--state", "ghz", "--N", "2", "--polygon", "--m", "1025", "--v0", "0.4"],
     "lower certificates cover at most 1048576 entries, not 1050625"),
], ids=["upper-past-cap", "lower-marginals", "lower-inexact-target", "lower-past-entry-cap"])
def test_uncertifiable_solve_is_refused_before_the_solver(tmp_path, monkeypatch, capsys,
                                                          argv, reason):
    def never(*args, **kwargs):
        raise AssertionError("the solver ran")

    monkeypatch.setattr(cli, "bpcg", never)
    out = tmp_path / "r.cert"
    assert run(["solve", *argv, "--out", str(out)]) == 2
    assert reason in capsys.readouterr().out
    assert not out.exists()
    meta = json.loads((tmp_path / "r.cert.run.json").read_text())
    assert meta["status"] == "refused" and set(meta["stages"]) == {"build"}

import json
import math

import numpy as np
import pytest
from fractions import Fraction

from localpolytope.cli import GEODESIC_SCHEDULES, main
from localpolytope.certify import read_certificate, write_certificate
from localpolytope.polyhedra import geodesic_icosahedron
from localpolytope.states import ghz_polygon_tensor
from localpolytope.tensor import CorrelationTensor, Scenario, write_tensor
from util import chsh_corner_cert


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


def test_polyhedron_gen_pentakis(tmp_path, capsys):
    out = tmp_path / "pent.txt"
    assert run(["polyhedron", "gen", "--solid", "pentakisdodecahedron",
                "--out", str(out)]) == 0
    assert run(["polyhedron", "eta", "--in", str(out)]) == 0
    text = capsys.readouterr().out
    eta = float(text.split("eta   = ")[1].split()[0])
    assert abs(eta - 0.9226) < 1e-3


def test_solve_upper_chsh(tmp_path, capsys):
    cert = tmp_path / "up.cert"
    code = run(["solve", "upper", "--state", "werner", "--m", "2",
                "--v0", "0.75", "--seed", "1", "--out", str(cert)])
    assert code == 0
    out = capsys.readouterr().out
    v_up = float(out.split("v_up = ")[1].split()[0])
    assert abs(v_up - 0.70711) < 1e-3
    assert (tmp_path / "up.cert.run.json").exists()


def test_solve_lower_chsh(tmp_path, capsys):
    cert = tmp_path / "low.cert"
    code = run(["solve", "lower", "--state", "werner", "--m", "2",
                "--v0", "0.70", "--seed", "1", "--out", str(cert)])
    assert code == 0
    out = capsys.readouterr().out
    v_low = float(out.split("v_low = ")[1].split()[0])
    assert v_low >= 0.69
    assert run(["certify", "verify", "--in", str(cert)]) == 0



def test_run_record_has_stage_times(tmp_path):
    cert = tmp_path / "m6.cert"
    assert run(["solve", "lower", "--m", "6", "--v0", "0.60", "--seed", "2",
                "--restarts", "300", "--out", str(cert)]) == 0
    meta = json.loads((tmp_path / "m6.cert.run.json").read_text())
    assert set(meta["stages"]) == {"build", "solve", "rationalize", "hull",
                                   "assemble", "verify", "write"}
    assert all(t >= 0 for t in meta["stages"].values())
    assert meta["elapsed_seconds"] == meta["stages"]["solve"]


def test_run_record_written_on_inconclusive_exit(tmp_path):
    out = tmp_path / "inside.cert"
    assert run(["solve", "upper", "--state", "werner", "--m", "2",
                "--v0", "0.60", "--seed", "1", "--out", str(out)]) == 2
    assert not out.exists()
    meta = json.loads((tmp_path / "inside.cert.run.json").read_text())
    assert set(meta["stages"]) == {"build", "solve"}
    assert meta["status"] == "converged_inside"

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


def test_reproducible_certificates(tmp_path):
    a = tmp_path / "a.cert"
    b = tmp_path / "b.cert"
    for path in (a, b):
        assert run(["solve", "lower", "--state", "werner", "--m", "2",
                    "--v0", "0.70", "--seed", "7", "--out", str(path)]) == 0
    assert a.read_text() == b.read_text()


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
    cert = chsh_corner_cert(Scenario(2, m, marginals=False),
                            [[scale, scale], [scale, -scale]], ell)
    with open(path, "w") as fp:
        write_certificate(cert, fp)


@pytest.mark.parametrize("scale, ell, code, verdict", [
    (2**62, -2**63, 1, "INVALID certificate: local bound mismatch"),  # int64 wrap
    (2**70, 2**71, 0, "VALID upper certificate"),
    (2**70, 2**71 - 1, 1, "INVALID certificate: local bound mismatch"),
], ids=["int64-wrap", "2^70", "2^70-understated"])
def test_certify_huge_functional_entries(tmp_path, capsys, scale, ell, code, verdict):
    path = tmp_path / "big.cert"
    _write_chsh_corner_cert(path, scale, ell)
    capsys.readouterr()
    assert run(["certify", "verify", "--in", str(path)]) == code
    out, err = capsys.readouterr()
    assert verdict in out
    assert "Traceback" not in err


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

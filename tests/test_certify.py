import dataclasses
import io
import math
import sys
import time

import numpy as np
import pytest
from fractions import Fraction

from localpolytope import certify
from localpolytope.certify import (
    CertificateError,
    _exact_residual_sq,
    LowerBoundCertificate,
    TargetSpec,
    UpperBoundCertificate,
    assemble_lower,
    assemble_upper,
    ball_decomposition,
    derived_bounds,
    integerize_functional,
    nu_factor,
    rationalize_weights,
    read_certificate,
    sqrt_lower,
    sqrt_upper,
    verify,
    write_certificate,
)
from localpolytope.cli import main
from localpolytope.fw import SolverConfig, bpcg
from localpolytope.lmo import local_bound
from localpolytope.polyhedra import (
    RationalPoint,
    antipodal_representatives,
    faces_and_eta,
    geodesic_icosahedron,
    rationalize,
    rationalize_all,
)
from localpolytope.states import ghz_polygon_tensor, singlet_tensor
from localpolytope.tensor import (
    CorrelationTensor,
    DeterministicStrategy,
    Scenario,
    common_denominator,
    exact_operand,
    format_number,
    format_row,
    inner,
    strategy_tensor,
)
from util import ball_reference, chsh_corner_cert, residual_sq_reference

NM22 = Scenario(2, 2, marginals=False)


def unit_rational_tensor(scenario, rng):
    """Random rational tensor with exact unit 2-norm (Householder reflection)."""
    D = scenario.dimension
    u = np.array(
        [Fraction(int(rng.integers(-20, 21)), int(rng.integers(1, 21))) for _ in range(D)],
        dtype=object,
    )
    if not u.any():
        u[0] = Fraction(1)
    e = np.array([Fraction(0)] * D, dtype=object)
    e[int(rng.integers(0, D))] = Fraction(1)
    r = e - 2 * (u @ e) / (u @ u) * u
    assert r @ r == 1
    return CorrelationTensor(scenario, r.reshape(scenario.shape))


# --- rational square roots and nu -------------------------------------------


def test_sqrt_bounds_bracket():
    rng = np.random.default_rng(0)
    for _ in range(50):
        q = Fraction(int(rng.integers(0, 10**6)), int(rng.integers(1, 10**6)))
        lo, hi = sqrt_lower(q), sqrt_upper(q)
        assert lo**2 <= q <= hi**2
        assert (lo + Fraction(1, 10**18)) ** 2 > q  # the tightest such bounds
        assert hi == lo or (hi - Fraction(1, 10**18)) ** 2 < q
        assert hi - lo <= Fraction(2, 10**18)
    assert sqrt_lower(Fraction(9, 4)) == sqrt_upper(Fraction(9, 4)) == Fraction(3, 2)


def test_nu_factor_values():
    assert nu_factor(Fraction(0)) == 1
    assert nu_factor(Fraction(1)) == Fraction(1, 2)
    nu = nu_factor(Fraction(2, 10**4) ** 2)
    assert abs(float(nu) - 0.9998) < 1e-4
    # safe direction: nu never exceeds 1/(1 + sqrt(residual))
    for r in (Fraction(3, 7), Fraction(1, 10**12), Fraction(17, 5) / 10):
        nu = nu_factor(r)
        assert r <= (1 / nu - 1) ** 2


# --- ball decomposition -------------------------------------------------------


def test_ball_zero_tensor():
    bd = ball_decomposition(CorrelationTensor.zeros(NM22, exact=True))
    assert bd.atoms == []
    assert bd.deficit == 1


def test_ball_e12_example():
    e = np.full((2, 2), Fraction(0), dtype=object)
    e[0, 1] = Fraction(1)
    bd = ball_decomposition(CorrelationTensor(NM22, e))
    assert len(bd.atoms) == 4
    assert all(w == Fraction(1, 4) for w in bd.weights)
    assert bd.weight_sum() == 1
    rec = bd.reconstruct()
    assert all(a == b for a, b in zip(rec.entries.reshape(-1), e.reshape(-1)))


@pytest.mark.parametrize("parties,inputs", [(2, 2), (2, 3), (3, 2)])
def test_ball_random_rational_tensors(parties, inputs):
    rng = np.random.default_rng(parties * 10 + inputs)
    sc = Scenario(parties, inputs, marginals=False)
    for _ in range(60):
        r = unit_rational_tensor(sc, rng)
        bd = ball_decomposition(r)
        assert all(w >= 0 for w in bd.weights)
        assert bd.weight_sum() <= 1
        rec = bd.reconstruct()
        assert all(
            a == b for a, b in zip(rec.entries.reshape(-1), r.entries.reshape(-1))
        )


def test_ball_basis_vectors_are_tight():
    # Cauchy-Schwarz is an equality exactly when |<r, d_a>| is constant,
    # which standard basis vectors achieve
    for sc in (NM22, Scenario(2, 3, marginals=False), Scenario(3, 2, marginals=False)):
        e = np.full(sc.shape, Fraction(0), dtype=object)
        e.reshape(-1)[1] = Fraction(1)
        bd = ball_decomposition(CorrelationTensor(sc, e))
        assert bd.weight_sum() == 1


def test_ball_interior_points_have_slack():
    e = np.full((2, 2), Fraction(0), dtype=object)
    e[0, 1] = Fraction(9, 10)
    bd = ball_decomposition(CorrelationTensor(NM22, e))
    assert bd.weight_sum() == Fraction(9, 10) < 1


def test_ball_weight_sum_is_rational_norm_bound():
    # ||r||^2 = 1/2 is not a rational square: the weights sum to the rational
    # upper bound s = sqrt_upper(||r||^2), not to ||r||_2 itself
    e = np.full((2, 2), Fraction(0), dtype=object)
    e[0, 0] = Fraction(1, 2)
    e[1, 1] = Fraction(-1, 2)
    r = CorrelationTensor(NM22, e)
    assert inner(r, r) == Fraction(1, 2)
    bd = ball_decomposition(r)
    rec = bd.reconstruct()
    assert all(a == b for a, b in zip(rec.entries.reshape(-1), e.reshape(-1)))
    assert all(w >= 0 for w in bd.weights)
    assert bd.weight_sum() == sqrt_upper(inner(r, r))
    assert bd.deficit == 1 - bd.weight_sum()


def test_ball_marginal_scenario_with_vanishing_partials():
    sc = Scenario(3, 2, marginals=True)
    ent = np.full(sc.shape, Fraction(0), dtype=object)
    ent[0, 0, 0] = Fraction(1)
    ent[1, 1, 1] = Fraction(1, 2)
    ent[2, 1, 2] = Fraction(-1, 3)
    t = CorrelationTensor(sc, ent)
    bd = ball_decomposition(t)
    rec = bd.reconstruct()
    assert all(a == b for a, b in zip(rec.entries.reshape(-1), ent.reshape(-1)))
    assert bd.weight_sum() <= 1


def test_reconstruct_is_the_exact_weighted_atom_sum():
    # a (3, 2) marginal model with arbitrary atoms and weights, against the
    # per-atom Fraction sum; the root is 1 whatever the weights
    sc = Scenario(3, 2, marginals=True)
    rng = np.random.default_rng(7)
    atoms = [DeterministicStrategy([int(b) for b in rng.integers(0, 4, 3)], 2)
             for _ in range(9)]
    weights = [Fraction(int(rng.integers(1, 50)), int(rng.integers(1, 50))) for _ in atoms]
    rec = certify.BallDecomposition(sc, atoms, weights, Fraction(0)).reconstruct()
    ref = sum(w * strategy_tensor(a, sc, exact=True).entries for w, a in zip(weights, atoms))
    ref[0, 0, 0] = 1
    assert rec.is_exact
    assert all(type(x) is Fraction for x in rec.entries.reshape(-1)[1:])
    assert (rec.entries == ref).all()


def _with_marginal_slots(r):
    """r as the full-correlation block of the marginal scenario, root 1."""
    N, m = r.scenario.parties, r.scenario.inputs
    sc = Scenario(N, m, marginals=True)
    e = np.full(sc.shape, Fraction(0), dtype=object)
    e[(0,) * N] = Fraction(1)
    e[(slice(1, None),) * N] = r.entries
    return CorrelationTensor(sc, e)


def _assert_ball_matches_reference(r):
    bd = ball_decomposition(r)
    ref, deficit = ball_reference(r)
    assert len(bd.atoms) == len(ref)
    assert dict(zip(bd.atoms, bd.weights)) == ref
    assert bd.deficit == deficit
    assert (bd.reconstruct().entries == r.entries).all()


@pytest.mark.parametrize("parties,inputs",
                         [(1, 1), (1, 3), (2, 1), (2, 2), (2, 4), (3, 2), (3, 3), (4, 2)])
def test_ball_matches_the_half_group_loop(parties, inputs):
    # zero, basis, unit and interior tensors, with and without marginal slots
    sc = Scenario(parties, inputs, marginals=False)
    rng = np.random.default_rng(31 * parties + inputs)
    basis = np.full(sc.shape, Fraction(0), dtype=object)
    basis.reshape(-1)[-1] = Fraction(1)
    unit = unit_rational_tensor(sc, rng)
    cases = [CorrelationTensor.zeros(sc, exact=True), CorrelationTensor(sc, basis), unit,
             unit_rational_tensor(sc, rng),
             CorrelationTensor(sc, unit.entries * Fraction(2, 3))]
    for r in cases:
        _assert_ball_matches_reference(r)
        _assert_ball_matches_reference(_with_marginal_slots(r))


def test_ball_past_2_53_runs_on_python_ints():
    # denominators near 2^20 lift the entries to integers whose sum passes 2^53
    e = np.array([[Fraction(1, 1048573), Fraction(-1, 1048571)],
                  [Fraction(1, 1048559), Fraction(1, 2)]], dtype=object)
    assert exact_operand(common_denominator(e.reshape(-1))[0]).dtype == object
    _assert_ball_matches_reference(CorrelationTensor(NM22, e))


def test_ball_at_2_9_is_exact_and_quick():
    r = unit_rational_tensor(Scenario(2, 9, marginals=False), np.random.default_rng(9))
    t0 = time.perf_counter()
    bd = ball_decomposition(r)
    rec = bd.reconstruct()
    assert time.perf_counter() - t0 < 20
    assert all(w > 0 for w in bd.weights) and bd.weight_sum() <= 1
    assert (rec.entries == r.entries).all()


def test_ball_rejects_nonvanishing_partials():
    sc = Scenario(2, 2, marginals=True)
    ent = np.full(sc.shape, Fraction(0), dtype=object)
    ent[0, 1] = Fraction(1, 2)  # a lower-order correlator
    with pytest.raises(CertificateError):
        ball_decomposition(CorrelationTensor(sc, ent))


def test_ball_rejects_outside_unit_ball():
    e = np.full((2, 2), Fraction(0), dtype=object)
    e[0, 0] = Fraction(11, 10)
    with pytest.raises(CertificateError):
        ball_decomposition(CorrelationTensor(NM22, e))


def test_ball_rejects_float_tensor():
    with pytest.raises(CertificateError):
        ball_decomposition(CorrelationTensor(NM22, np.array([[0.5, 0.0], [0.0, 0.5]])))


def test_ball_size_cap():
    with pytest.raises(CertificateError):
        ball_decomposition(CorrelationTensor.zeros(Scenario(2, 12, marginals=False), exact=True))


# --- weight rationalization ---------------------------------------------------


def test_rationalize_weights_exact_vertex():
    s = DeterministicStrategy.from_signs([[1, -1], [1, 1]])
    p = strategy_tensor(s, NM22, exact=True)
    res = bpcg(CorrelationTensor(NM22, p.entries.astype(float)), 1.0,
               SolverConfig(restarts=50, seed=0))
    model = rationalize_weights(res.active_set, p, Fraction(1))
    assert model.residual_sq == 0


def test_rationalize_weights_m6_run(ico_singlet):
    res = bpcg(ico_singlet, 0.60, SolverConfig(restarts=500, seed=2))
    model = rationalize_weights(res.active_set, ico_singlet, Fraction(3, 5))
    assert all(type(w) is Fraction for w in model.weights)
    assert model.residual_sq <= Fraction(1, 10**10)
    float_plus = (res.distance + 2.0**-30) ** 2
    assert float(model.residual_sq) <= float_plus


def test_rationalize_weights_chsh_run():
    from localpolytope.polyhedra import rationalize
    from localpolytope.states import chsh_vectors, singlet_tensor

    alice_f, bob_f = chsh_vectors()
    alice = [rationalize(v, 1e-6).as_tuple() for v in alice_f]
    bob = [rationalize(v, 1e-6).as_tuple() for v in bob_f]
    p = singlet_tensor(alice, bob)
    res = bpcg(p, 0.65, SolverConfig(restarts=200, seed=1))
    assert res.converged
    model = rationalize_weights(res.active_set, p, Fraction(65, 100))
    assert model.residual_sq <= Fraction(1, 10**10)


def test_rationalize_weights_sensitivity(ico_singlet):
    res = bpcg(ico_singlet, 0.60, SolverConfig(restarts=500, seed=2))
    v0 = Fraction(3, 5)
    model = rationalize_weights(res.active_set, ico_singlet, v0)
    # nudging one weight by one quantum moves the residual by at most
    # (2^-48)^2 * D + cross terms bounded by 2 * 2^-48 * sqrt(D * residual)
    sc = ico_singlet.scenario
    x = np.full(sc.shape, Fraction(0), dtype=object)
    for q, a in zip(model.weights, model.atoms):
        x = x + q * strategy_tensor(a, sc, exact=True).entries
    bump = Fraction(1, 2**48)
    x2 = x + bump * strategy_tensor(model.atoms[0], sc, exact=True).entries
    r = CorrelationTensor(sc, x2 - v0 * ico_singlet.entries)
    r2 = inner(r, r)
    D = sc.dimension
    assert abs(r2 - model.residual_sq) <= Fraction(D, 2**46)


def test_rationalize_weights_float_target_refused(chsh_singlet):
    res = bpcg(chsh_singlet, 0.65, SolverConfig(restarts=100, seed=1))
    with pytest.raises(CertificateError, match="exact rational target"):
        rationalize_weights(res.active_set, chsh_singlet, 0.65)


# --- lower certificates ---------------------------------------------------------


@pytest.fixture(scope="module")
def m6_cert(ico_points, ico_poly, ico_singlet):
    res = bpcg(ico_singlet, 0.60, SolverConfig(restarts=500, seed=2))
    assert res.converged
    v0 = Fraction(3, 5)
    model = rationalize_weights(res.active_set, ico_singlet, v0)
    reps = antipodal_representatives(ico_points)
    vecs = tuple(p.as_tuple() for p in reps)
    target = TargetSpec("singlet", vecs, vecs)
    return assemble_lower(ico_singlet.scenario, ico_poly, v0, model, target)


def test_assemble_lower_m6_value(m6_cert):
    # eta_6^2 * nu * 0.6 with nu ~ 1
    assert abs(float(m6_cert.v_low) - 0.3789) < 2e-4
    assert float(m6_cert.nu) > 0.999
    assert m6_cert.scope == "all projective measurements"


def test_assemble_lower_safe_directions(m6_cert):
    # every rounding in the chain weakens the bound
    assert m6_cert.v_low**2 <= m6_cert.eta_sq**2 * (m6_cert.nu * m6_cert.v0) ** 2
    assert m6_cert.residual_sq <= (1 / m6_cert.nu - 1) ** 2


def test_assemble_lower_paper_scale_arithmetic():
    # shape check of the composition at published magnitudes
    eta = Fraction(9968, 10000)
    nu = Fraction(9998, 10000)
    v0 = Fraction(692, 1000)
    v_low = eta**2 * nu * v0
    assert abs(float(v_low) - 0.6875) < 1e-4


def test_assemble_lower_zero_v0(ico_poly, ico_points, ico_singlet):
    res = bpcg(ico_singlet, 0.0, SolverConfig(restarts=50, seed=0))
    model = rationalize_weights(res.active_set, ico_singlet, Fraction(0))
    reps = antipodal_representatives(ico_points)
    vecs = tuple(p.as_tuple() for p in reps)
    cert = assemble_lower(ico_singlet.scenario, ico_poly, Fraction(0), model,
                          TargetSpec("singlet", vecs, vecs))
    assert cert.v_low == 0


def test_assemble_lower_rejects_marginal_scenario():
    sc = Scenario(3, 2, marginals=True)
    with pytest.raises(CertificateError):
        assemble_lower(sc, None, Fraction(1, 2), None, TargetSpec("ghz-polygon"))


def test_assemble_lower_rejects_large_residual(ico_poly, ico_points, ico_singlet):
    from localpolytope.certify import RationalModel

    model = RationalModel([], [], Fraction(4))  # nu = 1/3
    reps = antipodal_representatives(ico_points)
    vecs = tuple(p.as_tuple() for p in reps)
    with pytest.raises(CertificateError):
        assemble_lower(ico_singlet.scenario, ico_poly, Fraction(3, 5), model,
                       TargetSpec("singlet", vecs, vecs))


def test_verify_lower_accepts_fresh(m6_cert):
    ok, reason = verify(m6_cert)
    assert ok, reason


def test_lower_roundtrip_and_verify(m6_cert):
    buf = io.StringIO()
    write_certificate(m6_cert, buf)
    buf.seek(0)
    cert2 = read_certificate(buf)
    ok, reason = verify(cert2)
    assert ok, reason
    assert cert2.v_low == m6_cert.v_low
    buf2 = io.StringIO()
    write_certificate(cert2, buf2)
    assert buf2.getvalue() == buf.getvalue()


def _mutate(cert_text, old, new, count=1):
    assert old in cert_text
    return cert_text.replace(old, new, count)


def test_verify_lower_mutations(m6_cert):
    buf = io.StringIO()
    write_certificate(m6_cert, buf)
    text = buf.getvalue()

    def rejected(mutated):
        try:
            cert = read_certificate(io.StringIO(mutated))
        except (ValueError, CertificateError):
            return True
        ok, _ = verify(cert)
        return not ok

    # negate a weight
    w0 = f"{m6_cert.weights[0].numerator}/{m6_cert.weights[0].denominator}"
    assert rejected(_mutate(text, f"\n{w0}\n", f"\n-{w0}\n"))
    # understate the residual by 10 percent
    r = m6_cert.residual_sq
    smaller = r * Fraction(9, 10)
    assert rejected(
        _mutate(
            text,
            f"RESIDUAL_SQ {r.numerator}/{r.denominator}",
            f"RESIDUAL_SQ {smaller.numerator}/{smaller.denominator}",
        )
    )
    # inflate nu
    nu = m6_cert.nu
    assert rejected(
        _mutate(text, f"NU {nu.numerator}/{nu.denominator}", "NU 9999999/10000000")
    )
    # inflate v_low
    v = m6_cert.v_low
    assert rejected(
        _mutate(text, f"V_LOW {v.numerator}/{v.denominator}", "V_LOW 2/5")
    )
    # inflate eta
    e = m6_cert.eta_sq
    assert rejected(
        _mutate(text, f"ETA_SQ {e.numerator}/{e.denominator}", "ETA_SQ 7/10")
    )
    # break a vertex off the sphere
    v0 = m6_cert.vertices[0]
    line = f"{v0.x.numerator}/{v0.x.denominator}"
    assert rejected(_mutate(text, line, f"{v0.x.numerator * 3}/{v0.x.denominator}", 1))
    # flip one party of an atom (negates its induced tensor)
    atom = m6_cert.atoms[0].to_string()
    a_part, b_part = atom.split("|")
    flipped_a = a_part.replace("+", "!").replace("-", "+").replace("!", "-")
    assert rejected(_mutate(text, f"\n{atom}\n", f"\n{flipped_a}|{b_part}\n"))



# --- exact residual ----------------------------------------------------------


def test_exact_residual_matches_reference_m6(m6_cert, ico_singlet):
    args = (m6_cert.atoms, m6_cert.weights, ico_singlet, m6_cert.v0)
    assert _exact_residual_sq(*args) == residual_sq_reference(*args) == m6_cert.residual_sq


def test_exact_residual_matches_reference_ghz_polygon():
    p = ghz_polygon_tensor(3, 3)
    v0 = Fraction(2, 5)
    res = bpcg(p, float(v0), SolverConfig(restarts=200, seed=1))
    assert res.converged
    model = rationalize_weights(res.active_set, p, v0)
    assert model.residual_sq == residual_sq_reference(model.atoms, model.weights, p, v0)


@pytest.mark.parametrize("parties, inputs, marginals", [
    (1, 4, False), (2, 3, False), (3, 2, False),
])
@pytest.mark.parametrize("huge", [False, True])
def test_exact_residual_matches_reference_hand_built(parties, inputs, marginals, huge):
    # huge: prime denominators near 2^30 put the lcm and sum k_i far above 2^53,
    # so the integer tensor needs the exact Python-int product
    rng = np.random.default_rng(parties * 10 + inputs)
    sc = Scenario(parties, inputs, marginals)
    atoms = list({
        DeterministicStrategy([int(b) for b in rng.integers(0, 1 << inputs, parties)], inputs)
        for _ in range(6)
    })
    primes = [1073741789, 1073741783, 1073741827, 1073741831, 1073741833, 1073741839]
    dens = primes if huge else [2**48] * len(atoms)
    weights = [Fraction(int(rng.integers(1, 2**20)) * 2**9 + 1, d) for d in dens[: len(atoms)]]
    if huge:
        assert math.lcm(*(w.denominator for w in weights)) > 2**53
    p = CorrelationTensor(sc, np.array(
        [Fraction(int(rng.integers(-50, 51)), int(rng.integers(1, 40)))
         for _ in range(sc.num_entries)], dtype=object).reshape(sc.shape))
    v0 = Fraction(7, 11)
    assert _exact_residual_sq(atoms, weights, p, v0) == residual_sq_reference(atoms, weights, p, v0)
    assert _exact_residual_sq([], [], p, v0) == residual_sq_reference([], [], p, v0)


def test_verify_lower_rejects_one_weight_quantum(m6_cert):
    i = max(range(len(m6_cert.weights)), key=lambda k: m6_cert.weights[k])
    weights = list(m6_cert.weights)
    weights[i] -= Fraction(1, 2**48)
    assert verify(dataclasses.replace(m6_cert, weights=weights)) == (False, "residual mismatch")


# --- certificate files ------------------------------------------------------------


def _long_number_cert():
    """A lower certificate whose residual has more than 4300 digits above and
    below the line: the target is d/2 for a strategy d, plus 2^7200 / 3^4600
    in one entry, met by d at weight 1/2 with v0 = 1."""
    d = DeterministicStrategy([0, 0], 2)
    ent = strategy_tensor(d, NM22, exact=True).entries / 2
    ent[0, 1] += Fraction(2**7200, 3**4600)
    p = CorrelationTensor(NM22, ent)
    model = certify.RationalModel([d], [Fraction(1, 2)],
                                  _exact_residual_sq([d], [Fraction(1, 2)], p, 1))
    return assemble_lower(NM22, None, 1, model, TargetSpec("tensor", tensor=p))


def test_numbers_past_the_default_digit_limit_round_trip():
    cert = _long_number_cert()
    limit = sys.get_int_max_str_digits()
    assert min(cert.residual_sq.numerator, cert.residual_sq.denominator) > 10**4300
    with pytest.raises(ValueError):
        str(cert.residual_sq.denominator)  # the interpreter's limit outside the I/O
    buf = io.StringIO()
    write_certificate(cert, buf)
    assert sys.get_int_max_str_digits() == limit
    back = read_certificate(io.StringIO(buf.getvalue()))
    assert sys.get_int_max_str_digits() == limit
    assert dataclasses.replace(back, target=cert.target) == cert
    assert (back.target.tensor.entries == cert.target.tensor.entries).all()
    assert verify(back) == (True, "ok")


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_measurement_is_a_read_error(m6_cert, bad):
    buf = io.StringIO()
    write_certificate(m6_cert, buf)
    lines = buf.getvalue().splitlines()
    i = lines.index(next(ln for ln in lines if ln.startswith("MEASUREMENTS_A"))) + 1
    lines[i] = f"{bad} 0 0"
    with pytest.raises(CertificateError):
        read_certificate(io.StringIO("\n".join(lines)))

# --- upper certificates ----------------------------------------------------------


@pytest.fixture(scope="module")
def mermin_cert():
    p = ghz_polygon_tensor(3, 2)
    sc = p.scenario
    M = np.zeros((2, 2, 2), dtype=object)
    M[0, 0, 0] = 1
    M[0, 1, 1] = M[1, 0, 1] = M[1, 1, 0] = -1
    f = CorrelationTensor(sc, M)
    lb = local_bound(f)
    return assemble_upper(f, lb.value, p, TargetSpec("ghz-polygon"))


def test_assemble_upper_mermin_exact(mermin_cert):
    assert mermin_cert.v_up == Fraction(1, 2)
    assert mermin_cert.q == 4
    assert mermin_cert.ell == 2
    ok, reason = verify(mermin_cert)
    assert ok, reason


def test_assemble_upper_chsh_float(chsh_singlet):
    M = CorrelationTensor(NM22, np.array([[-1, -1], [-1, 1]], dtype=object))
    lb = local_bound(M)
    al = tuple(map(tuple, [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
    s = 1 / math.sqrt(2)
    bo = ((s, 0.0, s), (s, 0.0, -s))
    cert = assemble_upper(M, lb.value, chsh_singlet, TargetSpec("singlet", al, bo))
    assert abs(float(cert.v_up) - 0.70711) < 1e-3
    assert not cert.q_exact
    # the file's TOL does not widen verify's Q check: a false Q with a TOL
    # wide enough to cover it is still rejected
    buf = io.StringIO()
    write_certificate(cert, buf)
    text = buf.getvalue()
    q_line = f"Q {float(cert.q)!r} TOL 1e-09"
    assert q_line in text
    assert verify(read_certificate(io.StringIO(text))) == (True, "ok")
    forged = text.replace(q_line, f"Q {float(cert.q) + 0.5!r} TOL 100.0")
    assert verify(read_certificate(io.StringIO(forged))) == (False, "quantum value mismatch")


def test_verify_upper_proves_bipartite_bound_up_to_qubo_cap(monkeypatch):
    # m = 17 was past the old N*m enumeration cap; enumerating Alice alone
    # (2^16 sign vectors with the first fixed) proves ell, so verify never
    # needs the heuristic
    sc = Scenario(2, 17, marginals=False)
    M = np.zeros(sc.shape, dtype=object)
    M[:2, :2] = [[1, 1], [1, -1]]
    f = CorrelationTensor(sc, M)
    p_ent = np.zeros(sc.shape, dtype=object)
    p_ent[:2, :2] = [[Fraction(7, 10), Fraction(7, 10)], [Fraction(7, 10), Fraction(-7, 10)]]
    p = CorrelationTensor(sc, p_ent)
    cert = assemble_upper(f, 2, p, TargetSpec("tensor", tensor=p))

    def unproven(*args, **kwargs):
        raise AssertionError("local bound checked heuristically")

    monkeypatch.setattr(certify, "maximize_functional_heuristic", unproven)
    assert verify(cert) == (True, "ok")
    assert verify(_with_ell(cert, 1)) == (False, "local bound mismatch")


CHSH_INT = np.array([[1, 1], [1, -1]], dtype=object)


def _with_ell(cert, ell):
    """``cert`` claiming the local bound ``ell`` and its V_UP = ell / Q, so that
    only the enumeration can refute it."""
    return dataclasses.replace(cert, ell=ell, v_up=Fraction(ell) / cert.q)


def test_verify_upper_rejects_int64_wrapped_bound():
    # CHSH * 2^62 has local bound 2^63, which wraps to -2^63 in int64: the rule
    # refuses that negative bound, and the enumeration the one just below 2^63
    cert = chsh_corner_cert(NM22, CHSH_INT * 2**62, 2**63)
    assert verify(_with_ell(cert, -2**63)) == (False, "local bound is negative")
    assert verify(_with_ell(cert, 2**63 - 1)) == (False, "local bound mismatch")
    assert verify(cert) == (True, "ok")


def test_verify_upper_exact_past_int64():
    cert = chsh_corner_cert(NM22, CHSH_INT * 2**70, 2**71)
    assert verify(cert) == (True, "ok")
    assert verify(_with_ell(cert, 2**71 - 1)) == (False, "local bound mismatch")


def test_verify_upper_odd_bound_above_float_range():
    # 2^52 CHSH + e_00: sum |M| = 2^54 + 1 and ell = 2^53 + 1, which float64
    # rounds to 2^53; only Python-int enumeration proves it
    M = CHSH_INT * 2**52
    M[0, 0] += 1
    cert = chsh_corner_cert(NM22, M, 2**53 + 1)
    assert verify(cert) == (True, "ok")
    assert verify(_with_ell(cert, 2**53)) == (False, "local bound mismatch")


def test_verify_upper_past_the_cap_is_unproven():
    # (N-1)*m = 27: the bound (truly 2) is not enumerated, so it is neither
    # accepted nor refuted; every other check still runs
    cert = chsh_corner_cert(Scenario(2, 27, marginals=False), CHSH_INT, 2)
    ok, reason = verify(cert)
    assert ok is None and reason.startswith("unproven: ")
    understated = dataclasses.replace(cert, ell=1, v_up=1 / cert.q)
    assert verify(understated)[0] is None
    assert verify(dataclasses.replace(cert, q=cert.q + 1)) == (False, "quantum value mismatch")


@pytest.mark.parametrize("q", [math.nan, 5.0, math.inf])
def test_verify_upper_rejects_non_finite_target(q):
    # every float comparison is False on nan: the checks must fail closed
    p = CorrelationTensor(NM22, np.array([[math.nan, 0.7], [0.7, -0.7]]))
    M = CorrelationTensor(NM22, CHSH_INT.copy())
    cert = UpperBoundCertificate(NM22, TargetSpec("tensor", tensor=p), M, 2, q, 0.1)
    assert verify(cert)[0] is False


def test_verify_upper_float_claim_past_the_float_range_is_invalid():
    # an exact target whose value overflows a float cannot back a float claim
    cert = chsh_corner_cert(NM22, CHSH_INT * 10**400, 2 * 10**400)
    assert verify(cert) == (True, "ok")
    floated = dataclasses.replace(cert, q=1.0, v_up=0.5)
    assert verify(floated) == (False, "quantum value or local bound outside the float range")


def test_assemble_upper_requires_violation():
    p = ghz_polygon_tensor(3, 2)
    M = np.zeros((2, 2, 2), dtype=object)
    M[0, 0, 0] = 1  # local bound 1, quantum value 1: no violation
    f = CorrelationTensor(p.scenario, M)
    with pytest.raises(CertificateError):
        assemble_upper(f, 1, p, TargetSpec("ghz-polygon"))
    # a nan q fails every comparison; no true local bound is negative
    chsh = CorrelationTensor(NM22, CHSH_INT.copy())
    nan = CorrelationTensor(NM22, np.array([[math.nan, 0.7], [0.7, -0.7]]))
    with pytest.raises(CertificateError, match="no violation"):
        assemble_upper(chsh, 2, nan, TargetSpec("tensor", tensor=nan))
    target = chsh_corner_cert(NM22, CHSH_INT, 2).target  # q = 14/5
    with pytest.raises(CertificateError, match="local bound is negative"):
        assemble_upper(chsh, -1, target.tensor, target)


def test_assemble_upper_rejects_float_functional(chsh_singlet):
    f = CorrelationTensor(NM22, np.array([[0.5, 0], [0, 0]]))
    with pytest.raises(CertificateError):
        assemble_upper(f, 1, chsh_singlet, TargetSpec("tensor", tensor=chsh_singlet))


def test_integerize_recovers_patterns():
    g = CorrelationTensor(NM22, np.array([[0.0501, 0.0499], [0.05, -0.0502]]))
    M = integerize_functional(g, scale=10)
    assert M.entries.tolist() == [[1, 1], [1, -1]]
    with pytest.raises(CertificateError):
        integerize_functional(CorrelationTensor.zeros(NM22))


def test_upper_roundtrip_and_mutations(mermin_cert):
    buf = io.StringIO()
    write_certificate(mermin_cert, buf)
    text = buf.getvalue()
    cert2 = read_certificate(io.StringIO(text))
    ok, reason = verify(cert2)
    assert ok, reason

    def rejected(mutated):
        try:
            cert = read_certificate(io.StringIO(mutated))
        except (ValueError, CertificateError):
            return True
        ok, _ = verify(cert)
        return not ok

    assert rejected(_mutate(text, "ELL 2", "ELL 1"))
    assert rejected(_mutate(text, "ELL 2", "ELL 3"))
    assert rejected(_mutate(text, "Q 4/1", "Q 5/1"))
    assert rejected(_mutate(text, "V_UP 1/2", "V_UP 1/3"))
    # corrupt one functional entry
    assert rejected(_mutate(text, "\n1 0\n", "\n2 0\n"))


# --- every rejection verify gives -----------------------------------------------


def _text(cert):
    buf = io.StringIO()
    write_certificate(cert, buf)
    return buf.getvalue()


def _row(point):
    return format_row(point.as_tuple()) + "\n"


def _in_vertices(text, old, new):
    """``text`` with the first ``old`` after the VERTICES line replaced."""
    i = text.index("\nVERTICES ")
    return text[:i] + _mutate(text[i:], old, new)


def _atom(cert, i):
    return f"\n{cert.atoms[i].to_string()}\n"


def _plane_cert():
    """A lower certificate without a polyhedron for a singlet measured along
    e1 and e2 by both parties: p = -I, at v0 = 1/2."""
    e = ((1, 0, 0), (0, 1, 0))
    p = singlet_tensor(e, e)
    res = bpcg(p, 0.5, SolverConfig(restarts=50, seed=0))
    model = rationalize_weights(res.active_set, p, Fraction(1, 2))
    return assemble_lower(NM22, None, Fraction(1, 2), model, TargetSpec("singlet", e, e))


@pytest.fixture(scope="module")
def cert_texts(m6_cert, mermin_cert):
    """The file text of a valid certificate of each kind, by name."""
    certs = {"m6": m6_cert, "plane": _plane_cert(), "mermin": mermin_cert,
             "corner": chsh_corner_cert(NM22, CHSH_INT, 2)}
    return {name: _text(c) for name, c in certs.items()}


def _scale_first_row(text, cert, scale):
    """``text`` with the first measurement row multiplied by ``scale``."""
    row = cert.target.alice[0]
    return _mutate(text, f"MEASUREMENTS_A 6\n{format_row(row)}\n",
                   f"MEASUREMENTS_A 6\n{format_row(tuple(scale * c for c in row))}\n")


def _off_sphere(cert):
    p = RationalPoint(Fraction(1), Fraction(0), Fraction(0))
    object.__setattr__(p, "xyzd", (2, 0, 0, 1))  # RationalPoint itself refuses it
    return dataclasses.replace(cert, vertices=(p, *cert.vertices[1:]))


def _claiming(cert, v0, nu):
    """``cert`` at ``v0`` with its residual derived again, claiming ``nu`` and
    the V_LOW = eta^2 * nu * v0 it gives."""
    p = cert.target.build(cert.scenario)
    residual_sq = _exact_residual_sq(cert.atoms, cert.weights, p, v0)
    return dataclasses.replace(cert, v0=v0, residual_sq=residual_sq, nu=nu,
                               v_low=cert.eta_sq * nu * v0)


# (id, certificate, fault, reason): a fault maps the certificate's text and a
# fresh read of it to a faulty text, or to a faulty object where the reader
# would refuse the text.  The checks run in a fixed order, so each fault
# leaves every earlier check passing.
VERIFY_REJECTIONS = [
    ("unknown-type", "m6", lambda t, c: dataclasses.asdict(c), "unknown certificate type"),
    ("marginal-scenario", "m6",
     lambda t, c: _mutate(t, "SCENARIO 2 6 false", "SCENARIO 2 6 true"),
     "lower certificates need a full-correlation scenario; "
     "lower-order correlators are outside the certified domain"),
    ("length-mismatch", "m6",
     lambda t, c: _mutate(t, f"WEIGHTS {len(c.weights)}\n{format_number(c.weights[0])}\n",
                          f"WEIGHTS {len(c.weights) - 1}\n"),
     "atom/weight length mismatch"),
    ("atom-scenario", "m6",
     lambda t, c: _mutate(t, _atom(c, 0), "\n+++++++|+++++++\n"),
     "atom does not match scenario"),
    # the second atom becomes the first with both parties flipped: the same tensor
    ("duplicate-atom", "m6",
     lambda t, c: _mutate(t, _atom(c, 1), f"\n{c.atoms[0].flip_parties([0, 1]).to_string()}\n"),
     "duplicate atom"),
    ("lower-target-build", "m6",
     lambda t, c: _mutate(t, "MEASUREMENTS_A 6\n" + format_row(c.target.alice[0]) + "\n",
                          "MEASUREMENTS_A 5\n"),
     "target reconstruction failed: singlet tensors live in the bipartite no-marginal scenario"),
    ("measurement-not-unit", "m6", lambda t, c: _scale_first_row(t, c, 2),
     "target reconstruction failed: measurement is not a unit vector"),
    # a float triple passes within Q_TOL on |a|^2 (lower-target-float below), not beyond it
    ("measurement-not-unit-float", "m6", lambda t, c: _scale_first_row(t, c, 1 + 1e-9),
     "target reconstruction failed: measurement is not a unit vector"),
    ("lower-target-float", "m6",
     lambda t, c: _mutate(t, format_row(c.target.alice[0]),
                          " ".join(repr(float(x)) for x in c.target.alice[0])),
     "lower certificates need an exact rational target and model"),
    # the first vertex is a measurement: the two faults below leave it out
    ("vertex-off-sphere", "m6", lambda t, c: _off_sphere(c),
     "measurement is not a polyhedron vertex"),
    ("vertex-antipodes", "m6", lambda t, c: _in_vertices(t, _row(c.vertices[0]), "1 0 0\n"),
     "measurement is not a polyhedron vertex"),
    # the same tensor, embedded: its measurements cannot be checked against the vertices
    ("eta-tensor-target", "m6",
     lambda t, c: dataclasses.replace(
         c, target=TargetSpec("tensor", tensor=c.target.build(c.scenario))),
     "eta claimed for a target without measurement directions"),
    # one antipodal pair, a measurement and its antipode, swapped for +-e1
    ("measurement-not-vertex", "m6",
     lambda t, c: _in_vertices(_in_vertices(t, _row(c.vertices[0]), "1 0 0\n"),
                               _row(-c.vertices[0]), "-1 0 0\n"),
     "measurement is not a polyhedron vertex"),
    ("measurements-do-not-span", "m6",
     lambda t, c: _mutate(t, "VERTICES 12\n", "VERTICES 14\n1 0 0\n-1 0 0\n"),
     "measurements do not span the polyhedron"),
    # each party measures e1 and e2: the four vertices +-e1, +-e2 are covered, and coplanar
    ("hull", "plane",
     lambda t, c: _mutate(t, "ETA_SQ none",
                          "VERTICES 4\n1 0 0\n-1 0 0\n0 1 0\n0 -1 0\nETA_SQ 1/2"),
     "hull reconstruction failed: degenerate input: all points coplanar"),
    # the rule: assemble_lower on the file's data, whose values the claims must equal
    ("v0", "m6", lambda t, c: _mutate(t, "V0 3/5", "V0 6/5"), "v0 must lie in [0, 1]"),
    # V0 1 puts the residual at nu = 0.4192: NU 2/5 and its V_LOW claim less than it
    ("nu-below-min", "m6", lambda t, c: _claiming(c, Fraction(1), Fraction(2, 5)),
     "residual too large: nu = 0.4192 < 0.5"),
    ("nu-weakened", "m6",
     lambda t, c: _mutate(_mutate(t, f"NU {format_number(c.nu)}", "NU 1/1000000000"),
                          f"V_LOW {format_number(c.v_low)}", "V_LOW 0"),
     "nu mismatch"),
    ("eta-without-vertices", "m6",
     lambda t, c: _mutate(t, "VERTICES 12\n" + "".join(map(_row, c.vertices)), ""),
     "eta mismatch"),
    ("eta-none-with-vertices", "m6",
     lambda t, c: _mutate(t, f"ETA_SQ {format_number(c.eta_sq)}", "ETA_SQ none"),
     "eta mismatch"),
    ("v-low-halved", "m6",
     lambda t, c: _mutate(t, f"V_LOW {format_number(c.v_low)}",
                          f"V_LOW {format_number(c.v_low / 2)}"),
     "v_low mismatch"),
    ("functional-scenario", "mermin",
     lambda t, c: _mutate(t, "SCENARIO 3 2 false", "SCENARIO 3 2 true"),
     "functional does not match scenario"),
    ("upper-target-build", "corner",
     lambda t, c: _mutate(t, "TENSOR\n2 2 false", "TENSOR\n1 4 false"),
     "target reconstruction failed: embedded tensor does not match scenario"),
    ("functional-fraction", "mermin", lambda t, c: _mutate(t, "\n1 0\n", "\n1/2 0\n"),
     "upper certificates need an integer functional"),
    ("functional-float", "mermin", lambda t, c: _mutate(t, "\n1 0\n", "\n0.5 0\n"),
     "upper certificates need an integer functional"),
    ("ell-not-integer", "mermin", lambda t, c: _mutate(t, "ELL 2", "ELL 2.0"),
     "local bound must be an exact integer"),
    # ELL is the enumerated bound 2, and so is <M, p> once p is halved CHSH
    ("no-violation-exact", "corner",
     lambda t, c: _mutate(_mutate(t, "7/10", "1/2", -1), "Q 14/5", "Q 2"),
     "no violation: quantum value does not exceed the local bound"),
    ("no-violation-float", "corner",
     lambda t, c: _mutate(_mutate(_mutate(t, "7/10", "0.5", -1), "Q 14/5", "Q 2.0 TOL 1e-09"),
                          "V_UP 5/7", "V_UP 1.0"),
     "no violation: quantum value does not exceed the local bound by more than the tolerance"),
    ("q-not-exact", "corner", lambda t, c: _mutate(t, "7/10", "0.7", -1),
     "quantum value not reproducible exactly"),
]


@pytest.mark.parametrize("base, fault, reason", [case[1:] for case in VERIFY_REJECTIONS],
                         ids=[case[0] for case in VERIFY_REJECTIONS])
def test_verify_gives_each_rejection(cert_texts, base, fault, reason):
    text = cert_texts[base]
    assert verify(read_certificate(io.StringIO(text))) == (True, "ok")
    faulty = fault(text, read_certificate(io.StringIO(text)))
    if isinstance(faulty, str):
        faulty = read_certificate(io.StringIO(faulty))
    assert verify(faulty) == (False, reason)


# --- forged certificates ------------------------------------------------------------


def _cli_verdict(cert, tmp_path, capsys):
    """Exit code and output of ``certify verify`` on ``cert`` written to a file."""
    path = tmp_path / "forged.cert"
    path.write_text(_text(cert))
    capsys.readouterr()
    return main(["certify", "verify", "--in", str(path)]), capsys.readouterr().out


def test_singlet_measurements_scaled_up_are_invalid(tmp_path, capsys):
    # doubling Alice's rows doubles <M, p>: v_up = 0.3536 would claim K_G(3) >= 2.83
    path = tmp_path / "chsh.cert"
    assert main(["solve", "upper", "--state", "werner", "--m", "2", "--v0", "0.75",
                 "--out", str(path)]) == 0
    with open(path) as fp:
        cert = read_certificate(fp)
    alice = tuple(tuple(2 * c for c in v) for v in cert.target.alice)
    p = singlet_tensor(alice, cert.target.bob)
    forged = assemble_upper(cert.functional, cert.ell, p,
                            TargetSpec("singlet", alice, cert.target.bob))
    assert abs(float(forged.v_up) - 0.353553) < 1e-6
    assert _cli_verdict(forged, tmp_path, capsys) == (
        1, "INVALID certificate: target reconstruction failed: measurement is not a unit vector\n")


def _eta_forgery(target, p, model, v0, points, reason):
    """A lower certificate claiming the polyhedron's eta for ``target``, as
    assemble_lower would build it if it did not refuse for ``reason``."""
    poly = faces_and_eta(points)
    with pytest.raises(CertificateError, match=reason):
        assemble_lower(p.scenario, poly, v0, model, target)
    nu = nu_factor(model.residual_sq)
    return LowerBoundCertificate(p.scenario, target, v0, poly.eta_sq, tuple(poly.vertices),
                                 model.atoms, model.weights, model.residual_sq, nu,
                                 poly.eta_sq * nu * v0)


def test_repeated_measurements_do_not_carry_eta(tmp_path, capsys):
    # Alice measures one direction 21 times: the correlations are local at v0 = 1,
    # and eta_21^2 would claim K_G(3) <= 1.146, below the certified sqrt(2)
    points = rationalize_all(geodesic_icosahedron([2]))
    vecs = tuple(v.as_tuple() for v in antipodal_representatives(points))
    alice = (vecs[0],) * len(vecs)
    p = singlet_tensor(alice, vecs)
    res = bpcg(p, 1.0, SolverConfig(restarts=50, seed=0))
    assert res.converged
    model = rationalize_weights(res.active_set, p, Fraction(1))
    reason = "measurements do not span the polyhedron"
    forged = _eta_forgery(TargetSpec("singlet", alice, vecs), p, model, Fraction(1), points,
                          reason)
    assert abs(float(forged.v_low) - 0.872677) < 1e-6
    assert verify(forged) == (False, reason)
    assert _cli_verdict(forged, tmp_path, capsys) == (1, f"INVALID certificate: {reason}\n")


def test_embedded_tensor_target_does_not_carry_eta(ico_points, tmp_path, capsys):
    # the m = 6 run, re-targeted to a singlet at 6 random directions, embedded as a tensor
    rng = np.random.default_rng(0)
    dirs = tuple(rationalize(v / np.linalg.norm(v)).as_tuple() for v in rng.normal(size=(6, 3)))
    p = singlet_tensor(dirs, dirs)
    res = bpcg(p, 0.6, SolverConfig(restarts=500, seed=2))
    assert res.converged
    model = rationalize_weights(res.active_set, p, Fraction(3, 5))
    reason = "eta claimed for a target without measurement directions"
    forged = _eta_forgery(TargetSpec("tensor", tensor=p), p, model, Fraction(3, 5), ico_points,
                          reason)
    assert verify(forged) == (False, reason)
    assert _cli_verdict(forged, tmp_path, capsys) == (1, f"INVALID certificate: {reason}\n")


# --- derived bounds -------------------------------------------------------------


def _synthetic_lower(v_low, eta_sq):
    return LowerBoundCertificate(
        Scenario(2, 6, marginals=False),
        TargetSpec("singlet", ((Fraction(1), Fraction(0), Fraction(0)),) * 6,
                   ((Fraction(1), Fraction(0), Fraction(0)),) * 6),
        Fraction(692, 1000),
        eta_sq,
        None,
        [],
        [],
        Fraction(0),
        Fraction(1),
        v_low,
    )


def test_derived_bounds_povm_and_grothendieck():
    vals, lines = derived_bounds(_synthetic_lower(Fraction(6875, 10000), Fraction(99361, 100000)))
    assert abs(float(vals["povm_lower"]) - 0.4583) < 1e-4
    assert abs(float(vals["grothendieck_upper"]) - 1.4546) < 1e-3


def test_derived_bounds_upper_side(mermin_cert):
    up = UpperBoundCertificate(
        NM22,
        TargetSpec("singlet", ((Fraction(1), Fraction(0), Fraction(0)),) * 2,
                   ((Fraction(1), Fraction(0), Fraction(0)),) * 2),
        mermin_cert.functional,
        2,
        Fraction(20000, 6955),  # q chosen so v_up = 0.6955
        Fraction(6955, 10000),
    )
    vals, _ = derived_bounds(up)
    assert abs(float(vals["grothendieck_lower"]) - 1.4376) < 3e-3


def test_derived_bounds_ghz_planar(mermin_cert):
    vals, _ = derived_bounds(mermin_cert)
    assert "planar_threshold" in vals
    # shape check at the published 16-input threshold
    assert abs(0.49160 * math.cos(math.pi / 32) ** 3 - 0.48453) < 1e-5


def test_derived_bounds_povm_suppressed_for_ghz(mermin_cert):
    vals, _ = derived_bounds(mermin_cert)
    assert "povm_lower" not in vals


def test_verify_upper_spot_check_path():
    sc = Scenario(3, 9, marginals=False)
    M = np.zeros(sc.shape, dtype=object)
    M[0, 0, 0] = 1
    M[0, 1, 1] = M[1, 0, 1] = M[1, 1, 0] = -1
    f = CorrelationTensor(sc, M)
    # the functional only touches inputs {1,2}, so its local bound equals the
    # (3,2) Mermin bound 2
    p_ent = np.zeros(sc.shape, dtype=object)
    p_ent[0, 0, 0] = Fraction(1)
    p_ent[0, 1, 1] = p_ent[1, 0, 1] = p_ent[1, 1, 0] = Fraction(-1)
    p = CorrelationTensor(sc, p_ent)
    cert = assemble_upper(f, 2, p, TargetSpec("tensor", tensor=p))
    ok, reason = verify(cert)
    assert ok, reason
    # an understated local bound is caught by the exact bound
    bad = UpperBoundCertificate(sc, cert.target, f, 1, cert.q, Fraction(1, 4))
    ok, reason = verify(bad)
    assert not ok and "local bound" in reason

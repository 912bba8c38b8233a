"""Exact certificates for membership bounds.

Solver output is floating point; everything here is redone over the rationals
so that a certificate stands on arithmetic identities alone.  Lower bounds
combine an exact convex decomposition residual with the contraction factor
nu = 1/(1 + ||x_T - v0 p||_2) and, when the measurements come from a
polyhedron, the exact shrinking factor eta^2.  Upper bounds pair an integer
Bell functional with its exact local bound.

Every irrational square root is replaced by a directed rational bound at
denominator scale 10^18, always rounded in the direction that weakens the
claimed bound.  Float shortcuts on integer lifts (``tensor.common_denominator``)
run on BLAS only where ``tensor.exact_operand`` proves them exact: the models
of ``_exact_residual_sq`` and ``BallDecomposition.reconstruct``, the <r, d> of
``ball_decomposition``, and integer local bounds in ``lmo.exhaustive_lmo``.
"""

import contextlib
import math
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

import numpy as np

from .lmo import EXHAUSTIVE_CAP, enumerable, local_bound, maximize_functional_heuristic
from .polyhedra import RationalPoint, faces_and_eta
from .states import ghz_polygon_tensor, singlet_tensor
from .tensor import (
    CorrelationTensor,
    DeterministicStrategy,
    Scenario,
    _lex_sign_batch,
    combine_rows,
    common_denominator,
    exact_operand,
    exact_sum,
    format_number,
    format_row,
    inner,
    integer_entries,
    parse_exact,
    parse_value,
    scenario_from_tokens,
    sign_rows,
    strategy_tensor,
    tensor_from_tokens,
    tensor_strategy_inner,
    write_tensor,
)

# maximize_functional_heuristic, strategy_tensor and tensor_strategy_inner are
# not called here: bench/tracing.py wraps them and local_bound in this namespace.

SQRT_SCALE = 10**18
WEIGHT_DENOMINATOR = 2**48
BALL_CAP = 22  # max N*m for materialising the ball decomposition
Q_TOL = 1e-9  # float quantum values: violation margin and verify's match tolerance
MIN_NU = Fraction(1, 2)  # smallest contraction factor a lower certificate accepts
DIGITS_PER_INPUT = 32  # digit budget of one measurement's denominators; see _digit_limit


class CertificateError(ValueError):
    pass


def sqrt_lower(q):
    """Largest n/scale with (n/scale)^2 <= q, scale = SQRT_SCALE: with q = a/b,
    the integer n^2 is at most a scale^2 / b exactly when it is at most its floor."""
    q = Fraction(q)
    if q < 0:
        raise ValueError("negative radicand")
    return Fraction(math.isqrt(q.numerator * SQRT_SCALE**2 // q.denominator), SQRT_SCALE)


def sqrt_upper(q):
    """Smallest n/SQRT_SCALE with (n/SQRT_SCALE)^2 >= q: sqrt_lower, or one step above."""
    lo = sqrt_lower(q)
    return lo if lo * lo == q else lo + Fraction(1, SQRT_SCALE)


def nu_factor(residual_sq):
    """Rational lower bound on 1/(1 + sqrt(residual_sq)); equals it when exact."""
    s = sqrt_upper(residual_sq)
    return 1 / (1 + s)


# --- the 2-norm-ball decomposition -----------------------------------------


def _integer_model(atoms, weights, sc):
    """(X, D), sum_i w_i d_i = X / D: D the lcm of the weights' denominators and X the
    flat integer product of k = w D with the atoms' sign rows (``exact_operand``)."""
    k, D = common_denominator(weights)
    k = exact_operand(k)
    return combine_rows(k, sign_rows(atoms, sc, k.dtype)).reshape(-1), D


@dataclass
class BallDecomposition:
    """Convex decomposition of a tensor in the closed unit 2-norm ball.

    The weights are nonnegative and sum to s = sqrt_upper(||r||^2), a rational
    upper bound on ||r||_2 that is at most 1.  The deficit 1 - s rides on the
    zero tensor, which is itself the uniform mixture of all strategies and is
    never materialised.
    """

    scenario: Scenario
    atoms: list
    weights: list
    deficit: object

    def weight_sum(self):
        return exact_sum(self.weights)

    def reconstruct(self):
        """sum_i w_i d_i, with the root at 1, from ``_integer_model``."""
        sc = self.scenario
        X, D = _integer_model(self.atoms, self.weights, sc)
        ent = np.array([Fraction(int(x), D) for x in X], dtype=object).reshape(sc.shape)
        if sc.marginals:
            ent[(0,) * sc.parties] = 1
        return CorrelationTensor(sc, ent)


def _even_flip_orbit(strategy, parties):
    """The 2^(N-1) even-party-flip variants of a strategy."""
    masks = [k for k in range(1 << parties) if bin(k).count("1") % 2 == 0]
    return [strategy.flip_parties([n for n in range(parties) if k >> n & 1]) for k in masks]


def ball_decomposition(r):
    """Explicit local model for a tensor with ||r||_2 <= 1.

    Valid on full-correlation content only: either a no-marginal scenario, or
    a marginal-slot tensor whose lower-order correlators all vanish (the model
    is then symmetrised over even party flips, which kills the atoms' own
    lower-order correlators exactly).

    The tensor must be exact.  Flipping an even set of parties keeps a
    strategy's tensor, so each class +-d has one member d with every first
    sign +, and its weight is |<r, d>| / 2^(N(m-1)) (the half-group weights
    |<r, d_a>| / 2^(Nm-1) of its 2^(N-1) members), on d if <r, d> > 0 and
    else on d with the last party flipped, the canonical -d.  By
    Cauchy-Schwarz they sum to at most ||r||_2 <= s = sqrt_upper(||r||^2);
    the slack goes half each on an antipodal pair d, -d, which cancel.  The
    weights sum to s and the deficit 1 - s rides on the zero tensor.

    With r = K / L over integers, <K, d> is K contracted on each axis with
    one (2^(m-1), m) sign matrix of first column +1: every partial sum is a
    signed sum of distinct entries of K, exact in float64 in any order while
    Sum |K| <= 2^53 (``exact_operand``), and in Python ints above it.
    """
    sc = r.scenario
    N, m = sc.parties, sc.inputs
    if N * m > BALL_CAP:
        raise CertificateError(
            f"decomposition materialises 2^(N(m-1)) atoms; capped at N*m <= {BALL_CAP}, "
            "certify through the contraction factor instead"
        )
    if not r.is_exact:
        raise CertificateError("the ball decomposition needs an exact tensor")
    nsq = inner(r, r)
    if nsq > 1:
        raise CertificateError("tensor lies outside the unit 2-norm ball")

    if sc.marginals:
        full = (slice(1, None),) * N
        partial_mask = np.ones(sc.shape, dtype=bool)
        partial_mask[full] = False
        partial_mask[(0,) * N] = False
        partials = r.entries[partial_mask]
        if any(x != 0 for x in partials.reshape(-1)):
            raise CertificateError(
                "decomposition requires all lower-order correlators to vanish"
            )
        core = CorrelationTensor(Scenario(N, m, marginals=False), r.entries[full])
        base = ball_decomposition(core)
        atoms, weights = [], []
        split = Fraction(1, 1 << (N - 1))
        for a, w in zip(base.atoms, base.weights):
            for variant in _even_flip_orbit(a, N):
                atoms.append(variant)
                weights.append(w * split)
        return BallDecomposition(sc, atoms, weights, base.deficit)

    K, L = common_denominator(r.entries.reshape(-1))
    V = exact_operand(K).reshape(sc.shape)
    S = _lex_sign_batch(0, 1 << (m - 1), m, V.dtype)
    for _ in range(N):
        V = np.tensordot(V, S, axes=([0], [1]))  # V[i_0, ..., i_N-1] = <K, d_i>
    codes = [int(c) for c in (S < 0) @ (1 << np.arange(m))]  # packed signs of row i
    denom = L << (N * (m - 1))
    merged = {}
    for i in zip(*np.nonzero(V)):
        v, bits = int(V[i]), [codes[j] for j in i]
        bits[-1] ^= (1 << m) - 1 if v < 0 else 0  # -d: the last party flipped
        merged[DeterministicStrategy(bits, m)] = Fraction(abs(v), denom)

    # s * |<r/s, d>| / 2^(N(m-1)) is the weight above; fill it up to s
    s = sqrt_upper(nsq)
    total = Fraction(sum(abs(int(x)) for x in V.flat), denom)
    if total > s:
        raise AssertionError("weight sum exceeded the norm bound on an in-ball tensor")
    if total < s:
        d = DeterministicStrategy([0] * N, m)
        for atom in (d, d.flip_parties([0])):
            atom = atom.canonical(sc)
            merged[atom] = merged.get(atom, 0) + (s - total) / 2

    return BallDecomposition(sc, list(merged), list(merged.values()), 1 - s)


# --- rational reconstruction of solver output -------------------------------


@dataclass
class RationalModel:
    atoms: list
    weights: list            # Fractions
    residual_sq: Fraction


def rationalize_weights(active, p, v0):
    """Round a float active set to dyadic rationals and recompute the residual.

    Weights are rounded to denominator 2^48 and clipped at zero; if rounding
    pushed the sum above 1 the excess is taken from the largest weight, and
    any deficit implicitly rides on the zero tensor.  The residual against
    v0 * p is then recomputed in exact arithmetic, so p must be exact.
    """
    if not p.is_exact:
        raise CertificateError(lower_refusal(p.scenario, False))

    v0 = Fraction(v0)
    atoms, weights = [], []
    for a, w in zip(active.atoms, active.weights):
        q = Fraction(round(float(w) * WEIGHT_DENOMINATOR), WEIGHT_DENOMINATOR)
        if q > 0:
            atoms.append(a)
            weights.append(q)
    total = exact_sum(weights)
    if total > 1:
        i = max(range(len(weights)), key=lambda k: weights[k])
        weights[i] -= total - 1
        if weights[i] < 0:
            raise CertificateError("weight rounding could not be repaired")

    return RationalModel(atoms, weights, _exact_residual_sq(atoms, weights, p, v0))


def _exact_residual_sq(atoms, weights, p, v0):
    """||sum_i w_i d_i - v0 p||^2 as an exact Fraction, root entry excluded.

    With sum_i w_i d_i = X / D (``_integer_model``), v0 = a/b and P the lcm of
    the denominators of p, the residual is ||X b P - a D (p P)||^2 / (D b P)^2,
    summed in Python ints.
    """
    sc = p.scenario
    X, D = _integer_model(atoms, weights, sc)

    v0 = Fraction(v0)
    target, P = common_denominator(p.entries.reshape(-1))
    scale_x = v0.denominator * P
    scale_p = v0.numerator * D
    diff = [int(x) * scale_x - scale_p * t for x, t in zip(X, target)]
    if sc.marginals:
        diff[0] = 0  # the root entry, index (0, ..., 0)
    return Fraction(sum(d * d for d in diff), (D * scale_x) ** 2)


# --- certificate objects -----------------------------------------------------


@dataclass(frozen=True)
class TargetSpec:
    """Self-contained description of the quantum tensor a certificate is about."""

    kind: str                     # "singlet", "ghz-polygon", "tensor"
    alice: tuple = None           # Bloch triples, rational or float (singlet)
    bob: tuple = None
    tensor: CorrelationTensor = None

    def build(self, scenario):
        if self.kind == "singlet":
            return singlet_tensor(list(self.alice), list(self.bob), scenario)
        if self.kind == "ghz-polygon":
            t = ghz_polygon_tensor(scenario.parties, scenario.inputs)
            if t.scenario != scenario:
                raise CertificateError("polygon target does not match scenario")
            return t
        if self.kind == "tensor":
            if self.tensor.scenario != scenario:
                raise CertificateError("embedded tensor does not match scenario")
            return self.tensor
        raise CertificateError(f"unknown target kind {self.kind!r}")


@dataclass
class LowerBoundCertificate:
    scenario: Scenario
    target: TargetSpec
    v0: Fraction
    eta_sq: object                # Fraction or None for finite-scenario scope
    vertices: tuple               # RationalPoint tuple or None
    atoms: list
    weights: list
    residual_sq: Fraction
    nu: Fraction
    v_low: Fraction
    kind = "lower"  # a class attribute, not a field

    @property
    def scope(self):
        return "all projective measurements" if self.eta_sq is not None else (
            f"the fixed {self.scenario.inputs}-input scenario"
        )


@dataclass
class UpperBoundCertificate:
    scenario: Scenario
    target: TargetSpec
    functional: CorrelationTensor  # integer Bell functional M
    ell: int
    q: object                     # Fraction (exact) or float
    v_up: object
    kind = "upper"  # a class attribute, not a field

    @property
    def q_exact(self):
        return isinstance(self.q, Fraction)


def lower_refusal(scenario, exact):
    """Why no lower certificate can cover the scenario, or None; ``exact``
    says whether the target, and so the rounded model, is rational."""
    if scenario.marginals:
        return ("lower certificates need a full-correlation scenario; "
                "lower-order correlators are outside the certified domain")
    if not exact:
        return "lower certificates need an exact rational target and model"
    return None


def assemble_lower(scenario, poly, v0, model, target):
    """Combine an exact rational model into a lower-bound certificate.

    v_low = lb(eta^N) * nu * v0, with eta^N computed exactly for even N and
    bounded below by an integer-sqrt floor for odd N; without a polyhedron the
    certificate is scoped to the finite scenario and the eta factor is 1.
    """
    refusal = lower_refusal(scenario, True)  # rationalize_weights refused inexact targets
    if refusal:
        raise CertificateError(refusal)
    v0 = Fraction(v0)
    if not 0 <= v0 <= 1:
        raise CertificateError("v0 must lie in [0, 1]")
    nu = nu_factor(model.residual_sq)
    if nu < MIN_NU:
        raise CertificateError(f"residual too large: nu = {float(nu):.4f} < {float(MIN_NU)}")
    N = scenario.parties
    eta_pow, eta_sq, vertices = Fraction(1), None, None
    if poly is not None:
        eta_sq, vertices = Fraction(poly.eta_sq), tuple(poly.vertices)
        eta_pow = eta_sq ** (N // 2) if N % 2 == 0 else sqrt_lower(eta_sq**N)
    return LowerBoundCertificate(scenario, target, v0, eta_sq, vertices, list(model.atoms),
                                 list(model.weights), Fraction(model.residual_sq), nu,
                                 eta_pow * nu * v0)


def integerize_functional(functional, scale=10**4):
    """Round a float functional to integers and divide out the common factor."""
    arr = functional.entries.astype(np.float64)
    peak = np.abs(arr).max()
    if peak == 0:
        raise CertificateError("cannot integerize the zero functional")
    ints = np.round(arr * (scale / peak)).astype(np.int64)
    if not ints.any():
        raise CertificateError("functional rounded to zero; increase the scale")
    g = int(np.gcd.reduce(np.abs(ints[ints != 0]).reshape(-1)))
    ints //= max(g, 1)
    obj = np.array([int(v) for v in ints.reshape(-1)], dtype=object).reshape(arr.shape)
    return CorrelationTensor(functional.scenario, obj)


def assemble_upper(functional, ell, p, target):
    """Integer Bell functional + exact local bound -> v_up = ell / <M, p>."""
    if integer_entries(functional) is None:
        raise CertificateError("upper certificates need an integer functional")
    if isinstance(ell, bool) or not isinstance(ell, (int, np.integer)):
        raise CertificateError("local bound must be an exact integer")
    ell = int(ell)
    q = inner(functional, p)
    if isinstance(q, Fraction):
        if q <= ell:
            raise CertificateError("no violation: quantum value does not exceed the local bound")
        v_up = Fraction(ell) / q
    else:
        q = float(q)
        if q <= ell + Q_TOL:
            raise CertificateError("no violation beyond tolerance; rerun or rescale")
        v_up = ell / q
    return UpperBoundCertificate(p.scenario, target, functional, ell, q, v_up)


# --- derived constants -------------------------------------------------------

POVM_FACTOR = Fraction(2, 3)


def derived_bounds(cert):
    """Consequence report: POVM bound, Grothendieck-constant interval side,
    planar-polygon shrinking for GHZ certificates."""
    lines = []
    values = {}
    singlet = cert.target.kind == "singlet"
    if cert.kind == "lower":
        v = cert.v_low
        if singlet and cert.eta_sq is not None:
            povm = POVM_FACTOR * v
            values["povm_lower"] = povm
            lines.append(f"POVM threshold lower bound 2/3 * v_low = {float(povm):.5f}")
            if v:  # v_low = 0 bounds nothing; past the float range 1/v_low shows in Decimal
                kg = 1 / v
                values["grothendieck_upper"] = kg
                lines.append("K_G(3) <= 1/v_low = " + (f"{float(kg):.5f}" if kg < 2**1023
                             else f"{Decimal(kg.numerator) / kg.denominator:.5e}"))
    else:
        v = cert.v_up
        if singlet:
            kg = (1 / v) if isinstance(v, Fraction) else 1.0 / v
            values["grothendieck_lower"] = kg
            lines.append(f"K_G(3) >= 1/v_up = {float(kg):.5f}")
    if cert.target.kind == "ghz-polygon":
        N, m = cert.scenario.parties, cert.scenario.inputs
        factor = math.cos(math.pi / (2 * m)) ** N
        planar = float(v) * factor
        values["planar_threshold"] = planar
        lines.append(
            f"planar-measurement threshold bound cos(pi/{2*m})^{N} * v = {planar:.5f}"
        )
    return values, lines


# --- verification ------------------------------------------------------------


def _fail(reason):
    return False, reason


def verify(cert):
    """Re-derive every claim of a certificate from its own data.

    Returns (ok, reason); the reason names the first violated invariant.
    Nothing from the generating solver run is trusted.  ok is None ("unproven:
    ...") when an upper certificate passes every other check but its local
    bound lies past the enumeration cap.
    """
    if isinstance(cert, LowerBoundCertificate):
        return _verify_lower(cert)
    if isinstance(cert, UpperBoundCertificate):
        return _verify_upper(cert)
    return _fail("unknown certificate type")


def _verify_lower(cert):
    sc = cert.scenario
    if sc.marginals:
        return _fail("scenario outside the certified domain (lower-order correlators)")
    if not (0 <= cert.v0 <= 1):
        return _fail("v0 outside [0, 1]")
    if any(w < 0 for w in cert.weights):
        return _fail("negative weight")
    if len(cert.weights) != len(cert.atoms):
        return _fail("atom/weight length mismatch")
    total = exact_sum(cert.weights)
    if total > 1:
        return _fail("weight sum exceeds 1")
    seen = set()
    for a in cert.atoms:
        if a.parties != sc.parties or a.inputs != sc.inputs:
            return _fail("atom does not match scenario")
        key = a.canonical(sc)
        if key in seen:
            return _fail("duplicate atom")
        seen.add(key)

    try:
        p = cert.target.build(sc)
    except Exception as e:  # malformed embedded target
        return _fail(f"target reconstruction failed: {e}")
    if not p.is_exact:
        return _fail("target is not exactly rational")

    if _exact_residual_sq(cert.atoms, cert.weights, p, cert.v0) != cert.residual_sq:
        return _fail("residual mismatch")

    if not (0 < cert.nu <= 1):
        return _fail("nu outside (0, 1]")
    if cert.residual_sq > (1 / cert.nu - 1) ** 2:  # at nu = 1: a nonzero residual
        return _fail("nu too large for the residual")

    if cert.eta_sq is None:
        if cert.v_low > cert.nu * cert.v0:
            return _fail("v_low exceeds nu * v0")
    else:
        if cert.vertices is None:
            return _fail("eta claimed without polyhedron vertices")
        vertex_set = {v.xyzd for v in cert.vertices}
        if any(X * X + Y * Y + Z * Z != D * D for X, Y, Z, D in vertex_set):
            return _fail("vertex off the unit sphere")
        if any((-X, -Y, -Z, D) not in vertex_set for X, Y, Z, D in vertex_set):
            return _fail("vertex set not closed under antipodes")
        if cert.target.kind == "singlet":
            meas = {(*xyz, D) for xyz, D in
                    map(common_denominator, (*cert.target.alice, *cert.target.bob))}
            if not meas <= vertex_set:
                return _fail("measurement is not a polyhedron vertex")
            if len(cert.target.alice) * 2 != len(vertex_set):
                return _fail("measurements do not span the polyhedron")
        try:
            poly = faces_and_eta(list(cert.vertices))
        except Exception as e:
            return _fail(f"hull reconstruction failed: {e}")
        if poly.eta_sq != cert.eta_sq:
            return _fail("eta mismatch")
        N = sc.parties
        rhs_sq = cert.eta_sq**N * (cert.nu * cert.v0) ** 2
        if cert.v_low < 0 or cert.v_low**2 > rhs_sq:
            return _fail("v_low exceeds eta^N * nu * v0")
    return True, "ok"


def _verify_upper(cert):
    sc = cert.scenario
    M = cert.functional
    if M.scenario != sc:
        return _fail("functional does not match scenario")
    if integer_entries(M) is None:
        return _fail("functional is not integer")
    if not isinstance(cert.ell, int):
        return _fail("local bound is not an integer")

    proven = enumerable(sc)
    if proven and local_bound(M).value != cert.ell:
        return _fail("local bound mismatch")

    try:
        p = cert.target.build(sc)
    except Exception as e:
        return _fail(f"target reconstruction failed: {e}")
    q = inner(M, p)
    if cert.q_exact:
        if not isinstance(q, Fraction):
            return _fail("quantum value not reproducible exactly")
        if q != cert.q:
            return _fail("quantum value mismatch")
        if q <= cert.ell:
            return _fail("no violation")
        if cert.v_up != Fraction(cert.ell) / q:
            return _fail("v_up mismatch")
    else:
        # the file's TOL is not read: it must not widen this check.
        # Every comparison below is False on nan, so non-finite values fail here
        try:
            qf, file_q, v_up, ell = (float(v) for v in (q, cert.q, cert.v_up, cert.ell))
        except OverflowError:
            return _fail("quantum value or local bound outside the float range")
        if not all(math.isfinite(v) for v in (qf, file_q, v_up)):
            return _fail("non-finite quantum value or v_up")
        if abs(qf - file_q) > Q_TOL:
            return _fail("quantum value mismatch")
        if qf <= cert.ell:
            return _fail("no violation")
        if abs(v_up - ell / qf) > 1e-12:
            return _fail("v_up mismatch")
    if not proven:
        return None, (f"unproven: local bound past the enumeration cap, "
                      f"(N-1)*m = {(sc.parties - 1) * sc.inputs} > {EXHAUSTIVE_CAP}")
    return True, "ok"


# --- certificate files -------------------------------------------------------


@contextlib.contextmanager
def _digit_limit(sc):
    """Lift the int/str digit limit for one certificate's numbers, then restore it.

    The longest is RESIDUAL_SQ, over (D b P)^2 (``_exact_residual_sq``), with P
    the lcm of the target's denominators.  P divides the product of the N*m
    measurements' denominators, at most DIGITS_PER_INPUT digits each, and the
    interpreter's default 4300 digits covers D b and the numerator's overhang:
    2 (32 N m + 4300) digits, 60568 at the paper's m = 406, where P has 2542.
    """
    old = sys.get_int_max_str_digits()
    default = sys.int_info.default_max_str_digits
    sys.set_int_max_str_digits(2 * (DIGITS_PER_INPUT * sc.parties * sc.inputs + default))
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def write_certificate(cert, fp):
    sc = cert.scenario
    with _digit_limit(sc):
        fp.write(f"{cert.kind.upper()}-CERTIFICATE\n")
        fp.write(f"SCENARIO {sc.parties} {sc.inputs} {'true' if sc.marginals else 'false'}\n")
        fp.write(f"TARGET {cert.target.kind}\n")
        if cert.target.kind == "singlet":
            for key, vecs in (("MEASUREMENTS_A", cert.target.alice),
                              ("MEASUREMENTS_B", cert.target.bob)):
                fp.write(f"{key} {len(vecs)}\n")
                fp.writelines(format_row(v) + "\n" for v in vecs)
        elif cert.target.kind == "tensor":
            fp.write("TENSOR\n")
            write_tensor(cert.target.tensor, fp)

        if cert.kind == "lower":
            if cert.vertices is not None:
                fp.write(f"VERTICES {len(cert.vertices)}\n")
                fp.writelines(format_row(v.as_tuple()) + "\n" for v in cert.vertices)
            eta = "none" if cert.eta_sq is None else format_number(cert.eta_sq)
            fp.write(f"ETA_SQ {eta}\n")
            fp.write(f"V0 {format_number(cert.v0)}\n")
            fp.write(f"ATOMS {len(cert.atoms)}\n")
            fp.writelines(a.to_string() + "\n" for a in cert.atoms)
            fp.write(f"WEIGHTS {len(cert.weights)}\n")
            fp.writelines(format_number(w) + "\n" for w in cert.weights)
            fp.write(f"RESIDUAL_SQ {format_number(cert.residual_sq)}\n")
            fp.write(f"NU {format_number(cert.nu)}\n")
            fp.write(f"V_LOW {format_number(cert.v_low)}\n")
        else:
            fp.write("M\n")
            write_tensor(cert.functional, fp)
            fp.write(f"ELL {format_number(cert.ell)}\n")
            if cert.q_exact:
                fp.write(f"Q {format_number(cert.q)}\n")
                fp.write(f"V_UP {format_number(cert.v_up)}\n")
            else:
                fp.write(f"Q {format_number(float(cert.q))} TOL {format_number(Q_TOL)}\n")
                fp.write(f"V_UP {format_number(float(cert.v_up))}\n")
        fp.write("END\n")


class _Lines:
    def __init__(self, fp):
        self.lines = [ln.rstrip("\n") for ln in fp]
        self.pos = 0

    def next(self):
        while self.pos < len(self.lines):
            ln = self.lines[self.pos]
            self.pos += 1
            if ln.strip():
                return ln.strip()
        raise CertificateError("unexpected end of certificate")

    def keyed(self, key, *counts):
        """Values after ``key`` on the next line; their number must be one of
        ``counts`` (default 1)."""
        toks = self.next().split()
        if toks[0] != key or len(toks) - 1 not in (counts or (1,)):
            raise CertificateError(f"expected a {key} line")
        return toks[1:]

    def peek(self):
        ln = self.next()
        self.pos -= 1  # next() returned the line just before pos
        return ln


def _read_triples(lines, count, parse):
    rows = [lines.next().split() for _ in range(count)]
    if any(len(r) != 3 for r in rows):
        raise CertificateError("malformed vector line")
    return tuple(tuple(map(parse, r)) for r in rows)


def _read_embedded_tensor(lines):
    sc = scenario_from_tokens(lines.next().split())
    toks = []
    while len(toks) < sc.num_entries:
        toks += lines.next().split()
    return tensor_from_tokens(sc, toks)


def read_certificate(fp):
    """Parse a certificate file; every malformed input raises CertificateError."""
    try:
        lines = _Lines(fp)
        head = lines.next()
        if head not in ("LOWER-CERTIFICATE", "UPPER-CERTIFICATE"):
            raise CertificateError(f"unrecognised header {head!r}")
        sc = scenario_from_tokens(lines.keyed("SCENARIO", 3))
        with _digit_limit(sc):
            return _read_certificate(lines, head == "LOWER-CERTIFICATE", sc)
    except CertificateError:
        raise
    except (IndexError, KeyError, OverflowError, ValueError, ZeroDivisionError) as e:
        raise CertificateError(f"malformed certificate: {e}") from e


def _read_certificate(lines, lower, sc):
    (target_kind,) = lines.keyed("TARGET")
    alice = bob = tensor = None
    if target_kind == "singlet":
        alice = _read_triples(lines, int(lines.keyed("MEASUREMENTS_A")[0]), parse_value)
        bob = _read_triples(lines, int(lines.keyed("MEASUREMENTS_B")[0]), parse_value)
    elif target_kind == "tensor":
        if lines.next() != "TENSOR":
            raise CertificateError("missing TENSOR section")
        tensor = _read_embedded_tensor(lines)
    target = TargetSpec(target_kind, alice, bob, tensor)

    if lower:
        vertices = None
        if lines.peek().startswith("VERTICES"):
            raw = _read_triples(lines, int(lines.keyed("VERTICES")[0]), parse_exact)
            vertices = tuple(RationalPoint(*v) for v in raw)
        (eta_tok,) = lines.keyed("ETA_SQ")
        eta_sq = None if eta_tok == "none" else parse_exact(eta_tok)
        v0 = parse_exact(lines.keyed("V0")[0])
        n_atoms = int(lines.keyed("ATOMS")[0])
        atoms = [DeterministicStrategy.from_string(lines.next()) for _ in range(n_atoms)]
        n_weights = int(lines.keyed("WEIGHTS")[0])
        weights = [parse_exact(lines.next()) for _ in range(n_weights)]
        residual_sq = parse_exact(lines.keyed("RESIDUAL_SQ")[0])
        nu = parse_exact(lines.keyed("NU")[0])
        v_low = parse_exact(lines.keyed("V_LOW")[0])
        if lines.next() != "END":
            raise CertificateError("missing END")
        return LowerBoundCertificate(
            sc, target, v0, eta_sq, vertices, atoms, weights, residual_sq, nu, v_low
        )

    if lines.next() != "M":
        raise CertificateError("missing M section")
    functional = _read_embedded_tensor(lines)
    ell = parse_value(lines.keyed("ELL")[0])
    qvals = lines.keyed("Q", 1, 3)
    if len(qvals) == 3:
        if qvals[1] != "TOL":
            raise CertificateError("expected a Q line")
        parse_value(qvals[2])  # the TOL must be a number, but verify does not use it
        q, v_up = float(parse_value(qvals[0])), float(parse_value(lines.keyed("V_UP")[0]))
    else:
        q, v_up = parse_exact(qvals[0]), parse_exact(lines.keyed("V_UP")[0])
    if lines.next() != "END":
        raise CertificateError("missing END")
    return UpperBoundCertificate(sc, target, functional, ell, q, v_up)

"""Exact certificates for membership bounds.

Solver output is floating point; everything here is redone over the rationals
so that a certificate stands on arithmetic identities alone.  Lower bounds
combine an exact convex decomposition residual with the contraction factor
nu = 1/(1 + ||x_T - v0 p||_2) and, when the measurements come from a
polyhedron, the exact shrinking factor eta^2.  Upper bounds pair an integer
Bell functional with its exact local bound.

Every irrational square root is replaced by a directed rational bound at
denominator scale 10^18, always rounded in the direction that weakens the
claimed bound.  Two float shortcuts run on BLAS only while every partial sum
is an integer of magnitude at most 2^53, so they are exact: the integer
tensor of a model in ``_exact_residual_sq``, and the local bound of an
integer functional in ``lmo.exhaustive_lmo``.
"""

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .lmo import (BellFunctional, EXHAUSTIVE_CAP, enumerable, local_bound,
                  maximize_functional_heuristic)
from .polyhedra import RationalPoint, faces_and_eta
from .states import ghz_polygon_tensor, singlet_tensor
from .tensor import (
    CorrelationTensor,
    DeterministicStrategy,
    Scenario,
    combine_rows,
    inner,
    norm2_sq,
    strategy_tensor,
    tensor_strategy_inner,
)

# maximize_functional_heuristic is not called here: bench/tracing.py wraps it,
# local_bound, strategy_tensor and tensor_strategy_inner in this namespace.

SQRT_SCALE = 10**18
WEIGHT_DENOMINATOR = 2**48
BALL_CAP = 22  # max N*m for materialising the ball decomposition
Q_TOL = 1e-9  # float quantum values: violation margin and verify's match tolerance


class CertificateError(ValueError):
    pass


def sqrt_upper(q, scale=SQRT_SCALE):
    """Smallest n/scale with (n/scale)^2 >= q."""
    q = Fraction(q)
    if q < 0:
        raise ValueError("negative radicand")
    t = q.numerator * scale * scale
    n = math.isqrt(t // q.denominator)
    while n * n * q.denominator < t:
        n += 1
    return Fraction(n, scale)


def sqrt_lower(q, scale=SQRT_SCALE):
    """Largest n/scale with (n/scale)^2 <= q."""
    q = Fraction(q)
    if q < 0:
        raise ValueError("negative radicand")
    t = q.numerator * scale * scale
    n = math.isqrt(t // q.denominator)
    while n * n * q.denominator > t:
        n -= 1
    while (n + 1) * (n + 1) * q.denominator <= t:
        n += 1
    return Fraction(n, scale)


def nu_factor(residual_sq):
    """Rational lower bound on 1/(1 + sqrt(residual_sq)); equals it when exact."""
    s = sqrt_upper(residual_sq)
    return 1 / (1 + s)


# --- the 2-norm-ball decomposition -----------------------------------------


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
        return sum(self.weights, Fraction(0) if self.is_exact else 0.0)

    @property
    def is_exact(self):
        return all(isinstance(w, Fraction) for w in self.weights)

    def reconstruct(self):
        exact = self.is_exact
        out = CorrelationTensor.zeros(self.scenario, exact=exact)
        ent = out.entries
        for w, a in zip(self.weights, self.atoms):
            ent = ent + w * strategy_tensor(a, self.scenario, exact=exact).entries
        if self.scenario.marginals:
            ent[(0,) * self.scenario.parties] = 1 if exact else 1.0
        return CorrelationTensor(self.scenario, ent)


def _half_group(parties, inputs):
    """All sign assignments whose per-party first signs multiply to +1."""
    total_bits = parties * inputs
    mask = (1 << inputs) - 1
    for g in range(1 << total_bits):
        chunks = [(g >> (n * inputs)) & mask for n in range(parties)]
        if sum(c & 1 for c in chunks) % 2 == 0:
            yield DeterministicStrategy(chunks, inputs)


def _even_flip_orbit(strategy, parties):
    """The 2^(N-1) even-party-flip variants of a strategy."""
    out = []
    for mask in range(1 << parties):
        if bin(mask).count("1") % 2 == 0:
            out.append(
                strategy.flip_parties([n for n in range(parties) if mask >> n & 1])
            )
    return out


def ball_decomposition(r):
    """Explicit local model for a tensor with ||r||_2 <= 1.

    Valid on full-correlation content only: either a no-marginal scenario, or
    a marginal-slot tensor whose lower-order correlators all vanish (the model
    is then symmetrised over even party flips, which kills the atoms' own
    lower-order correlators exactly).

    With s = sqrt_upper(||r||^2) (sqrt(||r||^2) for float input), r/s is
    decomposed with weights |<r/s, d_a>| / 2^(Nm-1) over the assignments whose
    first signs multiply to +1, signs folded into the first party.  By
    Cauchy-Schwarz these sum to at most ||r||_2 / s <= 1; the slack is put,
    half each, on an explicit antipodal pair d, -d, which cancel.  Every
    weight is then multiplied by s, so the weights are nonnegative and sum to
    s (exactly, for exact input), and the deficit 1 - s rides on the zero
    tensor.  A tensor of unit norm thus gets a full distribution over
    strategies.
    """
    sc = r.scenario
    N, m = sc.parties, sc.inputs
    if N * m > BALL_CAP:
        raise CertificateError(
            f"decomposition materialises 2^(N*m-1) atoms; capped at N*m <= {BALL_CAP}, "
            "certify through the contraction factor instead"
        )
    exact = r.is_exact

    nsq = norm2_sq(r)
    if (nsq > 1) if exact else (nsq > 1 + 1e-12):
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
        core = CorrelationTensor(
            Scenario(N, m, marginals=False), r.entries[full]
        )
        base = ball_decomposition(core)
        atoms, weights = [], []
        split = Fraction(1, 1 << (N - 1)) if exact else 1.0 / (1 << (N - 1))
        for a, w in zip(base.atoms, base.weights):
            for variant in _even_flip_orbit(a, N):
                atoms.append(variant)
                weights.append(w * split)
        return BallDecomposition(sc, atoms, weights, base.deficit)

    denom = 1 << (N * m - 1)
    merged = {}
    for a in _half_group(N, m):
        w = tensor_strategy_inner(r, a)
        if w == 0:
            continue
        atom = a if w > 0 else a.flip_parties([0])
        atom = atom.canonical(sc)
        weight = (
            Fraction(abs(w)) / denom if exact else abs(float(w)) / denom
        )
        merged[atom] = merged.get(atom, Fraction(0) if exact else 0.0) + weight

    # s * |<r/s, d_a>| / denom is the weight above; fill it up to s
    s = sqrt_upper(nsq) if exact else math.sqrt(nsq)
    total = sum(merged.values(), Fraction(0) if exact else 0.0)
    if exact and total > s:
        raise AssertionError("weight sum exceeded the norm bound on an in-ball tensor")
    if total < s:
        d = DeterministicStrategy([0] * N, m)
        for atom in (d, d.flip_parties([0])):
            atom = atom.canonical(sc)
            merged[atom] = merged.get(atom, 0) + (s - total) / 2

    atoms = list(merged.keys())
    weights = [merged[a] for a in atoms]
    return BallDecomposition(sc, atoms, weights, 1 - s)


# --- rational reconstruction of solver output -------------------------------


@dataclass
class RationalModel:
    atoms: list
    weights: list            # Fractions when exact
    residual_sq: object      # Fraction when exact
    exact: bool


def rationalize_weights(active, p, v0):
    """Round a float active set to dyadic rationals and recompute the residual.

    Weights are rounded to denominator 2^48 and clipped at zero; if rounding
    pushed the sum above 1 the excess is taken from the largest weight, and
    any deficit implicitly rides on the zero tensor.  The residual against
    v0 * p is then recomputed in exact arithmetic.
    """
    if not p.is_exact:
        warnings.warn("target tensor is not rational; residual stays floating point")
        x = active.recompute_iterate()
        diff = x - float(v0) * p.entries
        if p.scenario.marginals:
            diff[(0,) * p.scenario.parties] = 0.0
        return RationalModel(
            list(active.atoms),
            [float(w) for w in active.weights],
            float(np.dot(diff.reshape(-1), diff.reshape(-1))),
            exact=False,
        )

    v0 = Fraction(v0)
    atoms, weights = [], []
    for a, w in zip(active.atoms, active.weights):
        q = Fraction(round(float(w) * WEIGHT_DENOMINATOR), WEIGHT_DENOMINATOR)
        if q > 0:
            atoms.append(a)
            weights.append(q)
    total = sum(weights, Fraction(0))
    if total > 1:
        i = max(range(len(weights)), key=lambda k: weights[k])
        weights[i] -= total - 1
        if weights[i] < 0:
            raise CertificateError("weight rounding could not be repaired")

    residual_sq = _exact_residual_sq(atoms, weights, p, v0)
    return RationalModel(atoms, weights, residual_sq, exact=True)


def _exact_residual_sq(atoms, weights, p, v0):
    """||sum_i w_i d_i - v0 p||^2 as an exact Fraction, root entry excluded.

    With D the lcm of the weight denominators, k_i = w_i D are integers and
    X = sum_i k_i s_i^(1) x ... x s_i^(N) is an integer tensor, built as one
    matrix product of the stacked +-1 sign matrices.  In float64 that product
    is exact in any summation order while sum_i |k_i| <= 2^53: every term is
    +-k_i and every partial sum is an integer of magnitude at most
    sum_i |k_i|, hence representable.  Above that bound the same product runs
    on Python ints.  With v0 = a/b and P the lcm of the denominators of p,
    the residual is ||X b P - a D (p P)||^2 / (D b P)^2, summed in Python ints.
    """
    sc = p.scenario
    weights = [Fraction(w) for w in weights]
    D = math.lcm(*(w.denominator for w in weights))
    k = [w.numerator * (D // w.denominator) for w in weights]
    dtype = np.float64 if sum(abs(x) for x in k) <= 2**53 else object
    signs = []
    for n in range(sc.parties):
        S = np.array([a.signs(n) for a in atoms], dtype=np.int8).reshape(len(atoms), sc.inputs)
        if sc.marginals:
            S = np.hstack([np.ones((len(atoms), 1), dtype=np.int8), S])
        signs.append(S.astype(dtype))
    X = combine_rows(np.array(k, dtype=dtype), signs).reshape(-1)
    if dtype is np.float64:
        X = X.astype(np.int64)

    v0 = Fraction(v0)
    target = [Fraction(x) for x in p.entries.reshape(-1)]
    P = math.lcm(*(t.denominator for t in target))
    scale_x = v0.denominator * P
    scale_p = v0.numerator * D
    diff = [
        int(x) * scale_x - scale_p * t.numerator * (P // t.denominator)
        for x, t in zip(X, target)
    ]
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

    @property
    def is_exact(self):
        if self.kind == "singlet":
            return all(
                isinstance(c, (Fraction, int)) for v in self.alice + self.bob for c in v
            )
        if self.kind == "ghz-polygon":
            return True
        return self.tensor is not None and self.tensor.is_exact

    def build(self, scenario):
        if self.kind == "singlet":
            return singlet_tensor(list(self.alice), list(self.bob), scenario)
        if self.kind == "ghz-polygon":
            exact = scenario.inputs <= 3
            t = ghz_polygon_tensor(scenario.parties, scenario.inputs, exact=exact)
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

    @property
    def kind(self):
        return "lower"

    @property
    def scope(self):
        return "all projective measurements" if self.eta_sq is not None else (
            f"the fixed {self.scenario.inputs}-input scenario"
        )


@dataclass
class UpperBoundCertificate:
    scenario: Scenario
    target: TargetSpec
    functional: BellFunctional
    ell: int
    q: object                     # Fraction (exact) or float
    v_up: object
    q_tol: float = 0.0

    @property
    def kind(self):
        return "upper"

    @property
    def q_exact(self):
        return isinstance(self.q, Fraction)


def assemble_lower(scenario, poly, v0, model, target, min_nu=Fraction(1, 2)):
    """Combine an exact rational model into a lower-bound certificate.

    v_low = lb(eta^N) * nu * v0, with eta^N computed exactly for even N and
    bounded below by an integer-sqrt floor for odd N; without a polyhedron the
    certificate is scoped to the finite scenario and the eta factor is 1.
    """
    if scenario.marginals:
        raise CertificateError(
            "lower certificates need a full-correlation scenario; "
            "lower-order correlators are outside the certified domain"
        )
    if not model.exact:
        raise CertificateError("lower certificates need an exact rational model")
    v0 = Fraction(v0)
    if not 0 <= v0 <= 1:
        raise CertificateError("v0 must lie in [0, 1]")
    nu = nu_factor(model.residual_sq)
    if nu < min_nu:
        raise CertificateError(
            f"residual too large: nu = {float(nu):.4f} < {float(min_nu)}"
        )
    N = scenario.parties
    if poly is None:
        eta_pow = Fraction(1)
        eta_sq = None
        vertices = None
    else:
        eta_sq = Fraction(poly.eta_sq)
        vertices = tuple(poly.vertices)
        if N % 2 == 0:
            eta_pow = eta_sq ** (N // 2)
        else:
            eta_pow = sqrt_lower(eta_sq**N)
    v_low = eta_pow * nu * v0
    return LowerBoundCertificate(
        scenario,
        target,
        v0,
        eta_sq,
        vertices,
        list(model.atoms),
        list(model.weights),
        Fraction(model.residual_sq),
        nu,
        v_low,
    )


def integerize_functional(functional, scale=10**4):
    """Round a float functional to integers and divide out the common factor."""
    arr = functional.tensor.entries.astype(np.float64)
    peak = np.abs(arr).max()
    if peak == 0:
        raise CertificateError("cannot integerize the zero functional")
    ints = np.round(arr * (scale / peak)).astype(np.int64)
    if not ints.any():
        raise CertificateError("functional rounded to zero; increase the scale")
    g = int(np.gcd.reduce(np.abs(ints[ints != 0]).reshape(-1)))
    ints //= max(g, 1)
    obj = np.array([int(v) for v in ints.reshape(-1)], dtype=object).reshape(arr.shape)
    return BellFunctional(CorrelationTensor(functional.scenario, obj))


def assemble_upper(functional, ell, p, target):
    """Integer Bell functional + exact local bound -> v_up = ell / <M, p>."""
    if not functional.is_integer:
        raise CertificateError("upper certificates need an integer functional")
    if isinstance(ell, bool) or not isinstance(ell, (int, np.integer)):
        raise CertificateError("local bound must be an exact integer")
    ell = int(ell)
    q = inner(functional.tensor, p)
    if isinstance(q, Fraction):
        if q <= ell:
            raise CertificateError("no violation: quantum value does not exceed the local bound")
        v_up = Fraction(ell) / q
        tol = 0.0
    else:
        q = float(q)
        if q <= ell + Q_TOL:
            raise CertificateError("no violation beyond tolerance; rerun or rescale")
        v_up = ell / q
        tol = Q_TOL
    return UpperBoundCertificate(p.scenario, target, functional, ell, q, v_up, tol)


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
            kg = 1 / v
            values["grothendieck_upper"] = kg
            lines.append(f"K_G(3) <= 1/v_low = {float(kg):.5f}")
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
    total = sum(cert.weights, Fraction(0))
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

    if not cert.target.is_exact:
        return _fail("target is not exactly rational")
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
    if cert.nu < 1:
        if cert.residual_sq > (1 / cert.nu - 1) ** 2:
            return _fail("nu too large for the residual")
    elif cert.residual_sq != 0:
        return _fail("nu too large for the residual")

    if cert.eta_sq is None:
        bound = cert.nu * cert.v0
        if cert.v_low > bound:
            return _fail("v_low exceeds nu * v0")
    else:
        if cert.vertices is None:
            return _fail("eta claimed without polyhedron vertices")
        for v in cert.vertices:
            if v.x**2 + v.y**2 + v.z**2 != 1:
                return _fail("vertex off the unit sphere")
        vertex_set = {v.as_tuple() for v in cert.vertices}
        for v in cert.vertices:
            if (-v.x, -v.y, -v.z) not in vertex_set:
                return _fail("vertex set not closed under antipodes")
        if cert.target.kind == "singlet":
            meas = set(cert.target.alice) | set(cert.target.bob)
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
    if not M.is_integer:
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
    q = inner(M.tensor, p)
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
        # the file's TOL is informational: it must not widen this check
        if abs(float(q) - float(cert.q)) > Q_TOL:
            return _fail("quantum value mismatch")
        if float(q) <= cert.ell:
            return _fail("no violation")
        if abs(float(cert.v_up) - cert.ell / float(q)) > 1e-12:
            return _fail("v_up mismatch")
    if not proven:
        return None, (f"unproven: local bound past the enumeration cap, "
                      f"(N-1)*m = {(sc.parties - 1) * sc.inputs} > {EXHAUSTIVE_CAP}")
    return True, "ok"


# --- certificate files -------------------------------------------------------


def _frac_str(x):
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _triple_str(v):
    return " ".join(
        _frac_str(c) if isinstance(c, (Fraction, int)) else repr(float(c)) for c in v
    )


def _parse_number(tok):
    if "/" in tok:
        return Fraction(tok)
    return float(tok)


def write_certificate(cert, fp):
    sc = cert.scenario
    fp.write(f"{cert.kind.upper()}-CERTIFICATE\n")
    fp.write(f"SCENARIO {sc.parties} {sc.inputs} {'true' if sc.marginals else 'false'}\n")
    fp.write(f"TARGET {cert.target.kind}\n")
    if cert.target.kind == "singlet":
        fp.write(f"MEASUREMENTS_A {len(cert.target.alice)}\n")
        for v in cert.target.alice:
            fp.write(_triple_str(v) + "\n")
        fp.write(f"MEASUREMENTS_B {len(cert.target.bob)}\n")
        for v in cert.target.bob:
            fp.write(_triple_str(v) + "\n")
    elif cert.target.kind == "tensor":
        from .tensor import write_tensor

        fp.write("TENSOR\n")
        write_tensor(cert.target.tensor, fp)

    if cert.kind == "lower":
        if cert.vertices is not None:
            fp.write(f"VERTICES {len(cert.vertices)}\n")
            for v in cert.vertices:
                fp.write(_triple_str(v.as_tuple()) + "\n")
        fp.write(f"ETA_SQ {_frac_str(cert.eta_sq) if cert.eta_sq is not None else 'none'}\n")
        fp.write(f"V0 {_frac_str(cert.v0)}\n")
        fp.write(f"ATOMS {len(cert.atoms)}\n")
        for a in cert.atoms:
            fp.write(a.to_string() + "\n")
        fp.write(f"WEIGHTS {len(cert.weights)}\n")
        for w in cert.weights:
            fp.write(_frac_str(w) + "\n")
        fp.write(f"RESIDUAL_SQ {_frac_str(cert.residual_sq)}\n")
        fp.write(f"NU {_frac_str(cert.nu)}\n")
        fp.write(f"V_LOW {_frac_str(cert.v_low)}\n")
    else:
        from .tensor import write_tensor

        fp.write("M\n")
        write_tensor(cert.functional.tensor, fp)
        fp.write(f"ELL {cert.ell}\n")
        if cert.q_exact:
            fp.write(f"Q {_frac_str(cert.q)}\n")
            fp.write(f"V_UP {_frac_str(cert.v_up)}\n")
        else:
            fp.write(f"Q {float(cert.q)!r} TOL {cert.q_tol!r}\n")
            fp.write(f"V_UP {float(cert.v_up)!r}\n")
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
        p = self.pos
        try:
            ln = self.next()
        except CertificateError:
            return None
        self.pos = p
        return ln


def _read_triples(lines, count):
    out = []
    for _ in range(count):
        toks = lines.next().split()
        if len(toks) != 3:
            raise CertificateError("malformed vector line")
        out.append(tuple(_parse_number(t) for t in toks))
    return tuple(out)


def _read_embedded_tensor(lines):
    from io import StringIO
    from .tensor import read_tensor

    header = lines.next()
    toks = header.split()
    sc = Scenario(int(toks[0]), int(toks[1]), toks[2] == "true")
    body = [header]
    got = 0
    while got < sc.num_entries:
        ln = lines.next()
        body.append(ln)
        got += len(ln.split())
    return read_tensor(StringIO("\n".join(body)))


def read_certificate(fp):
    """Parse a certificate file; every malformed input raises CertificateError."""
    try:
        return _read_certificate(_Lines(fp))
    except CertificateError:
        raise
    except (IndexError, KeyError, ValueError, ZeroDivisionError) as e:
        raise CertificateError(f"malformed certificate: {e}") from e


def _read_certificate(lines):
    head = lines.next()
    if head not in ("LOWER-CERTIFICATE", "UPPER-CERTIFICATE"):
        raise CertificateError(f"unrecognised header {head!r}")
    kind = "lower" if head.startswith("LOWER") else "upper"

    parties, inputs, marginals = lines.keyed("SCENARIO", 3)
    sc = Scenario(int(parties), int(inputs), marginals == "true")

    (target_kind,) = lines.keyed("TARGET")
    alice = bob = tensor = None
    if target_kind == "singlet":
        alice = _read_triples(lines, int(lines.keyed("MEASUREMENTS_A")[0]))
        bob = _read_triples(lines, int(lines.keyed("MEASUREMENTS_B")[0]))
    elif target_kind == "tensor":
        if lines.next() != "TENSOR":
            raise CertificateError("missing TENSOR section")
        tensor = _read_embedded_tensor(lines)
    target = TargetSpec(target_kind, alice, bob, tensor)

    if kind == "lower":
        vertices = None
        nxt = lines.peek()
        if nxt and nxt.startswith("VERTICES"):
            raw = _read_triples(lines, int(lines.keyed("VERTICES")[0]))
            vertices = tuple(
                RationalPoint(Fraction(a), Fraction(b), Fraction(c)) for a, b, c in raw
            )
        (eta_tok,) = lines.keyed("ETA_SQ")
        eta_sq = None if eta_tok == "none" else Fraction(eta_tok)
        v0 = Fraction(lines.keyed("V0")[0])
        n_atoms = int(lines.keyed("ATOMS")[0])
        atoms = [DeterministicStrategy.from_string(lines.next()) for _ in range(n_atoms)]
        n_weights = int(lines.keyed("WEIGHTS")[0])
        weights = [Fraction(lines.next()) for _ in range(n_weights)]
        residual_sq = Fraction(lines.keyed("RESIDUAL_SQ")[0])
        nu = Fraction(lines.keyed("NU")[0])
        v_low = Fraction(lines.keyed("V_LOW")[0])
        if lines.next() != "END":
            raise CertificateError("missing END")
        return LowerBoundCertificate(
            sc, target, v0, eta_sq, vertices, atoms, weights, residual_sq, nu, v_low
        )

    if lines.next() != "M":
        raise CertificateError("missing M section")
    functional = BellFunctional(_read_embedded_tensor(lines))
    ell = int(lines.keyed("ELL")[0])
    qvals = lines.keyed("Q", 1, 3)
    if len(qvals) == 3:
        if qvals[1] != "TOL":
            raise CertificateError("expected a Q line")
        q = float(qvals[0])
        q_tol = float(qvals[2])
        v_up = float(lines.keyed("V_UP")[0])
    else:
        q = Fraction(qvals[0])
        q_tol = 0.0
        v_up = Fraction(lines.keyed("V_UP")[0])
    if lines.next() != "END":
        raise CertificateError("missing END")
    return UpperBoundCertificate(sc, target, functional, ell, q, v_up, q_tol)

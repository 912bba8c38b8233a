"""Property tests over truncated and mutated certificates: an m = 6 lower
certificate and CHSH upper certificates with an exact and with a float Q.

Reading a damaged file raises nothing but CertificateError, and a file whose
claims were changed never verifies.
"""

import dataclasses
import functools
import io
import math
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from localpolytope.certify import (  # noqa: E402
    MIN_NU,
    CertificateError,
    TargetSpec,
    _exact_residual_sq,
    assemble_lower,
    assemble_upper,
    nu_factor,
    rationalize_weights,
    read_certificate,
    verify,
    write_certificate,
)
from localpolytope.fw import SolverConfig, bpcg  # noqa: E402
from localpolytope.lmo import local_bound  # noqa: E402
from localpolytope.polyhedra import (  # noqa: E402
    antipodal_representatives,
    faces_and_eta,
    geodesic_icosahedron,
    rationalize,
    rationalize_all,
)
from localpolytope.states import singlet_tensor  # noqa: E402
from localpolytope.tensor import CorrelationTensor, Scenario  # noqa: E402

FUZZ = settings(derandomize=True, deadline=None, max_examples=60)


@functools.lru_cache(maxsize=None)
def m6_lines():
    points = rationalize_all(geodesic_icosahedron([]), tol=1e-9)
    vecs = tuple(p.as_tuple() for p in antipodal_representatives(points))
    p = singlet_tensor(list(vecs), list(vecs))
    v0 = Fraction(3, 5)
    res = bpcg(p, float(v0), SolverConfig(restarts=300, seed=2))
    model = rationalize_weights(res.active_set, p, v0)
    cert = assemble_lower(p.scenario, faces_and_eta(points), v0, model,
                          TargetSpec("singlet", vecs, vecs))
    buf = io.StringIO()
    write_certificate(cert, buf)
    return tuple(buf.getvalue().splitlines())


def verdict(lines):
    """None when the file is rejected on reading, else verify's (ok, reason)."""
    try:
        cert = read_certificate(io.StringIO("\n".join(lines) + "\n"))
    except CertificateError:
        return None
    return verify(cert)


def test_fresh_certificate_verifies():
    assert verdict(m6_lines()) == (True, "ok")


@FUZZ
@given(st.data())
def test_truncated_or_dropped_lines_never_verify(data):
    lines = m6_lines()
    if data.draw(st.booleans(), label="truncate"):
        kept = lines[: data.draw(st.integers(0, len(lines) - 1), label="cut")]
    else:
        drop = data.draw(
            st.sets(st.integers(0, len(lines) - 1), min_size=1, max_size=3), label="drop"
        )
        kept = tuple(ln for i, ln in enumerate(lines) if i not in drop)
    out = verdict(kept)
    assert out is None or not out[0]


@FUZZ
@given(st.integers(0, 10**6), st.text(max_size=24))
def test_garbage_line_is_a_clean_error(where, text):
    lines = list(m6_lines())
    lines[where % len(lines)] = text
    out = verdict(lines)
    assert out is None or isinstance(out[0], bool)


nonzero_delta = st.fractions(
    min_value=Fraction(1, 10**12), max_value=Fraction(1), max_denominator=10**12
)


@FUZZ
@given(
    st.sampled_from(["WEIGHT", "RESIDUAL_SQ", "NU", "V_LOW"]),
    st.integers(0, 10**6),
    nonzero_delta,
    st.booleans(),
)
def test_changed_claim_never_verifies(key, where, delta, down):
    # every claim must equal what assemble_lower makes of the file's data: a
    # smaller v_low or nu is a weaker claim, and fails all the same
    lines = list(m6_lines())
    if key == "WEIGHT":
        start = next(i for i, ln in enumerate(lines) if ln.startswith("WEIGHTS")) + 1
        i = start + where % int(lines[start - 1].split()[1])
        old, prefix = lines[i], ""
    else:
        i = next(i for i, ln in enumerate(lines) if ln.split()[0] == key)
        old, prefix = lines[i].split()[1], key + " "
    new = Fraction(old) + (-delta if down else delta)
    lines[i] = f"{prefix}{new.numerator}/{new.denominator}"
    out = verdict(lines)
    assert out is None or not out[0]


@FUZZ
@given(st.data())
def test_eta_needs_every_antipodal_pair_measured(data):
    # each row of a party becomes one of its rows, kept or negated, and the
    # residual is derived again: the claim stands exactly when every party
    # still measures all 6 antipodal pairs of vertices and nu stays >= 1/2
    cert = read_certificate(io.StringIO("\n".join(m6_lines()) + "\n"))
    rows, covered = {}, True
    for party in ("alice", "bob"):
        vecs = getattr(cert.target, party)
        m = len(vecs)
        picks = data.draw(st.one_of(st.permutations(range(m)),
                                    st.lists(st.integers(0, m - 1), min_size=m, max_size=m)),
                          label=party)
        negate = data.draw(st.lists(st.booleans(), min_size=m, max_size=m), label="negate")
        rows[party] = tuple(tuple(-c for c in vecs[j]) if neg else vecs[j]
                            for j, neg in zip(picks, negate))
        covered = covered and len(set(picks)) == m
    target = TargetSpec("singlet", rows["alice"], rows["bob"])
    residual_sq = _exact_residual_sq(cert.atoms, cert.weights, target.build(cert.scenario),
                                     cert.v0)
    nu = nu_factor(residual_sq)
    forged = dataclasses.replace(cert, target=target, residual_sq=residual_sq, nu=nu,
                                 v_low=cert.eta_sq * nu * cert.v0)
    expected = (True, "ok")
    if not covered:
        expected = (False, "measurements do not span the polyhedron")
    elif nu < MIN_NU:
        expected = (False, f"residual too large: nu = {float(nu):.4f} < 0.5")
    assert verify(forged) == expected


# --- upper certificates ----------------------------------------------------------

UPPER = ["exact", "float"]


@functools.lru_cache(maxsize=None)
def chsh_upper_lines(kind):
    """CHSH upper certificate; rational Bloch vectors give an exact Q, float
    ones a ``Q ... TOL ...`` line.  Every target entry is about +-0.707."""
    s = 1 / math.sqrt(2)
    alice = ((1, 0, 0), (0, 0, 1))
    bob = ((s, 0.0, s), (s, 0.0, -s))
    if kind == "exact":
        alice = tuple(tuple(Fraction(c) for c in v) for v in alice)
        bob = tuple(rationalize(np.array(v), 1e-9).as_tuple() for v in bob)
    else:
        alice = tuple(tuple(float(c) for c in v) for v in alice)
    sc = Scenario(2, 2, marginals=False)
    M = CorrelationTensor(sc, np.array([[-1, -1], [-1, 1]], dtype=object))
    p = singlet_tensor(list(alice), list(bob))
    cert = assemble_upper(M, local_bound(M).value, p, TargetSpec("singlet", alice, bob))
    assert cert.q_exact == (kind == "exact")
    buf = io.StringIO()
    write_certificate(cert, buf)
    return tuple(buf.getvalue().splitlines())


@pytest.mark.parametrize("kind", UPPER)
def test_fresh_upper_certificate_verifies(kind):
    assert verdict(chsh_upper_lines(kind)) == (True, "ok")


@pytest.mark.parametrize("kind", UPPER)
@FUZZ
@given(data=st.data())
def test_upper_truncated_or_dropped_lines_never_verify(kind, data):
    lines = chsh_upper_lines(kind)
    if data.draw(st.booleans(), label="truncate"):
        kept = lines[: data.draw(st.integers(0, len(lines) - 1), label="cut")]
    else:
        drop = data.draw(
            st.sets(st.integers(0, len(lines) - 1), min_size=1, max_size=3), label="drop"
        )
        kept = tuple(ln for i, ln in enumerate(lines) if i not in drop)
    out = verdict(kept)
    assert out is None or not out[0]


@pytest.mark.parametrize("kind", UPPER)
@FUZZ
@given(where=st.integers(0, 10**6), text=st.text(max_size=24))
def test_upper_garbage_line_is_a_clean_error(kind, where, text):
    lines = list(chsh_upper_lines(kind))
    lines[where % len(lines)] = text
    out = verdict(lines)
    assert out is None or isinstance(out[0], bool)


@pytest.mark.parametrize("kind", UPPER)
@FUZZ
@given(
    key=st.sampled_from(["ELL", "Q", "TOL", "V_UP", "M"]),
    where=st.integers(0, 10**6),
    step=st.integers(1, 5),
    delta=st.fractions(
        min_value=Fraction(1, 10**8), max_value=Fraction(1), max_denominator=10**12
    ),
    down=st.booleans(),
)
def test_upper_changed_claim_never_verifies(kind, key, where, step, delta, down):
    # integer fields (ELL, an entry of M) move by step, rational ones by delta;
    # a float Q or V_UP moves by more than the 1e-9 / 1e-12 verify tolerances
    lines = list(chsh_upper_lines(kind))
    sign = -1 if down else 1
    if key == "M":
        i = lines.index("M") + 2 + where % 2
        row = [int(x) for x in lines[i].split()]
        row[where // 2 % 2] += sign * step
        lines[i] = " ".join(map(str, row))
    elif key == "ELL":
        i = lines.index(next(ln for ln in lines if ln.startswith("ELL ")))
        lines[i] = f"ELL {int(lines[i].split()[1]) + sign * step}"
    else:
        field = "Q" if key == "TOL" else key
        i = lines.index(next(ln for ln in lines if ln.startswith(field + " ")))
        toks = lines[i].split()
        if kind == "exact":
            new = Fraction(toks[1]) + sign * delta
            toks[1] = f"{new.numerator}/{new.denominator}"
        else:
            toks[1] = repr(float(toks[1]) + sign * float(delta))
            if key == "TOL":
                # the file's tolerance is not a claim: widening it to cover
                # the moved Q must not make the false Q verify
                toks[3] = repr(2 * float(delta))
        lines[i] = " ".join(toks)
    out = verdict(lines)
    assert out is None or not out[0]

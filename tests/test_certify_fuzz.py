"""Property tests over truncated and mutated m = 6 lower certificates.

Reading a damaged file raises nothing but CertificateError, and a file whose
claims were changed never verifies.
"""

import functools
import io
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from localpolytope.certify import (  # noqa: E402
    CertificateError,
    TargetSpec,
    assemble_lower,
    rationalize_weights,
    read_certificate,
    verify,
    write_certificate,
)
from localpolytope.fw import SolverConfig, bpcg  # noqa: E402
from localpolytope.polyhedra import (  # noqa: E402
    antipodal_representatives,
    faces_and_eta,
    geodesic_icosahedron,
    rationalize_all,
)
from localpolytope.states import singlet_tensor  # noqa: E402

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
    # v_low only moves up: a smaller v_low is a weaker claim that still holds
    lines = list(m6_lines())
    if key == "WEIGHT":
        start = next(i for i, ln in enumerate(lines) if ln.startswith("WEIGHTS")) + 1
        i = start + where % int(lines[start - 1].split()[1])
        old, prefix = lines[i], ""
    else:
        i = next(i for i, ln in enumerate(lines) if ln.split()[0] == key)
        old, prefix = lines[i].split()[1], key + " "
    new = Fraction(old) + (-delta if down and key != "V_LOW" else delta)
    lines[i] = f"{prefix}{new.numerator}/{new.denominator}"
    out = verdict(lines)
    assert out is None or not out[0]

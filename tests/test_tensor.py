import io
import random

import numpy as np
import pytest
from fractions import Fraction

from localpolytope.polyhedra import (
    antipodal_representatives,
    geodesic_icosahedron,
    rationalize_all,
)
from localpolytope.states import (
    ghz_polygon_tensor,
    ghz_state,
    polygon_vectors,
    singlet_state,
    singlet_tensor,
    w_state,
)
from localpolytope.tensor import (
    _contract_unfolded,
    CorrelationTensor,
    DeterministicStrategy,
    Scenario,
    common_denominator,
    format_number,
    inner,
    integer_entries,
    parse_exact,
    parse_value,
    quantum_tensor,
    read_tensor,
    rows_inner,
    scale,
    sign_rows,
    strategy_inner,
    strategy_tensor,
    tensor_strategy_inner,
    write_tensor,
)

from util import contract_reference, singlet_reference

NO_MARG_22 = Scenario(2, 2, marginals=False)


def test_scenario_dimensions():
    assert Scenario(2, 2, marginals=False).dimension == 4
    assert Scenario(2, 6, marginals=False).dimension == 36
    assert Scenario(3, 2, marginals=True).dimension == 26


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(0, 2)
    with pytest.raises(ValueError):
        Scenario(9, 30)  # over the entry cap


def test_strategy_tensor_direct_product():
    s = DeterministicStrategy.from_signs([[1, 1], [1, -1]])
    t = strategy_tensor(s, NO_MARG_22)
    assert t.entries.tolist() == [[1, -1], [1, -1]]


def test_strategy_sign_pair_identity():
    s1 = DeterministicStrategy.from_signs([[1, 1], [1, -1]])
    s2 = DeterministicStrategy.from_signs([[-1, -1], [-1, 1]])
    t1 = strategy_tensor(s1, NO_MARG_22)
    t2 = strategy_tensor(s2, NO_MARG_22)
    assert np.array_equal(t1.entries, t2.entries)
    assert s1.canonical(NO_MARG_22) == s2.canonical(NO_MARG_22)


def test_all_plus_strategy_with_marginals():
    sc = Scenario(3, 1, marginals=True)
    s = DeterministicStrategy.from_signs([[1], [1], [1]])
    t = strategy_tensor(s, sc)
    assert np.all(t.entries == 1.0)


def test_strategy_string_roundtrip():
    s = DeterministicStrategy.from_signs([[1, -1, 1], [-1, -1, 1]])
    assert s.to_string() == "+-+|--+"
    assert DeterministicStrategy.from_string(s.to_string()) == s
    with pytest.raises(ValueError):
        DeterministicStrategy.from_string("+-|x+")


def to_string_reference(s):
    """The codec as a loop over every input of every party."""
    return "|".join(
        "".join("-" if b >> x & 1 else "+" for x in range(s.inputs)) for b in s.bits
    )


def from_string_reference(text):
    parts = text.strip().split("|")
    m = len(parts[0])
    bits = []
    for p in parts:
        if len(p) != m or set(p) - {"+", "-"}:
            raise ValueError(f"malformed strategy string {text!r}")
        bits.append(sum(1 << x for x, ch in enumerate(p) if ch == "-"))
    return DeterministicStrategy(bits, m)


def test_strategy_codec_matches_the_per_character_reference():
    rng = random.Random(17)
    cases = [(n, m) for n in range(1, 5) for m in (*range(1, 71), 406)]
    for n, m in cases:
        # random bits, and the all-plus and all-minus corners
        for bits in ([rng.getrandbits(m) for _ in range(n)], [0] * n, [(1 << m) - 1] * n):
            s = DeterministicStrategy(bits, m)
            text = s.to_string()
            assert text == to_string_reference(s)
            assert DeterministicStrategy.from_string(text) == from_string_reference(text) == s
            assert DeterministicStrategy.from_string(f" {text}\n") == s
    good = "+-+|--+|+++"
    malformed = [
        "+-|x+", "+-+|--0|+++", "+-+|-_+|+++", "+ -|+-+", "+-+|\u2212-+|+++",  # a foreign character
        "+-+|--|+++", "+-+|--++", "+|+-",  # ragged parties
        "+-+||+++", "+-+|", "|+-+",  # an empty party
    ]
    for text in malformed:
        with pytest.raises(ValueError, match="malformed strategy string"):
            from_string_reference(text)
        with pytest.raises(ValueError, match="malformed strategy string"):
            DeterministicStrategy.from_string(text)
    for text in (good, "", "|", "+", "-|-"):  # parties of no inputs are well formed
        assert DeterministicStrategy.from_string(text) == from_string_reference(text)
        assert DeterministicStrategy.from_string(text).to_string() == text


def test_singlet_entries_are_minus_dot_products():
    rng = np.random.default_rng(7)
    m = 4
    alice = rng.normal(size=(m, 3))
    alice /= np.linalg.norm(alice, axis=1, keepdims=True)
    bob = rng.normal(size=(m, 3))
    bob /= np.linalg.norm(bob, axis=1, keepdims=True)
    sc = Scenario(2, m, marginals=False)
    t = quantum_tensor(singlet_state(), (alice, bob), sc)
    assert np.abs(t.entries + alice @ bob.T).max() < 1e-12


def test_ghz_polygon_formula_against_born_rule():
    for m in (2, 3, 5):
        sc = Scenario(3, m, marginals=False)
        vecs = polygon_vectors(m)
        q = quantum_tensor(ghz_state(3), (vecs, vecs, vecs), sc)
        ref = ghz_polygon_tensor(3, m).to_float()
        assert np.abs(q.entries - ref.entries).max() < 1e-12


def test_ghz_polygon_m2_values():
    t = ghz_polygon_tensor(3, 2)
    assert t.entries[0, 0, 0] == 1    # inputs (1,1,1)
    assert t.entries[0, 1, 1] == -1   # inputs (1,2,2)
    assert t.entries[0, 0, 1] == 0    # inputs (1,1,2)


def test_ghz_polygon_marginals_vanish():
    sc = Scenario(3, 2, marginals=True)
    vecs = polygon_vectors(2)
    t = quantum_tensor(ghz_state(3), (vecs, vecs, vecs), sc)
    full = t.entries[1:, 1:, 1:]
    mask = np.ones(sc.shape, dtype=bool)
    mask[1:, 1:, 1:] = False
    mask[0, 0, 0] = False
    assert np.abs(t.entries[mask]).max() < 1e-12
    assert np.abs(full - ghz_polygon_tensor(3, 2).to_float().entries).max() < 1e-12


def test_quantum_tensor_entry_range():
    rng = np.random.default_rng(3)
    for trial in range(10):
        N = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        sc = Scenario(N, m, marginals=True)
        vecs = []
        for _ in range(N):
            v = rng.normal(size=(m, 3))
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            vecs.append(v)
        psi = rng.normal(size=2**N) + 1j * rng.normal(size=2**N)
        t = quantum_tensor(psi, tuple(vecs), sc)
        assert np.abs(t.entries).max() <= 1 + 1e-9


def test_quantum_tensor_rejects_bad_input():
    sc = Scenario(2, 1, marginals=False)
    good = np.array([[0.0, 0.0, 1.0]])
    bad = np.array([[0.0, 0.0, 2.0]])
    with pytest.raises(ValueError):
        quantum_tensor(singlet_state(), (good, bad), sc)
    rho = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        quantum_tensor(rho, (good, good), sc)


def test_inner_and_norms():
    z = CorrelationTensor.zeros(NO_MARG_22)
    assert inner(z, z) == 0
    s = DeterministicStrategy.from_signs([[1, -1], [1, 1]])
    t = strategy_tensor(s, NO_MARG_22)
    assert inner(t, t) == 4

    sc = Scenario(2, 2, marginals=True)
    tm = strategy_tensor(s, sc)
    # root excluded: 8 remaining entries of magnitude 1
    assert inner(tm, tm) == 8


def test_inner_scenario_mismatch():
    t1 = CorrelationTensor.zeros(NO_MARG_22)
    t2 = CorrelationTensor.zeros(Scenario(2, 3, marginals=False))
    with pytest.raises(ValueError):
        inner(t1, t2)


def test_integer_entries():
    def ints(values, dtype=None):
        out = integer_entries(CorrelationTensor(NO_MARG_22, np.array(values, dtype).reshape(2, 2)))
        return None if out is None else out.tolist()

    big = 2**70
    assert ints([1, -2, Fraction(4, 2), big], object) == [[1, -2], [2, big]]
    assert all(type(x) is int for row in ints([1.0, -2.0, 0.0, 1e30]) for x in row)
    assert ints([1.0, -2.0, 0.0, 1e30]) == [[1, -2], [0, int(1e30)]]
    assert ints([1, Fraction(1, 2), 0, 0], object) is None
    for bad in (0.5, np.inf, -np.inf, np.nan):  # a non-finite float is no integer
        assert ints([1.0, bad, 0.0, 0.0]) is None


def test_scale():
    rng = np.random.default_rng(0)
    t = CorrelationTensor(NO_MARG_22, rng.uniform(-1, 1, (2, 2)))
    assert np.array_equal(scale(t, 1.0).entries, t.entries)
    assert np.all(scale(t, 0.0).entries == 0)
    assert np.allclose(scale(t, 0.3).entries, 0.3 * t.entries)
    with pytest.raises(ValueError):
        scale(t, 1.5)


def test_scaled_singlet(chsh_singlet):
    v = 0.7
    t = scale(chsh_singlet, v)
    assert np.allclose(t.entries, v * chsh_singlet.entries)


@pytest.mark.parametrize("marginals", [False, True])
def test_fast_inner_matches_entrywise(marginals):
    rng = np.random.default_rng(11)
    sc = Scenario(2, 3, marginals=marginals)
    for _ in range(1000):
        entries = rng.integers(-5, 6, size=sc.shape)
        t = CorrelationTensor(sc, entries.astype(float))
        bits = [int(rng.integers(0, 8)) for _ in range(2)]
        s = DeterministicStrategy(bits, 3)
        fast = tensor_strategy_inner(t, s)
        slow = inner(t, strategy_tensor(s, sc))
        assert fast == slow


def test_strategy_inner_matches_materialized():
    rng = np.random.default_rng(5)
    for marginals in (False, True):
        sc = Scenario(3, 4, marginals=marginals)
        for _ in range(200):
            s1 = DeterministicStrategy([int(b) for b in rng.integers(0, 16, 3)], 4)
            s2 = DeterministicStrategy([int(b) for b in rng.integers(0, 16, 3)], 4)
            expected = inner(strategy_tensor(s1, sc), strategy_tensor(s2, sc))
            assert strategy_inner(s1, s2, sc) == expected


def test_tensor_serialization_roundtrip():
    rng = np.random.default_rng(2)
    sc = Scenario(2, 3, marginals=True)
    t = CorrelationTensor(sc, rng.uniform(-1, 1, sc.shape))
    buf = io.StringIO()
    write_tensor(t, buf)
    buf.seek(0)
    t2 = read_tensor(buf)
    assert t2.scenario == sc
    assert np.array_equal(t.entries, t2.entries)

    exact = ghz_polygon_tensor(3, 2)
    buf = io.StringIO()
    write_tensor(exact, buf)
    buf.seek(0)
    back = read_tensor(buf)
    assert back.is_exact or back.entries.dtype == object
    assert all(
        Fraction(a) == Fraction(b)
        for a, b in zip(exact.entries.reshape(-1), back.entries.reshape(-1))
    )


def test_tensor_read_rejects_malformed():
    with pytest.raises(ValueError):
        read_tensor(io.StringIO("2 2"))
    with pytest.raises(ValueError):
        read_tensor(io.StringIO("2 2 false\n1 2 3"))
    for bad in ("nan", "inf", "-inf", "1/0", "1e400"):
        with pytest.raises(ValueError):
            read_tensor(io.StringIO(f"2 2 false\n{bad} 1 1 -1"))



def test_number_codec():
    for x in (Fraction(-3, 7), 5, -0.125, 1e-300):
        back = parse_value(format_number(x))
        assert back == x and type(back) is type(x)
    assert parse_exact("0.1") == Fraction(1, 10)
    assert parse_exact("-2.5e-3") == Fraction(-1, 400)
    assert parse_exact("7") == 7
    for bad in ("nan", "inf", "1/0", "0.5/2", "x", "1e99999999"):
        with pytest.raises(ValueError):
            parse_exact(bad)  # the last would build a 10^8-digit integer


def test_w_state_valid():
    sc = Scenario(3, 2, marginals=True)
    vecs = polygon_vectors(2)
    t = quantum_tensor(w_state(), (vecs, vecs, vecs), sc)
    assert abs(t.root - 1) < 1e-12
    assert np.abs(t.entries).max() <= 1 + 1e-9


def test_strategy_sign_vector_roundtrip_idempotent():
    rng = np.random.default_rng(13)
    for _ in range(50):
        bits = [int(b) for b in rng.integers(0, 32, 3)]
        s = DeterministicStrategy(bits, 5)
        assert DeterministicStrategy.from_signs(s.sign_vectors()) == s
        # float rows, as the heuristic oracle hands them over
        assert DeterministicStrategy.from_signs(np.array(s.sign_vectors(), float)) == s
    assert DeterministicStrategy.from_signs([[-1] * 406] * 2).bits == ((1 << 406) - 1,) * 2
    for bad in ([[1, -1], [1]], [[1, 0], [1, 1]], [1, -1]):
        with pytest.raises(ValueError):
            DeterministicStrategy.from_signs(bad)



@pytest.mark.parametrize("m", [1, 7, 8, 9, 63, 64, 65, 406])
def test_signs_unpack_matches_bit_loop(m):
    # the per-bit loop is the reference; past m = 64 the bits are big ints
    rng = np.random.default_rng(m)
    words = [0, (1 << m) - 1] + [
        int.from_bytes(rng.bytes((m + 7) // 8), "little") % (1 << m) for _ in range(20)
    ]
    for b in words:
        expected = np.ones(m, dtype=np.int8)
        for x in range(m):
            if b >> x & 1:
                expected[x] = -1
        got = DeterministicStrategy([b], m).signs(0)
        assert got.dtype == np.int8
        assert np.array_equal(got, expected)


def test_common_denominator():
    assert common_denominator([]) == ([], 1)
    assert common_denominator([3, -2, 0]) == ([3, -2, 0], 1)
    vals = [Fraction(1, 6), Fraction(-3, 4), 2, Fraction(5, 9)]
    assert common_denominator(vals) == ([6, -27, 72, 20], 36)


def test_exact_singlet_matches_the_entry_loop():
    points = rationalize_all(geodesic_icosahedron([3]), 1e-6)
    vecs = [p.as_tuple() for p in antipodal_representatives(points)]
    assert len(vecs) == 46
    ints = [(1, 0, 0), (0, -2, 1), (3, 1, -1)]
    mixed = [(Fraction(3, 5), 0, Fraction(-4, 5)), (0, 1, 0), (Fraction(1, 3), 2, -1)]
    for alice, bob in ((vecs, vecs), (ints, ints), (ints, mixed)):
        t = singlet_tensor(alice, bob)
        assert t.is_exact and (t.entries == singlet_reference(alice, bob)).all()


def test_werner_mixture_equals_scaled_singlet():
    from localpolytope.states import chsh_vectors, singlet_tensor

    alice, bob = chsh_vectors()
    psi = singlet_state()
    sc = Scenario(2, 2, marginals=False)
    base = singlet_tensor(alice.tolist(), bob.tolist())
    for v in (0.0, 0.3, 1 / np.sqrt(2), 1.0):
        rho = v * np.outer(psi, psi.conj()) + (1 - v) * np.eye(4) / 4
        t = quantum_tensor(rho, (alice, bob), sc)
        assert np.abs(t.entries - scale(base, v).entries).max() < 1e-12


def test_ghz4_polygon_formula():
    sc = Scenario(4, 2, marginals=False)
    vecs = polygon_vectors(2)
    q = quantum_tensor(ghz_state(4), (vecs,) * 4, sc)
    ref = ghz_polygon_tensor(4, 2).to_float()
    assert np.abs(q.entries - ref.entries).max() < 1e-12


@pytest.mark.parametrize("dtype", [np.float64, np.int64, object])
@pytest.mark.parametrize("marginals", [False, True])
@pytest.mark.parametrize("parties", [1, 2, 3, 4, 5])
def test_contract_matches_einsum_reference(parties, marginals, dtype):
    rng = np.random.default_rng(10 * parties + marginals)
    m, R = (3 if parties <= 3 else 2), 7
    sc = Scenario(parties, m, marginals)
    if dtype is np.int64:
        G = rng.integers(-50, 51, size=sc.shape)
    elif dtype is object:
        # Python ints past 2^53, where float64 would round: exactness of the
        # path exhaustive_lmo takes for large integer functionals
        big = [int(x) * 2**60 + int(y) for x, y in zip(
            rng.integers(-50, 51, size=sc.num_entries),
            rng.integers(-50, 51, size=sc.num_entries))]
        G = np.array(big, dtype=object).reshape(sc.shape)
    else:
        G = rng.normal(size=sc.shape)
    signs = [rng.choice([-1, 1], size=(m, R)).astype(dtype) for _ in range(parties)]
    cols = [np.vstack([np.ones((1, R), dtype), s]) if marginals else s for s in signs]
    for free in [None, *range(parties)]:
        ref = contract_reference(G, signs, marginals, free)
        if free is None:
            # CorrelationTensor holds int64 input as float64, exactly at this size
            t = CorrelationTensor(sc, G)
            got = rows_inner(t, cols) + (t.root if marginals else 0)
        else:
            U = np.moveaxis(G, free, -1).reshape(-1, sc.axis_size)
            got = _contract_unfolded(U, cols[:free] + cols[free + 1:], R)
        assert got.shape == ref.shape
        if dtype is np.int64:
            assert got.dtype == (np.float64 if free is None else np.int64)
            assert np.array_equal(got, ref)
        elif dtype is object:
            assert got.dtype == object
            assert all(type(x) is int for x in got.flat)
            assert (got == ref).all()
        else:
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("parties, m, count", [
    (1, 3, 4), (2, 2, 0), (2, 65, 5), (3, 4, 6), (4, 2, 3)])
@pytest.mark.parametrize("marginals", [False, True])
def test_sign_rows_match_strategy_signs(parties, m, count, marginals):
    rng = np.random.default_rng(100 * parties + m)
    sc = Scenario(parties, m, marginals)
    strategies = [
        DeterministicStrategy(
            [int.from_bytes(rng.bytes(9), "little") % (1 << m) for _ in range(parties)], m)
        for _ in range(count)]
    for dtype in (np.float64, np.int64, object):
        rows = sign_rows(strategies, sc, dtype)
        assert len(rows) == parties
        for n, S in enumerate(rows):
            assert S.shape == (count, sc.axis_size) and S.dtype == dtype
            assert S.flags.c_contiguous
            for i, s in enumerate(strategies):
                expected = [1, *s.signs(n)] if marginals else list(s.signs(n))
                assert list(S[i]) == expected


def test_float64_entries_are_wrapped_without_a_copy():
    sc = Scenario(2, 2, marginals=True)
    e = np.zeros(sc.shape)
    assert CorrelationTensor(sc, e).entries is e
    # other dtypes are still converted to float64
    ints = np.zeros(sc.shape, dtype=np.int64)
    assert CorrelationTensor(sc, ints).entries.dtype == np.float64

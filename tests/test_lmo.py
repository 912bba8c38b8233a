import numpy as np
import pytest
from itertools import product

from localpolytope import lmo
from localpolytope.lmo import (
    HEURISTIC_ROUNDS,
    QuboInstance,
    exhaustive_lmo,
    heuristic_lmo,
    local_bound,
    maximize_functional_heuristic,
    qubo_branch_and_bound,
    to_qubo,
)
from localpolytope.states import ghz_polygon_tensor
from localpolytope.tensor import (
    CorrelationTensor,
    DeterministicStrategy,
    Scenario,
    _contract_unfolded,
    inner,
    rows_inner,
    strategy_tensor,
    tensor_strategy_inner,
)
from util import heuristic_reference

NM22 = Scenario(2, 2, marginals=False)
CHSH = CorrelationTensor(NM22, np.array([[1, 1], [1, -1]], dtype=object))


def brute_force_min(gradient):
    sc = gradient.scenario
    best = None
    for bits in product(range(1 << sc.inputs), repeat=sc.parties):
        s = DeterministicStrategy(bits, sc.inputs)
        v = inner(gradient, strategy_tensor(s, sc))
        if best is None or v < best[1]:
            best = (s, v)
    return best


# --- alternating maximisation ------------------------------------------------


def test_heuristic_zero_gradient_all_plus():
    z = CorrelationTensor.zeros(NM22)
    s = heuristic_lmo(z, restarts=7, seed=5)[0]
    assert s.to_string() == "++|++"


def test_heuristic_finds_aligned_vertex():
    rng = np.random.default_rng(1)
    sc = Scenario(2, 5, marginals=False)
    for trial in range(10):
        s0 = DeterministicStrategy([int(b) for b in rng.integers(0, 32, 2)], 5)
        g = CorrelationTensor(sc, -strategy_tensor(s0, sc).entries)
        s = heuristic_lmo(g, restarts=20, seed=trial)[0]
        assert inner(g, strategy_tensor(s, sc)) == -25


def test_heuristic_deterministic_given_seed():
    rng = np.random.default_rng(2)
    sc = Scenario(2, 4, marginals=False)
    g = CorrelationTensor(sc, rng.normal(size=(4, 4)))
    a = heuristic_lmo(g, restarts=50, seed=123)[0]
    b = heuristic_lmo(g, restarts=50, seed=123)[0]
    assert a == b


def test_alternating_passes_are_monotone():
    # one explicit alternation run, objective checked after every half-step
    rng = np.random.default_rng(8)
    M = rng.normal(size=(6, 6))
    a = rng.choice([-1.0, 1.0], 6)
    b = np.where(M.T @ a >= 0, 1.0, -1.0)
    prev = a @ M @ b
    for _ in range(20):
        a = np.where(M @ b >= 0, 1.0, -1.0)
        v1 = a @ M @ b
        assert v1 >= prev - 1e-12
        b = np.where(M.T @ a >= 0, 1.0, -1.0)
        v2 = a @ M @ b
        assert v2 >= v1 - 1e-12
        if v2 == prev:
            break
        prev = v2


def test_heuristic_matches_exhaustive_rate():
    rng = np.random.default_rng(0)
    sc = Scenario(2, 5, marginals=False)
    hits = 0
    for trial in range(100):
        g = CorrelationTensor(sc, rng.normal(size=(5, 5)))
        s = heuristic_lmo(g, restarts=3000, seed=trial)[0]
        v = inner(g, strategy_tensor(s, sc))
        _, v_opt = exhaustive_lmo(g)
        assert v >= v_opt - 1e-12  # heuristic output is always feasible
        if abs(v - v_opt) < 1e-12:
            hits += 1
    assert hits >= 99


def test_heuristic_multipartite_with_marginals():
    rng = np.random.default_rng(4)
    sc = Scenario(3, 2, marginals=True)
    for trial in range(20):
        g = CorrelationTensor(sc, rng.normal(size=sc.shape))
        s = heuristic_lmo(g, restarts=500, seed=trial)[0]
        v = inner(g, strategy_tensor(s, sc))
        _, v_opt = exhaustive_lmo(g)
        assert v >= v_opt - 1e-12



@pytest.mark.parametrize("marginals", [False, True])
@pytest.mark.parametrize("inputs", [1, 3, 6])
def test_heuristic_single_party_matches_exhaustive(marginals, inputs):
    # one party: its coefficient vector is the gradient itself
    rng = np.random.default_rng(inputs)
    sc = Scenario(1, inputs, marginals=marginals)
    for trial in range(5):
        g = CorrelationTensor(sc, rng.normal(size=sc.shape))
        s = heuristic_lmo(g, restarts=7, seed=trial)[0]
        s_opt, v_opt = exhaustive_lmo(g)
        assert s == s_opt
        assert inner(g, strategy_tensor(s, sc)) == pytest.approx(v_opt, abs=1e-12)


@pytest.mark.parametrize("restarts", [7, 8])
@pytest.mark.parametrize("marginals", [False, True])
@pytest.mark.parametrize("parties", [1, 2, 3, 4])
def test_heuristic_matches_pre_kernel_reference(parties, marginals, restarts):
    # the sign buffer draws the reference's random stream; with two parties
    # the Khatri-Rao kernel runs the reference's matrix products, so strategy
    # and value are identical, and with more the summation order moves
    rng = np.random.default_rng(10 * parties + marginals)
    sc = Scenario(parties, 4 if parties <= 3 else 2, marginals)
    for trial in range(4):
        t = CorrelationTensor(sc, rng.normal(size=sc.shape))
        s, v = maximize_functional_heuristic(t, restarts=restarts, seed=trial)
        s_ref, v_ref = heuristic_reference(t, restarts, trial)
        if parties == 2:
            assert (s, v) == (s_ref, v_ref)
            neg = CorrelationTensor(sc, -t.entries)
            assert heuristic_lmo(neg, restarts=restarts, seed=trial)[0] == s_ref
        else:
            assert v == pytest.approx(v_ref, abs=1e-12)


def test_heuristic_takes_a_numpy_integer_seed():
    # random.Random refuses numpy integers; the oracle reads the seed as an index
    g = CorrelationTensor(Scenario(2, 5, False), np.random.default_rng(3).normal(size=(5, 5)))
    assert heuristic_lmo(g, restarts=20, seed=np.int64(7))[:3] == heuristic_lmo(g, 20, 7)[:3]
    with pytest.raises(TypeError):
        heuristic_lmo(g, restarts=20, seed=7.5)


@pytest.mark.parametrize("marginals", [False, True])
@pytest.mark.parametrize("parties", [2, 3])
def test_unreachable_threshold_runs_the_full_batch(parties, marginals):
    # nothing clears a threshold below the exact minimum, so the answer is
    # the one without a threshold
    rng = np.random.default_rng(20 + parties + marginals)
    sc = Scenario(parties, 4, marginals)
    for trial in range(5):
        g = CorrelationTensor(sc, rng.normal(size=sc.shape))
        _, v_opt = exhaustive_lmo(g)
        plain = heuristic_lmo(g, restarts=50, seed=trial)
        capped = heuristic_lmo(g, restarts=50, seed=trial, threshold=v_opt - 1e-9)
        assert capped[:3] == plain[:3]
        assert capped[3] == plain[3] == []  # a full batch returns no extras


@pytest.mark.parametrize("marginals", [False, True])
@pytest.mark.parametrize("parties", [2, 3])
def test_reachable_threshold_returns_a_vertex_that_clears_it(parties, marginals):
    # halfway between the minimum and the value of a fixed strategy: some
    # restart clears it, and the call returns that restart's answer
    rng = np.random.default_rng(30 + parties + marginals)
    sc = Scenario(parties, 5, marginals)
    plus = DeterministicStrategy.from_signs([[1] * 5] * parties)
    for trial in range(5):
        g = CorrelationTensor(sc, rng.normal(size=sc.shape))
        _, v_opt = exhaustive_lmo(g)
        threshold = 0.5 * (v_opt + tensor_strategy_inner(g, plus))
        s, v, rounds, extras = heuristic_lmo(g, restarts=200, seed=trial, threshold=threshold)
        assert v <= threshold
        assert tensor_strategy_inner(g, s) <= threshold + 1e-12
        assert tensor_strategy_inner(g, s) == pytest.approx(v, abs=1e-12)
        assert rounds >= 1
        # the other restarts of that round that clear it: distinct tensors,
        # none the winner's, by value, within the cap
        assert len(extras) <= lmo.EXTRA_ATOMS
        assert all(isinstance(t, DeterministicStrategy) for t in extras)
        assert len({t.canonical(sc) for t in extras} | {s.canonical(sc)}) == 1 + len(extras)
        values = [tensor_strategy_inner(g, t) for t in extras]
        assert all(v - 1e-12 <= u <= threshold + 1e-12 for u in values)
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("marginals", [False, True])
def test_early_exit_keeps_the_best_clearing_restarts_up_to_the_cap(marginals, monkeypatch):
    # a threshold that every restart clears after one round: the call returns
    # the round's best distinct tensors, as many as the cap allows
    monkeypatch.setattr(lmo, "EXTRA_ATOMS", 3)
    rng = np.random.default_rng(50 + marginals)
    sc = Scenario(2, 5, marginals)
    for trial in range(5):
        g = CorrelationTensor(sc, rng.normal(size=sc.shape))
        s, v, rounds, extras = heuristic_lmo(g, restarts=200, seed=trial, threshold=1e9)
        assert rounds == 1 and len(extras) == 3
        found = [s, *extras]
        assert len({t.canonical(sc) for t in found}) == 4
        values = [tensor_strategy_inner(g, t) for t in found]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
        # nothing missed: every other distinct vertex the same call reaches at
        # a larger cap is no better than the last one kept
        monkeypatch.setattr(lmo, "EXTRA_ATOMS", 200)
        wider = heuristic_lmo(g, restarts=200, seed=trial, threshold=1e9)[3]
        monkeypatch.setattr(lmo, "EXTRA_ATOMS", 3)
        assert wider[:3] == found[1:]
        assert min(tensor_strategy_inner(g, t) for t in wider[3:]) >= values[-1] - 1e-12


@pytest.mark.parametrize("marginals", [False, True])
def test_early_exit_builds_each_raw_sign_pattern_once(marginals, monkeypatch):
    # every one of 200 restarts clears the threshold, and with a cap no scan
    # reaches, all are scanned; 2 x 3 inputs have 64 raw sign patterns, so
    # most restarts repeat one and are skipped before a strategy is built
    monkeypatch.setattr(lmo, "EXTRA_ATOMS", 200)
    from_signs, built = DeterministicStrategy.from_signs.__func__, []

    def counted(cls, signs):
        built.append(np.asarray(signs).tobytes())
        return from_signs(cls, signs)

    monkeypatch.setattr(DeterministicStrategy, "from_signs", classmethod(counted))
    rng = np.random.default_rng(70 + marginals)
    sc = Scenario(2, 3, marginals)
    for trial in range(5):
        built.clear()
        g = CorrelationTensor(sc, rng.normal(size=sc.shape))
        s, v, rounds, extras = heuristic_lmo(g, restarts=200, seed=trial, threshold=1e9)
        assert rounds == 1
        assert len(set(built)) == len(built) <= 64
        tensors = {from_signs(DeterministicStrategy, np.frombuffer(b).reshape(2, 3)).canonical(sc)
                   for b in built}
        assert len(tensors) == 1 + len(extras)


@pytest.mark.parametrize("marginals", [False, True])
@pytest.mark.parametrize("parties", [2, 3])
def test_restart_stop_matches_reference(parties, marginals):
    # the reference keeps every restart in the batch until the last one
    # stalls; a restart that leaves at its first stalled round is at a fixed
    # point, so the best value, and with two parties the vertex, agree
    rng = np.random.default_rng(40 + parties + marginals)
    sc = Scenario(parties, 6 if parties == 2 else 4, marginals)
    for trial in range(5):
        t = CorrelationTensor(sc, rng.normal(size=sc.shape))
        neg = CorrelationTensor(sc, -t.entries)
        s, v, rounds, extras = heuristic_lmo(neg, restarts=300, seed=trial)
        assert extras == []  # no threshold, no extras
        s_ref, v_ref = heuristic_reference(t, 300, trial)
        assert -v == pytest.approx(v_ref, abs=1e-12)
        assert 1 <= rounds <= HEURISTIC_ROUNDS
        assert tensor_strategy_inner(neg, s) == pytest.approx(v, abs=1e-12)
        if parties == 2:
            assert s.canonical(sc) == s_ref.canonical(sc)


def test_heuristic_five_parties_matches_exhaustive():
    # five parties need einsum subscripts past "abcd"
    rng = np.random.default_rng(5)
    sc = Scenario(5, 2, marginals=False)
    for trial in range(5):
        g = CorrelationTensor(sc, rng.normal(size=sc.shape))
        s = heuristic_lmo(g, restarts=200, seed=trial)[0]
        _, v_opt = exhaustive_lmo(g)
        assert inner(g, strategy_tensor(s, sc)) == pytest.approx(v_opt, abs=1e-12)


def test_contract_has_no_party_limit():
    # 52 parties of one input each: more than the ASCII letters an einsum
    # subscript could name; column r holds the signs (+1, -1)[r] everywhere
    G = np.full((1,) * 52, 3.0)
    signs = [np.array([[1.0, -1.0]])] * G.ndim
    t = CorrelationTensor(Scenario(52, 1, marginals=False), G)
    assert np.array_equal(rows_inner(t, signs), [3.0, 3.0])
    U = np.moveaxis(G, 7, -1).reshape(-1, 1)
    assert np.array_equal(_contract_unfolded(U, signs[:51], 2), [[3.0, -3.0]])


# --- exhaustive oracle ---------------------------------------------------------


def test_exhaustive_chsh_value():
    s, v = exhaustive_lmo(CHSH)
    assert v == -2


def test_exhaustive_matches_brute_force():
    rng = np.random.default_rng(12)
    for marginals in (False, True):
        sc = Scenario(2, 2, marginals=marginals)
        for _ in range(25):
            g = CorrelationTensor(sc, rng.normal(size=sc.shape))
            s, v = exhaustive_lmo(g)
            s_ref, v_ref = brute_force_min(g)
            assert abs(v - v_ref) < 1e-12
            assert inner(g, strategy_tensor(s, sc)) == pytest.approx(v_ref)


def test_exhaustive_dominant_entry():
    sc = Scenario(2, 3, marginals=False)
    e = np.zeros((3, 3))
    e[1, 2] = 100.0
    s, v = exhaustive_lmo(CorrelationTensor(sc, e))
    d = strategy_tensor(s, sc)
    assert d.entries[1, 2] == -1
    assert v == -100.0


def test_exhaustive_lex_tie_break():
    z = CorrelationTensor.zeros(NM22)
    s, v = exhaustive_lmo(z)
    assert (s.to_string(), v) == ("++|++", 0)


def test_exhaustive_cap():
    with pytest.raises(ValueError):
        exhaustive_lmo(CorrelationTensor.zeros(Scenario(2, 27, marginals=False)))


def lex_min_reference(gradient):
    """Minimum of <gradient, d> over every strategy, and its lexicographically
    smallest minimiser ('+' before '-', parties in order)."""
    sc = gradient.scenario
    return min(
        (inner(gradient, strategy_tensor(s, sc, exact=True)), s.to_string())
        for s in (
            DeterministicStrategy(bits, sc.inputs)
            for bits in product(range(1 << sc.inputs), repeat=sc.parties)
        )
    )


@pytest.mark.parametrize("marginals", [False, True])
@pytest.mark.parametrize("parties, inputs", [(1, 3), (2, 3), (3, 2), (4, 2)])
def test_halved_exhaustive_matches_lex_reference(parties, inputs, marginals):
    # entries in -1..1 leave many ties, so the tie-break is exercised
    rng = np.random.default_rng(10 * parties + inputs)
    sc = Scenario(parties, inputs, marginals=marginals)
    for _ in range(5):
        g = CorrelationTensor(sc, rng.integers(-1, 2, sc.shape).astype(object))
        s, v = exhaustive_lmo(g)
        assert (v, s.to_string()) == lex_min_reference(g)
        assert isinstance(v, int)


@pytest.mark.parametrize("parties, inputs, marginals", [(2, 6, False), (2, 6, True), (3, 4, True)])
def test_exhaustive_answer_does_not_depend_on_the_batch_size(parties, inputs, marginals,
                                                             monkeypatch):
    # 1-row batches, odd batches that leave a short last one, and the default
    sc = Scenario(parties, inputs, marginals=marginals)
    row = sc.axis_size ** (parties - 1)  # entries per id in the first contraction
    rng = np.random.default_rng(40 + 10 * parties + inputs + marginals)
    tensors = [CorrelationTensor(sc, rng.integers(-2, 3, sc.shape).astype(object))
               for _ in range(6)]
    default = [exhaustive_lmo(g) for g in tensors]
    for entries in (1, 3 * row, 5 * row + 1, 7 * row):
        monkeypatch.setattr(lmo, "EXHAUSTIVE_ENTRIES", entries)
        assert [exhaustive_lmo(g) for g in tensors] == default
        s, v = exhaustive_lmo(CorrelationTensor.zeros(sc))
        assert (s.bits, v) == ((0,) * parties, 0)  # all plus, from the first batch


@pytest.mark.parametrize("total, bound", [(2**53, 2**53), (2**53 + 1, 2**53 + 1)],
                         ids=["2^53-float64", "2^53+1-ints"])
def test_local_bound_exact_at_the_float_boundary(total, bound):
    # sum |M| = 2^53 runs in float64, where every partial sum is exact; one
    # more makes the odd bound 2^53 + 1 unrepresentable, so it runs on ints
    M = np.array([[2**52, total - 2**52], [0, 0]], dtype=object)
    lb = local_bound(CorrelationTensor(NM22, M))
    assert (lb.value, lb.exact) == (bound, True)
    assert lb.strategy.to_string() == "++|++"


def test_local_bound_of_float_storage_integers_is_exact():
    M = CorrelationTensor(NM22, np.array([[3.0, 1.0], [1.0, -1.0]]))
    lb = local_bound(M)
    assert (lb.value, lb.exact) == (4, True) and isinstance(lb.value, int)


def test_exhaustive_agrees_with_qubo_path():
    rng = np.random.default_rng(3)
    sc = Scenario(2, 4, marginals=False)
    for _ in range(25):
        M = rng.integers(-9, 10, (4, 4))
        g = CorrelationTensor(sc, M.astype(object))
        _, v_min = exhaustive_lmo(g)
        inst = to_qubo(-M)
        v_max, _, ok = qubo_branch_and_bound(inst)
        assert ok and v_min == -v_max


# --- QUBO reformulation ----------------------------------------------------


def test_to_qubo_chsh():
    inst = to_qubo(CHSH)
    assert inst.c == 2
    assert np.diag(inst.Q).tolist() == [-2, 0, -2, 0]
    assert np.array_equal(inst.Q[:2, 2:], [[1, 1], [1, -1]])


def test_to_qubo_zero():
    inst = to_qubo(np.zeros((3, 3), dtype=np.int64))
    assert inst.c == 0 and not inst.Q.any()
    v, w, ok = qubo_branch_and_bound(inst)
    assert v == 0 and ok


def test_to_qubo_rejects_marginals():
    with pytest.raises(ValueError):
        to_qubo(CorrelationTensor.zeros(Scenario(2, 2, marginals=True)))


def test_qubo_identity_exhaustive():
    rng = np.random.default_rng(5)
    M = rng.integers(-5, 6, (4, 4))
    inst = to_qubo(M)
    best_bilinear = max(
        (np.array(a) @ M @ np.array(b))
        for a in product((-1, 1), repeat=4)
        for b in product((-1, 1), repeat=4)
    )
    best_qubo = max(inst.value(np.array(w)) for w in product((0, 1), repeat=8))
    assert best_bilinear == best_qubo


def test_qubo_identity_sampled():
    rng = np.random.default_rng(6)
    M = rng.integers(-9, 10, (5, 5))
    inst = to_qubo(M)
    for _ in range(1000):
        a = rng.choice([-1, 1], 5)
        b = rng.choice([-1, 1], 5)
        w = np.concatenate([(a + 1) // 2, (b + 1) // 2])
        assert int(a @ M @ b) == inst.value(w)


# --- branch and bound ----------------------------------------------------------


def test_bnb_chsh():
    v, w, ok = qubo_branch_and_bound(to_qubo(CHSH))
    assert (v, ok) == (2, True)


def test_bnb_matches_exhaustive_100_random():
    rng = np.random.default_rng(7)
    for _ in range(100):
        M = rng.integers(-9, 10, (6, 6))
        v, w, ok = qubo_branch_and_bound(to_qubo(M))
        assert ok
        a = 2 * w[:6].astype(int) - 1
        b = 2 * w[6:].astype(int) - 1
        assert int(a @ M @ b) == v
        # enumerate a, take the analytic optimum over b
        best = max(
            int(np.abs(M.T @ np.array(x)).sum()) for x in product((-1, 1), repeat=6)
        )
        assert v == best


def test_bnb_full_sweep_small_sizes():
    rng = np.random.default_rng(8)
    for m in range(1, 9):
        for _ in range(4):
            M = rng.integers(-4, 5, (m, m))
            inst = to_qubo(M)
            v, _, ok = qubo_branch_and_bound(inst)
            assert ok
            ref = max(
                int(a @ M @ b)
                for a in (np.array(x) for x in product((-1, 1), repeat=m))
                for b in (np.array(y) for y in product((-1, 1), repeat=m))
            )
            assert v == ref


def test_bnb_all_negative_offdiag():
    Q = -np.ones((6, 6), dtype=np.int64)
    np.fill_diagonal(Q, 0)
    v, w, ok = qubo_branch_and_bound(QuboInstance(Q, 0))
    assert (v, ok) == (0, True)
    assert not w.any()


def test_bnb_budget_exhaustion():
    rng = np.random.default_rng(9)
    M = rng.integers(-9, 10, (8, 8))
    v, w, ok = qubo_branch_and_bound(to_qubo(M), node_budget=3)
    assert not ok


# --- local bound ----------------------------------------------------------------


def test_local_bound_chsh():
    lb = local_bound(CHSH)
    assert (lb.value, lb.exact) == (2, True)
    a, b = lb.strategy.sign_vectors()
    M = np.array([[1, 1], [1, -1]])
    assert int(a.astype(int) @ M @ b.astype(int)) == 2


def test_local_bound_mermin():
    sc = Scenario(3, 2, marginals=False)
    M = np.zeros((2, 2, 2), dtype=object)
    M[0, 0, 0] = 1
    M[0, 1, 1] = M[1, 0, 1] = M[1, 1, 0] = -1
    f = CorrelationTensor(sc, M)
    lb = local_bound(f)
    assert (lb.value, lb.exact) == (2, True)
    assert inner(f, ghz_polygon_tensor(3, 2)) == 4


def test_local_bound_single_entry():
    sc = Scenario(2, 3, marginals=False)
    M = np.zeros((3, 3), dtype=object)
    M[2, 1] = 1
    lb = local_bound(CorrelationTensor(sc, M))
    assert (lb.value, lb.exact) == (1, True)


def test_local_bound_noninteger_flagged():
    sc = Scenario(2, 2, marginals=False)
    lb = local_bound(CorrelationTensor(sc, np.array([[0.5, 0], [0, 0]])))
    assert not lb.exact
    assert lb.value == pytest.approx(0.5)

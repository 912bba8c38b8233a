import numpy as np
import pytest

from localpolytope import fw
from localpolytope.fw import (
    MIN_CAPACITY,
    STEP_TYPES,
    ActiveSet,
    InnerProductCache,
    SolverConfig,
    STATUS_INSIDE,
    STATUS_SEPARATED,
    bpcg,
    extract_hyperplane,
    frank_wolfe_vanilla,
)
from localpolytope.certify import integerize_functional
from localpolytope.lmo import EXTRA_ATOMS, exhaustive_lmo, heuristic_lmo, local_bound
from localpolytope.polyhedra import (
    antipodal_representatives,
    geodesic_icosahedron,
    rationalize_all,
)
from localpolytope.states import build_quantum_tensor, ghz_polygon_tensor, singlet_tensor
from localpolytope.tensor import (
    CorrelationTensor,
    DeterministicStrategy,
    Scenario,
    inner,
    strategy_inner,
    strategy_tensor,
)
from util import recomputed_values, recorded

NM22 = Scenario(2, 2, marginals=False)
FAST = SolverConfig(restarts=200, seed=1, max_iterations=50_000)


@pytest.fixture(scope="module")
def m6_recorded(ico_singlet):
    # the run and its recorder, which asserted the per-step invariants
    return recorded(bpcg, ico_singlet, 0.60, restarts=500, seed=2)


@pytest.fixture(scope="module")
def m6_run(m6_recorded):
    return m6_recorded[0]


@pytest.fixture(scope="module")
def m6_record(m6_recorded):
    return m6_recorded[1]


def test_vanilla_zero_target(chsh_singlet):
    res = frank_wolfe_vanilla(chsh_singlet, 0.0, FAST)
    assert res.status == STATUS_INSIDE
    assert res.distance <= FAST.eps


def test_vanilla_vertex_target():
    s = DeterministicStrategy.from_signs([[1, -1], [-1, -1]])
    p = strategy_tensor(s, NM22)
    res = frank_wolfe_vanilla(p, 1.0, FAST)
    assert res.status == STATUS_INSIDE
    assert res.distance == 0
    assert res.lmo_calls == 1


def test_vanilla_chsh_threshold_sides(chsh_singlet):
    inside = frank_wolfe_vanilla(chsh_singlet, 0.65, FAST)
    assert inside.status == STATUS_INSIDE
    outside = frank_wolfe_vanilla(chsh_singlet, 0.75, FAST)
    assert outside.status == STATUS_SEPARATED
    assert outside.distance > 0.01


def test_bpcg_chsh_threshold_sides(chsh_singlet):
    inside = bpcg(chsh_singlet, 0.65, FAST)
    assert inside.status == STATUS_INSIDE
    outside = bpcg(chsh_singlet, 0.75, FAST)
    assert outside.status == STATUS_SEPARATED
    assert outside.distance > 0.01


def test_bpcg_matches_vanilla_with_fewer_lmo_calls(chsh_singlet):
    wins = 0
    for seed in range(20):
        cfg = SolverConfig(restarts=100, seed=seed, max_iterations=50_000)
        v0 = 0.65 if seed % 2 == 0 else 0.75
        rv = frank_wolfe_vanilla(chsh_singlet, v0, cfg)
        rb = bpcg(chsh_singlet, v0, cfg)
        assert rv.status == rb.status
        if rb.lmo_calls <= rv.lmo_calls:
            wins += 1
    assert wins >= 18


def test_bpcg_m6_membership(m6_run):
    res = m6_run
    assert res.status == STATUS_INSIDE
    assert res.distance <= 1e-6
    assert res.iterations <= 100_000


def test_bpcg_m6_soundness(m6_run, ico_singlet):
    active = m6_run.active_set
    # the emitted decomposition reconstructs the iterate independently
    x = active.recompute_iterate()
    target = 0.60 * ico_singlet.entries.astype(float)
    assert np.linalg.norm((x - target).reshape(-1)) <= 1e-6 + 1e-9
    assert active.weights.min() >= 0
    assert abs(active.weights.sum() - 1) < 1e-9
    assert len(set(active.atoms)) == len(active.atoms)
    assert np.abs(active.iterate() - x).max() < 1e-10


def test_bpcg_phi_halves_only_on_null_steps(m6_record):
    phis = m6_record.phi_history
    steps = m6_record.step_types
    for i, step in enumerate(steps[:-1]):
        if step == "null":
            assert phis[i + 1] == phis[i] / 2
        else:
            assert phis[i + 1] == phis[i]


def _recorded_run(monkeypatch, p, v0, settings, lmo=heuristic_lmo):
    """A bpcg run with SolverConfig ``settings``, its recorder, the (values,
    weights, iterate) that each iteration's cache read saw, and each oracle
    call's (value, threshold), keyed by the iteration that made it: -1 for
    the first call, before the loop."""
    seen, calls = [], {}
    values = InnerProductCache.values

    def recording_values(cache):
        v = values(cache)
        seen.append((v.copy(), cache.active.weights.copy(), cache.active.recompute_iterate()))
        return v

    def recording_lmo(gradient, restarts, seed, threshold=None):
        answer = lmo(gradient, restarts, seed, threshold)
        calls[len(seen) - 1] = (answer[1], threshold)
        return answer

    monkeypatch.setattr(InnerProductCache, "values", recording_values)
    monkeypatch.setattr(fw, "heuristic_lmo", recording_lmo)
    return (*recorded(bpcg, p, v0, **settings), seen, calls)


def _exact_lmo(gradient, restarts, seed, threshold=None):
    """A seed-independent oracle: the exact minimiser, so a fresh call on the
    same gradient returns the same answer."""
    strategy, value = exhaustive_lmo(gradient)
    return strategy, float(value), 1, []


# inside at 0.60; separated at 0.90, where the last Phi levels reach the
# tol clamp of the floor
@pytest.mark.parametrize("v0", [0.60, 0.90])
def test_bpcg_local_step_floor(v0, ico_singlet, monkeypatch):
    # every iteration's gap ga = max - min of the cache values, the weights
    # it saw, and every oracle value are recorded, so the floor
    # max(min(Phi, g_last) / K, tol) of each step can be recomputed
    res, rec, seen, calls = _recorded_run(monkeypatch, ico_singlet, v0, dict(restarts=500, seed=2))
    tol = 0.5 * SolverConfig().eps ** 2  # the default eps
    g_last, held = np.inf, None
    below, between = 0, 0
    for t, (step, phi, (vals, w, _)) in enumerate(zip(rec.step_types, rec.phi_history, seen)):
        ga = vals.max() - vals.min()
        floor = max(min(phi, g_last) / fw.LAZY_TOLERANCE, tol)
        assert (step in ("pairwise", "drop", "face")) == (ga >= floor)
        below += ga < floor
        between += floor <= ga < phi
        if step in ("fw", "null"):
            # a null step without a call of its own takes the standing value
            gw = calls[t][0] if t in calls else held
            gap = float(w @ vals) - gw
            if step == "fw":
                g_last = gap
        held = gw if step == "null" else None
    # both sides of the floor occur, and local steps below Phi
    assert below > 0 and between > 0


def test_bpcg_objective_monotone(m6_record):
    f = m6_record.f_history
    assert all(f[i + 1] <= f[i] + 1e-12 for i in range(len(f) - 1))


def test_bpcg_linear_convergence_smoke(m6_record):
    f = np.array(m6_record.f_history)
    f = f[f > 0]
    tail = np.log(f[len(f) // 2 :])
    t = np.arange(len(tail))
    slope = np.polyfit(t, tail, 1)[0]
    assert slope < 0


def test_run_stats_count_every_step(m6_run, m6_record, chsh_singlet):
    stats = m6_run.stats
    assert sum(stats.steps.values()) == m6_run.iterations
    assert stats.steps == {t: m6_record.step_types.count(t) for t in stats.steps}
    assert stats.oracle_calls == m6_run.lmo_calls
    # every call but the first answers one fw or null step; a null step
    # directly after another may reuse that one's call instead
    steps = m6_record.step_types
    reused = 1 + stats.steps["fw"] + stats.steps["null"] - stats.oracle_calls
    assert 0 <= reused <= sum(a == b == "null" for a, b in zip(steps, steps[1:]))
    assert stats.oracle_seconds > 0
    assert stats.peak_atoms >= len(m6_run.active_set)
    assert stats.oracle_rounds >= stats.oracle_calls
    assert stats.oracle_early_exits <= stats.steps["fw"]
    assert 0 < stats.extra_atoms <= EXTRA_ATOMS * stats.oracle_early_exits
    # vanilla Frank-Wolfe takes one Frank-Wolfe step per iteration, and its
    # oracle always runs the full batch
    van = frank_wolfe_vanilla(chsh_singlet, 0.65, FAST)
    assert van.stats.steps == {"pairwise": 0, "drop": 0, "fw": van.iterations, "null": 0,
                               "face": 0}
    assert van.stats.oracle_calls == 1 + van.iterations
    assert van.stats.oracle_rounds >= van.stats.oracle_calls
    assert van.stats.oracle_early_exits == van.stats.extra_atoms == 0


def test_no_null_step_follows_an_early_exit(monkeypatch, ico_singlet):
    res, rec, _, calls = _recorded_run(monkeypatch, ico_singlet, 0.60, dict(restarts=500, seed=2))
    exits = {t: th is not None and value <= th for t, (value, th) in calls.items()}
    assert res.stats.oracle_calls == len(calls)
    assert res.stats.oracle_early_exits == sum(exits.values()) > 0
    assert not exits.pop(-1)  # the first call, on -v0 p, has no threshold
    # every later call answers the fw or null step of its own iteration
    assert "null" in rec.step_types
    for t, exited in exits.items():
        assert rec.step_types[t] == "fw" if exited else rec.step_types[t] in ("fw", "null")


@pytest.fixture(scope="module")
def ghz_m6(ico_points):
    bloch = np.array([[float(c) for c in v.as_tuple()]
                      for v in antipodal_representatives(ico_points)])
    return build_quantum_tensor("ghz", [bloch] * 3, Scenario(3, 6, marginals=True))


# GHZ on three parties at 0.80 is separated, and the run ends in a few dozen
# null steps on an iterate that no longer moves.  With the exact oracle a fresh
# call would return the standing answer, so each reused step is the null step
# that a fresh call would have taken.
@pytest.mark.parametrize("oracle", ["heuristic", "exact"])
def test_null_steps_reuse_the_standing_answer(oracle, ghz_m6, monkeypatch):
    lmo = _exact_lmo if oracle == "exact" else heuristic_lmo
    res, rec, seen, calls = _recorded_run(monkeypatch, ghz_m6, 0.80,
                                          dict(restarts=300, seed=0), lmo)
    assert res.status == STATUS_SEPARATED
    steps, counts = rec.step_types, res.stats.steps
    reused = [t for t, step in enumerate(steps) if step == "null" and t not in calls]
    assert reused
    assert len(reused) == 1 + counts["fw"] + counts["null"] - res.stats.oracle_calls
    target = 0.80 * ghz_m6.to_float().entries
    target[0, 0, 0] = 1.0  # the root, as the solver sets it
    for t in reused:
        last = max(k for k in calls if k < t)
        # only null steps since the call, so the iterate has not moved
        assert set(steps[last:t]) == {"null"}
        assert np.array_equal(seen[t][1], seen[last][1])
        vals, w, x = seen[t]
        threshold = float(w @ vals) - rec.phi_history[t] / fw.LAZY_TOLERANCE
        assert calls[last][0] > threshold
        if oracle == "exact":
            fresh = exhaustive_lmo(CorrelationTensor(ghz_m6.scenario, x - target))[1]
            assert fresh > threshold


def test_separated_run_ends_on_an_exact_confirmation():
    # GHZ (3, 9) with polygon measurements at v0 = 1: at seed 0 the heuristic's
    # last full batches all miss a vertex with gap 2.09 where the run would
    # end.  The exact oracle, asked before that last null step, finds it, and
    # the run ends only where no vertex clears the threshold
    p = ghz_polygon_tensor(3, 9)
    res = bpcg(p, 1.0, SolverConfig(restarts=50, seed=0))
    assert res.status == STATUS_SEPARATED
    assert res.stats.exact_calls >= 2  # one found the vertex, the last found none
    x = res.active_set.recompute_iterate()
    gap = float(np.vdot(res.gradient.entries, x)) - exhaustive_lmo(res.gradient)[1]
    assert gap < 1e-9


def test_bpcg_single_atom_falls_through_to_lmo(chsh_singlet):
    _, rec = recorded(bpcg, chsh_singlet, 0.65, restarts=100, seed=0, max_iterations=10)
    # with one atom the pairwise test cannot fire; the first step consults
    # the oracle branch
    assert rec.step_types[0] in ("fw", "null")


def test_active_set_dedupes_sign_flips():
    active = ActiveSet(NM22)
    s = DeterministicStrategy.from_signs([[1, -1], [1, 1]])
    flipped = DeterministicStrategy.from_signs([[-1, 1], [-1, -1]])
    i, j = active.add_atom([s, flipped], 0.5)  # the weight goes on once per strategy
    assert i == j
    assert len(active) == 1
    assert active.weights.sum() == 1.0


def _scripted_active_set(sc, target, atoms, weights):
    active = ActiveSet(sc)
    for a, w in zip(atoms, weights):
        active.add_atom([a], w)
    active.x = active.recompute_iterate()
    cache = InnerProductCache(active, target)
    return active, cache


def _dense(active, i):
    return strategy_tensor(active.atoms[i], active.scenario).entries


def _pairwise_gap(active, i_from, i_to, gamma):
    """The gap for which apply_pairwise's line search takes a step of gamma."""
    return gamma * float(np.sum((_dense(active, i_from) - _dense(active, i_to)) ** 2))


def _fw_gap(active, i, gamma):
    """The gap for which apply_fw's line search takes a step of gamma."""
    return gamma * float(np.sum((active.recompute_iterate() - _dense(active, i)) ** 2))


def test_cache_matches_recomputation_after_updates(chsh_singlet):
    target_entries = 0.6 * chsh_singlet.entries
    target = CorrelationTensor(NM22, target_entries)
    atoms = [
        DeterministicStrategy([int(a), int(b)], 2)
        for a, b in [(0, 0), (1, 2), (3, 1)]
    ]
    active, cache = _scripted_active_set(NM22, target, atoms, [0.5, 0.3, 0.2])

    def check():
        x = sum(w * _dense(active, i) for i, w in enumerate(active.weights))
        assert np.abs(cache.values() - recomputed_values(active, x - target_entries)).max() < 1e-12

    check()

    # pairwise transfer between two atoms, by the line search for gamma = 0.1
    assert not cache.apply_pairwise(0, 2, _pairwise_gap(active, 0, 2, 0.1))
    assert np.allclose(active.weights, [0.4, 0.3, 0.3], rtol=0, atol=1e-15)
    assert active.x is None  # stale
    check()

    # drop step: a gap of twice w_1 ||d_1 - d_2||^2 moves all of atom 1's
    # weight, and the emptied atom leaves the active set and the cache
    order = list(active.atoms)
    assert cache.apply_pairwise(1, 2, _pairwise_gap(active, 1, 2, 2 * active.weights[1]))
    assert active.atoms == [order[0], order[2]]
    assert len(cache.b) == len(cache.values()) == 2 and cache.gram.shape == (2, 2)
    assert np.allclose(active.weights, [0.4, 0.6], rtol=0, atol=1e-15)
    check()

    # frank-wolfe step toward a fresh atom, by the exact line search
    new = DeterministicStrategy([2, 2], 2)
    x = active.recompute_iterate()
    (i,) = cache.add_atom([new])
    assert i == 2 and len(cache.b) == 3
    grad = x - target_entries
    gx = float(active.weights @ cache.values())
    assert gx == pytest.approx(float(np.sum(grad * x)), abs=1e-12)
    d = strategy_tensor(new, NM22).entries
    gap = gx - float(np.sum(grad * d))
    gamma = cache.apply_fw(i, gap, gx)
    assert 0 < gamma < 1
    assert gamma == pytest.approx(gap / float(np.sum((x - d) ** 2)), rel=1e-12)
    assert np.allclose(active.weights, [0.4 * (1 - gamma), 0.6 * (1 - gamma), gamma],
                       rtol=0, atol=1e-15)
    assert active.x is None
    check()

    # no-op leaves values untouched
    before = cache.values().copy()
    assert np.array_equal(before, cache.values())


@pytest.mark.parametrize(
    "parties, inputs, marginals", [(2, 3, False), (3, 4, True), (1, 5, True)]
)
def test_sign_rows_match_dense_atoms_after_scripted_steps(parties, inputs, marginals):
    sc = Scenario(parties, inputs, marginals)
    rng = np.random.default_rng(10 * parties + inputs)
    target = CorrelationTensor(sc, rng.normal(size=sc.shape))
    active = ActiveSet(sc)
    active.add_atom([DeterministicStrategy([0] * parties, inputs)], 1.0)
    cache = InnerProductCache(active, target)

    def check():
        dense = sum(
            w * strategy_tensor(a, sc).entries
            for w, a in zip(active.weights, active.atoms)
        )
        x = active.recompute_iterate()
        assert np.abs(x - dense).max() < 1e-12
        n = len(active)
        assert cache.gram.shape == (n, n)
        for i, a in enumerate(active.atoms):
            for j, b in enumerate(active.atoms):
                assert cache.gram[i, j] == strategy_inner(a, b, sc)
        expected = recomputed_values(active, x - target.entries)
        assert np.abs(cache.values() - expected).max() < 1e-10

    def fw_step(gamma):
        # a gap above ||x - d_i||^2 clamps the step at gamma = 1 exactly
        bits = [int(b) for b in rng.integers(0, 1 << inputs, parties)]
        (i,) = cache.add_atom([DeterministicStrategy(bits, inputs)])
        gx = float(active.weights @ cache.values())
        assert cache.apply_fw(i, _fw_gap(active, i, gamma), gx) == pytest.approx(min(gamma, 1))
        return i

    def pairwise(i_from, i_to, gamma):
        return cache.apply_pairwise(i_from, i_to, _pairwise_gap(active, i_from, i_to, gamma))

    check()
    # more atoms than a fresh buffer holds, so the rows and the Gram matrix grow
    for _ in range(20):
        fw_step(0.2)
    assert len(active) > 8
    check()
    assert not pairwise(0, len(active) - 1, active.weights[0] / 2)
    check()
    # drop step: the emptied atom leaves both objects, and the rows after it
    # shift up, in order
    order, n = list(active.atoms), len(active)
    assert pairwise(1, 2, 2 * active.weights[1])
    assert active.atoms == order[:1] + order[2:]
    assert len(active) == len(active.weights) == len(cache.b) == n - 1
    check()
    fw_step(0.5)
    check()
    # a gamma = 1 step leaves every other weight at exactly 0 and the atoms in
    # order, and the cache stays valid without a rebuild
    order = list(active.atoms)
    i = fw_step(2.0)
    assert active.atoms[: len(order)] == order
    assert active.weights[i] == 1.0
    assert np.all(np.delete(active.weights, i) == 0.0)
    check()
    # the solver's next away step on a zero-weight atom is a drop step with
    # gamma = 0, which removes it and leaves the other weights unchanged
    j = 0 if i else 1
    order, weights = list(active.atoms), active.weights.copy()
    assert weights[j] == 0.0
    assert pairwise(j, i, 0.25)
    assert active.atoms == order[:j] + order[j + 1 :]
    assert np.array_equal(active.weights, np.delete(weights, j))
    assert active.weights.sum() == 1.0
    check()


@pytest.mark.parametrize(
    "parties, inputs, marginals", [(2, 4, False), (2, 3, True), (3, 3, True)]
)
def test_batched_add_matches_a_fresh_cache(parties, inputs, marginals):
    # atoms enter the active set and the cache in one batch, past the
    # buffer's capacity and with a duplicate among them; the Gram matrix, b
    # and the values then equal those of a cache built from scratch, and the
    # zero-weight newcomers leave the iterate and the old values as they were
    sc = Scenario(parties, inputs, marginals)
    rng = np.random.default_rng(60 + 10 * parties + marginals)
    target = CorrelationTensor(sc, rng.normal(size=sc.shape))

    def strategy():
        return DeterministicStrategy([int(b) for b in rng.integers(0, 1 << inputs, parties)],
                                     inputs)

    active, cache = _scripted_active_set(sc, target, [strategy() for _ in range(5)],
                                         [0.1, 0.2, 0.3, 0.15, 0.25])
    n = len(active)
    x, v = active.recompute_iterate(), cache.values().copy()
    for batch in (1, 3, 17):
        k = len(active)
        new = [strategy(), active.atoms[0], *(strategy() for _ in range(batch - 1))]
        indices = cache.add_atom(new)  # atoms[0] is already held: no new atom
        assert indices == [active.atoms.index(s.canonical(sc)) for s in new]
        assert indices[1] == 0 and len(active) <= k + batch
        fresh = InnerProductCache(active, target)
        assert len(cache.b) == len(active) and cache.gram.shape == fresh.gram.shape
        assert np.array_equal(cache.gram, fresh.gram)
        assert np.abs(cache.b - fresh.b).max() <= 1e-12  # float target: batch rounding
        assert np.abs(cache.values() - fresh.values()).max() <= 1e-12
        assert np.array_equal(cache.values()[:n], v)
        assert np.abs(active.recompute_iterate() - x).max() <= 1e-12
    assert len(cache._gram) >= len(active) > 2 * MIN_CAPACITY
    assert cache.add_atom() == []  # nothing beyond the cache: unchanged
    assert len(cache.b) == len(active)


@pytest.mark.parametrize("parties", [2, 3])
def test_batched_add_equals_one_at_a_time_adds(parties):
    # one batch of 69 strategies without marginal slots, among them a
    # duplicate, a sign-flip twin of an earlier one and of the held atom,
    # grows the rows from 8 to 64 (128 with three parties) in one call, where
    # single adds double them one at a time; every index, row, weight and
    # cache entry is the same.  An integer target keeps b exact
    sc = Scenario(parties, 4, marginals=False)
    rng = np.random.default_rng(90 + parties)
    target = CorrelationTensor(sc, rng.integers(-3, 4, size=sc.shape).astype(float))
    batch = [DeterministicStrategy([int(b) for b in rng.integers(0, 16, parties)], 4)
             for _ in range(66)]
    first = DeterministicStrategy([1] * parties, 4)
    twin = batch[3].flip_parties([0, parties - 1])
    batch[10:10] = [batch[5], twin, first.flip_parties([0, 1])]

    def fresh():
        active = ActiveSet(sc)
        active.add_atom([first], 1.0)
        return active, InnerProductCache(active, target)

    (active, cache), (single, one_by_one) = fresh(), fresh()
    indices = cache.add_atom(batch)
    assert indices == [i for s in batch for i in one_by_one.add_atom([s])]
    assert indices[10] == indices[5] and indices[11] == indices[3] and indices[12] == 0
    assert len(batch) - 3 > len(active) - 1 > 4 * MIN_CAPACITY
    assert active.atoms == single.atoms and len(active._rows[0]) == len(single._rows[0])
    for r, s in zip(active.rows, single.rows):
        assert np.array_equal(r, s)
    assert np.array_equal(active.weights, single.weights)
    assert np.array_equal(cache.gram, one_by_one.gram)
    assert np.array_equal(cache.b, one_by_one.b)
    assert np.array_equal(cache.values(), one_by_one.values())


def test_fw_steps_add_the_extras_at_weight_zero(monkeypatch, ico_singlet):
    # each Frank-Wolfe step gives weight to its vertex alone; the atoms that
    # come with it start at 0, and later steps move weight onto some of them
    sc, winners, extras = ico_singlet.scenario, set(), set()

    def lmo(*args):
        answer = heuristic_lmo(*args)
        winners.add(answer[0].canonical(sc))
        extras.update(s.canonical(sc) for s in answer[3])
        return answer

    res, rec, seen, _ = _recorded_run(monkeypatch, ico_singlet, 0.60,
                                      dict(restarts=500, seed=2), lmo)
    batches = 0
    for t, step in enumerate(rec.step_types[:-1]):
        if step == "fw":
            w, w_next = seen[t][1], seen[t + 1][1]
            new = w_next[len(w):]
            assert np.count_nonzero(new) <= 1
            batches += len(new) > 1
    assert batches > 0 and res.stats.extra_atoms > 0
    active = res.active_set
    held = {a for a, w in zip(active.atoms, active.weights) if w > 0}
    assert held & (extras - winners)


def test_zero_weight_away_atoms_leave_by_drop_steps(monkeypatch, ico_singlet):
    # an extra that turns out useless becomes the away atom with cap 0, and
    # the local step on it is a drop step that removes it and moves nothing
    _, rec, seen, _ = _recorded_run(monkeypatch, ico_singlet, 0.60, dict(restarts=500, seed=2))
    zero_away = 0
    for t, step in enumerate(rec.step_types[:-1]):
        vals, w, x = seen[t]
        if step in ("pairwise", "drop") and w[int(vals.argmax())] == 0:
            zero_away += 1
            assert step == "drop"
            assert len(seen[t + 1][1]) == len(w) - 1
            assert np.array_equal(np.sort(seen[t + 1][1]), np.sort(w)[1:])
    assert zero_away > 0


def test_weight_sum_stays_within_rounding_without_renormalisation():
    # the Werner state on the m = 21 geodesic polyhedron, as `solve upper --m 21`
    # builds it, just above its v_up of 0.7106: about 57k iterations at this
    # seed, among them dozens of face steps; the drift bound is 2.2e-16 per
    # iteration
    reps = antipodal_representatives(rationalize_all(geodesic_icosahedron([2]), 1e-6))
    vecs = [v.as_tuple() for v in reps]
    res = bpcg(singlet_tensor(vecs, vecs), 0.72, SolverConfig(restarts=100, seed=2))
    assert res.status == STATUS_SEPARATED and res.iterations > 40_000
    assert res.stats.steps["face"] > 0
    assert abs(res.active_set.weights.sum() - 1) <= 1e-12


def _face_problem(coeffs, noise=0.0):
    """Four affinely independent atoms in a three-party scenario with marginal
    slots, at weights 1/4, and the target sum_i coeffs[i] d_i plus noise."""
    sc = Scenario(3, 2, marginals=True)
    atoms = [DeterministicStrategy(b, 2) for b in [(0, 0, 0), (1, 2, 3), (3, 1, 0), (2, 3, 1)]]
    entries = sum(c * strategy_tensor(a, sc).entries for c, a in zip(coeffs, atoms))
    entries = entries + noise * np.random.default_rng(7).normal(size=sc.shape)
    target = CorrelationTensor(sc, entries)
    active, cache = _scripted_active_set(sc, target, atoms, [0.25] * 4)
    return active, cache, target


def _objective(active, target):
    return 0.5 * float(np.sum((active.recompute_iterate() - target.entries) ** 2))


def _check_face_result(active, cache, target):
    # the cache matches a fresh one and the dense recomputation, the weights
    # stay feasible without renormalisation, and the values are equal on the
    # support: the gradient is orthogonal to the atoms' affine hull
    fresh = InnerProductCache(active, target).values()
    assert np.abs(cache.values() - fresh).max() <= 1e-12
    x = active.recompute_iterate()
    assert np.abs(cache.values() - recomputed_values(active, x - target.entries)).max() <= 1e-12
    assert active.weights.min() >= 0
    assert abs(active.weights.sum() - 1) <= 1e-12
    assert np.ptp(cache.values()) <= 1e-12
    assert active.x is None


def test_face_step_moves_to_an_interior_minimiser():
    active, cache, target = _face_problem([0.4, 0.3, 0.2, 0.1], noise=0.05)
    order, f0 = list(active.atoms), _objective(active, target)
    assert cache.face_step()
    assert active.atoms == order and active.weights.min() > 0
    assert _objective(active, target) <= f0
    _check_face_result(active, cache, target)
    # already at the minimiser: another face step may be refused on rounding,
    # but it never raises f
    f1 = _objective(active, target)
    cache.face_step()
    assert _objective(active, target) <= f1 + 1e-15


def test_face_step_drops_the_blocking_atom():
    # the affine minimiser is (0.5, 0.4, 0.3, -0.2): from w = 1/4 the last
    # weight reaches 0 first, and the minimiser over the other three is interior
    active, cache, target = _face_problem([0.5, 0.4, 0.3, -0.2])
    order, f0 = list(active.atoms), _objective(active, target)
    assert cache.face_step()
    assert active.atoms == order[:3]
    assert cache.gram.shape == (3, 3)
    assert _objective(active, target) < f0
    _check_face_result(active, cache, target)


def test_face_step_on_a_dependent_set_changes_nothing():
    # d, -d, e, -e: the midpoints of both pairs are 0, so the KKT matrix is singular
    d = DeterministicStrategy([0, 0], 2)
    e = DeterministicStrategy([0, 1], 2)
    atoms = [d, d.flip_parties([1]), e, e.flip_parties([1])]
    target = CorrelationTensor(NM22, np.array([[0.3, -0.1], [0.2, 0.4]]))
    active, cache = _scripted_active_set(NM22, target, atoms, [0.1, 0.2, 0.3, 0.4])
    before = (list(active.atoms), active.weights.copy(), cache.values().copy())
    assert not cache.face_step()
    assert active.atoms == before[0]
    assert np.array_equal(active.weights, before[1])
    assert np.array_equal(cache.values(), before[2])
    assert active.x is not None


@pytest.mark.parametrize("answer", ["raises f", "sum off 1", "not finite"])
def test_face_step_refuses_a_bad_solve(answer, monkeypatch):
    # positive weights that raise f; the true minimiser with its sum off by
    # 1e-9; a nan: each leaves every weight and value as it was
    active, cache, target = _face_problem([0.4, 0.3, 0.2, 0.1], noise=0.05)
    before = (active.weights.copy(), cache.values().copy())
    worse = np.full(5, 0.01)  # most weight on the atom of largest gradient value
    worse[int(before[1].argmax())], worse[4] = 0.97, 0.0
    solve = np.linalg.solve
    bad_solves = {"raises f": lambda *args: worse,
                  "sum off 1": lambda *args: solve(*args) + np.r_[np.full(4, 2.5e-10), 0.0],
                  "not finite": lambda *args: np.full(5, np.nan)}
    monkeypatch.setattr(np.linalg, "solve", bad_solves[answer])
    assert not cache.face_step()
    assert np.array_equal(active.weights, before[0])
    assert np.array_equal(cache.values(), before[1])


def test_run_goes_on_when_every_face_solve_fails(ico_singlet, monkeypatch):
    # a singular solve keeps the weights and the run carries on with pairwise
    # steps; at v0 = 0.75 this run otherwise takes face steps
    solves = []

    def singular(*args):
        solves.append(1)
        raise np.linalg.LinAlgError("singular matrix")

    settings = dict(restarts=300, seed=2)  # under recorders, which assert the invariants
    assert recorded(bpcg, ico_singlet, 0.75, **settings)[0].stats.steps["face"] > 0
    monkeypatch.setattr(np.linalg, "solve", singular)
    res = recorded(bpcg, ico_singlet, 0.75, **settings)[0]
    assert solves and res.stats.steps["face"] == 0
    assert res.status == STATUS_INSIDE


def test_face_steps_only_up_to_the_atom_gate(ico_singlet, monkeypatch):
    # the run of test_run_goes_on_when_every_face_solve_fails; with the gate
    # set to the median active-set size of its face-step attempts, attempts
    # above it stop and those at or below it go on
    sizes, face_step = [], InnerProductCache.face_step

    def counted(cache):
        sizes.append(len(cache.active))
        return face_step(cache)

    monkeypatch.setattr(InnerProductCache, "face_step", counted)
    settings = SolverConfig(restarts=300, seed=2)
    bpcg(ico_singlet, 0.75, settings)
    gate = sorted(sizes)[len(sizes) // 2]
    assert max(sizes) > gate and fw.FACE_MAX_ATOMS >= max(sizes)
    sizes.clear()
    monkeypatch.setattr(fw, "FACE_MAX_ATOMS", gate)
    bpcg(ico_singlet, 0.75, settings)
    assert sizes and max(sizes) <= gate


def _run_summary(res):
    return (
        res.active_set.atoms,
        res.active_set.weights.tolist(),
        res.iterations,
        res.lmo_calls,
        res.status,
    )


# at m = 6, v0 = 0.55 the run reaches eps on a pairwise step and stops only at
# the next oracle call, so an observer that tested the distance would show
@pytest.mark.parametrize("case", ["chsh-0.65", "chsh-0.75", "m6-0.55"])
def test_trace_debug_and_callback_only_observe(case, chsh_singlet, ico_singlet):
    p = ico_singlet if case.startswith("m6") else chsh_singlet
    v0 = float(case.split("-")[1])
    plain = bpcg(p, v0, SolverConfig(restarts=300, seed=2))
    # the recorder forms the iterate at every call and asserts the invariants
    observed, rec = recorded(bpcg, p, v0, restarts=300, seed=2)
    assert rec.f_history
    assert _run_summary(observed) == _run_summary(plain)


@pytest.mark.parametrize("v0", [0.60, 0.75])
def test_iterate_formed_at_most_once_per_oracle_call(v0, ico_singlet, monkeypatch):
    calls = []
    original = ActiveSet.recompute_iterate

    def counted(self):
        calls.append(len(self))
        return original(self)

    monkeypatch.setattr(ActiveSet, "recompute_iterate", counted)
    res = bpcg(ico_singlet, v0, SolverConfig(restarts=300, seed=2))
    # the pairwise steps between oracle calls leave the iterate stale
    assert res.iterations > res.lmo_calls
    assert len(calls) <= res.lmo_calls + 1


def test_fast_inner_cache_factory(chsh_singlet):
    active = ActiveSet(NM22)
    active.add_atom([DeterministicStrategy([0, 0], 2)], 1.0)
    active.x = active.recompute_iterate()
    cache = InnerProductCache(active, chsh_singlet)
    assert cache.values().shape == (1,)


def test_extract_hyperplane_chsh(chsh_singlet):
    res = bpcg(chsh_singlet, 0.75, FAST)
    G = extract_hyperplane(res)
    M = integerize_functional(G)
    lb = local_bound(M)
    assert lb.exact and lb.value == 2
    q = inner(M, chsh_singlet)
    assert abs(lb.value / float(q) - 1 / np.sqrt(2)) < 1e-3


def test_extract_hyperplane_ghz_mermin():
    p = ghz_polygon_tensor(3, 2)
    res = bpcg(p, 0.55, SolverConfig(restarts=300, seed=4))
    assert res.status == STATUS_SEPARATED
    G = extract_hyperplane(res)
    M = integerize_functional(G)
    lb = local_bound(M)
    q = inner(M, p)
    assert (lb.value, q) == (2, 4)


def test_extract_hyperplane_warns_when_inside(chsh_singlet):
    res = bpcg(chsh_singlet, 0.5, FAST)
    assert res.status == STATUS_INSIDE
    with pytest.warns(UserWarning):
        extract_hyperplane(res)


def test_gradient_is_iterate_minus_target(chsh_singlet):
    res = bpcg(chsh_singlet, 0.65, FAST)
    x = res.active_set.recompute_iterate()
    expected = x - 0.65 * chsh_singlet.entries
    assert np.abs(res.gradient.entries - expected).max() < 1e-9


def test_solver_rejects_bad_v0(chsh_singlet):
    with pytest.raises(ValueError):
        bpcg(chsh_singlet, 1.5, FAST)
    with pytest.raises(ValueError):
        frank_wolfe_vanilla(chsh_singlet, -0.1, FAST)


@pytest.mark.parametrize("bad", [{"eps": 0.0}, {"eps": -1.0}, {"eps": float("nan")},
                                 {"restarts": 0}, {"max_iterations": -5},
                                 {"eps": 1e200}, {"eps": float("inf")}])
def test_solver_rejects_bad_config(bad):
    # checked once, where the settings are made, so no solver sees them
    with pytest.raises(ValueError):
        SolverConfig(**{"restarts": 100, **bad})


def test_solver_callback_cadence(chsh_singlet):
    # the hook sees t = 0 ... iterations once each, in order, with the type
    # of the step before: a capped run's last step too
    for solver, cap, status in [(bpcg, 1_000_000, STATUS_INSIDE), (bpcg, 10, fw.STATUS_CAP),
                                (frank_wolfe_vanilla, 1_000_000, STATUS_INSIDE)]:
        seen = []
        cfg = SolverConfig(restarts=100, seed=0, max_iterations=cap,
                           callback=lambda t, step, phi, active: seen.append((t, step)))
        res = solver(chsh_singlet, 0.65, cfg)
        assert res.status == status
        assert [t for t, _ in seen] == list(range(res.iterations + 1))
        steps = [step for _, step in seen]
        assert steps[0] is None
        assert {k: steps.count(k) for k in STEP_TYPES} == res.stats.steps


def test_heuristic_matches_exhaustive_on_chsh(chsh_singlet):
    g = CorrelationTensor(NM22, 0.5 * chsh_singlet.entries)
    s = heuristic_lmo(g, restarts=64, seed=0)[0]
    _, v_opt = exhaustive_lmo(g)
    # tiny instance: the heuristic finds the optimum
    assert inner(g, strategy_tensor(s, NM22)) == pytest.approx(v_opt, abs=1e-12)


def test_bpcg_early_separation_flag(chsh_singlet):
    eager = SolverConfig(restarts=100, seed=2, early_separation=True)
    strict = SolverConfig(restarts=100, seed=2)
    r_eager = bpcg(chsh_singlet, 0.75, eager)
    r_strict = bpcg(chsh_singlet, 0.75, strict)
    assert r_eager.status == r_strict.status == STATUS_SEPARATED
    assert r_eager.iterations <= r_strict.iterations
    # inside points are unaffected by the flag
    assert bpcg(chsh_singlet, 0.65, eager).status == STATUS_INSIDE

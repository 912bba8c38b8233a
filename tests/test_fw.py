import numpy as np
import pytest

from localpolytope import fw
from localpolytope.fw import (
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
from localpolytope.lmo import exhaustive_lmo, heuristic_lmo, local_bound
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
from util import recomputed_values

NM22 = Scenario(2, 2, marginals=False)
FAST = SolverConfig(restarts=200, seed=1, max_iterations=50_000)


@pytest.fixture(scope="module")
def m6_run(ico_singlet):
    cfg = SolverConfig(restarts=500, seed=2, trace=True, debug=True)
    return bpcg(ico_singlet, 0.60, cfg)


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


def test_bpcg_phi_halves_only_on_null_steps(m6_run):
    phis = m6_run.phi_history
    steps = m6_run.step_types
    for i, step in enumerate(steps[:-1]):
        if step == "null":
            assert phis[i + 1] == phis[i] / 2
        else:
            assert phis[i + 1] == phis[i]


def _recorded_run(monkeypatch, p, v0, cfg, lmo=heuristic_lmo):
    """A bpcg run, the (values, weights, iterate) that each iteration's cache
    read saw, and each oracle call's (value, threshold), keyed by the
    iteration that made it: -1 for the first call, before the loop."""
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
    return bpcg(p, v0, cfg), seen, calls


def _exact_lmo(gradient, restarts, seed, threshold=None):
    """A seed-independent oracle: the exact minimiser, so a fresh call on the
    same gradient returns the same answer."""
    strategy, value = exhaustive_lmo(gradient)
    return strategy, float(value), 1, None


# inside at 0.60; separated at 0.90, where the last Phi levels reach the
# tol clamp of the floor
@pytest.mark.parametrize("v0", [0.60, 0.90])
def test_bpcg_local_step_floor(v0, ico_singlet, monkeypatch):
    # every iteration's gap ga = max - min of the cache values, the weights
    # it saw, and every oracle value are recorded, so the floor
    # max(min(Phi, g_last) / K, tol) of each step can be recomputed
    cfg = SolverConfig(restarts=500, seed=2, trace=True)
    res, seen, calls = _recorded_run(monkeypatch, ico_singlet, v0, cfg)
    tol = 0.5 * cfg.eps**2
    g_last, held = np.inf, None
    below, between = 0, 0
    for t, (step, phi, (vals, w, _)) in enumerate(zip(res.step_types, res.phi_history, seen)):
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


def test_bpcg_objective_monotone(m6_run):
    f = m6_run.f_history
    assert all(f[i + 1] <= f[i] + 1e-12 for i in range(len(f) - 1))


def test_bpcg_linear_convergence_smoke(m6_run):
    f = np.array(m6_run.f_history)
    f = f[f > 0]
    tail = np.log(f[len(f) // 2 :])
    t = np.arange(len(tail))
    slope = np.polyfit(t, tail, 1)[0]
    assert slope < 0


def test_run_stats_count_every_step(m6_run, chsh_singlet):
    stats = m6_run.stats
    assert sum(stats.steps.values()) == m6_run.iterations
    assert stats.steps == {t: m6_run.step_types.count(t) for t in stats.steps}
    assert stats.oracle_calls == m6_run.lmo_calls
    # every call but the first answers one fw or null step; a null step
    # directly after another may reuse that one's call instead
    steps = m6_run.step_types
    reused = 1 + stats.steps["fw"] + stats.steps["null"] - stats.oracle_calls
    assert 0 <= reused <= sum(a == b == "null" for a, b in zip(steps, steps[1:]))
    assert stats.oracle_seconds > 0
    assert stats.peak_atoms >= len(m6_run.active_set)
    assert stats.oracle_rounds >= stats.oracle_calls
    assert stats.oracle_early_exits <= stats.steps["fw"]
    # vanilla Frank-Wolfe takes one Frank-Wolfe step per iteration, and its
    # oracle always runs the full batch
    van = frank_wolfe_vanilla(chsh_singlet, 0.65, FAST)
    assert van.stats.steps == {"pairwise": 0, "drop": 0, "fw": van.iterations, "null": 0,
                               "face": 0}
    assert van.stats.oracle_calls == 1 + van.iterations
    assert van.stats.oracle_rounds >= van.stats.oracle_calls
    assert van.stats.oracle_early_exits == 0


def test_no_null_step_follows_an_early_exit(monkeypatch, ico_singlet):
    cfg = SolverConfig(restarts=500, seed=2, trace=True)
    res, _, calls = _recorded_run(monkeypatch, ico_singlet, 0.60, cfg)
    exits = {t: th is not None and value <= th for t, (value, th) in calls.items()}
    assert res.stats.oracle_calls == len(calls)
    assert res.stats.oracle_early_exits == sum(exits.values()) > 0
    assert not exits.pop(-1)  # the first call, on -v0 p, has no threshold
    # every later call answers the fw or null step of its own iteration
    assert "null" in res.step_types
    for t, exited in exits.items():
        assert res.step_types[t] == "fw" if exited else res.step_types[t] in ("fw", "null")


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
    cfg = SolverConfig(restarts=300, seed=0, trace=True)
    lmo = _exact_lmo if oracle == "exact" else heuristic_lmo
    res, seen, calls = _recorded_run(monkeypatch, ghz_m6, 0.80, cfg, lmo)
    assert res.status == STATUS_SEPARATED
    steps, counts = res.step_types, res.stats.steps
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
        threshold = float(w @ vals) - res.phi_history[t] / fw.LAZY_TOLERANCE
        assert calls[last][0] > threshold
        if oracle == "exact":
            fresh = exhaustive_lmo(CorrelationTensor(ghz_m6.scenario, x - target))[1]
            assert fresh > threshold


def test_bpcg_single_atom_falls_through_to_lmo(chsh_singlet):
    cfg = SolverConfig(restarts=100, seed=0, trace=True, max_iterations=10)
    res = bpcg(chsh_singlet, 0.65, cfg)
    # with one atom the pairwise test cannot fire; the first step consults
    # the oracle branch
    assert res.step_types[0] in ("fw", "null")


def test_active_set_dedupes_sign_flips():
    active = ActiveSet(NM22)
    s = DeterministicStrategy.from_signs([[1, -1], [1, 1]])
    flipped = DeterministicStrategy.from_signs([[-1, 1], [-1, -1]])
    i = active.add_atom(s, 0.5)
    j = active.add_atom(flipped, 0.5)
    assert i == j
    assert len(active) == 1
    assert active.weights.sum() == 1.0


def _scripted_active_set(sc, target, atoms, weights):
    active = ActiveSet(sc)
    for a, w in zip(atoms, weights):
        active.add_atom(a, w)
    active.x = active.recompute_iterate()
    cache = InnerProductCache(active, target)
    return active, cache


def test_cache_matches_recomputation_after_updates(chsh_singlet):
    rng = np.random.default_rng(3)
    target_entries = 0.6 * chsh_singlet.entries
    target = CorrelationTensor(NM22, target_entries)
    atoms = [
        DeterministicStrategy([int(a), int(b)], 2)
        for a, b in [(0, 0), (1, 2), (3, 1)]
    ]
    active, cache = _scripted_active_set(NM22, target, atoms, [0.5, 0.3, 0.2])

    def check():
        grad = active.x - target_entries
        assert np.abs(cache.values() - recomputed_values(active, grad)).max() < 1e-12

    check()
    dense = [strategy_tensor(a, NM22).entries for a in active.atoms]

    # pairwise transfer between two atoms
    gamma = 0.1
    active.weights[0] -= gamma
    active.weights[2] += gamma
    active.x += gamma * (dense[2] - dense[0])
    cache.apply_pairwise(0, 2, gamma)
    check()

    # drop step: move all remaining weight off atom 1
    gamma = active.weights[1]
    active.weights[1] = 0.0
    active.weights[2] += gamma
    active.x += gamma * (dense[2] - dense[1])
    cache.apply_pairwise(1, 2, gamma)
    active.remove_atom(1)
    cache.remove_atom(1)
    check()

    # frank-wolfe step toward a fresh atom
    new = DeterministicStrategy([2, 2], 2)
    i = active.add_atom(new)
    cache.add_atom(i)
    gamma = 0.25
    active.weights *= 1 - gamma
    active.weights[i] += gamma
    active.x += gamma * (strategy_tensor(new, NM22).entries - active.x)
    cache.apply_fw(i, gamma)
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
    active.add_atom(DeterministicStrategy([0] * parties, inputs), 1.0)
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
        bits = [int(b) for b in rng.integers(0, 1 << inputs, parties)]
        i = active.add_atom(DeterministicStrategy(bits, inputs))
        cache.add_atom(i)
        active.weights *= 1 - gamma
        active.weights[i] += gamma
        cache.apply_fw(i, gamma)
        return i

    def pairwise(i_from, i_to, gamma):
        active.weights[i_from] -= gamma
        active.weights[i_to] += gamma
        cache.apply_pairwise(i_from, i_to, gamma)

    check()
    # more atoms than a fresh buffer holds, so the rows and the Gram matrix grow
    for _ in range(20):
        fw_step(0.2)
    assert len(active) > 8
    check()
    pairwise(0, len(active) - 1, active.weights[0] / 2)
    check()
    # drop step: the rows after the dropped atom shift up, in order
    order = list(active.atoms)
    pairwise(1, 2, active.weights[1])
    active.remove_atom(1)
    cache.remove_atom(1)
    assert active.atoms == order[:1] + order[2:]
    check()
    fw_step(0.5)
    check()
    # a gamma = 1 step leaves every other weight at exactly 0 and the atoms in
    # order, and the cache stays valid without a rebuild
    order = list(active.atoms)
    i = fw_step(1.0)
    assert active.atoms[: len(order)] == order
    assert active.weights[i] == 1.0
    assert np.all(np.delete(active.weights, i) == 0.0)
    check()
    # the solver's next away step on a zero-weight atom is a drop step with
    # gamma = 0, which removes it and leaves the weights unchanged
    j = 0 if i else 1
    order = list(active.atoms)
    cap = active.weights[j]
    gamma = min(0.25, cap)
    assert gamma == 0.0 and gamma >= cap
    pairwise(j, i, gamma)
    active.remove_atom(j)
    cache.remove_atom(j)
    assert active.atoms == order[:j] + order[j + 1 :]
    assert active.weights.sum() == 1.0
    check()


def test_weight_sum_stays_within_rounding_without_renormalisation():
    # the Werner state on the m = 21 geodesic polyhedron, as `solve upper --m 21`
    # builds it: about 52k iterations at this seed, among them dozens of face
    # steps; the drift bound is 2.2e-16 per iteration
    reps = antipodal_representatives(rationalize_all(geodesic_icosahedron([2]), 1e-6))
    vecs = [v.as_tuple() for v in reps]
    res = bpcg(singlet_tensor(vecs, vecs), 0.75, SolverConfig(restarts=100, seed=2))
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

    cfg = SolverConfig(restarts=300, seed=2, debug=True)
    assert bpcg(ico_singlet, 0.75, cfg).stats.steps["face"] > 0
    monkeypatch.setattr(np.linalg, "solve", singular)
    res = bpcg(ico_singlet, 0.75, cfg)
    assert solves and res.stats.steps["face"] == 0
    assert res.status == STATUS_INSIDE


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
    seen = []
    observed = bpcg(
        p,
        v0,
        SolverConfig(
            restarts=300,
            seed=2,
            trace=True,
            debug=True,
            callback=lambda *args: seen.append(args),
            callback_every=3,
        ),
    )
    assert seen and observed.f_history
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
    active.add_atom(DeterministicStrategy([0, 0], 2), 1.0)
    active.x = active.recompute_iterate()
    cache = InnerProductCache(active, chsh_singlet)
    assert cache.values().shape == (1,)


def test_extract_hyperplane_chsh(chsh_singlet):
    res = bpcg(chsh_singlet, 0.75, FAST)
    G = extract_hyperplane(res, chsh_singlet, 0.75)
    M = integerize_functional(G)
    lb = local_bound(M)
    assert lb.exact and lb.value == 2
    q = inner(M.tensor, chsh_singlet)
    assert abs(lb.value / float(q) - 1 / np.sqrt(2)) < 1e-3


def test_extract_hyperplane_ghz_mermin():
    p = ghz_polygon_tensor(3, 2)
    res = bpcg(p, 0.55, SolverConfig(restarts=300, seed=4))
    assert res.status == STATUS_SEPARATED
    G = extract_hyperplane(res, p, 0.55)
    M = integerize_functional(G)
    lb = local_bound(M)
    q = inner(M.tensor, p)
    assert (lb.value, q) == (2, 4)


def test_extract_hyperplane_warns_when_inside(chsh_singlet):
    res = bpcg(chsh_singlet, 0.5, FAST)
    assert res.status == STATUS_INSIDE
    with pytest.warns(UserWarning):
        extract_hyperplane(res, chsh_singlet, 0.5)


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
                                 {"restarts": 0}, {"max_iterations": -5}])
def test_solver_rejects_bad_config(bad, chsh_singlet, monkeypatch):
    def never(*args):
        raise AssertionError("the oracle ran")

    monkeypatch.setattr(fw, "heuristic_lmo", never)
    cfg = SolverConfig(**{"restarts": 100, **bad})
    for solver in (bpcg, frank_wolfe_vanilla):
        with pytest.raises(ValueError):
            solver(chsh_singlet, 0.65, cfg)


def test_solver_callback_cadence(chsh_singlet):
    seen = []
    cfg = SolverConfig(
        restarts=100,
        seed=0,
        callback=lambda t, dist, phi, natoms: seen.append(t),
        callback_every=5,
    )
    bpcg(chsh_singlet, 0.65, cfg)
    assert seen and all(t % 5 == 0 for t in seen)


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

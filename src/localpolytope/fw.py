"""Conditional-gradient solvers for the local-polytope membership problem.

Both solvers minimise f(x) = 1/2 ||x - v0*p||_2^2 over the convex hull of the
deterministic strategies, calling the alternating-maximisation heuristic as
linear minimisation oracle.  ``frank_wolfe_vanilla`` is the classic
distance-to-polytope iteration; ``bpcg`` is the lazy blended pairwise variant,
which keeps an active set and prefers weight transfers between its own atoms
over oracle calls.

A converged run certifies membership regardless of oracle suboptimality: the
returned convex decomposition stands on its own.  A separated verdict is only
heuristic until the final hyperplane is checked with an exact local bound.
"""

import numpy as np
from dataclasses import dataclass, field

from .lmo import BellFunctional, heuristic_lmo
from .tensor import (
    CorrelationTensor,
    strategy_inner,
    strategy_tensor,
    tensor_strategy_inner,
)

STATUS_INSIDE = "converged_inside"
STATUS_SEPARATED = "separated"
STATUS_CAP = "iteration_cap"


@dataclass
class SolverConfig:
    lazy_tolerance: float = 2.0      # K >= 1
    max_iterations: int = 100_000
    eps: float = 1e-6                # stop when ||x - v0 p||_2 <= eps
    restarts: int = 3000             # LMO restarts per call
    seed: int = 0
    threads: int = 1
    callback: object = None
    callback_every: int = 0
    debug: bool = False              # assert monotonicity etc. every iteration
    trace: bool = False              # record per-iteration step data
    early_separation: bool = False   # settle 'separated' from the dual bound
                                     # (faster verdicts, cruder final gradient)

    def __post_init__(self):
        if self.lazy_tolerance < 1:
            raise ValueError("lazy tolerance K must be >= 1")


class ActiveSet:
    """Convex combination of strategies with its materialised iterate.

    Atoms are stored in canonical sign form so that strategies inducing the
    same tensor are merged; weights stay nonnegative and are renormalised when
    their sum drifts from 1 by more than 1e-12.
    """

    def __init__(self, scenario):
        self.scenario = scenario
        self.atoms = []
        self.weights = np.zeros(0)
        self.tensors = []            # per-atom materialised entry arrays
        self._index = {}
        self.x = np.zeros(scenario.shape)

    def __len__(self):
        return len(self.atoms)

    def find(self, strategy):
        return self._index.get(strategy.canonical(self.scenario))

    def add_atom(self, strategy, weight=0.0):
        s = strategy.canonical(self.scenario)
        i = self._index.get(s)
        if i is None:
            i = len(self.atoms)
            self.atoms.append(s)
            self._index[s] = i
            self.tensors.append(strategy_tensor(s, self.scenario).entries)
            self.weights = np.append(self.weights, 0.0)
        if weight:
            self.weights[i] += weight
        return i

    def remove_atom(self, i):
        del self._index[self.atoms[i]]
        self.atoms.pop(i)
        self.tensors.pop(i)
        self.weights = np.delete(self.weights, i)
        for j in range(i, len(self.atoms)):
            self._index[self.atoms[j]] = j

    def purge_zero_weights(self, tol=0.0):
        for i in range(len(self.atoms) - 1, -1, -1):
            if self.weights[i] <= tol:
                self.remove_atom(i)

    def renormalize(self, drift=1e-12):
        s = self.weights.sum()
        if abs(s - 1.0) > drift and s > 0:
            self.weights /= s
            return True
        return False

    def recompute_iterate(self):
        x = np.zeros(self.scenario.shape)
        for w, t in zip(self.weights, self.tensors):
            x += w * t
        return x

    def iterate_error(self):
        return float(np.abs(self.x - self.recompute_iterate()).max())


class InnerProductCache:
    """Incrementally maintained <grad f(x_t), d_lambda> over the active set.

    Stores the atom Gram matrix and the fixed term <v0 p, d_lambda>; when a
    step changes at most two weights the cached values are updated from one or
    two Gram columns instead of being recomputed against the gradient.
    """

    def __init__(self, active, v0p):
        self.active = active
        self.v0p = v0p
        n = len(active)
        self.gram = np.zeros((n, n))
        self.b = np.zeros(n)
        for i, s in enumerate(active.atoms):
            self._fill_atom(i, s)
        self.s = self.gram @ active.weights

    def _fill_atom(self, i, strategy):
        sc = self.active.scenario
        for j, other in enumerate(self.active.atoms):
            g = strategy_inner(strategy, other, sc)
            self.gram[i, j] = g
            self.gram[j, i] = g
        self.b[i] = tensor_strategy_inner(self.v0p, strategy)

    def add_atom(self, i, strategy):
        n = len(self.active)
        if self.gram.shape[0] < n:
            self.gram = np.pad(self.gram, ((0, 1), (0, 1)))
            self.b = np.append(self.b, 0.0)
            self.s = np.append(self.s, 0.0)
            self._fill_atom(i, strategy)
            self.s[i] = self.gram[i] @ self.active.weights

    def remove_atom(self, i):
        self.gram = np.delete(np.delete(self.gram, i, axis=0), i, axis=1)
        self.b = np.delete(self.b, i)
        self.s = np.delete(self.s, i)

    def apply_pairwise(self, i_from, i_to, gamma):
        self.s += gamma * (self.gram[:, i_to] - self.gram[:, i_from])

    def apply_fw(self, i_new, gamma):
        self.s = (1 - gamma) * self.s + gamma * self.gram[:, i_new]

    def values(self):
        """<grad f(x), d_lambda> for every active atom."""
        return self.s - self.b

    def rebuild(self):
        self.s = self.gram @ self.active.weights


@dataclass
class SolverResult:
    active_set: ActiveSet
    distance: float
    phi: float
    gradient: CorrelationTensor
    iterations: int
    lmo_calls: int
    status: str
    f_history: list = field(default_factory=list)
    phi_history: list = field(default_factory=list)
    step_types: list = field(default_factory=list)

    @property
    def converged(self):
        return self.status == STATUS_INSIDE


def _dist(x, target):
    return float(np.linalg.norm((x - target).reshape(-1)))


def _target_entries(p, v0):
    t = p.entries.astype(np.float64) if p.is_exact else p.entries
    return float(v0) * t


def _zero_root(arr, scenario):
    # the root slot is an affine constant; keep it out of gradient arithmetic
    if scenario.marginals:
        arr = arr.copy()
        arr[(0,) * scenario.parties] = 0.0
    return arr


def frank_wolfe_vanilla(p, v0, cfg=None):
    """Classic Frank-Wolfe iteration for the distance to the local polytope.

    Each round moves from the iterate toward the oracle vertex with the exact
    quadratic line-search step, clamped to [0, 1]; the objective never
    increases.

    Parameters
    ----------
    p : CorrelationTensor
        Correlation tensor of the target state at visibility 1.
    v0 : float
        Visibility of the membership query point v0 * p.
    cfg : SolverConfig

    Returns
    -------
    SolverResult with the final active set, distance, and verdict.
    """
    return _solve(p, v0, cfg, lazy=False)


def bpcg(p, v0, cfg=None):
    """Lazy blended pairwise conditional gradients over the local polytope.

    Keeps the iterate as an explicit convex combination and takes one of four
    step types per iteration: a pairwise transfer from the worst active atom
    to the best one, a drop step when that transfer empties the worst atom, a
    Frank-Wolfe step toward a fresh oracle vertex, or a null step that halves
    the primal-gap estimate Phi.  The oracle is consulted only when the active
    atoms cannot supply enough progress (lazy tolerance K).

    Parameters and return value as in ``frank_wolfe_vanilla``; the result
    additionally carries the final Phi and, with ``cfg.trace``, the per-step
    type sequence.
    """
    return _solve(p, v0, cfg, lazy=True)


def _solve(p, v0, cfg, lazy):
    """The conditional-gradient loop behind both public solvers.

    With ``lazy`` this is BPCG.  Without it the pairwise test is skipped, so
    every iteration takes the oracle branch and a Frank-Wolfe step; Phi then
    holds the last Frank-Wolfe gap and no step types are recorded.
    """
    if cfg is None:
        cfg = SolverConfig()
    if not 0 <= v0 <= 1:
        raise ValueError("v0 must lie in [0, 1]")
    K = cfg.lazy_tolerance
    tol = 0.5 * cfg.eps**2
    sc = p.scenario
    target = _zero_root(_target_entries(p, v0), sc)
    target_t = CorrelationTensor(sc, target)

    active = ActiveSet(sc)
    seed = cfg.seed
    lam0 = heuristic_lmo(CorrelationTensor(sc, -target), cfg.restarts, seed, cfg.threads)
    lmo_calls = 1
    active.add_atom(lam0, 1.0)
    active.x = active.tensors[0].copy()
    cache = InnerProductCache(active, target_t)

    dist = _dist(_zero_root(active.x, sc), target)
    phi = 0.5 * dist**2 if lazy else np.inf
    res = SolverResult(active, dist, phi, target_t, 0, lmo_calls, STATUS_CAP)

    t = 0
    rebuild_every = 4096
    for t in range(cfg.max_iterations):
        x = _zero_root(active.x, sc)
        dist = _dist(x, target)
        f = 0.5 * dist**2
        if cfg.trace:
            res.f_history.append(f)
            if lazy:
                res.phi_history.append(phi)
        if dist <= cfg.eps:
            res.status = STATUS_INSIDE
            break
        if phi <= tol:
            res.status = STATUS_SEPARATED
            break

        vals = cache.values()
        i_away = int(np.argmax(vals))
        i_local = int(np.argmin(vals))
        step = None

        if lazy and vals[i_away] - vals[i_local] >= phi:
            # pairwise transfer along d_local - d_away
            ga = vals[i_away] - vals[i_local]
            asq = (
                cache.gram[i_away, i_away]
                + cache.gram[i_local, i_local]
                - 2 * cache.gram[i_away, i_local]
            )
            cap = active.weights[i_away]
            gamma = min(ga / asq, cap)
            active.x = active.x + gamma * (
                active.tensors[i_local] - active.tensors[i_away]
            )
            active.weights[i_away] -= gamma
            active.weights[i_local] += gamma
            cache.apply_pairwise(i_away, i_local, gamma)
            if gamma >= cap:
                step = "drop"
                active.weights[i_away] = 0.0
                active.remove_atom(i_away)
                cache.remove_atom(i_away)
            else:
                step = "pairwise"
        else:
            grad = x - target
            seed += 1
            omega = heuristic_lmo(
                CorrelationTensor(sc, grad), cfg.restarts, seed, cfg.threads
            )
            lmo_calls += 1
            gx = float(active.weights @ vals)  # <grad, x>
            gw = tensor_strategy_inner(CorrelationTensor(sc, grad), omega)
            gap = gx - gw
            # f(x) - gap lower-bounds the optimum; if that exceeds the target
            # accuracy the point cannot be inside (up to oracle suboptimality)
            if not lazy:
                phi = gap
                if gap <= tol or f - gap > tol:
                    res.status = STATUS_SEPARATED
                    break
            if not lazy or gap >= phi / K:
                # Frank-Wolfe step toward the oracle vertex
                i = active.add_atom(omega)
                cache.add_atom(i, active.atoms[i])
                d = active.tensors[i]
                diff = x - _zero_root(d, sc)
                denom = float(np.dot(diff.reshape(-1), diff.reshape(-1)))
                gamma = min(1.0, max(0.0, gap / denom)) if denom > 0 else 0.0
                active.weights *= 1 - gamma
                active.weights[i] += gamma
                active.x = active.x + gamma * (d - active.x)
                cache.apply_fw(i, gamma)
                if gamma >= 1.0:
                    active.purge_zero_weights()
                    cache = InnerProductCache(active, target_t)
                step = "fw"
            else:
                # no progress available anywhere; a large lower bound already
                # settles the verdict, at the price of a cruder final gradient
                if cfg.early_separation and f - gap > tol:
                    res.status = STATUS_SEPARATED
                    break
                phi = phi / 2
                step = "null"

        if active.renormalize():
            cache.rebuild()
        if cfg.trace and lazy:
            res.step_types.append(step)
        if cfg.debug:
            f_new = 0.5 * _dist(_zero_root(active.x, sc), target) ** 2
            assert f_new <= f + 1e-12, f"objective increased on {step} step"
            assert abs(active.weights.sum() - 1) <= 1e-9, "weights do not sum to 1"
            assert active.weights.min() >= -1e-15, "negative weight"
        if (t + 1) % rebuild_every == 0:
            active.x = active.recompute_iterate()
            cache.rebuild()
        if cfg.callback and cfg.callback_every and t % cfg.callback_every == 0:
            cfg.callback(t, dist, phi, len(active))
    else:
        t = cfg.max_iterations

    x = _zero_root(active.x, sc)
    res.distance = _dist(x, target)
    if res.distance <= cfg.eps:
        res.status = STATUS_INSIDE
    res.phi = phi if np.isfinite(phi) else 0.0
    res.gradient = CorrelationTensor(sc, x - target)
    res.iterations = t
    res.lmo_calls = lmo_calls
    return res


def extract_hyperplane(res, p, v0):
    """Separating-direction functional G = v0*p - x_T from a solver run.

    <G, d> < <G, v0*p> for every strategy d certifies v0*p outside the
    polytope once the maximum is computed exactly; warn when the run actually
    converged inside."""
    import warnings

    if res.status == STATUS_INSIDE:
        warnings.warn("extracting a hyperplane from a converged-inside run")
    return BellFunctional(CorrelationTensor(p.scenario, -res.gradient.entries))

"""Conditional-gradient solvers for the local-polytope membership problem.

Both solvers, ``frank_wolfe_vanilla`` and the lazy blended pairwise ``bpcg``,
minimise f(x) = 1/2 ||x - v0*p||_2^2 over the convex hull of the deterministic
strategies, with the alternating-minimisation heuristic as oracle.  BPCG asks
it a weak-separation query (Braun, Pokutta, Zink 2017): any vertex with gap
at least Phi / K, at which the oracle stops.  Only a call that ran its full
batch without finding one is followed by a null step, which halves Phi and
moves nothing, so its answer stands in for the next call while it misses the
risen threshold: BPCG reuses 1 + fw + null - oracle_calls answers (``RunStats``).
Between calls BPCG takes pairwise and drop steps while their gap ga reaches
max(min(Phi, g) / K, tol), g the last Frank-Wolfe gap and tol = eps^2 / 2
(lazified BPCG, Tsuji, Tanaka, Pokutta 2022): a local step costs microseconds,
a call far more.  The clamp at tol stops local work the stopping test cannot see.
Near a fixed face pairwise steps converge slowly, so once as many local steps
as there are atoms follow one another, the next is a face step instead: Wolfe's
minor cycle (Wolfe 1976), one KKT solve in Gram space for the minimiser of f
over the atoms' affine hull (``InnerProductCache.face_step``).

Atoms are per-party sign rows, never dense tensors.  A pairwise, drop or face
step needs only the weights and the Gram matrix of the atoms, so it leaves the
dense iterate stale.  The iterate is formed from the weights and rows only
where it is read: by the oracle branch, which needs the gradient, by the
trace, debug and callback observers, and at exit.  So ``dist <= eps`` is
tested when the oracle is consulted, and a run that ends inside may take a
few more pairwise steps than one that tested every iteration.

With marginal slots every point of the polytope has a 1 at the root entry.
The target carries the same 1, so the root cancels from x - v0 p and x - d up
to the drift of the weight sum (``ActiveSet``), and no step masks it.

A converged run certifies membership regardless of oracle suboptimality: the
returned convex decomposition stands on its own.  A separated verdict is only
heuristic until the final hyperplane is checked with an exact local bound.
"""

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .lmo import BellFunctional, heuristic_lmo
from .tensor import (
    CorrelationTensor,
    combine_rows,
    rows_inner,
    sign_rows,
    strategy_inner,
    strategy_tensor,
    tensor_strategy_inner,
)

# strategy_inner, strategy_tensor and tensor_strategy_inner are not called
# here: atoms live as sign rows, and the oracle returns its vertex's value.
# bench/tracing.py counts calls to them through this namespace.

STATUS_INSIDE = "converged_inside"
STATUS_SEPARATED = "separated"
STATUS_CAP = "iteration_cap"
STEP_TYPES = ("pairwise", "drop", "fw", "null", "face")
MIN_CAPACITY = 8  # atoms held by a fresh active set or Gram buffer
LAZY_TOLERANCE = 2.0  # K: FW steps need gap Phi / K, local ones min(Phi, g) / K
FACE_SUM_TOL = 1e-13  # a face step's KKT weights must sum to 1 within this


@dataclass
class SolverConfig:
    max_iterations: int = 1_000_000  # steps of every type; most are cheap local ones
    eps: float = 1e-6                # stop when ||x - v0 p||_2 <= eps
    restarts: int = 3000             # LMO restarts per call
    seed: int = 0
    callback: object = None
    callback_every: int = 0
    debug: bool = False              # assert monotonicity etc. every iteration
    trace: bool = False              # record per-iteration step data
    early_separation: bool = False   # settle 'separated' from the dual bound
                                     # (faster verdicts, cruder final gradient)


class ActiveSet:
    """Convex combination of strategies, each stored as per-party sign rows.

    Atom i is row i of every party's (capacity, axis) sign matrix, led by a 1
    for the marginal slot; the matrices grow by doubling and removals shift
    later rows up, so atoms keep their order.  Atoms are in canonical sign
    form, so strategies inducing the same tensor merge.  ``x`` is the dense
    iterate, or None while it is stale.

    Weights stay nonnegative and sum to 1 without renormalisation: a pairwise
    step moves the sum by at most two roundings of 2^-53, a drop step removes
    an exact 0, and a Frank-Wolfe step scales the error by 1 - gamma and adds
    at most 2 * 2^-53; a face step resets it to at most FACE_SUM_TOL = 1e-13.
    So |sum w - 1| stays below 1e-13 plus 2.2e-16 per iteration, 2.2e-10 at
    the default cap, below the 1e-9 that ``debug`` asserts; soundness never
    rested on it, as ``rationalize_weights`` repairs the sum exactly.  A
    Frank-Wolfe step with gamma = 1 leaves the other weights at exactly 0.
    BPCG's next away step on such an atom is a drop step with gamma = 0;
    vanilla Frank-Wolfe keeps them, and ``rationalize_weights`` skips them.
    """

    def __init__(self, scenario):
        self.scenario = scenario
        self.atoms = []
        self.weights = np.zeros(0)
        self._index = {}
        self._rows = list(np.zeros((scenario.parties, MIN_CAPACITY, scenario.axis_size)))
        self.x = None

    def __len__(self):
        return len(self.atoms)

    @property
    def rows(self):
        """Per-party (atoms, axis) sign rows of the active atoms."""
        return [r[: len(self.atoms)] for r in self._rows]

    def add_atom(self, strategy, weight=0.0, rows=None):
        """Index of the strategy's atom, added if new, plus ``weight``.  ``rows``:
        its sign rows as ``sign_rows`` lays them out (the oracle's), or None."""
        s = strategy.canonical(self.scenario)
        i = self._index.get(s)
        if i is None:
            i = len(self.atoms)
            if i == len(self._rows[0]):
                self._rows = [np.concatenate([r, np.zeros_like(r)]) for r in self._rows]
            if rows is None:
                strategy, rows = s, [v[0] for v in sign_rows([s], self.scenario)]
            # canonical() flips whole parties, whose rows flip with them
            for r, v, b, c in zip(self._rows, rows, strategy.bits, s.bits):
                r[i] = v if b == c else -v
            self.atoms.append(s)
            self._index[s] = i
            self.weights = np.append(self.weights, 0.0)
        if weight:
            self.weights[i] += weight
        return i

    def remove_atom(self, i):
        n = len(self.atoms)
        del self._index[self.atoms.pop(i)]
        for r in self._rows:
            r[i : n - 1] = r[i + 1 : n]
        self.weights = np.delete(self.weights, i)
        for j in range(i, n - 1):
            self._index[self.atoms[j]] = j

    def atom_tensor(self, i):
        """Dense tensor of atom i: the outer product of its sign rows."""
        rows = [r[i : i + 1] for r in self._rows]
        return combine_rows(np.ones(1), rows).reshape(self.scenario.shape)

    def recompute_iterate(self):
        """sum_i w_i d_i as one product of the weights with the sign rows."""
        return combine_rows(self.weights, self.rows).reshape(self.scenario.shape)

    def iterate(self):
        """The dense iterate, formed from the weights and rows if stale."""
        if self.x is None:
            self.x = self.recompute_iterate()
        return self.x


def _gram(rows, other, marginals):
    """Inner products of strategy tensors from their sign rows: the product
    over parties of the row dot products, less the root term with marginals."""
    g = 1.0
    for r, o in zip(rows, other):
        g = g * (r @ o.T)
    return g - 1 if marginals else g


class InnerProductCache:
    """Incrementally maintained <grad f(x_t), d_lambda> over the active set.

    The values are Gram @ weights - b, with b_lambda = <v0 p, d_lambda>, so
    they need no dense iterate.  A step that changes at most two weights
    updates them from one or two Gram rows.  A new atom's Gram row comes
    from the sign rows, one matrix-vector product per party; the Gram buffer
    grows by doubling and removals shift it in place.  Rows, contiguous,
    stand in for columns exactly: every entry is an exact integer and
    ``add_atom`` writes each vector as row and column alike.
    """

    def __init__(self, active, v0p):
        self.active = active
        self.v0p = v0p
        rows = active.rows
        n = len(active)
        self._gram = np.zeros((max(n, MIN_CAPACITY),) * 2)
        self._gram[:n, :n] = _gram(rows, rows, active.scenario.marginals)
        self.b = rows_inner(v0p, [r.T for r in rows])
        self.rebuild()

    @property
    def gram(self):
        return self._gram[: len(self.b), : len(self.b)]

    def add_atom(self, i):
        """Extend the cache by the active set's atom i unless it holds it."""
        n = len(self.b)
        if i < n:
            return
        if n == len(self._gram):
            g, self._gram = self._gram, np.zeros((2 * n, 2 * n))
            self._gram[:n, :n] = g
        rows = self.active.rows
        new = [r[i] for r in rows]
        col = _gram(rows, new, self.active.scenario.marginals)
        self._gram[i, : n + 1] = col
        self._gram[: n + 1, i] = col
        b = rows_inner(self.v0p, [v[:, None] for v in new])
        self.b = np.append(self.b, b)
        self.v = np.append(self.v, col @ self.active.weights - b)

    def remove_atom(self, i):
        n = len(self.b)
        g = self._gram
        g[i : n - 1, :n] = g[i + 1 : n, :n]
        g[: n - 1, i : n - 1] = g[: n - 1, i + 1 : n]
        self.b = np.delete(self.b, i)
        self.v = np.delete(self.v, i)

    def distance_sq(self, i, j):  # ||d_i - d_j||^2 as a Python float
        return self._gram.item(i, i) + self._gram.item(j, j) - 2 * self._gram.item(i, j)

    def apply_pairwise(self, i_from, i_to, gamma):
        n, g = len(self.v), self._gram
        step = g[i_to, :n] - g[i_from, :n]
        step *= gamma
        self.v += step

    def apply_fw(self, i_new, gamma):
        self.v = (1 - gamma) * self.v + gamma * (self._gram[i_new, : len(self.v)] - self.b)

    def values(self):
        """<grad f(x), d_lambda> for every active atom, updated in place by
        the next pairwise step."""
        return self.v

    def rebuild(self):
        self.v = self.gram @ self.active.weights - self.b

    def face_step(self):
        """Wolfe's minor cycle (Wolfe 1976) in Gram space; True if it was taken.

        The minimiser y of f over the affine hull of the atoms solves the KKT
        system [[G, 1], [1^T, 0]] [y; -mu] = [b; 1].  The weights move from w
        toward y until one reaches 0; that atom leaves and the cycle repeats on
        the rest, until y > 0 and the weights become y.  A singular solve, a
        sum y off 1 by more than ``FACE_SUM_TOL`` or not finite, or a rise in f
        (from the Gram matrix) leaves every weight and atom as it was."""
        G, b, w0, n = self.gram, self.b, self.active.weights, len(self.b)
        kkt = np.ones((n + 1, n + 1))
        kkt[:n, :n], kkt[n, n] = G, 0.0
        keep, w = np.arange(n), w0
        while True:
            try:
                y = np.linalg.solve(kkt, np.append(b[keep], 1.0))[:-1]
            except np.linalg.LinAlgError:
                return False
            if not abs(y.sum() - 1) <= FACE_SUM_TOL:  # also when y holds a nan or inf
                return False
            if y.min() > 0:
                break
            # w_i + s_i (y_i - w_i) = 0; the smallest s_i blocks the segment
            s = np.where(y <= 0, np.divide(w, w - y, out=np.zeros_like(w), where=w > y), np.inf)
            i = int(s.argmin())
            w, keep = np.delete(w + s[i] * (y - w), i), np.delete(keep, i)
            kkt = np.delete(np.delete(kkt, i, 0), i, 1)

        def f(u):  # f(sum_i u_i d_i) - ||v0 p||^2 / 2
            return 0.5 * (u @ G @ u) - u @ b

        u = np.zeros(n)
        u[keep] = y  # y > 0, so u is 0 exactly at the dropped atoms
        if f(u) > f(w0):
            return False
        for i in np.flatnonzero(u == 0)[::-1]:
            self.active.remove_atom(int(i))
            self.remove_atom(int(i))
        self.active.weights, self.active.x = y, None
        self.rebuild()
        return True


@dataclass
class RunStats:
    """Steps by type (they sum to the iterations), oracle calls, their wall
    seconds and alternating rounds, the calls that returned at the lazy
    threshold, and the largest active set; counted on every run."""

    steps: dict = field(default_factory=lambda: dict.fromkeys(STEP_TYPES, 0))
    oracle_calls: int = 0
    oracle_seconds: float = 0.0
    oracle_rounds: int = 0
    oracle_early_exits: int = 0
    peak_atoms: int = 1


@dataclass
class SolverResult:
    active_set: ActiveSet
    distance: float
    phi: float
    gradient: CorrelationTensor
    iterations: int
    status: str
    stats: RunStats = field(default_factory=RunStats)
    f_history: list = field(default_factory=list)
    phi_history: list = field(default_factory=list)
    step_types: list = field(default_factory=list)

    @property
    def converged(self):
        return self.status == STATUS_INSIDE

    @property
    def lmo_calls(self):
        return self.stats.oracle_calls


def frank_wolfe_vanilla(p, v0, cfg=None):
    """Classic Frank-Wolfe iteration for the distance to the local polytope.

    Each round moves toward the oracle vertex by the exact line-search step,
    clamped to [0, 1], so the objective never increases.  ``p`` is the target
    tensor at visibility 1, ``v0`` the visibility of the query point v0 * p and
    ``cfg`` a SolverConfig.  Returns a SolverResult: active set, distance,
    verdict and RunStats."""
    return _solve(p, v0, cfg, lazy=False)


def bpcg(p, v0, cfg=None):
    """Lazy blended pairwise conditional gradients over the local polytope.

    Each iteration takes one of five steps: a pairwise transfer from the worst
    active atom to the best, a drop step when that empties the worst atom, a
    face step to the minimiser over the atoms' affine hull, a Frank-Wolfe step
    toward a fresh oracle vertex, or a null step that halves the primal-gap
    estimate Phi.  The oracle is consulted only when the local gap falls below
    max(min(Phi, g) / K, tol), g the last Frank-Wolfe gap, K =
    ``LAZY_TOLERANCE`` and tol = eps^2 / 2, and then returns the first vertex
    whose gap reaches Phi / K.  A null step follows only a call that ran its
    full batch and found none; later null steps reuse its answer while the
    iterate stays put and it misses the threshold, 1 + fw + null - oracle_calls
    of them (plus one if ``early_separation`` ended the run).  After as many
    local steps in a row as there are atoms, the next local step tries a face
    step first.  Parameters and result as in ``frank_wolfe_vanilla``, with the
    final Phi and, with ``cfg.trace``, the step sequence."""
    return _solve(p, v0, cfg, lazy=True)


def _solve(p, v0, cfg, lazy):
    """The conditional-gradient loop behind both public solvers.

    With ``lazy`` this is BPCG.  Without it the pairwise test is skipped, so
    every iteration takes the oracle branch and a Frank-Wolfe step; Phi then
    holds the last Frank-Wolfe gap and no step types are recorded.
    """
    if cfg is None:
        cfg = SolverConfig()
    if not (0 <= v0 <= 1 and cfg.eps > 0 and cfg.restarts >= 1 and cfg.max_iterations >= 0):
        raise ValueError("need v0 in [0, 1], eps > 0, restarts >= 1 and max_iterations >= 0")
    tol = 0.5 * cfg.eps**2
    sc = p.scenario
    target = float(v0) * p.to_float().entries
    if sc.marginals:
        target[(0,) * sc.parties] = 1.0  # the root of every strategy tensor
    target_t = CorrelationTensor(sc, target)

    def distance():
        return float(np.linalg.norm(active.iterate() - target))

    stats = RunStats()

    def oracle(gradient, seed, threshold=None):
        """The oracle's vertex and its sign rows, its value <gradient, d>, and
        whether it cleared ``threshold``, which only a call cut short can do."""
        t0 = time.perf_counter()
        omega, value, rounds, rows = heuristic_lmo(gradient, cfg.restarts, seed, threshold)
        stats.oracle_seconds += time.perf_counter() - t0
        stats.oracle_calls += 1
        stats.oracle_rounds += rounds
        cleared = threshold is not None and value <= threshold
        stats.oracle_early_exits += cleared
        return omega, rows, value, cleared

    active = ActiveSet(sc)
    seed = cfg.seed
    omega, rows = oracle(CorrelationTensor(sc, -target), seed)[:2]
    active.add_atom(omega, 1.0, rows)
    active.x = active.atom_tensor(0)
    cache = InnerProductCache(active, target_t)

    dist = distance()
    phi = 0.5 * dist**2 if lazy else np.inf
    g_last, held = np.inf, None  # the last Frank-Wolfe gap; the answer behind a null step
    floor = max(min(phi, g_last) / LAZY_TOLERANCE, tol)  # the local-step test
    res = SolverResult(active, dist, phi, target_t, 0, STATUS_CAP, stats)

    t = local = 0  # local: local steps since the last oracle-branch or face step
    trace, debug = cfg.trace, cfg.debug
    every = cfg.callback_every if cfg.callback else 0
    for t in range(cfg.max_iterations):
        # the observers read the iterate, forming it if stale; the steps do
        # not depend on whether it was formed here
        report = every and t % every == 0
        if trace or debug or report:
            dist = distance()
            f = 0.5 * dist**2
        if trace:
            res.f_history.append(f)
            if lazy:
                res.phi_history.append(phi)
        if phi <= tol:
            res.status = STATUS_SEPARATED
            break

        # Python floats round as numpy scalars do, at less call overhead
        vals = cache.values()
        i_away = int(vals.argmax())
        i_local = int(vals.argmin())
        ga = vals.item(i_away) - vals.item(i_local)

        if lazy and ga >= floor and local >= len(active) and cache.face_step():
            step, local = "face", 0
        elif lazy and ga >= floor:
            # pairwise transfer along d_local - d_away, in Gram space
            local = 0 if local >= len(active) else local + 1  # 0 after a refused face step
            w = active.weights
            cap = w.item(i_away)
            gamma = min(ga / cache.distance_sq(i_away, i_local), cap)
            w[i_away] = cap - gamma
            w[i_local] = w.item(i_local) + gamma
            active.x = None
            cache.apply_pairwise(i_away, i_local, gamma)
            if gamma >= cap:
                step = "drop"
                active.remove_atom(i_away)
                cache.remove_atom(i_away)
            else:
                step = "pairwise"
        else:
            local = 0
            x = active.iterate()
            grad = CorrelationTensor(sc, x - target)
            dist = float(np.linalg.norm(grad.entries))
            if dist <= cfg.eps:
                res.status = STATUS_INSIDE
                break
            f = 0.5 * dist**2
            seed += 1
            gx = float(active.weights @ vals)  # <grad, x>
            # lazy: the oracle may stop at any vertex with gap >= Phi / K; only a
            # full batch ends in a null step, whose answer stands while it misses
            threshold = gx - phi / LAZY_TOLERANCE if lazy else None
            if held is None or held[2] <= threshold:
                held = oracle(grad, seed, threshold)
            omega, rows, gw, cleared = held
            gap = gx - gw
            # f(x) - gap lower-bounds the optimum; if that exceeds the target
            # accuracy the point cannot be inside (up to oracle suboptimality)
            if not lazy:
                phi = gap
                if gap <= tol or f - gap > tol:
                    res.status = STATUS_SEPARATED
                    break
            if not lazy or cleared:
                # Frank-Wolfe step toward the oracle vertex: a rank-one update
                i = active.add_atom(omega, 0.0, rows)
                cache.add_atom(i)
                d = active.atom_tensor(i)
                diff = x - d
                denom = float(np.dot(diff.reshape(-1), diff.reshape(-1)))
                gamma = min(1.0, max(0.0, gap / denom)) if denom > 0 else 0.0
                active.weights *= 1 - gamma
                active.weights[i] += gamma
                active.x = active.x + gamma * (d - active.x)
                cache.apply_fw(i, gamma)
                stats.peak_atoms = max(stats.peak_atoms, len(active))
                g_last = gap
                step = "fw"
            else:
                # no progress available anywhere; a large lower bound already
                # settles the verdict, at the price of a cruder final gradient
                if cfg.early_separation and f - gap > tol:
                    res.status = STATUS_SEPARATED
                    break
                phi = phi / 2
                step = "null"
            floor = max(min(phi, g_last) / LAZY_TOLERANCE, tol)

        held = held if step == "null" else None  # every other step moves the iterate
        stats.steps[step] += 1
        if trace and lazy:
            res.step_types.append(step)
        if debug:
            f_new = 0.5 * distance() ** 2
            assert f_new <= f + 1e-12, f"objective increased on {step} step"
            assert abs(active.weights.sum() - 1) <= 1e-9, "weights do not sum to 1"
            assert active.weights.min() >= -1e-15, "negative weight"
        if (t + 1) % 4096 == 0:  # against drift of the updated values
            cache.rebuild()
        if report:
            cfg.callback(t, dist, phi, len(active))
    else:
        t = cfg.max_iterations

    res.gradient = CorrelationTensor(sc, active.iterate() - target)
    res.distance = float(np.linalg.norm(res.gradient.entries))
    if res.distance <= cfg.eps:
        res.status = STATUS_INSIDE
    res.phi = phi if np.isfinite(phi) else 0.0
    res.iterations = t
    return res


def extract_hyperplane(res, p, v0):
    """Separating-direction functional G = v0*p - x_T from a solver run.

    <G, d> < <G, v0*p> for every strategy d certifies v0*p outside the
    polytope once the maximum is computed exactly; warn when the run actually
    converged inside."""
    if res.status == STATUS_INSIDE:
        warnings.warn("extracting a hyperplane from a converged-inside run")
    return BellFunctional(CorrelationTensor(p.scenario, -res.gradient.entries))

"""Conditional-gradient solvers for the local-polytope membership problem.

Both solvers, ``frank_wolfe_vanilla`` and the lazy blended pairwise ``bpcg``,
minimise f(x) = 1/2 ||x - v0*p||_2^2 over the convex hull of the deterministic
strategies, with the alternating-minimisation heuristic as oracle.  BPCG asks
it a weak-separation query (Braun, Pokutta, Zink 2017) and between calls takes
local steps over the active set (lazified BPCG, Tsuji, Tanaka, Pokutta 2022):
a local step costs microseconds, a call far more.  ``bpcg`` gives the rules.

Atoms are per-party sign rows in an ``ActiveSet``, never dense tensors; the
oracle answers with strategies, which ``InnerProductCache.add_atom`` enters.
``_solve`` picks each step and ``InnerProductCache`` takes it, from the weights
and the atoms' Gram matrix alone, leaving the dense iterate stale.  That is
formed from the weights and rows only where it is read: by the oracle branch,
which needs the gradient, at exit, and by a callback that calls
``active.iterate()``; the steps do not depend on whether it was formed there.
So ``dist <= eps`` is tested when the oracle is consulted, and a run that
ends inside may take a few more pairwise steps than one that tested every
iteration; vanilla Frank-Wolfe consults the oracle, and forms x, every iteration.

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

from .lmo import enumerable, exhaustive_lmo, heuristic_lmo
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
FACE_MAX_ATOMS = 512  # larger active sets take no face step: it re-solves (n+1)^2 per drop


@dataclass
class SolverConfig:
    max_iterations: int = 1_000_000  # steps of every type; most are cheap local ones
    eps: float = 1e-6                # stop when ||x - v0 p||_2 <= eps
    restarts: int = 3000             # LMO restarts per call
    seed: int = 0
    callback: object = None          # called every iteration, see frank_wolfe_vanilla
    early_separation: bool = False   # settle 'separated' from the dual bound
                                     # (faster verdicts, cruder final gradient)

    def __post_init__(self):
        if not (self.eps > 0 and 0 < self.eps * self.eps < np.inf  # eps**2 would raise
                and self.restarts >= 1 and self.max_iterations >= 0):
            raise ValueError("need eps > 0 with a finite nonzero square, restarts >= 1 and "
                             "max_iterations >= 0")


class ActiveSet:
    """Convex combination of strategies, each stored as per-party sign rows.

    Atom i is row i of every party's (capacity, axis) sign matrix, led by a 1
    for the marginal slot; the matrices grow by doubling and removals shift
    later rows up, so atoms keep their order.  Atoms are in canonical sign
    form, so strategies inducing the same tensor merge; a new atom's rows are
    that form's ``sign_rows``.  ``x`` is the dense iterate, or None while it
    is stale.  The solver adds the first atom; from then on
    ``InnerProductCache`` adds atoms, writes the weights and ``x`` and removes them.

    Weights stay nonnegative and sum to 1 without renormalisation: a pairwise
    step moves the sum by at most two roundings of 2^-53, a drop step removes
    an exact 0, and a Frank-Wolfe step scales the error by 1 - gamma and adds
    at most 2 * 2^-53; a face step resets it to at most FACE_SUM_TOL = 1e-13.
    So |sum w - 1| stays below 1e-13 plus 2.2e-16 per iteration, 2.2e-10 at
    the default cap, below 1e-9; soundness never rested on it, as
    ``rationalize_weights`` repairs the sum exactly.  A Frank-Wolfe step
    with gamma = 1 leaves the other weights at exactly 0.
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

    def add_atom(self, strategies, weight=0.0):
        """Indices of the strategies' atoms, each added if new, plus ``weight``
        on each index; the new atoms' rows come from one ``sign_rows`` call."""
        indices, n = [], len(self.atoms)
        for s in [s.canonical(self.scenario) for s in strategies]:
            i = self._index.setdefault(s, len(self.atoms))
            if i == len(self.atoms):
                self.atoms.append(s)
            indices.append(i)
        k = len(self.atoms)
        if k > n:
            cap = len(self._rows[0])
            if k > cap:
                while cap < k:
                    cap *= 2
                self._rows = [np.concatenate([r, np.zeros((cap - len(r), r.shape[1]))])
                              for r in self._rows]
            for r, v in zip(self._rows, sign_rows(self.atoms[n:], self.scenario)):
                r[n:k] = v
            self.weights = np.concatenate([self.weights, np.zeros(k - n)])
        if weight:
            np.add.at(self.weights, indices, weight)
        return indices

    def remove_atom(self, i):
        n = len(self.atoms)
        del self._index[self.atoms.pop(i)]
        for r in self._rows:
            r[i : n - 1] = r[i + 1 : n]
        self.weights = np.delete(self.weights, i)
        self._index.update(zip(self.atoms[i:], range(i, n - 1)))

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
    """Incrementally maintained <grad f(x_t), d_lambda> over the active set,
    and its steps: each takes its line search from the Gram matrix, writes the
    weights, marks the iterate stale and removes the atoms it empties.

    The values are Gram @ weights - b, with b_lambda = <v0 p, d_lambda>, so
    they need no dense iterate.  A step that changes at most two weights
    updates them from one or two Gram rows.  ``add_atom`` enters strategies
    into the active set in one batch: their Gram rows take one matrix product
    per party.  The Gram buffer grows by doubling and removals shift it in
    place.  Rows, contiguous, stand in for columns exactly: every entry is an
    exact integer and ``add_atom`` writes each block as rows and columns alike.
    """

    def __init__(self, active, v0p):
        self.active = active
        self.v0p = v0p
        self._gram = np.zeros((MIN_CAPACITY, MIN_CAPACITY))
        self.b = self.v = np.zeros(0)
        self.add_atom()

    @property
    def gram(self):
        return self._gram[: len(self.b), : len(self.b)]

    def add_atom(self, strategies=()):
        """Add the strategies to the active set at weight 0 and return their
        indices; extend the cache, in one batch, by every atom beyond it."""
        indices = self.active.add_atom(strategies)
        n, k = len(self.b), len(self.active)
        if k == n:
            return indices
        if k > len(self._gram):
            g, self._gram = self._gram, np.zeros((max(2 * len(self._gram), k),) * 2)
            self._gram[:n, :n] = g[:n, :n]
        rows = self.active.rows
        new = [r[n:] for r in rows]
        cols = _gram(rows, new, self.active.scenario.marginals)
        self._gram[n:k, :k] = cols.T
        self._gram[:k, n:k] = cols
        b = rows_inner(self.v0p, [v.T for v in new])
        self.b = np.append(self.b, b)
        self.v = np.append(self.v, self.active.weights @ cols - b)
        return indices

    def remove_atom(self, i):
        """Remove atom i from the active set and the cache; later atoms shift up."""
        self.active.remove_atom(i)
        n, g = len(self.b), self._gram
        g[i : n - 1, :n] = g[i + 1 : n, :n]
        g[: n - 1, i : n - 1] = g[: n - 1, i + 1 : n]
        self.b = np.delete(self.b, i)
        self.v = np.delete(self.v, i)

    def apply_pairwise(self, i_from, i_to, gap):
        """Pairwise step from atom i_from to i_to by the line search min(gap /
        ||d_from - d_to||^2, w_from); True if it emptied and removed i_from."""
        n, g, w = len(self.v), self._gram, self.active.weights
        cap = w.item(i_from)
        dist_sq = g.item(i_from, i_from) + g.item(i_to, i_to) - 2 * g.item(i_from, i_to)
        gamma = min(gap / dist_sq, cap)
        w[i_from] = cap - gamma
        w[i_to] = w.item(i_to) + gamma
        self.active.x = None
        step = g[i_to, :n] - g[i_from, :n]
        step *= gamma
        self.v += step
        if gamma >= cap:
            self.remove_atom(i_from)
        return gamma >= cap

    def apply_fw(self, i, gap, gx):
        """Frank-Wolfe step toward atom i by the exact line search, clamped to
        [0, 1], for its gap ``gap`` and ``gx`` = <grad f(x), x>; returns gamma."""
        w, b, g = self.active.weights, self.b, self._gram
        # ||x - d_i||^2 = <x, x> - 2 <x, d_i> + G_ii, with <x, d_j> = v_j + b_j
        denom = gx + float(w @ b) - 2 * (self.v.item(i) + b.item(i)) + g.item(i, i)
        gamma = min(1.0, max(0.0, gap / denom)) if denom > 0 else 0.0
        w *= 1 - gamma
        w[i] += gamma
        self.active.x = None
        self.v = (1 - gamma) * self.v + gamma * (g[i, : len(self.v)] - b)
        return gamma

    def values(self):
        """<grad f(x), d_lambda> per active atom; the next pairwise step updates it in place."""
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
        self.active.weights, self.active.x = u, None
        for i in np.flatnonzero(u == 0)[::-1]:  # drop steps; the weights left are y
            self.remove_atom(int(i))
        self.rebuild()
        return True


@dataclass
class RunStats:
    """Steps by type (they sum to the iterations), heuristic oracle calls,
    their wall seconds and alternating rounds, the calls that returned at the
    lazy threshold, the atoms their extras added, the exact oracle's calls at
    a run's end, and the largest active set; counted on every run."""

    steps: dict = field(default_factory=lambda: dict.fromkeys(STEP_TYPES, 0))
    oracle_calls: int = 0
    oracle_seconds: float = 0.0
    oracle_rounds: int = 0
    oracle_early_exits: int = 0
    extra_atoms: int = 0
    exact_calls: int = 0
    peak_atoms: int = 1


@dataclass
class SolverResult:
    active_set: ActiveSet
    distance: float
    gradient: CorrelationTensor
    iterations: int
    status: str
    stats: RunStats

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
    gradient, iterations, verdict and RunStats.

    ``cfg.callback``, if set, is called as ``callback(t, last_step, phi,
    active)`` at the top of every iteration t, ``last_step`` the type of step
    t - 1 (None at t = 0) and ``phi`` the last Frank-Wolfe gap (inf before
    the first), and once more with t = ``cfg.max_iterations`` after a run
    that ends at the cap; cadence is the callback's own business."""
    return _solve(p, v0, cfg, lazy=False)


def bpcg(p, v0, cfg=None):
    """Lazy blended pairwise conditional gradients over the local polytope.

    Each iteration takes one of five steps: a pairwise transfer from the worst
    active atom to the best, a drop step when that empties the worst atom, a
    face step to the minimiser over the atoms' affine hull, a Frank-Wolfe step
    toward a fresh oracle vertex, or a null step that halves the primal-gap
    estimate Phi.  The oracle is consulted only when the local gap falls below
    max(min(Phi, g) / K, tol), g the last Frank-Wolfe gap, K =
    ``LAZY_TOLERANCE`` and tol = eps^2 / 2 (the clamp at tol stops local work
    the stopping test cannot see), and returns the first vertex whose gap
    reaches Phi / K, and up to ``lmo.EXTRA_ATOMS`` more that clear it in that
    round, added at weight 0 (``RunStats.extra_atoms``) by the same
    ``InnerProductCache.add_atom`` call; a useless one leaves by a drop step.
    A null step follows only a call that ran its full batch and found none;
    later null steps reuse its answer while the iterate stays put and it
    misses the threshold.  The null step that would end a run (Phi <= 2 tol)
    first asks ``exhaustive_lmo``, where the scenario is enumerable, and a
    vertex that clears the threshold takes a Frank-Wolfe step instead
    (``RunStats.exact_calls``): a separated run's last gradient does not rest
    on the heuristic.  1 + fw + null - oracle_calls steps had no heuristic
    call of their own (plus one if ``early_separation`` ended the run).  After
    as many local steps in a row as there are atoms, where pairwise steps
    converge slowly, the next tries a face step first: Wolfe's minor cycle
    (Wolfe 1976), up to ``FACE_MAX_ATOMS`` atoms.  Parameters, result and callback as in
    ``frank_wolfe_vanilla``, with Phi the gap estimate."""
    return _solve(p, v0, cfg, lazy=True)


def _solve(p, v0, cfg, lazy):
    """The conditional-gradient loop behind both public solvers.

    With ``lazy`` this is BPCG.  Without it the pairwise test is skipped, so
    every iteration takes the oracle branch and a Frank-Wolfe step, and Phi
    holds the last Frank-Wolfe gap.
    """
    if cfg is None:
        cfg = SolverConfig()
    if not 0 <= v0 <= 1:
        raise ValueError("need v0 in [0, 1]")
    tol = 0.5 * cfg.eps**2
    sc = p.scenario
    target = float(v0) * p.to_float().entries
    if sc.marginals:
        target[(0,) * sc.parties] = 1.0  # the root of every strategy tensor
    target_t = CorrelationTensor(sc, target)
    stats = RunStats()

    def oracle(gradient, seed, threshold=None):
        """The oracle's value <gradient, d> and its strategies: the vertex,
        then its extras.  Only a call cut short can clear ``threshold``."""
        t0 = time.perf_counter()
        strategy, value, rounds, extras = heuristic_lmo(gradient, cfg.restarts, seed, threshold)
        stats.oracle_seconds += time.perf_counter() - t0
        stats.oracle_calls += 1
        stats.oracle_rounds += rounds
        stats.oracle_early_exits += threshold is not None and value <= threshold
        return value, [strategy, *extras]

    active = ActiveSet(sc)
    seed = cfg.seed
    _, strategies = oracle(CorrelationTensor(sc, -target), seed)
    active.add_atom(strategies[:1], 1.0)
    cache = InnerProductCache(active, target_t)

    phi = 0.5 * float(np.linalg.norm(active.iterate() - target)) ** 2 if lazy else np.inf
    g_last, held = np.inf, None  # the last Frank-Wolfe gap; the answer behind a null step
    floor = max(min(phi, g_last) / LAZY_TOLERANCE, tol)  # the local-step test
    status, callback, step = STATUS_CAP, cfg.callback, None

    t = local = 0  # local: local steps since the last oracle-branch or face step
    for t in range(cfg.max_iterations):
        if callback:
            callback(t, step, phi, active)
        if phi <= tol:
            status = STATUS_SEPARATED
            break

        # Python floats round as numpy scalars do, at less call overhead
        vals = cache.values()
        i_away = int(vals.argmax())
        i_local = int(vals.argmin())
        ga = vals.item(i_away) - vals.item(i_local)

        if (lazy and ga >= floor and local >= len(active)
                and len(active) <= FACE_MAX_ATOMS and cache.face_step()):
            step, local = "face", 0
        elif lazy and ga >= floor:
            # pairwise transfer along d_local - d_away, in Gram space
            local = 0 if local >= len(active) else local + 1  # 0 after a refused face step
            step = "drop" if cache.apply_pairwise(i_away, i_local, ga) else "pairwise"
        else:
            local = 0
            grad = CorrelationTensor(sc, active.iterate() - target)
            dist = float(np.linalg.norm(grad.entries))
            if dist <= cfg.eps:
                status = STATUS_INSIDE
                break
            f = 0.5 * dist**2
            seed += 1
            gx = float(active.weights @ vals)  # <grad, x>
            # lazy: the oracle may stop at any vertex with gap >= Phi / K; only a
            # full batch ends in a null step, whose answer stands while it misses
            threshold = gx - phi / LAZY_TOLERANCE if lazy else None
            if held is None or held[0] <= threshold:
                held = oracle(grad, seed, threshold)
            gw, strategies = held
            if lazy and gw > threshold and phi <= 2 * tol and enumerable(sc):
                # the null step that would end the run: the exact oracle has the last word
                stats.exact_calls += 1
                strategy, value = exhaustive_lmo(grad)
                if value <= threshold:
                    gw, strategies = float(value), [strategy]
            gap = gx - gw
            # f(x) - gap lower-bounds the optimum; if that exceeds the target
            # accuracy the point cannot be inside (up to oracle suboptimality)
            if not lazy:
                phi = gap
                if gap <= tol or f - gap > tol:
                    status = STATUS_SEPARATED
                    break
            if not lazy or gw <= threshold:  # the answer cleared the threshold
                # Frank-Wolfe step toward the oracle vertex, its extras at weight 0
                n = len(active)
                i = cache.add_atom(strategies)[0]
                stats.extra_atoms += len(active) - max(n, i + 1)
                cache.apply_fw(i, gap, gx)
                stats.peak_atoms = max(stats.peak_atoms, len(active))
                g_last = gap
                step = "fw"
            else:
                # no progress available anywhere; a large lower bound already
                # settles the verdict, at the price of a cruder final gradient
                if cfg.early_separation and f - gap > tol:
                    status = STATUS_SEPARATED
                    break
                phi = phi / 2
                step = "null"
            floor = max(min(phi, g_last) / LAZY_TOLERANCE, tol)

        held = held if step == "null" else None  # every other step moves the iterate
        stats.steps[step] += 1
        if (t + 1) % 4096 == 0:  # against drift of the updated values
            cache.rebuild()
    else:
        t = cfg.max_iterations
        if callback:  # so that the last step is observed too
            callback(t, step, phi, active)

    gradient = CorrelationTensor(sc, active.iterate() - target)
    dist = float(np.linalg.norm(gradient.entries))
    if dist <= cfg.eps:
        status = STATUS_INSIDE
    return SolverResult(active, dist, gradient, t, status, stats)


def extract_hyperplane(res):
    """Separating-direction functional G = v0*p - x_T from a solver run.

    <G, d> < <G, v0*p> for every strategy d certifies v0*p outside the
    polytope once the maximum is computed exactly; warn when the run actually
    converged inside."""
    if res.status == STATUS_INSIDE:
        warnings.warn("extracting a hyperplane from a converged-inside run")
    return CorrelationTensor(res.gradient.scenario, -res.gradient.entries)

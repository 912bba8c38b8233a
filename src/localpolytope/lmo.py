"""Linear minimisation oracles over the deterministic strategies.

Minimising a linear functional over the local polytope means optimising a
multilinear +-1 assignment problem.  ``maximize_functional_heuristic`` is a
batched alternating maximisation (fast, no optimality guarantee).
``exhaustive_lmo`` is the one exact kernel, behind every local bound; its
docstring gives the cap and the exactness argument.  The bipartite QUBO
reformulation and its branch and bound remain library functions that no
certificate relies on.
"""

import numpy as np
from dataclasses import dataclass
from fractions import Fraction

from .tensor import CorrelationTensor, DeterministicStrategy, _contract

EXHAUSTIVE_CAP = 26  # max enumerated sign bits, (N-1)*m
QUBO_CAP = 64  # max binary variables (2m) for the QUBO branch and bound


@dataclass(frozen=True)
class BellFunctional:
    """A linear functional on correlation tensors, typically a Bell inequality."""

    tensor: CorrelationTensor

    @property
    def scenario(self):
        return self.tensor.scenario

    @property
    def is_integer(self):
        flat = self.tensor.entries.reshape(-1)
        if self.tensor.is_exact:
            return all(
                isinstance(x, (int, np.integer))
                or (isinstance(x, Fraction) and x.denominator == 1)
                for x in flat
            )
        return bool(np.all(flat == np.round(flat)))

    def integer_array(self):
        """The entries as Python ints (object dtype), exact at any size."""
        if not self.is_integer:
            raise ValueError("functional does not have integer entries")
        flat = [int(x) for x in self.tensor.entries.reshape(-1)]
        return np.array(flat, dtype=object).reshape(self.tensor.entries.shape)


def _extended(mat, marginals):
    """Prepend the fixed marginal-slot row of ones to a (m, R) sign matrix."""
    if not marginals:
        return mat
    return np.vstack([np.ones((1, mat.shape[1]), dtype=mat.dtype), mat])


def maximize_functional_heuristic(tensor, restarts=3000, seed=0, max_rounds=200):
    """Best strategy found by alternating maximisation of <tensor, d>.

    Every restart draws random signs for all parties and then cycles through
    the parties, replacing each party's signs by the sign of its coefficient
    vector (with sign(0) = +1) until a full round brings no improvement.  The
    restarts run as the columns of one batch; a round's value is read off its
    last contraction.  Returns (strategy, value) with the value
    root-corrected, i.e. equal to inner(tensor, strategy_tensor(...)).
    """
    sc = tensor.scenario
    N, m = sc.parties, sc.inputs
    G = tensor.to_float().entries
    off = 1 if sc.marginals else 0

    rng = np.random.default_rng(seed)
    signs = [
        _extended(rng.choice([-1.0, 1.0], size=(m, restarts)), sc.marginals)
        for _ in range(N)
    ]
    prev = np.full(restarts, -np.inf)
    for _ in range(max_rounds):
        for n in range(N):
            C = _contract(G, signs, free=n)
            signs[n][off:] = np.where(C[off:] >= 0, 1.0, -1.0)
        vals = (C * signs[N - 1]).sum(axis=0)
        if np.all(vals <= prev + 1e-12):
            break
        prev = vals
    i = int(np.argmax(prev))
    strategy = DeterministicStrategy.from_signs(
        [list(signs[n][off:, i].astype(int)) for n in range(N)]
    )
    root = float(G[(0,) * N]) if sc.marginals else 0.0
    return strategy, prev[i] - root


def heuristic_lmo(gradient, restarts=3000, seed=0):
    """Strategy approximately minimising <gradient, d> over all strategies."""
    neg = CorrelationTensor(gradient.scenario, -gradient.entries)
    strategy, _ = maximize_functional_heuristic(neg, restarts=restarts, seed=seed)
    return strategy


def _lex_sign_batch(start, stop, num_vars, dtype):
    """Sign rows for assignment ids start..stop-1; id order equals the
    lexicographic order of the '+'/'-' strings (bit 0 -> '+')."""
    ids = np.arange(start, stop, dtype=np.uint64)
    shifts = np.arange(num_vars - 1, -1, -1, dtype=np.uint64)
    bits = ((ids[:, None] >> shifts[None, :]) & 1).astype(np.int64)
    return (1 - 2 * bits).astype(dtype)  # bit 0 -> +1


def enumerable(scenario):
    """Whether ``exhaustive_lmo`` accepts the scenario: (N-1)*m <= EXHAUSTIVE_CAP."""
    return (scenario.parties - 1) * scenario.inputs <= EXHAUSTIVE_CAP


def exhaustive_lmo(gradient, batch=1 << 14):
    """Exact minimiser of <gradient, d> with lexicographically-smallest ties.

    Enumerates the first N-1 parties, (N-1)*m <= EXHAUSTIVE_CAP sign bits, and
    solves the last in closed form: min_s c . s = -Sum_j |c_j|, ties to +1.
    Without marginal slots, flipping one party negates c, so only ids below
    2^(bits-1) run (first sign +): the lexicographically first half.
    Integer input gives an exact int: in float64 BLAS while Sum |G| <= 2^53,
    as every partial sum is then an integer of at most that size, else on
    Python ints.  Other input runs in float64.
    """
    sc = gradient.scenario
    N, m = sc.parties, sc.inputs
    if not enumerable(sc):
        raise ValueError(f"exhaustive oracle capped at (N-1)*m <= {EXHAUSTIVE_CAP}")
    functional = BellFunctional(gradient)
    integer = functional.is_integer
    G = functional.integer_array() if integer else gradient.to_float().entries
    if integer and np.abs(G).sum() <= 2**53:
        G = G.astype(np.float64)

    outer_vars = (N - 1) * m
    ids = 1 << outer_vars
    if outer_vars and not sc.marginals:
        ids >>= 1
    # the first contraction holds batch * axis^(N-1) entries: keep it ~2^22
    batch = max(1, min(batch, (1 << 22) // (G.size // sc.axis_size)))
    best_val = None

    for start in range(0, ids, batch):
        rows = _lex_sign_batch(start, min(start + batch, ids), outer_vars, G.dtype)
        signs = [
            _extended(rows[:, j * m : (j + 1) * m].T, sc.marginals)
            for j in range(N - 1)
        ]

        # contraction onto the last party's axis, batched over assignments
        C = _contract(G, signs, free=N - 1)
        coeff = C[1:] if sc.marginals else C
        vals = (C[0] if sc.marginals else 0) - np.abs(coeff).sum(axis=0)
        i = int(np.argmin(vals))
        v = vals[i]
        if best_val is None or v < best_val:
            best_val = v
            best_outer = [rows[i, j * m : (j + 1) * m] for j in range(N - 1)]
            # minimise coeff . s: s = -sign(coeff), ties resolved to +1
            best_last = np.where(coeff[:, i] > 0, -1, 1)

    strategy = DeterministicStrategy.from_signs(
        [[int(x) for x in s] for s in best_outer + [best_last]]
    )
    value = best_val - (G[(0,) * N] if sc.marginals else 0)
    return strategy, int(value) if integer else value


@dataclass(frozen=True)
class QuboInstance:
    """max_{a,b in {+-1}^m} a^T M b recast as c + 2 max_{w in {0,1}^2m} w^T Q w."""

    Q: np.ndarray
    c: object  # int for integer functionals, else float

    @property
    def size(self):
        return self.Q.shape[0]

    def value(self, w):
        w = np.asarray(w)
        return self.c + 2 * int(w @ self.Q @ w) if self.Q.dtype == np.int64 else (
            self.c + 2 * float(w @ self.Q @ w)
        )


def to_qubo(functional):
    """QUBO form of the bipartite no-marginal local-bound problem.

    Q has the row sums of M negated on the first diagonal block, the column
    sums negated on the second, and M / M^T off-diagonal; c is the entry sum.
    The identity a^T M b = c + 2 w^T Q w with w = ((a+1)/2, (b+1)/2) holds for
    every sign assignment.
    """
    if isinstance(functional, BellFunctional):
        sc = functional.scenario
        if sc.parties != 2 or sc.marginals:
            raise ValueError("QUBO reformulation needs a bipartite no-marginal functional")
        M = (
            functional.integer_array().astype(np.int64)
            if functional.is_integer
            else functional.tensor.entries.astype(float)
        )
    else:
        M = np.asarray(functional)
    m1, m2 = M.shape
    dt = np.int64 if np.issubdtype(M.dtype, np.integer) else np.float64
    Q = np.zeros((m1 + m2, m1 + m2), dtype=dt)
    Q[:m1, :m1] = -np.diag(M.sum(axis=1))
    Q[m1:, m1:] = -np.diag(M.sum(axis=0))
    Q[:m1, m1:] = M
    Q[m1:, :m1] = M.T
    c = M.sum()
    c = int(c) if dt == np.int64 else float(c)
    return QuboInstance(Q, c)


def qubo_branch_and_bound(instance, node_budget=5_000_000):
    """Exact maximisation of c + 2 w^T Q w over binary w.

    Depth-first branch and bound; variables are ordered once by decreasing
    absolute row sum and the bound at a node adds, to the value of the fixed
    part, every positive achievable linear and pairwise remainder.  Returns
    (value, w, optimal) where optimal is False if the node budget ran out.
    """
    Q = instance.Q
    n = Q.shape[0]
    if n > QUBO_CAP:
        raise ValueError(f"branch and bound capped at {QUBO_CAP} binary variables")
    integer = Q.dtype == np.int64

    order = sorted(range(n), key=lambda i: -abs(Q[i]).sum())
    P = Q[np.ix_(order, order)]
    rows = [[int(x) for x in r] if integer else list(map(float, r)) for r in P]

    # suffix sums of positive pairwise terms among still-free variables
    zero = 0 if integer else 0.0
    pos_pair_suffix = [zero] * (n + 1)
    for d in range(n - 1, -1, -1):
        extra = sum(max(zero, 2 * rows[d][j]) for j in range(d + 1, n))
        pos_pair_suffix[d] = pos_pair_suffix[d + 1] + extra

    best_val = zero  # w = 0 is always feasible
    best_w = [0] * n
    nodes = 0
    exhausted = False

    lin = [zero] * n
    w = [0] * n

    def bound(d, fixed):
        b = fixed + pos_pair_suffix[d]
        for i in range(d, n):
            t = rows[i][i] + lin[i]
            if t > 0:
                b += t
        return b

    def dfs(d, fixed):
        nonlocal best_val, best_w, nodes, exhausted
        if exhausted:
            return
        nodes += 1
        if nodes > node_budget:
            exhausted = True
            return
        if d == n:
            if fixed > best_val:
                best_val = fixed
                best_w = w.copy()
            return
        if bound(d, fixed) <= best_val:
            return
        gain = rows[d][d] + lin[d]
        first = 1 if gain > 0 else 0
        for v in (first, 1 - first):
            w[d] = v
            if v:
                for i in range(d + 1, n):
                    lin[i] += 2 * rows[d][i]
                dfs(d + 1, fixed + gain)
                for i in range(d + 1, n):
                    lin[i] -= 2 * rows[d][i]
            else:
                dfs(d + 1, fixed)
        w[d] = 0

    dfs(0, zero)

    w_out = [0] * n
    for pos, i in enumerate(order):
        w_out[i] = best_w[pos]
    value = instance.c + 2 * best_val
    return value, np.array(w_out, dtype=np.int8), not exhausted


@dataclass(frozen=True)
class LocalBound:
    value: object
    strategy: DeterministicStrategy
    exact: bool


def local_bound(functional):
    """Local bound max_d <M, d> and its lexicographically smallest maximiser,
    by ``exhaustive_lmo`` on -M (ValueError past its cap).  Exact, as an int,
    for integer functionals; others are solved in float64 and flagged inexact.
    """
    if not isinstance(functional, BellFunctional):
        functional = BellFunctional(functional)
    neg = CorrelationTensor(functional.scenario, -functional.tensor.entries)
    strategy, v = exhaustive_lmo(neg)
    return LocalBound(-v, strategy, exact=isinstance(v, int))

"""Linear minimisation oracles over the deterministic strategies.

Minimising a linear functional over the local polytope means optimising a
multilinear +-1 assignment problem.  ``heuristic_lmo`` is a batched
alternating minimisation (fast, no optimality guarantee).  Given a
threshold it answers a weak-separation query: it returns the first vertex at
or below the threshold, and otherwise runs the full batch, each restart until
its first round without improvement.
``exhaustive_lmo`` is the one exact kernel, behind every local bound; its
docstring gives the cap and the exactness argument.  The bipartite QUBO
reformulation and its branch and bound remain library functions that no
certificate relies on.
"""

import operator
import random
import numpy as np
from dataclasses import dataclass
from fractions import Fraction

from .tensor import (CorrelationTensor, DeterministicStrategy, _contract_unfolded,
                     _lex_sign_batch, exact_operand)

EXHAUSTIVE_CAP = 26  # max enumerated sign bits, (N-1)*m
EXHAUSTIVE_ENTRIES = 1 << 15  # entries of one batch's first contraction, at most
HEURISTIC_ROUNDS = 200  # max alternating-maximisation rounds per restart
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


def maximize_functional_heuristic(tensor, restarts=3000, seed=0):
    """Best (strategy, value) found by alternating maximisation of
    <tensor, d>, root-corrected: the minimisation of ``heuristic_lmo`` on
    -tensor."""
    s, v = _alternating_min(-tensor.to_float().entries, tensor.scenario, restarts, seed)[:2]
    return s, -v


def heuristic_lmo(gradient, restarts=3000, seed=0, threshold=None):
    """(strategy, value, rounds, rows): a strategy approximately minimising
    <gradient, d>, its value with the root entry left out, as
    ``tensor_strategy_inner`` counts it, the alternating rounds run, and the
    strategy's float (N, axis) sign rows, led by a 1 for the marginal slot as
    ``sign_rows`` lays them out.

    With a ``threshold`` this is a weak-separation query: the first strategy
    whose value is at or below it is returned.  A value above it means the
    full batch ran and none of its restarts cleared it.  Restarts start from
    one stdlib ``random.Random(seed).getrandbits`` draw (``_alternating_min``)."""
    G = gradient.to_float().entries
    return _alternating_min(G, gradient.scenario, restarts, seed, threshold)


def _alternating_min(G, sc, restarts, seed, threshold=None):
    """Best (strategy, value, rounds, rows) found by alternating minimisation
    of <G, d>, the value with the root entry left out.

    Each restart, a column of one (N, axis, R) sign buffer, starts from random
    signs: the (N, m, R) bits of ``random.Random(seed).getrandbits(N*m*R)``,
    lowest first, bit 1 -> +1.  It cycles through the parties, setting each
    party's signs opposite to its coefficients (0 -> +1).  A round's values
    are read off its last contraction.  After each round the best value is
    compared with ``threshold``; at or below it, that restart returns at once.
    Otherwise a restart leaves the batch after its first round without
    improvement, its signs and value written back, and the loop ends when none
    is left: the full batch, whose argmin covers every restart.  Each party's
    unfolding of G is built once."""
    N, m, a = sc.parties, sc.inputs, sc.axis_size
    off = a - m
    root = float(G[(0,) * N]) if sc.marginals else 0.0

    signs = np.ones((N, a, restarts))
    k = N * m * restarts
    bits = random.Random(operator.index(seed)).getrandbits(k).to_bytes((k + 7) // 8, "little")
    flips = np.unpackbits(np.frombuffer(bits, np.uint8), count=k, bitorder="little")
    signs[:, off:] = flips.reshape(N, m, restarts) * 2.0 - 1.0
    unfolded = [G.transpose([*range(n), *range(n + 1, N), n]).reshape(-1, a) for n in range(N)]
    final = np.empty(restarts)  # the value of each restart's written-back signs
    live = np.arange(restarts)  # restarts still in the batch, columns of work
    work = signs
    prev = np.full(restarts, np.inf)
    rounds = 0
    while live.size and rounds < HEURISTIC_ROUNDS:
        rounds += 1
        for n in range(N):
            others = [work[j] for j in range(N) if j != n]
            C = _contract_unfolded(unfolded[n], others, live.size)
            work[n, off:] = np.where(C[off:] <= 0, 1.0, -1.0)
        vals = (C * work[N - 1]).sum(axis=0)
        i = int(np.argmin(vals))
        best = vals.item(i) - root
        if threshold is not None and best <= threshold:
            rows = work[:, :, i].copy()
            return DeterministicStrategy.from_signs(rows[:, off:]), best, rounds, rows
        done = vals >= prev - 1e-12
        if done.any():
            signs[:, :, live[done]] = work[:, :, done]
            final[live[done]] = vals[done]
            keep = ~done
            live, work, vals = live[keep], work[:, :, keep], vals[keep]
        prev = vals
    signs[:, :, live] = work
    final[live] = prev
    i = int(np.argmin(final))
    rows = signs[:, :, i].copy()
    return DeterministicStrategy.from_signs(rows[:, off:]), final.item(i) - root, rounds, rows


def enumerable(scenario):
    """Whether ``exhaustive_lmo`` accepts the scenario: (N-1)*m <= EXHAUSTIVE_CAP."""
    return (scenario.parties - 1) * scenario.inputs <= EXHAUSTIVE_CAP


def exhaustive_lmo(gradient):
    """Exact minimiser of <gradient, d> with lexicographically-smallest ties.

    Enumerates the first N-1 parties, (N-1)*m <= EXHAUSTIVE_CAP sign bits, and
    solves the last in closed form: min_s c . s = -Sum_j |c_j|, ties to +1.
    Without marginal slots, flipping one party negates c, so only ids below
    2^(bits-1) run (first sign +): the lexicographically first half.
    Integer input gives an exact int, on ``exact_operand``'s float64 or Python
    ints.  Other input runs in float64.  A batch's first contraction holds at
    most EXHAUSTIVE_ENTRIES (256 KiB of float64): the product stays cache-sized,
    e.g. 668 ids on one BLAS thread at (3, 6) with marginals.
    """
    sc = gradient.scenario
    N, m = sc.parties, sc.inputs
    if not enumerable(sc):
        raise ValueError(f"exhaustive oracle capped at (N-1)*m <= {EXHAUSTIVE_CAP}")
    functional = BellFunctional(gradient)
    integer = functional.is_integer
    G = exact_operand(functional.integer_array()) if integer else gradient.to_float().entries

    outer_vars = (N - 1) * m
    ids = 1 << outer_vars
    if outer_vars and not sc.marginals:
        ids >>= 1
    # the first contraction holds batch * axis^(N-1) entries
    batch = max(1, EXHAUSTIVE_ENTRIES // (G.size // sc.axis_size))
    best_val = None

    for start in range(0, ids, batch):
        rows = _lex_sign_batch(start, min(start + batch, ids), outer_vars, G.dtype)
        signs = np.ones((N - 1, sc.axis_size, len(rows)), G.dtype)
        signs[:, sc.axis_size - m :] = rows.T.reshape(N - 1, m, len(rows))

        # contraction onto the last party's axis, batched over assignments
        C = _contract_unfolded(G.reshape(-1, sc.axis_size), list(signs), len(rows))
        coeff = C[1:] if sc.marginals else C
        vals = (C[0] if sc.marginals else 0) - np.abs(coeff).sum(axis=0)
        i = int(np.argmin(vals))
        v = vals[i]
        if best_val is None or v < best_val:
            best_val = v
            best_outer = rows[i].reshape(N - 1, m)
            # minimise coeff . s: s = -sign(coeff), ties resolved to +1
            best_last = np.where(coeff[:, i] > 0, -1, 1)

    strategy = DeterministicStrategy.from_signs([*best_outer, best_last])
    value = best_val - (G[(0,) * N] if sc.marginals else 0)
    return strategy, int(value) if integer else value


@dataclass(frozen=True)
class QuboInstance:
    """max_{a,b in {+-1}^m} a^T M b recast as c + 2 max_{w in {0,1}^2m} w^T Q w."""

    Q: np.ndarray
    c: object  # int for integer functionals, else float

    def value(self, w):
        q = np.asarray(w) @ self.Q @ np.asarray(w)
        return self.c + 2 * (int(q) if self.Q.dtype == np.int64 else float(q))


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

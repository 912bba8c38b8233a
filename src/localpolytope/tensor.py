"""Correlation tensors and deterministic strategies for binary-outcome scenarios.

A scenario has N parties, each choosing one of m inputs and answering +1 or -1.
All correlation data lives in a single dense tensor: with marginals enabled the
input index runs over 0..m where index 0 means "party does not measure", so one
array holds every correlator order at once.  The all-zero entry (nobody
measures) is an affine constant equal to 1 on the polytope; it is stored but
excluded from inner products and norms.  Scenarios without marginals keep only
the full-body correlators (indices 1..m, stored 0-based).
"""

import math
import sys
import numpy as np
from dataclasses import dataclass
from fractions import Fraction

MAX_ENTRIES = 10**8


@dataclass(frozen=True)
class Scenario:
    """N parties, m inputs each, with or without marginal slots."""

    parties: int
    inputs: int
    marginals: bool = True

    def __post_init__(self):
        if self.parties < 1 or self.inputs < 1:
            raise ValueError("need at least one party and one input")
        if self.num_entries > MAX_ENTRIES:
            raise ValueError(f"tensor would exceed {MAX_ENTRIES} entries")

    @property
    def axis_size(self):
        return self.inputs + 1 if self.marginals else self.inputs

    @property
    def shape(self):
        return (self.axis_size,) * self.parties

    @property
    def num_entries(self):
        return self.axis_size ** self.parties

    @property
    def dimension(self):
        """Dimension of the correlation space (root entry excluded)."""
        if self.marginals:
            return (self.inputs + 1) ** self.parties - 1
        return self.inputs ** self.parties

    @property
    def num_strategies(self):
        return 2 ** (self.parties * self.inputs)


class CorrelationTensor:
    """Dense correlation tensor over a scenario.

    Entries are float64 for solver work or exact ``Fraction`` objects for
    certification.  Instances are treated as immutable.
    """

    __slots__ = ("scenario", "entries")

    def __init__(self, scenario, entries):
        entries = np.asarray(entries)
        if entries.shape != scenario.shape:
            raise ValueError(
                f"entries shape {entries.shape} does not match scenario shape {scenario.shape}"
            )
        if entries.dtype != object:
            entries = entries.astype(np.float64, copy=False)
        self.scenario = scenario
        self.entries = entries

    @classmethod
    def zeros(cls, scenario, exact=False):
        if exact:
            e = np.full(scenario.shape, Fraction(0), dtype=object)
        else:
            e = np.zeros(scenario.shape)
        return cls(scenario, e)

    @property
    def is_exact(self):
        return self.entries.dtype == object

    @property
    def root(self):
        """The all-zero-index entry, or None without marginal slots."""
        if not self.scenario.marginals:
            return None
        return self.entries[(0,) * self.scenario.parties]

    def to_float(self):
        if not self.is_exact:
            return self
        return CorrelationTensor(self.scenario, self.entries.astype(np.float64))


def inner(t1, t2):
    """Euclidean inner product of the vectorised tensors, root entry excluded."""
    if t1.scenario != t2.scenario:
        raise ValueError("scenario mismatch")
    s = np.dot(t1.entries.reshape(-1), t2.entries.reshape(-1))
    if t1.scenario.marginals:
        s = s - t1.root * t2.root
    return s


def norm2_sq(t):
    """Exact squared 2-norm (root excluded); a Fraction for exact tensors."""
    return inner(t, t)


def norm2(t):
    return float(np.sqrt(float(norm2_sq(t))))


def norm1(t):
    flat = t.entries.reshape(-1)
    s = sum(abs(x) for x in flat) if t.is_exact else np.abs(flat).sum()
    if t.scenario.marginals:
        s = s - abs(t.root)
    return s


def scale(t, v):
    """Multiply every entry by a visibility 0 <= v <= 1 (marginal slots included)."""
    if not 0 <= v <= 1:
        raise ValueError("visibility must lie in [0, 1]")
    if t.is_exact:
        v = Fraction(v) if not isinstance(v, Fraction) else v
    return CorrelationTensor(t.scenario, t.entries * v)


class DeterministicStrategy:
    """One fixed +-1 answer for every input of every party; a polytope vertex.

    Signs are bit-packed, one integer per party: bit x set means input x+1
    answers -1.  Instances are immutable and hashable.
    """

    __slots__ = ("bits", "inputs", "_hash")

    def __init__(self, bits, inputs):
        self.bits = tuple(int(b) for b in bits)
        self.inputs = int(inputs)
        for b in self.bits:
            if not 0 <= b < (1 << self.inputs):
                raise ValueError("packed signs out of range for input count")
        self._hash = hash((self.bits, self.inputs))

    @classmethod
    def from_signs(cls, sign_vectors):
        """Build from per-party sequences of +-1 values, all of one length."""
        try:
            S = np.asarray(sign_vectors)
        except ValueError:  # ragged
            S = None
        if S is None or S.ndim != 2:
            raise ValueError("all parties need the same number of inputs")
        if not (np.abs(S) == 1).all():
            raise ValueError("signs must be +-1")
        packed = np.packbits(S < 0, axis=1, bitorder="little")
        return cls([int.from_bytes(b.tobytes(), "little") for b in packed], S.shape[1])

    @property
    def parties(self):
        return len(self.bits)

    def signs(self, n):
        """Sign vector of party n as an int8 array of +-1."""
        m = self.inputs
        raw = np.frombuffer(self.bits[n].to_bytes((m + 7) // 8, "little"), np.uint8)
        return 1 - 2 * np.unpackbits(raw, count=m, bitorder="little").astype(np.int8)

    def sign_vectors(self):
        return [self.signs(n) for n in range(self.parties)]

    def flip_parties(self, which):
        """Invert every sign of the listed parties."""
        mask = (1 << self.inputs) - 1
        bits = list(self.bits)
        for n in which:
            bits[n] ^= mask
        return DeterministicStrategy(bits, self.inputs)

    def canonical(self, scenario):
        """Canonical representative of the strategies inducing the same tensor.

        With marginal slots every strategy induces a distinct tensor.  Without
        them, flipping an even number of parties leaves the tensor unchanged,
        so the first sign of every party but the last is forced to +1.
        """
        if scenario.marginals:
            return self
        s = self
        for n in range(self.parties - 1):
            if s.bits[n] & 1:
                s = s.flip_parties([n, self.parties - 1])
        return s

    def to_string(self):
        return "|".join(
            "".join("-" if b >> x & 1 else "+" for x in range(self.inputs))
            for b in self.bits
        )

    @classmethod
    def from_string(cls, text):
        parts = text.strip().split("|")
        m = len(parts[0])
        bits = []
        for p in parts:
            if len(p) != m or set(p) - {"+", "-"}:
                raise ValueError(f"malformed strategy string {text!r}")
            bits.append(sum(1 << x for x, ch in enumerate(p) if ch == "-"))
        return cls(bits, m)

    def __eq__(self, other):
        return (
            isinstance(other, DeterministicStrategy)
            and self.bits == other.bits
            and self.inputs == other.inputs
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"DeterministicStrategy({self.to_string()!r})"


def sign_rows(strategies, scenario, dtype=np.float64):
    """Per-party (len(strategies), axis) sign matrices: row i holds strategy
    i's signs for that party, led by a 1 for the marginal slot.  All packed
    codes are unpacked in one call, built in int8 and cast once, so ``dtype``
    may be float64, int64 or object."""
    n, N, m, a = len(strategies), scenario.parties, scenario.inputs, scenario.axis_size
    nb = (m + 7) // 8
    raw = b"".join(b.to_bytes(nb, "little") for s in strategies for b in s.bits)
    bits = np.unpackbits(np.frombuffer(raw, np.uint8).reshape(n, N, nb), axis=2,
                         count=m, bitorder="little").view(np.int8)
    S = np.ones((N, n, a), np.int8)
    S[:, :, a - m :] = 1 - 2 * bits.transpose(1, 0, 2)
    return [r.astype(dtype) for r in S]


def common_denominator(values):
    """(ints, D) with values[i] = ints[i] / D exactly, D the lcm of the
    denominators (1 for none); ints and Fractions are read unconverted."""
    fr = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    D = math.lcm(*(v.denominator for v in fr))
    return [v.numerator * (D // v.denominator) for v in fr], D


def _lex_sign_batch(start, stop, num_vars, dtype):
    """Sign rows for assignment ids start..stop-1; id order equals the
    lexicographic order of the '+'/'-' strings (bit 0 -> '+')."""
    ids = np.arange(start, stop, dtype=np.uint64)
    shifts = np.arange(num_vars - 1, -1, -1, dtype=np.uint64)
    bits = ((ids[:, None] >> shifts[None, :]) & 1).astype(np.int64)
    return (1 - 2 * bits).astype(dtype)  # bit 0 -> +1


def exact_operand(ints):
    """Integers k for an exact product with +-1 sign matrices (``combine_rows``,
    ``_contract_unfolded``): float64 while Sum |k| <= 2^53, else Python ints.
    Every partial sum of such a product is a signed sum of k's, an integer of
    magnitude at most Sum |k|: in float64 BLAS it is exact in any order."""
    k = np.asarray(ints, dtype=object)
    return k.astype(np.float64) if np.abs(k).sum() <= 2**53 else k


def strategy_tensor(s, scenario, exact=False):
    """Rank-one tensor induced by a strategy; marginal slots contribute factor 1.
    Exact tensors hold ``Fraction`` entries."""
    if s.parties != scenario.parties or s.inputs != scenario.inputs:
        raise ValueError("strategy does not match scenario")
    one = np.array([Fraction(1)], object) if exact else np.ones(1)
    out = combine_rows(one, sign_rows([s], scenario, one.dtype))
    return CorrelationTensor(scenario, out.reshape(scenario.shape))


def strategy_inner(s1, s2, scenario):
    """Exact integer inner product of two strategy tensors via popcounts."""
    lead = int(scenario.marginals)  # the marginal slot's product 1 * 1
    prod = 1
    for b1, b2 in zip(s1.bits, s2.bits):
        prod *= lead + scenario.inputs - 2 * (b1 ^ b2).bit_count()
    return prod - lead


def _khatri_rao(mats, axis):
    """Khatri-Rao product of 2-D arrays of equal length along ``axis``: slice
    k along ``axis`` is the Kronecker product of the arrays' slices k, in
    order; the other axis runs over their index tuples, last fastest."""
    K = mats[0]
    for c in mats[1:]:
        if axis:
            K = (K[:, None, :] * c).reshape(len(K) * len(c), K.shape[1])
        else:
            K = (K[:, :, None] * c[:, None, :]).reshape(len(K), K.shape[1] * c.shape[1])
    return K


def _contract_unfolded(U, cols, R):
    """The free party's (axis, R) coefficients from its unfolding ``U``, G as
    an (axis^(N-1), axis) matrix with the free axis last, and the (axis, R)
    sign columns ``cols`` of the other parties in order.  Column r of their
    Khatri-Rao product K, exactly +-1, is the others' strategy tensor d_r in
    U's row order, so the coefficients are one product K^T U."""
    K = _khatri_rao(cols, 1) if cols else np.ones((1, R), U.dtype)
    return (K.T @ U).T


def rows_inner(t, cols):
    """<t, d_r>, root excluded, for the strategies given by every party's
    (axis, R) sign columns: the last party's coefficients dotted with its
    columns."""
    G = t.entries
    C = _contract_unfolded(G.reshape(-1, G.shape[-1]), cols[:-1], cols[0].shape[1])
    v = np.matmul(cols[-1].T[:, None, :], C.T[:, :, None])[:, 0, 0]
    return v - t.root if t.scenario.marginals else v


def combine_rows(weights, rows):
    """sum_i weights[i] rows[0][i] x ... x rows[-1][i], shape (axis^(N-1), axis),
    as one product of the weighted per-party (n, axis) rows with the last's."""
    *lead, last = rows
    return _khatri_rao([np.asarray(weights).reshape(-1, 1), *lead], 0).T @ last


def tensor_strategy_inner(t, s):
    """<t, strategy_tensor(s)> without materialising it; exact for exact t."""
    dtype = np.int64 if t.entries.dtype == object else t.entries.dtype
    return rows_inner(t, [r[0][:, None] for r in sign_rows([s], t.scenario, dtype)])[0]


@dataclass(frozen=True)
class QuantumSetup:
    """A shared N-qubit state plus m Bloch vectors per party.

    ``state`` is a complex vector of length 2^N or a density matrix; each row
    of ``bloch[n]`` is a unit vector a with observable a . sigma.
    """

    state: np.ndarray
    bloch: tuple

    def density(self):
        st = np.asarray(self.state, dtype=complex)
        if st.ndim == 1:
            st = st / np.linalg.norm(st)
            return np.outer(st, st.conj())
        return st


_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def quantum_tensor(setup, scenario, tol=1e-8):
    """Correlation tensor of a quantum setup, entry by the Born rule.

    Index 0 of a party (marginal slot) uses the identity observable.  Raises
    for non-unit Bloch vectors or a state that is not a valid density matrix.
    """
    N, m = scenario.parties, scenario.inputs
    if N > 4:
        raise ValueError("quantum tensors are supported for at most 4 qubits")
    if len(setup.bloch) != N:
        raise ValueError("need one Bloch-vector family per party")
    rho = setup.density()
    if rho.shape != (2**N, 2**N):
        raise ValueError("state dimension does not match party count")
    if np.abs(rho - rho.conj().T).max() > tol:
        raise ValueError("state is not Hermitian")
    if abs(np.trace(rho) - 1) > tol:
        raise ValueError("state trace is not 1")
    if np.linalg.eigvalsh(rho).min() < -tol:
        raise ValueError("state is not positive semidefinite")

    ops = []
    for n in range(N):
        vecs = np.asarray(setup.bloch[n], dtype=float)
        if vecs.shape != (m, 3):
            raise ValueError("each party needs m Bloch vectors in R^3")
        lens = np.linalg.norm(vecs, axis=1)
        if np.abs(lens - 1).max() > tol:
            raise ValueError("Bloch vectors must have unit length")
        party_ops = [np.eye(2, dtype=complex)] if scenario.marginals else []
        party_ops += [v[0] * _PAULI[0] + v[1] * _PAULI[1] + v[2] * _PAULI[2] for v in vecs]
        ops.append(np.stack(party_ops))

    # contract Tr[(A1 x ... x AN) rho] for all input choices in one einsum:
    # party n's operators are "<input n><i n><j n>", rho's indices "<j's><i's>"
    i, j = "ikmo"[:N], "jlnp"[:N]
    spec = ",".join("abcd"[n] + i[n] + j[n] for n in range(N)) + f",{j}{i}->{'abcd'[:N]}"
    vals = np.einsum(spec, *ops, rho.reshape((2,) * (2 * N)))
    if np.abs(vals.imag).max() > 1e-12:
        raise ValueError("correlation tensor has a non-negligible imaginary part")
    return CorrelationTensor(scenario, vals.real.copy())  # a view would pin the complex vals


# --- text serialisation ---------------------------------------------------
# One number grammar for tensor, vertex and certificate files: an int, ``num/den``
# or a finite decimal, read exactly in exact fields and as a float where a float
# may stand (tensor entries, float measurements, a float Q).


def format_number(x):
    """``num/den`` for a Fraction, the digits of an int, else a float's repr."""
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def format_row(values):
    return " ".join(map(format_number, values))


def parse_value(tok):
    """An int, a Fraction or a finite float; ValueError for anything else."""
    if "/" in tok:
        return parse_exact(tok)
    if "." in tok or "e" in tok or "E" in tok or "inf" in tok or "nan" in tok:
        x = float(tok)
        if not math.isfinite(x):
            raise ValueError(f"non-finite number {tok!r}")
        return x
    return int(tok)


def parse_exact(tok):
    """The exact Fraction of an int, ``num/den`` or decimal token.  A decimal
    exponent may not pass the int/str digit limit, as 10**exp would."""
    if "e" in tok or "E" in tok:
        limit = sys.get_int_max_str_digits()
        if limit and abs(int(tok.lower().partition("e")[2])) > limit:
            raise ValueError(f"decimal exponent past the {limit}-digit limit")
    try:
        return Fraction(tok)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {tok!r}") from None


def write_tensor(t, fp):
    """Write the header line ``N m marginals`` then entries in row-major order."""
    sc = t.scenario
    fp.write(f"{sc.parties} {sc.inputs} {'true' if sc.marginals else 'false'}\n")
    flat = t.entries.reshape(-1)
    for start in range(0, flat.size, sc.axis_size):
        fp.write(format_row(flat[start : start + sc.axis_size]) + "\n")


def scenario_from_tokens(toks):
    """The Scenario of an ``N m marginals`` header; the flag is true/false/1/0."""
    n, m, flag = toks
    if flag.lower() not in ("true", "false", "0", "1"):
        raise ValueError(f"bad marginals flag {flag!r}")
    return Scenario(int(n), int(m), flag.lower() in ("true", "1"))


def tensor_from_tokens(sc, tokens):
    """The tensor over ``sc`` whose row-major entries are ``tokens``: exact if
    any entry is a fraction or all are ints, else float."""
    vals = [parse_value(tok) for tok in tokens]
    if len(vals) != sc.num_entries:
        raise ValueError(f"expected {sc.num_entries} entries, found {len(vals)}")
    if any(isinstance(v, Fraction) for v in vals):
        arr = np.array([Fraction(v) for v in vals], dtype=object)
    elif all(isinstance(v, int) for v in vals):
        arr = np.array(vals, dtype=object)
    else:
        arr = np.array(vals, dtype=float)
    return CorrelationTensor(sc, arr.reshape(sc.shape))


def read_tensor(fp):
    tokens = fp.read().split()
    if len(tokens) < 3:
        raise ValueError("truncated tensor file")
    return tensor_from_tokens(scenario_from_tokens(tokens[:3]), tokens[3:])

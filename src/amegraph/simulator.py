"""Dense state-vector oracle for qudits of prime dimension.

Conventions, fixed once for the whole package:

- Amplitude index: qudit 0 is the least significant base-p digit, so
  basis state |k_{n-1} ... k_1 k_0> sits at index sum_i k_i p^i.
- Operations return new states; nothing mutates in place.
- Global phase is never stripped; compare states with |overlap| ~ 1.
- Stacks first: graph_amplitudes builds labeled graph states (..., p^n)
  from edge words (..., C(n, 2)) and labels (..., n); cut_entropies and
  z_measure_stack act on such stacks. Each one-state function is their
  one-row case; graph-state phases broadcast on the [p] * n tensor.
- One cap, DEFAULT_CAP amplitudes, read when a check runs, bounds every
  state and stack, and reduced_density's p^k x p^k entries too;
  check_cap refuses before anything is allocated.
- Entropies are Gram-matrix spectra, in real arithmetic when a stack's
  imaginary parts all lie within numpy.real_if_close's tolerance (qubit
  graph states, amplitudes +-2^(-n/2)); every other stack stays complex.
  That is decided once per state (StateVector.field_amps), or once per
  stack (real_if_close) before its cut matrices are transposed out of it;
  field_entropies reads any number of cuts of a stack so decided.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations

import numpy as np

from . import gfp
from .graph import Graph, LabeledGraph, edge_word

DEFAULT_CAP = 1 << 20
_NORM_TOL = 1e-9
_REAL_TOL = 100 * np.finfo(np.float64).eps  # numpy.real_if_close's default


class TooLargeError(ValueError):
    pass


class ZeroProbabilityError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class StateVector:
    p: int
    n: int
    amps: np.ndarray

    def __post_init__(self):
        gfp.ensure_prime(self.p)
        a = np.ascontiguousarray(self.amps, dtype=np.complex128)
        if a.shape != (self.p**self.n,):
            raise ValueError(f"expected {self.p**self.n} amplitudes")
        if abs(np.vdot(a, a).real - 1.0) > _NORM_TOL:
            raise ValueError("state is not normalized")
        a.setflags(write=False)
        object.__setattr__(self, "amps", a)

    @cached_property
    def field_amps(self) -> np.ndarray:
        """amps in their field, computed once: a read-only real view if real_if_close allows."""
        return real_if_close(self.amps)


@lru_cache(maxsize=None)
def omega_powers(p: int) -> np.ndarray:
    """Table of the p-th roots of unity, omega^k for k in [0, p)."""
    k = np.arange(p)
    table = np.exp(2j * np.pi * k / p)
    table.setflags(write=False)
    return table


def check_cap(p: int, n: int, stack: tuple = ()) -> None:
    """Refuse a stack of shape `stack` of p^n-amplitude states holding more than DEFAULT_CAP amplitudes."""
    count = p**n
    for rows in stack:
        count *= rows
    if count > DEFAULT_CAP:
        lead = "".join(f"{rows} x " for rows in stack)
        raise TooLargeError(f"{lead}{p}^{n} amplitudes exceed the cap of {DEFAULT_CAP}")


def _axis(n: int, i: int) -> int:
    """Tensor axis of qudit i: reshape([p]*n) is row-major, so it is n-1-i."""
    if not 0 <= i < n:
        raise ValueError(f"qudit {i} is not in [0, {n})")
    return n - 1 - i


def _site_pauli(s: StateVector, i: int, a: int, b: int) -> StateVector:
    """X^a Z^b on qudit i alone."""
    _axis(s.n, i)  # rejects i outside [0, n)
    xz = np.zeros((2, s.n), dtype=np.int64)
    xz[:, i] = a, b
    return StateVector(s.p, s.n, _apply_pauli(s.amps.reshape([s.p] * s.n), s.p, *xz).reshape(-1))


def apply_z(s: StateVector, i: int, power: int = 1) -> StateVector:
    return _site_pauli(s, i, 0, power)


def apply_x(s: StateVector, i: int, power: int = 1) -> StateVector:
    return _site_pauli(s, i, power, 0)


def _phase_exponents(p: int, n: int, words, label=None) -> np.ndarray:
    """sum_{i<j} w_ij k_i k_j + sum_i label_i k_i mod p on the [p] * n tensor, after
    the stack axes of words (..., C(n, 2)) and labels (..., n): one broadcast
    outer product k_i k_j per edge, one axis vector k_i per label entry."""
    words = np.asarray(words, dtype=np.int64)
    ones = (1,) * n  # qudit i lives on axis -1-i
    k = np.arange(p)
    expo = np.zeros(words.shape[:-1] + (p,) * n, dtype=np.int64)
    edges = _nonzero_slots(words, combinations(range(n), 2), ones)
    kk = k[:, None] * k if edges else None  # p x p, built only when an edge needs it
    for (i, j), w in edges:
        expo += w * kk.reshape((p,) + ones[i + 1 : j] + (p,) + ones[:i])
    if label is not None:
        for i, w in _nonzero_slots(np.asarray(label, dtype=np.int64), range(n), ones):
            expo += w * k.reshape((p,) + ones[:i])
    return np.remainder(expo, p, out=expo)


def _nonzero_slots(a: np.ndarray, keys, ones: tuple) -> list:
    """(key, weight) per slot of a's last axis that is nonzero somewhere: a Python
    int for a vector, else the slot's stack values shaped to broadcast on the tensor."""
    if a.ndim == 1:
        return [(key, w) for key, w in zip(keys, a.tolist()) if w]
    return [(key, w.reshape(w.shape + ones)) for key, w in zip(keys, np.moveaxis(a, -1, 0)) if w.any()]


def graph_amplitudes(p: int, n: int, words, labels=None) -> np.ndarray:
    """Amplitude stack (..., p^n) of the labeled graph states with edge words
    (..., C(n, 2)) and labels (..., n), or label 0 when labels is None."""
    words = np.asarray(words, dtype=np.int64)
    stack = words.shape[:-1]
    check_cap(p, n, stack)
    amp = omega_powers(p) * p ** (-n / 2)
    return amp[_phase_exponents(p, n, words, labels)].reshape(stack + (p**n,))


def graph_state_amplitudes(g: Graph, label=None) -> np.ndarray:
    """Amplitudes of one (labeled) graph state: graph_amplitudes' one-row case."""
    return graph_amplitudes(g.p, g.n, edge_word(g), label)


def build_graph_state(g: Graph) -> StateVector:
    """|G>: all qudits in |0bar>, then CZ^w per weighted edge."""
    return StateVector(g.p, g.n, graph_state_amplitudes(g))


def build_labeled(s: LabeledGraph) -> StateVector:
    return StateVector(s.graph.p, s.graph.n, graph_state_amplitudes(s.graph, s.label))


def _cut_matrices(amps, p: int, n: int, keep) -> np.ndarray:
    """The amplitude stack (..., p^n) as matrices (..., p^m, p^(n-m)), the m kept qudits
    little-endian in rows: a view when they are the most significant, else a copy."""
    keep = sorted(keep)
    rest = [q for q in range(n) if q not in keep]
    stack = amps.shape[:-1]
    axes = [*range(len(stack))] + [len(stack) + n - 1 - q for q in keep[::-1] + rest[::-1]]
    return amps.reshape(stack + (p,) * n).transpose(axes).reshape(stack + (p ** len(keep), p ** len(rest)))


def reduced_density(s: StateVector, keep) -> np.ndarray:
    """Reduced density matrix of the qudits in `keep` (sorted ascending), refused past the cap."""
    check_cap(s.p, 2 * len(keep))
    m = _cut_matrices(s.amps, s.p, s.n, keep)
    return m @ m.conj().T


def real_if_close(mats: np.ndarray) -> np.ndarray:
    """A complex stack's real part, a view, when every imaginary part is
    within numpy.real_if_close's tolerance (|Im| < 100 eps); else the stack
    itself. Decided by two reductions, with no temporary the stack's size.
    A real stack is returned at once: its .imag would be a zero copy."""
    if not np.iscomplexobj(mats):
        return mats
    im = mats.imag  # a view
    if im.max(initial=0.0) < _REAL_TOL and im.min(initial=0.0) > -_REAL_TOL:
        return mats.real
    return mats


def cut_entropies(amps, p: int, n: int, cut) -> np.ndarray:
    """Entanglement entropy across (cut, rest), in edits, of each state of the
    amplitude stack (..., p^n): the spectrum of the smaller side's Gram
    matrix, eigenvalues <= 1e-12 dropped."""
    return field_entropies(real_if_close(amps), p, n, cut)


def field_entropies(amps, p: int, n: int, cut) -> np.ndarray:
    """cut_entropies of a stack already in its field (real_if_close's
    result), so that the cuts of one stack decide its realness once."""
    mats = _cut_matrices(amps, p, n, cut)
    if mats.shape[-2] > mats.shape[-1]:
        mats = mats.swapaxes(-1, -2)
    if mats.dtype == np.float64:  # one C-contiguous operand layout, view or copy;
        mats = np.ascontiguousarray(mats)  # a real array's conj() is itself, not a copy
    lam = np.linalg.eigvalsh(mats @ mats.conj().swapaxes(-1, -2))
    lam = np.where(lam > 1e-12, lam, 1.0)  # 1 log 1 = 0
    return -(lam * np.log(lam)).sum(axis=-1) / np.log(p)


def cut_entropy_edits(s: StateVector, cut) -> float:
    """Entanglement entropy across (cut, rest) in edits."""
    return float(field_entropies(s.field_amps, s.p, s.n, cut))


def z_measure_stack(amps, p: int, n: int, i: int, outcome: int) -> tuple[np.ndarray, np.ndarray]:
    """Project qudit i of each state of the amplitude stack (..., p^n) onto Z-value `outcome`
    and drop it: probabilities (...) and renormalized post states (..., p^(n-1)), survivors in
    order. ZeroProbabilityError, before any division, when a state is annihilated."""
    stack = amps.shape[:-1]
    sl = amps.reshape(stack + (p,) * n).take(int(outcome) % p, axis=_axis(n, i) - n)
    sl = sl.reshape(stack + (p ** (n - 1),))
    prob = np.einsum("...k,...k->...", sl.conj(), sl).real
    if (prob < 1e-12).any():
        raise ZeroProbabilityError("projection annihilates the state")
    return prob, sl / np.sqrt(prob)[..., None]


def z_measure_dense(s: StateVector, i: int, outcome: int) -> tuple[float, StateVector]:
    """(probability, post state) of z_measure_stack's one-row case."""
    prob, post = z_measure_stack(s.amps, s.p, s.n, i, outcome)
    return float(prob), StateVector(s.p, s.n - 1, post)


def bell_measure(s: StateVector, pair, g: int, h: int) -> tuple[float, StateVector]:
    """Project the qudit pair onto the generalized Bell state Psi_gh.

    Psi_gh = p^(-1/2) sum_j omega^(jg) |j>|j+h>, first the pair's first
    qudit; both measured qudits are removed from the returned state.
    """
    q1, q2 = pair
    if q1 == q2:
        raise ValueError("Bell measurement needs two distinct qudits")
    p = s.p
    w = omega_powers(p)
    t = np.moveaxis(
        s.amps.reshape([p] * s.n), (_axis(s.n, q1), _axis(s.n, q2)), (0, 1)
    )
    out = np.zeros(t.shape[2:], dtype=np.complex128)
    for j in range(p):
        out += w[(-j * g) % p] * t[j, (j + h) % p]
    out = out.reshape(-1) / np.sqrt(p)
    prob = float(np.vdot(out, out).real)
    if prob < 1e-12:
        raise ZeroProbabilityError("Bell projection annihilates the state")
    return prob, StateVector(p, s.n - 2, out / np.sqrt(prob))


def ugh_matrix(p: int, g: int, h: int) -> np.ndarray:
    """U_gh = sum_j omega^(jg) |j><j+h|, the Bell-outcome correction."""
    j = np.arange(p)
    u = np.zeros((p, p), dtype=np.complex128)
    u[j, (j + h) % p] = omega_powers(p)[(j * g) % p]
    return u


def overlap(a: StateVector, b: StateVector) -> complex:
    if (a.p, a.n) != (b.p, b.n):
        raise ValueError("states live on different systems")
    return complex(np.vdot(a.amps, b.amps))


def _apply_pauli(t: np.ndarray, p: int, xvec, zvec) -> np.ndarray:
    """Normalised X^a Z^b (a = xvec, b = zvec) on an amplitude tensor of
    shape [p] * n, matrix-free: X^a Z^b |k> = omega^(b.k) |k + a>.

    For p = 2 an X^a Z^b with a = b = 1 on a site squares to -I, so the
    operator is rescaled by i^(a.b); for odd p the bare product already
    has order p.
    """
    n = t.ndim
    out = np.roll(t, tuple(int(a) for a in xvec[::-1]), axis=tuple(range(n)))
    w = omega_powers(p)
    for i, (a, b) in enumerate(zip(xvec, zvec)):
        if b:
            shape = [1] * n
            shape[_axis(n, i)] = p
            out *= w[(b * (np.arange(p) - a)) % p].reshape(shape)
    turns = int(xvec @ zvec) % 4 if p == 2 else 0
    if turns:
        out *= 1j**turns
    return out


def _support_seed(p: int, x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Digits of the lowest basis index in the stabilizer state's support.

    Each generator combination c with zero X part is a group element
    omega^phi Z^(c z), whose phase shows on |0>; the support solves
    (c z) . k = -phi mod p for all of them. With qudit 0 in the first
    column every pivot qudit depends only on more significant free ones,
    so the free qudits at 0 give the lowest index.
    """
    n = x.shape[1]
    unit = 2 if p == 2 else 1  # phases in quarter turns at p = 2 (i^(a.b))
    rows = []
    for c in gfp.kernel_basis(x.T, p):
        k = np.zeros(n, dtype=np.int64)
        turns = 0
        for r, times in enumerate(c):
            for _ in range(times):
                turns += unit * int(z[r] @ k) + (int(x[r] @ z[r]) if p == 2 else 0)
                k = (k + x[r]) % p
        if turns % unit:
            raise ValueError("a Z-type group element has eigenvalue +-i; invalid stabilizer?")
        rows.append(np.append((c @ z) % p, -(turns // unit) % p))
    seed = np.zeros(n, dtype=np.int64)
    if rows:
        red, pivots = gfp.row_reduce(np.array(rows), p)
        if n in pivots:
            raise ValueError("no +1 joint eigenvector found; invalid stabilizer?")
        seed[pivots] = red[: len(pivots), n]
    return seed


def stabilizer_state(p: int, x: np.ndarray, z: np.ndarray) -> StateVector:
    """Unique +1 joint eigenvector of the generators rows of (x | z).

    Built by applying the eigenvalue-1 projector (1/p) sum_j g^j of each
    generator g, matrix-free, to the lowest-index basis state in the
    state's support. Memory stays O(p^n). Requires a valid full
    stabilizer (n independent, mutually commuting rows).
    """
    x = gfp.as_residues(x, p)
    z = gfp.as_residues(z, p)
    n = x.shape[1]
    check_cap(p, n)
    t = np.zeros([p] * n, dtype=np.complex128)
    t[tuple(_support_seed(p, x, z)[::-1])] = 1.0  # axis n-1-i holds qudit i
    for a, b in zip(x, z):
        acc = t.copy()
        for _ in range(p - 1):
            t = _apply_pauli(t, p, a, b)
            acc += t
        acc /= p
        t = acc
    norm = np.linalg.norm(t)
    if norm <= 1e-8:
        raise ValueError("no +1 joint eigenvector found; invalid stabilizer?")
    return StateVector(p, n, (t / norm).reshape(-1))

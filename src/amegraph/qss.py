"""Threshold and ramp quantum secret sharing on AME graph states.

An AME graph on 2m vertices with L dealers yields an (m, L, 2m-L) ramp
scheme: each dealer teleports one p-level register of a p^L-dimensional
secret onto the remaining players by a generalized Bell measurement
against their graph qudit. L = 1 is the ((m, 2m-1)) threshold scheme.
Everything here is simulated densely, so fidelities and trace distances
are exact up to float error.

Register conventions: secret ancillas are appended after the graph
qudits and consumed by the Bell measurements, leaving the players in
ascending vertex order. After the recovery unitary, register l holds
dealer l's secret coordinate (register 0 first).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

import numpy as np

from . import gfp
from .entanglement import is_ame
from .graph import Graph, truncate, vertex_list
from .simulator import (
    StateVector,
    bell_measure,
    check_cap,
    graph_state_amplitudes,
    omega_powers,
    reduced_density,
    ugh_matrix,
)


class NotAuthorizedError(ValueError):
    pass


@dataclass(frozen=True)
class _Scheme:
    """An AME graph on 2m vertices whose subclass names its `dealers`, in
    ascending order; every other vertex is a player."""

    graph: Graph

    def __post_init__(self):
        if self.graph.n % 2:
            raise ValueError("scheme needs an even number of vertices")
        if not is_ame(self.graph).is_ame:
            raise ValueError("graph is not absolutely maximally entangled")

    @property
    def m(self) -> int:
        return self.graph.n // 2

    @property
    def L(self) -> int:
        return len(self.dealers)

    @property
    def players(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.graph.n) if v not in self.dealers)


@dataclass(frozen=True)
class ThresholdScheme(_Scheme):
    """((m, 2m-1)) scheme from an AME graph on 2m vertices."""

    dealer: int = 0

    def __post_init__(self):
        super().__post_init__()
        if not 0 <= self.dealer < self.graph.n:
            raise ValueError("dealer must be a vertex")

    @property
    def dealers(self) -> tuple[int, ...]:
        return (self.dealer,)


@dataclass(frozen=True)
class RampScheme(_Scheme):
    """(m, L, 2m-L) ramp scheme: L dealers on an AME graph with 2m vertices."""

    dealers: tuple[int, ...]

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "dealers", tuple(sorted(vertex_list(self.graph.n, self.dealers))))
        if not 1 <= len(self.dealers) <= self.graph.n // 2:
            raise ValueError("need 1 <= L <= m dealers")


def random_secret(p: int, registers: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random pure secret on `registers` p-level registers."""
    v = rng.standard_normal(p**registers) + 1j * rng.standard_normal(p**registers)
    return v / np.linalg.norm(v)


def _secret_array(scheme, secret) -> np.ndarray:
    p, L = scheme.graph.p, scheme.L
    s = np.asarray(secret, dtype=np.complex128).reshape(-1)
    if s.shape != (p**L,):
        raise ValueError(f"secret must have {p**L} amplitudes")
    norm = np.linalg.norm(s)
    if abs(norm - 1.0) > 1e-9:
        raise ValueError("secret must be normalized")
    return s


def encode(scheme, secret, outcomes) -> StateVector:
    """Dense encoding: Bell-measure each (ancilla, dealer qudit) pair.

    `outcomes` is one (g, h) per dealer; every outcome occurs with
    probability exactly 1/p^2, which is asserted. The returned state
    lives on the players in ascending vertex order.
    """
    g = scheme.graph
    p, n, L = g.p, g.n, scheme.L
    outcomes = [tuple(o) for o in outcomes]
    if len(outcomes) != L:
        raise ValueError("one Bell outcome per dealer required")
    s = _secret_array(scheme, secret)
    check_cap(p, n + L)
    amps = np.multiply.outer(s, _scheme_amplitudes(g)).reshape(-1)  # ancillas are qudits n..n+L-1
    state = StateVector(p, n + L, amps)
    for l, ((bg, bh), dealer) in enumerate(zip(outcomes, scheme.dealers)):
        # the l measurements so far removed ancillas 0..l-1, above both, and
        # dealers 0..l-1, below both as the dealers ascend
        prob, state = bell_measure(state, (n - l, dealer - l), bg, bh)
        assert abs(prob - 1.0 / p**2) < 1e-9, "Bell outcomes must be uniform"
    return state


@lru_cache(maxsize=1)
def _scheme_amplitudes(g: Graph) -> np.ndarray:
    """encode's graph state, read-only, cached for the last scheme graph."""
    amps = graph_state_amplitudes(g)
    amps.setflags(write=False)
    return amps


def recovery_map(scheme, authorized) -> np.ndarray:
    """Unitary on the authorized players' qudits mapping labeled graph
    states to computational registers (dealer coordinates first).

    Requires |authorized| >= m; the defining rows are the dealer and
    traced-player adjacency rows restricted to the authorized columns,
    completed to a basis when the set is larger than minimal. The map is
    cached per (scheme, authorized set), the last one only, and returned
    read-only: an audit recovers many secrets on one set in a row.
    """
    return _recovery_map(scheme, tuple(sorted(vertex_list(scheme.graph.n, authorized))))


def _complete_basis(R: np.ndarray, p: int) -> np.ndarray:
    """R's rows completed to a basis of the label space by unit vectors,
    the ones that adding e_0, e_1, ... while each stays independent would
    add: e_t exactly where no vector of R's row space has its last nonzero
    entry. Those positions are the pivots of one reduction of R with its
    columns reversed."""
    width = R.shape[1]
    _, pivots = gfp.row_reduce(R[:, ::-1], p)
    if len(pivots) != R.shape[0]:
        raise NotAuthorizedError("restricted rows are dependent")  # non-AME only
    last = {width - 1 - c for c in pivots}
    return np.vstack([R, np.eye(width, dtype=np.int64)[[t for t in range(width) if t not in last]]])


@lru_cache(maxsize=1)
def _recovery_map(scheme, B: tuple) -> np.ndarray:
    g = scheme.graph
    p = g.p
    dealers = list(scheme.dealers)
    if not set(B) <= set(scheme.players):
        raise ValueError("authorized set must consist of players")
    if len(B) < scheme.m:
        raise NotAuthorizedError(f"need at least {scheme.m} players")
    src = dealers + [v for v in scheme.players if v not in set(B)]  # dealers, then traced players
    rinv = gfp.mat_inverse(_complete_basis(g.adj[np.ix_(src, B)], p), p)
    check_cap(p, 2 * len(B))  # the p^|B| x p^|B| map

    base = graph_state_amplitudes(truncate(g, src))
    dim = p ** len(B)
    labels = gfp.digits(np.arange(dim), p, len(B))  # all label vectors, little-endian enumeration
    # row z of `phases` turns the base graph state into the label-z state
    phases = omega_powers(p)[(labels @ labels.T) % p]
    coords = (labels @ rinv) % p
    cidx = coords @ (p ** np.arange(len(B), dtype=np.int64))
    # a projection outcome with coordinates c comes with the phase
    # omega^(sum_{t<t'} A[v_t, v_t'] c_t c_t') from edges inside the
    # dealer-plus-traced set; V must absorb it to reach |c> exactly
    c = coords[:, : len(src)]
    fix = np.conj(omega_powers(p)[(c @ np.triu(g.adj[np.ix_(src, src)]) * c).sum(axis=1) % p])
    v = np.zeros((dim, dim), dtype=np.complex128)
    v[cidx, :] = fix[:, None] * np.conj(phases * base[None, :])
    v.setflags(write=False)
    return v


def _trace_to_registers(rho: np.ndarray, p: int, keep: int) -> np.ndarray:
    """Partial trace keeping the first `keep` little-endian registers."""
    lo = p**keep
    hi = rho.shape[0] // lo
    t = rho.reshape(hi, lo, hi, lo)
    return np.einsum("abad->bd", t)


def _recovered_state(scheme, secret, B, outcomes) -> np.ndarray:
    """Density matrix of the dealer registers after recovery on B."""
    p = scheme.graph.p
    state = encode(scheme, secret, outcomes)
    B = sorted(B)
    positions = [scheme.players.index(b) for b in B]
    rho = reduced_density(state, positions)
    v = recovery_map(scheme, B)
    rho = v @ rho @ v.conj().T
    t = rho.reshape([p] * (2 * len(B)))  # row axes, then column axes
    for l, (bg, bh) in enumerate(outcomes):
        if (bg % p, bh % p) != (0, 0):
            u = ugh_matrix(p, bg, bh)
            # register l is row axis len(B)-1-l: U on the rows, conj(U) on the columns
            for ax, op in ((len(B) - 1 - l, u), (2 * len(B) - 1 - l, u.conj())):
                t = np.moveaxis(np.tensordot(op, t, axes=(1, ax)), 0, ax)
    return _trace_to_registers(t.reshape(rho.shape), p, scheme.L)


def _fidelity(scheme, secret, authorized, outcomes) -> float:
    """Encode with one Bell outcome per dealer, recover on `authorized`,
    undo the Bell corrections; returns the fidelity of the recovered
    registers with the secret."""
    s = _secret_array(scheme, secret)
    rho = _recovered_state(scheme, s, authorized, outcomes)
    return float(np.real(np.vdot(s, rho @ s)))


def run_threshold(scheme: ThresholdScheme, secret, authorized, outcome=(0, 0)) -> float:
    """The fidelity of recovery on `authorized` at Bell outcome `outcome`."""
    return _fidelity(scheme, secret, authorized, [tuple(outcome)])


def run_ramp(scheme: RampScheme, secrets, authorized) -> float:
    """Ramp recovery with all Bell outcomes fixed to (0, 0).

    `secrets` is either the joint p^L secret vector or a list of L
    per-dealer vectors (tensored little-endian, dealer 0 first). With
    L = 1 this is exactly the threshold path at outcome (0, 0).
    """
    if isinstance(secrets, (list, tuple)):
        s = np.array([1.0], dtype=np.complex128)
        for part in secrets:
            s = np.kron(np.asarray(part, dtype=np.complex128), s)
    else:
        s = secrets
    return _fidelity(scheme, s, authorized, [(0, 0)] * scheme.L)


def trace_distance(rho1: np.ndarray, rho2: np.ndarray) -> float:
    vals = np.linalg.eigvalsh(rho1 - rho2)
    return float(0.5 * np.abs(vals).sum())


def audit_forbidden(scheme, forbidden, trials: int, rng: np.random.Generator) -> float:
    """Max trace distance between a forbidden set's reduced states over
    `trials` random secret pairs, every Bell outcome (0, 0); ~0 certifies
    the set learns nothing."""
    p, L = scheme.graph.p, scheme.L
    F = sorted(forbidden)
    if not set(F) <= set(scheme.players):
        raise ValueError("forbidden set must consist of players")
    outcomes = [(0, 0)] * L
    positions = [scheme.players.index(f) for f in F]
    worst = 0.0
    for _ in range(trials):
        rhos = []
        for _ in range(2):
            s = random_secret(p, L, rng)
            state = encode(scheme, s, outcomes)
            rhos.append(reduced_density(state, positions))
        worst = max(worst, trace_distance(rhos[0], rhos[1]))
    return worst


def audit(scheme, secrets: int, rng: np.random.Generator):
    """Yield ("AUTH", players, min fidelity) per authorized set of m players,
    then ("FORBID", players, max trace distance) per forbidden set of 1 ... m - L
    players, in combinations order: `secrets` random secrets per Bell outcome
    (every one for a threshold scheme, (0, 0) for ramp), `secrets` pairs per set.
    A count below 1 would test nothing: ValueError before the first row."""
    if secrets < 1:
        raise ValueError(f"need at least one secret, got {secrets}")
    p, m, L = scheme.graph.p, scheme.m, scheme.L
    outcomes = list(product(range(p), repeat=2)) if isinstance(scheme, ThresholdScheme) else [(0, 0)]
    for b in combinations(scheme.players, m):
        worst = 1.0
        for outcome in outcomes:
            for _ in range(secrets):
                worst = min(worst, _fidelity(scheme, random_secret(p, L, rng), b, [outcome] * L))
        yield "AUTH", b, worst
    for size in range(1, m - L + 1):
        for f in combinations(scheme.players, size):
            yield "FORBID", f, audit_forbidden(scheme, f, secrets, rng)

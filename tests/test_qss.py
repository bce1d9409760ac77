import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amegraph import gfp, qss
from amegraph import simulator as sim
from amegraph.codes import code_to_ame_graph, grs_code
from amegraph.graph import graph_from_edges, op_mult, op_star, permute, truncate
from amegraph.witnesses import ame62, quad_weighted
from support import encode_symbolic, greedy_basis


@pytest.fixture(scope="module")
def quad_scheme():
    return qss.ThresholdScheme(quad_weighted(3), dealer=0)


@pytest.fixture(scope="module")
def scheme62():
    return qss.ThresholdScheme(ame62(), dealer=0)


def test_scheme_rejects_non_ame():
    c4 = graph_from_edges(2, 4, [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)])
    with pytest.raises(ValueError):
        qss.ThresholdScheme(c4)
    with pytest.raises(ValueError):
        qss.RampScheme(c4, (0, 1))


def test_scheme_shape():
    s = qss.ThresholdScheme(quad_weighted(3), dealer=1)
    assert s.m == 2 and s.players == (0, 2, 3)
    r = qss.RampScheme(ame62(), (2, 0))
    assert r.dealers == (0, 2) and r.L == 2
    assert r.players == (1, 3, 4, 5)
    with pytest.raises(ValueError, match="vertex 0 is given twice"):
        qss.RampScheme(ame62(), (0, 0))
    with pytest.raises(ValueError, match=r"vertex 6 is not in \[0, 6\)"):
        qss.RampScheme(ame62(), (0, 6))


def test_encode_zero_secret_is_truncated_graph_state(quad_scheme):
    s0 = np.array([1, 0, 0], dtype=complex)
    state = qss.encode(quad_scheme, s0, [(0, 0)])
    ref = sim.build_graph_state(truncate(quad_scheme.graph, [0]))
    assert abs(abs(sim.overlap(state, ref)) - 1) < 1e-9


def test_encode_outcome_probability_assert(quad_scheme):
    rng = np.random.default_rng(0)
    for outcome in itertools.product(range(3), repeat=2):
        s = qss.random_secret(3, 1, rng)
        state = qss.encode(quad_scheme, s, [outcome])
        assert state.n == 3  # players only


def test_encode_symbolic_matches_dense(quad_scheme):
    rng = np.random.default_rng(1)
    for outcome in ((0, 0), (1, 0), (0, 2), (2, 1)):
        s = qss.random_secret(3, 1, rng)
        dense = qss.encode(quad_scheme, s, [outcome])
        terms = encode_symbolic(quad_scheme, s, [outcome])
        total = sum(abs(c) ** 2 for c, _ in terms)
        assert abs(total - 1) < 1e-9
        rebuilt = sum(c * sim.build_labeled(lg).amps for c, lg in terms)
        assert abs(abs(np.vdot(rebuilt, dense.amps)) - 1) < 1e-9


def test_encode_symbolic_matches_dense_ramp():
    scheme = qss.RampScheme(ame62(), (0, 1))
    rng = np.random.default_rng(2)
    for o1 in itertools.product(range(2), repeat=2):
        for o2 in itertools.product(range(2), repeat=2):
            s = qss.random_secret(2, 2, rng)
            dense = qss.encode(scheme, s, [o1, o2])
            rebuilt = sum(c * sim.build_labeled(lg).amps
                          for c, lg in encode_symbolic(scheme, s, [o1, o2]))
            assert abs(abs(np.vdot(rebuilt, dense.amps)) - 1) < 1e-9


def test_recovery_map_unitary_and_sized(quad_scheme):
    v = qss.recovery_map(quad_scheme, (1, 2))
    assert v.shape == (9, 9)
    assert np.allclose(v @ v.conj().T, np.eye(9), atol=1e-9)


def test_recovery_map_all_triples(scheme62):
    for b in itertools.combinations(scheme62.players, 3):
        v = qss.recovery_map(scheme62, b)
        assert np.allclose(v @ v.conj().T, np.eye(8), atol=1e-9)



def test_recovery_map_bounds_its_square_by_the_cap():
    # at p=11 the map on three players holds 11^6 entries (27 MB): refused
    # before any is allocated; at p=7 its 7^6 entries are within the cap
    big = qss.ThresholdScheme(quad_weighted(11))
    tracemalloc.start()
    try:
        with pytest.raises(sim.TooLargeError, match="11\\^6 amplitudes exceed the cap"):
            qss.recovery_map(big, (1, 2, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    v = qss.recovery_map(qss.ThresholdScheme(quad_weighted(7)), (1, 2, 3))
    assert np.allclose(v @ v.conj().T, np.eye(343), atol=1e-9)

def test_recovery_map_too_small(quad_scheme):
    with pytest.raises(qss.NotAuthorizedError):
        qss.recovery_map(quad_scheme, (2,))


def test_recovery_map_rejects_dealer(quad_scheme):
    with pytest.raises(ValueError):
        qss.recovery_map(quad_scheme, (0, 1))
    # a repeated player is refused as such, not as a dependent row set
    with pytest.raises(ValueError, match="vertex 1 is given twice"):
        qss.recovery_map(quad_scheme, (1, 1, 2))


def _encode_by_kron(scheme, secret, outcomes):
    """Reference encoding: secret (x) graph amplitudes by np.kron, then one
    Bell measurement per (ancilla, dealer) pair, ancilla l being -1 - l."""
    g = scheme.graph
    state = sim.StateVector(g.p, g.n + len(outcomes), np.kron(secret, sim.graph_state_amplitudes(g)))
    labels = list(range(g.n)) + [-1 - l for l in range(len(outcomes))]
    for l, (dealer, (bg, bh)) in enumerate(zip(scheme.dealers, outcomes)):
        _, state = sim.bell_measure(state, (labels.index(-1 - l), labels.index(dealer)), bg, bh)
        labels = [v for v in labels if v not in (dealer, -1 - l)]
    return state


@pytest.mark.parametrize("scheme,outcomes", [
    (qss.ThresholdScheme(quad_weighted(7), 0), [(3, 5)]),
    (qss.RampScheme(ame62(), (1, 4)), [(1, 0), (1, 1)]),
], ids=["threshold", "ramp"])
def test_encode_matches_kron_reference(scheme, outcomes):
    s = qss.random_secret(scheme.graph.p, len(outcomes), np.random.default_rng(8))
    assert np.array_equal(qss.encode(scheme, s, outcomes).amps, _encode_by_kron(scheme, s, outcomes).amps)


def test_recovery_map_cached_per_set_and_read_only(quad_scheme):
    a = qss.recovery_map(quad_scheme, (2, 1))
    b = qss.recovery_map(quad_scheme, [1, 2])
    assert np.array_equal(a, b)
    for v in (a, b):
        assert not v.flags.writeable
        with pytest.raises(ValueError):
            v[0, 0] = 0


@pytest.mark.parametrize("authorized,error", [
    ((2,), qss.NotAuthorizedError), ((0, 1), ValueError), ((1, 1, 2), ValueError),
    ((1, 4), ValueError), ((-1, 2), ValueError),
], ids=["too-small", "dealer", "repeated", "past-n", "negative"])
def test_recovery_map_raises_on_every_bad_call(quad_scheme, authorized, error):
    # a failed call caches nothing, and a cached good set excuses no bad one
    for _ in range(2):
        with pytest.raises(error):
            qss.recovery_map(quad_scheme, authorized)
        qss.recovery_map(quad_scheme, (1, 2))


def test_run_threshold_unchanged_by_cache_clear(quad_scheme):
    s = qss.random_secret(3, 1, np.random.default_rng(21))
    first = qss.run_threshold(quad_scheme, s, (1, 3), (2, 1))
    qss._recovery_map.cache_clear()
    assert qss.run_threshold(quad_scheme, s, (1, 3), (2, 1)) == first


def test_threshold_fidelity_all_sets_outcomes(quad_scheme):
    rng = np.random.default_rng(3)
    for b in itertools.combinations(quad_scheme.players, 2):
        for outcome in itertools.product(range(3), repeat=2):
            s = qss.random_secret(3, 1, rng)
            assert qss.run_threshold(quad_scheme, s, b, outcome) >= 1 - 1e-9


def test_threshold_oversized_authorized_set(scheme62):
    rng = np.random.default_rng(4)
    s = qss.random_secret(2, 1, rng)
    assert qss.run_threshold(scheme62, s, (1, 2, 3, 4), (1, 1)) >= 1 - 1e-9
    assert qss.run_threshold(scheme62, s, scheme62.players, (0, 1)) >= 1 - 1e-9


def test_forbidden_sets_blind(quad_scheme):
    rng = np.random.default_rng(5)
    for f in quad_scheme.players:
        assert qss.audit_forbidden(quad_scheme, [f], 10, rng) <= 1e-9


def test_forbidden_pairs_blind_62(scheme62):
    rng = np.random.default_rng(6)
    for f in itertools.combinations(scheme62.players, 2):
        assert qss.audit_forbidden(scheme62, f, 5, rng) <= 1e-9


def test_ramp_recovers_both_registers():
    scheme = qss.RampScheme(ame62(), (0, 1))
    rng = np.random.default_rng(7)
    for b in itertools.combinations(scheme.players, 3):
        s = qss.random_secret(2, 2, rng)
        assert qss.run_ramp(scheme, s, b) >= 1 - 1e-9


def test_ramp_product_secret_list_form():
    scheme = qss.RampScheme(ame62(), (0, 1))
    rng = np.random.default_rng(8)
    parts = [qss.random_secret(2, 1, rng) for _ in range(2)]
    fid = qss.run_ramp(scheme, parts, (2, 3, 4))
    assert fid >= 1 - 1e-9


def test_ramp_on_quad_both_players():
    scheme = qss.RampScheme(quad_weighted(3), (0, 1))
    rng = np.random.default_rng(9)
    s = qss.random_secret(3, 2, rng)
    assert qss.run_ramp(scheme, s, (2, 3)) >= 1 - 1e-9


def test_ramp_intermediate_set_leaks():
    # a 2-player set in the (3,2,4) scheme sits between m-L and m: it is
    # neither authorized nor fully blind for generic secrets
    scheme = qss.RampScheme(ame62(), (0, 1))
    rng = np.random.default_rng(10)
    dist = qss.audit_forbidden(scheme, (2, 3), 10, rng)
    assert dist > 1e-3


def test_ramp_single_players_blind():
    scheme = qss.RampScheme(ame62(), (0, 1))
    rng = np.random.default_rng(11)
    for f in scheme.players:
        assert qss.audit_forbidden(scheme, [f], 10, rng) <= 1e-9


def test_ramp_l1_equals_threshold_bitwise():
    g = ame62()
    thr = qss.ThresholdScheme(g, dealer=0)
    ramp = qss.RampScheme(g, (0,))
    rng = np.random.default_rng(12)
    for b in itertools.combinations(thr.players, 3):
        s = qss.random_secret(2, 1, rng)
        assert qss.run_threshold(thr, s, b, (0, 0)) == qss.run_ramp(ramp, s, b)


def _recovered_by_kron(scheme, secret, B, outcomes):
    """Reference recovery: each Bell correction lifted to the full register
    space as I (x) U_gh (x) I, register l being little-endian digit l."""
    p, B = scheme.graph.p, sorted(B)
    state = qss.encode(scheme, secret, outcomes)
    rho = sim.reduced_density(state, [scheme.players.index(b) for b in B])
    v = qss.recovery_map(scheme, B)
    rho = v @ rho @ v.conj().T
    for l, (g, h) in enumerate(outcomes):
        lift = np.kron(np.eye(p ** (len(B) - l - 1)), sim.ugh_matrix(p, g, h))
        lift = np.kron(lift, np.eye(p**l))
        rho = lift @ rho @ lift.conj().T
    return qss._trace_to_registers(rho, p, len(outcomes))


def test_recovery_corrections_match_kron_lift(quad_scheme):
    rng = np.random.default_rng(31)
    ramp = qss.RampScheme(ame62(), (0, 1))
    cases = [(quad_scheme, (1, 2), [(1, 2)]), (quad_scheme, (1, 2, 3), [(2, 1)]),
             (ramp, (2, 4, 5), [(1, 1), (0, 1)]), (ramp, (2, 3, 4, 5), [(1, 0), (1, 1)])]
    for scheme, B, outcomes in cases:
        s = qss.random_secret(scheme.graph.p, len(outcomes), rng)
        want = _recovered_by_kron(scheme, s, B, outcomes)
        got = qss._recovered_state(scheme, s, B, outcomes)
        assert np.allclose(got, want, atol=1e-12)
        assert abs(np.vdot(s, got @ s).real - 1) < 1e-9


def test_trace_distance_basics():
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    assert abs(qss.trace_distance(a, b) - 1.0) < 1e-12
    assert qss.trace_distance(a, a) < 1e-12


@pytest.mark.parametrize("scheme,auth,forbid", [
    (qss.ThresholdScheme(quad_weighted(3), 0), [(1, 2), (1, 3), (2, 3)], [(1,), (2,), (3,)]),
    (qss.RampScheme(ame62(), (0, 1)), [(2, 3, 4), (2, 3, 5), (2, 4, 5), (3, 4, 5)],
     [(2,), (3,), (4,), (5,)]),
], ids=["threshold-quad", "ramp-ame62"])
def test_audit_yields_authorized_then_forbidden_sets(scheme, auth, forbid):
    rows = list(qss.audit(scheme, 2, np.random.default_rng(0)))
    assert [(kind, players) for kind, players, _ in rows] == \
        [("AUTH", b) for b in auth] + [("FORBID", f) for f in forbid]
    for kind, _, value in rows:
        assert value >= 1 - 1e-9 if kind == "AUTH" else value <= 1e-9


@pytest.mark.parametrize("secrets", [0, -1])
def test_audit_refuses_fewer_than_one_secret(quad_scheme, secrets):
    # no secret tested would pass every set vacuously
    with pytest.raises(ValueError, match="at least one secret"):
        next(qss.audit(quad_scheme, secrets, np.random.default_rng(0)))


def test_encode_reuses_the_scheme_state_across_alternating_schemes():
    schemes = [qss.ThresholdScheme(quad_weighted(3)), qss.RampScheme(ame62(), (0, 1)),
               qss.ThresholdScheme(ame62(), dealer=2)]
    rng = np.random.default_rng(4)
    calls = [(sc, qss.random_secret(sc.graph.p, len(sc.dealers), rng), [(1, 2)] * len(sc.dealers))
             for sc in schemes for _ in range(2)]
    fresh = []
    for sc, s, o in calls:
        qss._scheme_amplitudes.cache_clear()
        fresh.append(qss.encode(sc, s, o).amps)
    for order in (range(6), [0, 2, 4, 1, 3, 5]):  # in blocks per scheme, then alternating
        for i in order:
            sc, s, o = calls[i]
            assert np.array_equal(qss.encode(sc, s, o).amps, fresh[i])
    for sc in schemes:
        amps = qss._scheme_amplitudes(sc.graph)
        assert not amps.flags.writeable
        assert np.array_equal(amps, sim.graph_state_amplitudes(sc.graph))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.data())
def test_basis_completion_matches_greedy_loop(p, data):
    cols = data.draw(st.integers(1, 6))
    rows = data.draw(st.integers(1, cols))
    entry = st.one_of(st.just(0), st.integers(0, p - 1))  # zeros often, so last entries vary
    R = np.array(data.draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                                    min_size=rows, max_size=rows)), dtype=np.int64)
    if gfp.mat_rank(R, p) < rows:
        with pytest.raises(qss.NotAuthorizedError, match="restricted rows are dependent"):
            qss._complete_basis(R, p)
    else:
        assert np.array_equal(qss._complete_basis(R, p), greedy_basis(R, p))


# AME graphs whose encodings fit the dense cap at L = 1: the graphs of the
# [n, n/2] GRS codes, and the shipped witnesses
_AME_GRAPHS = [code_to_ame_graph(grs_code(p, n, n // 2))
               for p, n in ((2, 2), (3, 4), (5, 4), (5, 6), (7, 4), (7, 6), (11, 4))]
_AME_GRAPHS += [quad_weighted(3), ame62()]


def _players(draw, scheme, sizes):
    """Random players of the scheme, as many as a size drawn from `sizes`."""
    return tuple(draw(st.permutations(scheme.players))[: draw(st.sampled_from(sizes))])


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_AME_GRAPHS), st.data())
def test_scrambled_ame_schemes_share_and_hide(g, data):
    # local rewrites and a relabeling keep a graph AME, so every scheme on
    # it recovers on >= m players and hides from <= m - L
    draw = data.draw
    g = op_star(g, draw(st.integers(0, g.n - 1)), draw(st.integers(0, g.p - 1)))
    for v in range(g.n):
        g = op_mult(g, v, draw(st.integers(1, g.p - 1)))
    g = permute(g, draw(st.permutations(range(g.n))))
    p, m = g.p, g.n // 2
    L = draw(st.integers(1, max(L for L in range(1, m + 1) if p ** (g.n + L) <= sim.DEFAULT_CAP)))
    dealers = draw(st.permutations(range(g.n)))[:L]
    if L == 1 and draw(st.booleans()):
        scheme = qss.ThresholdScheme(g, dealers[0])
        outcome = (draw(st.integers(0, p - 1)), draw(st.integers(0, p - 1)))
    else:
        scheme, outcome = qss.RampScheme(g, dealers), None
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # authorized sets whose p^|B| x p^|B| recovery map fits the cap
    B = _players(draw, scheme, [b for b in range(m, g.n - L + 1) if p ** (2 * b) <= sim.DEFAULT_CAP])
    s = qss.random_secret(p, L, rng)
    fid = qss.run_ramp(scheme, s, B) if outcome is None else qss.run_threshold(scheme, s, B, outcome)
    assert fid >= 1 - 1e-9
    if m > L:
        assert qss.audit_forbidden(scheme, _players(draw, scheme, range(1, m - L + 1)), 2, rng) <= 1e-9

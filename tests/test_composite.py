import time

import numpy as np
import pytest

from amegraph import composite as comp
from amegraph.entanglement import is_ame
from amegraph.simulator import build_graph_state, cut_entropy_edits
from amegraph.witnesses import ame44_grouped, c5, quad_weighted, small_ame
from support import save_graph


@pytest.mark.parametrize("d,factors", [(6, [2, 3]), (4, [2, 2]), (12, [2, 2, 3]),
                                       (2, [2]), (30, [2, 3, 5])])
def test_factorize(d, factors):
    assert comp.factorize(d) == factors


def test_factorize_rejects_small():
    with pytest.raises(ValueError):
        comp.factorize(1)


def test_factorize_refuses_past_its_bound_before_dividing():
    # below 2^40 trial division takes at most 2^20 steps; past it, d is refused at once
    assert comp.factorize(2**40 - 1) == [3, 5, 5, 11, 17, 31, 41, 61681]
    for d in (2**40, 2147483647 * 2147483659):
        with pytest.raises(ValueError, match=r"is not below 2\^40"):
            comp.factorize(d)
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=r"is not below 2\^40"):
        comp.build_composite(5, 2147483647 * 2147483659)
    assert time.perf_counter() - t0 < 1.0


def test_build_ame_5_6():
    c = comp.build_composite(5, 6)
    assert [f.p for f in c.factors] == [2, 3]
    assert all(f.group_size == 1 for f in c.factors)
    rep = comp.verify_composite(c)
    assert rep.is_ame


def test_build_ame_4_4():
    c = comp.build_composite(4, 4)
    assert len(c.factors) == 1 and c.factors[0].group_size == 2
    rep = comp.verify_composite(c)
    assert rep.is_ame
    fr = rep.factors[0]
    assert sorted(fr.party_report.cut_ranks.values()) == [4, 4, 4]
    assert fr.ungrouped_report is not None and not fr.ungrouped_report.is_ame
    assert fr.ungrouped_report.witness is not None


def test_build_ame_4_2_missing():
    with pytest.raises(comp.MissingWitnessError):
        comp.build_composite(4, 2)


def test_build_checks_witness_shape():
    with pytest.raises(comp.MissingWitnessError):
        comp.build_composite(5, 6, {2: (c5(2), 1)})  # prime 3 missing
    with pytest.raises(comp.MissingWitnessError):
        comp.build_composite(4, 4, {2: (c5(2), 1)})  # wrong group size
    with pytest.raises(comp.MissingWitnessError):
        comp.build_composite(4, 6, {2: (c5(2), 1), 3: (c5(3), 1)})  # wrong n


def test_factor_order_independent_of_registry_order():
    a = comp.build_composite(5, 6, {3: (c5(3), 1), 2: (c5(2), 1)})
    b = comp.build_composite(5, 6, {2: (c5(2), 1), 3: (c5(3), 1)})
    assert [f.p for f in a.factors] == [f.p for f in b.factors] == [2, 3]


def test_single_factor_composite_is_plain_ame():
    c = comp.build_composite(4, 3)
    rep = comp.verify_composite(c)
    assert rep.is_ame
    assert rep.factors[0].ungrouped_report is None
    assert is_ame(c.factors[0].graph).is_ame


def test_entropy_additivity_ame44():
    g, gs = ame44_grouped()
    state = build_graph_state(g)
    for groups in [(0, 1), (0, 2), (0, 3)]:
        cut = [v for t in groups for v in range(t * gs, (t + 1) * gs)]
        # 4 qubit edits = 2 base-4 dits, maximal for half of four parties
        assert abs(cut_entropy_edits(state, cut) - 4.0) < 1e-6


def test_entropy_additivity_across_factors():
    # AME(5,6): a party cut carries rank*log2 + rank*log3 of entropy, read
    # off the literal tensor product of the two factor reductions
    import itertools

    from amegraph.entanglement import cut_edits
    from amegraph.simulator import cut_entropy_edits, reduced_density

    c = comp.build_composite(5, 6)
    states = {f.p: build_graph_state(f.graph) for f in c.factors}
    for cut in itertools.combinations(range(5), 2):
        rhos = [reduced_density(states[f.p], list(cut)) for f in c.factors]
        joint = np.kron(rhos[0], rhos[1])
        joint_entropy = sum(
            -v * np.log(v) for v in np.linalg.eigvalsh(joint) if v > 1e-12
        )
        want = sum(
            cut_edits(f.graph, cut) * np.log(f.p) for f in c.factors
        )
        assert abs(joint_entropy - want) < 1e-6
        f0 = c.factors[0]
        assert abs(cut_entropy_edits(states[f0.p], cut) - cut_edits(f0.graph, cut)) < 1e-6


def test_repeated_prime_needs_grouped_witness():
    # d = 9 has 3 twice; an ungrouped qutrit witness cannot cover it
    with pytest.raises(comp.MissingWitnessError):
        comp.build_composite(4, 9, {3: (quad_weighted(3), 1)})


def test_manifest_roundtrip(tmp_path):
    save_graph(c5(2), tmp_path / "f2.graph")
    save_graph(c5(3), tmp_path / "f3.graph")
    manifest = "factor 2 f2.graph groupsize 1\nfactor 3 f3.graph groupsize 1\n"
    c = comp.parse_manifest(manifest, tmp_path)
    assert c.n == 5 and c.d == 6
    rep = comp.verify_composite(c)
    text = comp.format_report(c, rep)
    assert text.splitlines()[0] == "COMPOSITE n=5 d=6"
    assert text.rstrip().endswith("RESULT pass")


def test_manifest_over_large_primes_needs_no_trial_division(tmp_path, monkeypatch):
    # d = 2147483647 * 2147483659 is about 2^62: trial division would take
    # about 2^31 steps, but both primes are the manifest's own
    def refuse(d):
        raise AssertionError(f"factorize({d}) called")

    primes = (2147483647, 2147483659)
    for p in primes:
        save_graph(small_ame(2, p), tmp_path / f"f{p}.graph")
    manifest = "".join(f"factor {p} f{p}.graph groupsize 1\n" for p in primes)
    monkeypatch.setattr(comp, "factorize", refuse)
    c = comp.parse_manifest(manifest, tmp_path)
    assert c.d == primes[0] * primes[1] and [f.p for f in c.factors] == list(primes)
    assert comp.verify_composite(c).is_ame


@pytest.mark.parametrize("n, d, registry, message", [
    (5, 6, {2: (c5(2), 1)}, "no witness for prime 3 (multiplicity 1)"),
    (5, 30, {3: (c5(3), 1)}, "no witness for prime 2 (multiplicity 1)"),
    (5, 6, {3: (c5(2), 1)}, "no witness for prime 2 (multiplicity 1)"),  # keyed by the wrong prime
    (4, 12, {2: (quad_weighted(3), 1)}, "witness for prime 2 has group size 1, need 2"),
    (4, 12, {3: (quad_weighted(3), 1)}, "no witness for prime 2 (multiplicity 2)"),
    (4, 8, {2: (ame44_grouped()[0], 2)}, "witness for prime 2 has group size 2, need 3"),
])
def test_cofactor_errors_keep_their_order(n, d, registry, message):
    # only the cofactor without witnesses is trial-divided; the errors and
    # the order they are raised in are those of factorising d whole
    with pytest.raises(comp.MissingWitnessError) as err:
        comp.build_composite(n, d, registry)
    assert str(err.value) == message
    with pytest.raises(ValueError, match="need d >= 2"):
        comp.build_composite(n, 1, registry)


def test_manifest_errors(tmp_path):
    save_graph(c5(2), tmp_path / "f2.graph")
    with pytest.raises(ValueError):
        comp.parse_manifest("factor 2 f2.graph\n", tmp_path)
    with pytest.raises(ValueError):
        comp.parse_manifest("", tmp_path)
    dup = "factor 2 f2.graph groupsize 1\nfactor 2 f2.graph groupsize 1\n"
    with pytest.raises(ValueError):
        comp.parse_manifest(dup, tmp_path)

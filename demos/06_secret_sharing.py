"""Quantum secret sharing on AME graph states, simulated exactly.

Threshold: the dealer Bell-measures a secret qutrit against their graph
qudit; any 2 of the 3 remaining players rebuild it perfectly while any
single player's state is independent of the secret. Ramp: two dealers
on a six-qubit state give a (3,2,4) scheme carrying a two-qubit secret.
"""

import itertools

import numpy as np

from amegraph import qss
from amegraph.witnesses import ame62, quad_weighted

rng = np.random.default_rng(1)
TOL = 1e-12  # a lone player's trace distance is round-off, whose digits depend on the BLAS build


def within(dist: float) -> str:
    return f"{'<=' if dist <= TOL else '>'} {TOL:.0e}"


print("((2,3)) threshold scheme on the four-qutrit AME state")
scheme = qss.ThresholdScheme(quad_weighted(3), dealer=0)
secret = qss.random_secret(3, 1, rng)
for authorized in itertools.combinations(scheme.players, 2):
    fids = [
        qss.run_threshold(scheme, secret, authorized, (g, h))
        for g in range(3)
        for h in range(3)
    ]
    label = "{%s}" % ",".join(str(v + 1) for v in authorized)
    print(f"  players {label}: min fidelity over all 9 Bell outcomes = {min(fids):.12f}")
for lone in scheme.players:
    dist = qss.audit_forbidden(scheme, [lone], 10, rng)
    print(f"  player {lone + 1} alone: max trace distance between secrets {within(dist)}")

print()
print("(3,2,4) ramp scheme on the six-qubit AME state, two dealers")
ramp = qss.RampScheme(ame62(), (0, 1))
secret2 = qss.random_secret(2, 2, rng)
for authorized in itertools.combinations(ramp.players, 3):
    fid = qss.run_ramp(ramp, secret2, authorized)
    label = "{%s}" % ",".join(str(v + 1) for v in authorized)
    print(f"  players {label}: two-qubit secret fidelity = {fid:.12f}")
for lone in ramp.players:
    dist = qss.audit_forbidden(ramp, [lone], 10, rng)
    print(f"  player {lone + 1} alone: max trace distance {within(dist)}")
pair = (2, 3)
dist = qss.audit_forbidden(ramp, pair, 10, rng)
print(f"  players {{3,4}} (intermediate set): trace distance = {dist:.3f} > 0,")
print("  between forbidden and authorized they learn something but not everything")

"""From a classical MDS code to an AME graph state, step by step.

An MDS [n, k] code (distance n - k + 1) with k = floor(n/2) or ceil(n/2)
yields a stabilizer state (X-type rows from the generator, Z-type rows
from the parity check) whose local-Clifford reduction is an AME graph
state. With evaluation codes this works for any number of parties once
p >= n - 1.
"""

from amegraph import codes
from amegraph.entanglement import is_ame
from amegraph.graph import format_graph
from amegraph.stabilizer import format_generator_matrix, to_graph

ham = codes.hamming433()
print("ternary [4,2,3] code, generator columns:")
print(ham.gen.T)
print("distance:", codes.min_distance(ham), "| MDS:", codes.is_mds(ham))
print("parity check (equals G^T: the code is self-dual):")
print(codes.parity_check(ham))

m = codes.ame_generator_matrix(ham)
print("\nstabilizer matrix (X | Z):")
print(format_generator_matrix(m), end="")

graph, transcript = to_graph(m)
print(f"\nreduced to graph form in {len(transcript)} local Clifford steps:")
print(format_graph(graph), end="")
print("AME(4,3)?", is_ame(graph).is_ame)

print("\nlarger fields, same pipeline:")
for p, n, k in ((5, 4, 2), (7, 6, 3), (13, 6, 3), (7, 7, 3)):
    code = codes.grs_code(p, n, k)
    g = codes.code_to_ame_graph(code)
    print(f"  GRS [{n},{k}]_{p}: distance {codes.min_distance(code)}, "
          f"graph AME = {is_ame(g).is_ame}")

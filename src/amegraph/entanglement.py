"""Bipartite entanglement of graph states and AME certification.

The entanglement between a vertex set K and its complement, measured in
edits (units of log p), equals the rank over Z_p of K's adjacency rows
restricted to the complement's columns. A state is absolutely maximally
entangled exactly when every cut of size floor(n/2) has full rank
floor(n/2); is_ame_grouped asks the same of the cuts that are unions of
floor(G/2) of G equal vertex groups.

cut_edits ranks one cut with scalar gfp.mat_rank, and the tests use it as
the oracle. is_ame and is_ame_grouped stack the cut matrices of one cut
size and rank them with gfp.rank_batch, whose forward elimination runs
over each cut's shorter side. Their reports list cuts in enumeration
order, and the witness is the first cut ranked below its size; fast mode
stops recording there. codes certifies [2k, k]_p codes through is_ame on
the graph their codeword state reduces to: the code is MDS exactly when
that graph is AME, since a size-k cut loses rank exactly when a nonzero
codeword vanishes on one side of it.

lc_orbit and its helpers explore the graphs that the two local rewrites
(op_mult, op_star) reach; every cut rank is the same across an orbit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import gfp
from .graph import Graph, canonical_form, op_mult, op_star


class UnequalGroupsError(ValueError):
    pass


@dataclass
class AmeReport:
    is_ame: bool
    witness: tuple[int, ...] | None
    cut_ranks: dict[tuple[int, ...], int] = field(default_factory=dict)


def cut_matrix(g: Graph, cut) -> np.ndarray:
    """|K| x (n - |K|) matrix of K's adjacency rows restricted to the rest."""
    cut = sorted(cut)
    drop = set(cut)
    keep = [u for u in range(g.n) if u not in drop]
    return g.adj[np.ix_(cut, keep)]


def cut_edits(g: Graph, cut) -> int:
    """Entanglement across the (cut, complement) bipartition, in edits."""
    cut = list(cut)
    if not 0 < len(cut) < g.n:
        raise ValueError("cut must be a proper nonempty vertex subset")
    return gfp.mat_rank(cut_matrix(g, cut), g.p)


_BATCH = 1 << 12  # cut matrices ranked per rank_batch call at most


def _certify(g: Graph, cut_lists, stop: bool) -> AmeReport:
    """Rank each list's cuts (one list per cut size) in batches of stacked
    cut matrices and record them in order; the witness is the first cut
    ranked below its size. With stop=True the batches grow 1, 8, 64, ...
    and recording ends at the witness."""
    report = AmeReport(True, None)
    for cuts in cut_lists:
        size = len(cuts[0])
        if not 0 < size < g.n:
            raise ValueError("cut must be a proper nonempty vertex subset")
        start, chunk = 0, 1 if stop else _BATCH
        while start < len(cuts):
            batch = cuts[start:start + chunk]
            inside = np.array(batch, dtype=np.int64)
            keep = np.ones((len(batch), g.n), dtype=bool)
            keep[np.arange(len(batch))[:, None], inside] = False
            rest = np.nonzero(keep)[1].reshape(len(batch), g.n - size)
            ranks = gfp.rank_batch(g.adj[inside[:, :, None], rest[:, None, :]], g.p)
            for cut, r in zip(batch, ranks.tolist()):
                report.cut_ranks[cut] = r
                if r < size:
                    report.is_ame = False
                    if report.witness is None:
                        report.witness = cut
                    if stop:
                        return report
            start += chunk
            chunk = min(8 * chunk, _BATCH)
    return report


def is_ame(g: Graph, full: bool = False) -> AmeReport:
    """Check the rank criterion on every cut of size floor(n/2).

    Fast mode stops at the first failing cut; the report then holds the
    ranks examined so far. full=True records every cut of every size up
    to floor(n/2) (smaller cuts are implied, so this is a self-test).
    Cuts are enumerated in lexicographic order and the witness is the
    first failure.
    """
    if g.n < 2:
        raise ValueError("need at least two vertices")
    m = g.n // 2
    sizes = range(1, m + 1) if full else (m,)
    return _certify(g, [list(combinations(range(g.n), size)) for size in sizes], stop=not full)


def is_ame_grouped(g: Graph, groups) -> AmeReport:
    """Rank criterion at the granularity of equal-size vertex groups.

    groups partitions the vertices into parties; only bipartitions that
    keep each group intact are checked, with K a union of floor(G/2)
    groups. For an even group count, complementary cuts are skipped.
    """
    groups = [tuple(sorted(grp)) for grp in groups]
    sizes = {len(grp) for grp in groups}
    if len(sizes) != 1:
        raise UnequalGroupsError("groups must have equal sizes")
    flat = sorted(v for grp in groups for v in grp)
    if flat != list(range(g.n)):
        raise UnequalGroupsError("groups must partition the vertices")
    return _certify(g, [party_cuts(groups)], stop=False)


def party_cuts(groups, size: int | None = None) -> list[tuple[int, ...]]:
    """Sorted unions of `size` (default floor(G/2)) of the G groups, in
    lexicographic order of the chosen groups; when 2 * size = G only those
    holding group 0, since the others are complements."""
    gcount = len(groups)
    size = gcount // 2 if size is None else size
    return [
        tuple(sorted(v for t in chosen for v in groups[t]))
        for chosen in combinations(range(gcount), size)
        if 2 * size != gcount or 0 in chosen
    ]


@dataclass
class OrbitResult:
    graphs: list[Graph]
    truncated: bool


def _rewrite_neighbors(g: Graph):
    for v in range(g.n):
        for b in range(2, g.p):
            yield op_mult(g, v, b)
        for a in range(1, g.p):
            yield op_star(g, v, a)


def lc_orbit(g: Graph, max_nodes: int) -> OrbitResult:
    """Breadth-first set of graphs reachable by the two local rewrites.

    Deduplicates by exact adjacency so rewrite paths stay reconstructible;
    stops once max_nodes graphs have been collected and flags truncation.
    """
    seen = {g}
    order = [g]
    frontier = [g]
    truncated = False
    while frontier:
        nxt = []
        for cur in frontier:
            for nb in _rewrite_neighbors(cur):
                if nb in seen:
                    continue
                if len(seen) >= max_nodes:
                    truncated = True
                    return OrbitResult(order, truncated)
                seen.add(nb)
                order.append(nb)
                nxt.append(nb)
        frontier = nxt
    return OrbitResult(order, truncated)


def lc_orbit_canonical(g: Graph, max_nodes: int) -> OrbitResult:
    """lc_orbit collapsed by canonical form (one representative per class)."""
    res = lc_orbit(g, max_nodes)
    seen: dict[Graph, Graph] = {}
    for gr in res.graphs:
        seen.setdefault(canonical_form(gr), gr)
    return OrbitResult(list(seen.keys()), res.truncated)


def min_edge_representative(g: Graph, max_nodes: int) -> Graph:
    """Orbit member with the fewest edges; canonical-form order breaks ties."""
    res = lc_orbit(g, max_nodes)
    return min(
        res.graphs,
        key=lambda gr: (gr.edge_count(), canonical_form(gr).adj.tobytes(), gr.adj.tobytes()),
    )


def format_report(report: AmeReport) -> str:
    """Line format: `AME yes|no`, optional `WITNESS ...`, then CUT lines."""
    lines = [f"AME {'yes' if report.is_ame else 'no'}"]
    if report.witness is not None:
        lines.append("WITNESS " + ",".join(str(v + 1) for v in report.witness))
    for cut, rank in report.cut_ranks.items():
        cset = ",".join(str(v + 1) for v in cut)
        lines.append(f"CUT {{{cset}}} RANK {rank}")
    return "\n".join(lines) + "\n"

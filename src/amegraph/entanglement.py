"""Bipartite entanglement of graph states and AME certification.

The entanglement between a vertex set K and its complement, measured in
edits (units of log p), equals the rank over Z_p of K's adjacency rows
restricted to the complement's columns. A state is absolutely maximally
entangled exactly when every cut of size floor(n/2) has full rank
floor(n/2); is_ame_grouped asks the same of the cuts that are unions of
floor(G/2) of G equal vertex groups.

cut_edits ranks one cut with scalar gfp.mat_rank, and the tests use it as
the oracle. Batched cut ranks take their cuts from one cut_plan, which
is_ame and is_ame_grouped gather from the graph's edge word and rank with
gfp.rank_stack. Their reports list cuts in enumeration order, and the
witness is the first cut ranked below its size; fast mode stops
recording there. At even n, is_ame ranks only the half cuts holding
vertex 0, which come first in lexicographic order, and reports the rest,
their complements in reverse order, with the same ranks (rank(A^T) =
rank(A)). codes certifies [n, k]_p codes through is_ame on the graph
their codeword state reduces to, whose cut (A, A') has rank
rank G[A] + rank G[A'] - k for the code's generator matrix G.

lc_orbit and its helpers explore the graphs that the two local rewrites
(op_mult, op_star) reach; every cut rank is the same across an orbit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, islice

import numpy as np

from . import gfp
from .graph import Graph, canonical_form, edge_word, op_mult, op_star, slot_matrix, vertex_list


class UnequalGroupsError(ValueError):
    pass


@dataclass
class AmeReport:
    is_ame: bool
    witness: tuple[int, ...] | None
    cut_ranks: dict[tuple[int, ...], int] = field(default_factory=dict)


def cut_matrix(g: Graph, cut) -> np.ndarray:
    """|K| x (n - |K|) matrix of K's adjacency rows restricted to the rest:
    K's rows are taken first, then the rest's columns of them."""
    cut = sorted(cut)
    drop = set(cut)
    return g.adj.take(cut, axis=0).take([u for u in range(g.n) if u not in drop], axis=1)


def cut_edits(g: Graph, cut) -> int:
    """Entanglement across the (cut, complement) bipartition, in edits."""
    cut = vertex_list(g.n, cut)
    if not 0 < len(cut) < g.n:
        raise ValueError("cut must be a proper nonempty vertex subset")
    return gfp.mat_rank(cut_matrix(g, cut), g.p)


_BATCH = 1 << 12  # cut matrices ranked per gfp.rank_stack call at most


def _certify(report: AmeReport, g: Graph, plan: CutPlan, stop: bool) -> list[int] | None:
    """Rank the plan's cuts in batches of cut blocks gathered from g's edge
    word and record them in order; the witness is the first cut ranked
    below its size. With stop=True the batches are 1, 64, 4096, 4096, ...
    (gfp._ELIM_CALL-fold, up to _BATCH): a graph failing its first cut pays
    one small call, and a later call's fixed cost stays small against its
    matrices. Recording ends at the witness, and None is returned; else
    the ranks."""
    word = edge_word(g)
    ranks = []
    start, chunk = 0, 1 if stop else _BATCH
    while start < len(plan.cuts):
        blocks = word[plan.cols[start:start + chunk]].reshape(-1, plan.rows, plan.width)
        ranks += gfp.rank_stack(blocks, g.p).tolist()
        for cut, r in zip(plan.cuts[start:start + chunk], ranks[start:]):
            report.cut_ranks[cut] = r
            if r < plan.rows:
                report.is_ame = False
                if report.witness is None:
                    report.witness = cut
                if stop:
                    return None
        start += chunk
        chunk = min(gfp._ELIM_CALL * chunk, _BATCH)
    return ranks


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
    report = AmeReport(True, None)
    singles = tuple((v,) for v in range(g.n))
    for size in range(1, m + 1) if full else (m,):
        plan = cut_plan(g.n, singles, size)
        ranks = _certify(report, g, plan, stop=not full)
        if ranks is None:
            return report
        if 2 * size == g.n:  # the complements, in reverse order of their cuts
            rest = islice(combinations(range(g.n), size), len(ranks), None)
            report.cut_ranks.update(zip(rest, reversed(ranks)))
    return report


def is_ame_grouped(g: Graph, groups) -> AmeReport:
    """Rank criterion at the granularity of equal-size vertex groups.

    groups partitions the vertices into parties; only bipartitions that
    keep each group intact are checked, with K a union of floor(G/2)
    groups. For an even group count, complementary cuts are skipped.
    """
    groups = tuple(tuple(sorted(grp)) for grp in groups)
    sizes = {len(grp) for grp in groups}
    if len(sizes) != 1:
        raise UnequalGroupsError("groups must have equal sizes")
    flat = sorted(v for grp in groups for v in grp)
    if flat != list(range(g.n)):
        raise UnequalGroupsError("groups must partition the vertices")
    report = AmeReport(True, None)
    _certify(report, g, cut_plan(g.n, groups, len(groups) // 2), stop=False)
    return report


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


@dataclass(frozen=True)
class CutPlan:
    """The cuts of party_cuts(groups, size), each a rows x width cross block
    of the rows of its vertices at the columns of the others, and `cols`:
    row c holds cut c's block, row-major, as edge slots of an edge word."""
    cuts: tuple[tuple[int, ...], ...]
    cols: np.ndarray
    rows: int
    width: int


@lru_cache(maxsize=16)
def cut_plan(n: int, groups: tuple[tuple[int, ...], ...], size: int) -> CutPlan:
    """The CutPlan of party_cuts(groups, size) on n vertices. The slots are
    held in the smallest unsigned dtype, and the plan is cached."""
    cuts = tuple(party_cuts(groups, size))
    rows = len(cuts[0])
    if not 0 < rows < n:
        raise ValueError("cut must be a proper nonempty vertex subset")
    inside = np.array(cuts, dtype=np.intp)
    keep = np.ones((len(cuts), n), dtype=bool)
    keep[np.arange(len(cuts))[:, None], inside] = False
    rest = np.nonzero(keep)[1].reshape(len(cuts), n - rows)
    slots = slot_matrix(n).astype(np.min_scalar_type(max(n * (n - 1) // 2 - 1, 0)))
    cols = slots[inside[:, :, None], rest[:, None, :]].reshape(len(cuts), -1)
    cols.setflags(write=False)
    return CutPlan(cuts, cols, rows, n - rows)


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

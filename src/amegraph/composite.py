"""AME states for composite local dimension via prime-factor witnesses.

A d-dimensional AME state on n parties is assembled from one graph per
prime power in d = prod p_i^mu_i: a prime appearing mu times is covered
by a single grouped graph on mu * n vertices (n consecutive groups of
size mu) that is AME at party granularity. Verification applies the
rank criterion per factor; entanglement across a party cut is the sum
of the factor cut ranks in mixed-base edits.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .entanglement import AmeReport, is_ame, is_ame_grouped
from .gfp import factorize
from .graph import Graph, load_graph
from . import witnesses


class MissingWitnessError(ValueError):
    pass


@dataclass(frozen=True)
class CompositeFactor:
    p: int
    graph: Graph
    group_size: int

    @property
    def groups(self) -> list[tuple[int, ...]]:
        gs = self.group_size
        return [tuple(range(t * gs, (t + 1) * gs)) for t in range(self.graph.n // gs)]


@dataclass(frozen=True)
class CompositeAme:
    n: int
    d: int
    factors: tuple[CompositeFactor, ...]


def default_registry(n: int, d: int) -> dict[int, tuple[Graph, int]]:
    """Built-in witness per distinct prime of d, keyed by prime.

    Covers the shipped graphs: the five-cycle (n = 5, any p), the
    weighted four-cycle (n = 4, p >= 3), the AME(6,2) graph, the grouped
    AME(4,4) graph, and the trivial n = 2, 3 graphs.
    """
    registry: dict[int, tuple[Graph, int]] = {}
    counts: dict[int, int] = {}
    for p in factorize(d):
        counts[p] = counts.get(p, 0) + 1
    for p, mu in counts.items():
        if mu == 1:
            if n in (2, 3):
                registry[p] = (witnesses.small_ame(n, p), 1)
            elif n == 4 and p >= 3:
                registry[p] = (witnesses.quad_weighted(p), 1)
            elif n == 5:
                registry[p] = (witnesses.c5(p), 1)
            elif n == 6 and p == 2:
                registry[p] = (witnesses.ame62(), 1)
        elif mu == 2 and n == 4 and p == 2:
            g, gs = witnesses.ame44_grouped()
            registry[p] = (g, gs)
    return registry


def _prime_counts(d: int, registry) -> dict[int, int]:
    """Each prime factor of d with its multiplicity. The registry's primes
    (keys whose witness graph is over that prime, which Graph checks) are
    divided out first; only the cofactor left, whose primes have no
    witness, is trial-divided by factorize, which also refuses d < 2."""
    counts: dict[int, int] = {}
    rest = d
    if d >= 2:
        for p in sorted(q for q, (g, _) in registry.items() if g.p == q):
            while rest % p == 0:
                counts[p] = counts.get(p, 0) + 1
                rest //= p
    if rest > 1 or not counts:
        for p in factorize(rest):
            counts[p] = counts.get(p, 0) + 1
    return counts


def build_composite(n: int, d: int, registry=None) -> CompositeAme:
    """Assemble and validate a CompositeAme from per-prime witnesses.

    `registry` maps prime -> (graph, group_size); group_size must equal
    the prime's multiplicity in d and the graph must pass the grouped
    rank criterion. Factors are ordered by prime.
    """
    if registry is None:
        registry = default_registry(n, d)
    counts = _prime_counts(d, registry)
    factors = []
    for p in sorted(counts):
        mu = counts[p]
        if p not in registry:
            raise MissingWitnessError(f"no witness for prime {p} (multiplicity {mu})")
        g, gs = registry[p]
        if gs != mu:
            raise MissingWitnessError(
                f"witness for prime {p} has group size {gs}, need {mu}"
            )
        if g.p != p or g.n != n * gs:
            raise MissingWitnessError(
                f"witness for prime {p} must be a {n * gs}-vertex graph over Z_{p}"
            )
        factor = CompositeFactor(p, g, gs)
        report = (
            is_ame(g) if gs == 1 else is_ame_grouped(g, factor.groups)
        )
        if not report.is_ame:
            raise MissingWitnessError(
                f"witness for prime {p} fails the rank criterion at cut {report.witness}"
            )
        factors.append(factor)
    return CompositeAme(n, d, tuple(factors))


@dataclass
class FactorReport:
    p: int
    group_size: int
    party_report: AmeReport
    ungrouped_report: AmeReport | None  # only for grouped factors


@dataclass
class CompositeReport:
    is_ame: bool
    factors: list[FactorReport]


def verify_composite(c: CompositeAme) -> CompositeReport:
    """Party-level rank criterion per factor; grouped factors also get an
    ungrouped vertex-level check (informational: a grouped witness is
    normally not AME when its groups are split)."""
    reports = []
    ok = True
    for f in c.factors:
        party = is_ame(f.graph) if f.group_size == 1 else is_ame_grouped(f.graph, f.groups)
        ok = ok and party.is_ame
        ungrouped = None
        if f.group_size > 1:
            ungrouped = is_ame(f.graph)
        reports.append(FactorReport(f.p, f.group_size, party, ungrouped))
    return CompositeReport(ok, reports)


def parse_manifest(text: str, base_dir=".") -> CompositeAme:
    """Manifest lines: `factor p FILE groupsize g`; d is the product of
    p^g over the lines, and every file must describe the same parties."""
    base = Path(base_dir)
    entries = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 5 or parts[0] != "factor" or parts[3] != "groupsize":
            raise ValueError(f"bad manifest line: {raw!r}")
        p, g, gs = int(parts[1]), load_graph(base / parts[2]), int(parts[4])
        if p != g.p or not 1 <= gs <= g.n:  # else d = prod p^gs could take a huge p or gs
            raise ValueError(f"bad manifest line: {raw!r} (the graph has p = {g.p} and {g.n} vertices)")
        entries.append((p, g, gs))
    if not entries:
        raise ValueError("empty manifest")
    n_parties = {g.n // gs for _, g, gs in entries}
    if len(n_parties) != 1:
        raise ValueError("factors disagree on the number of parties")
    n = n_parties.pop()
    d = 1
    registry = {}
    for p, g, gs in entries:
        if p in registry:
            raise ValueError(f"prime {p} listed twice; use a grouped witness instead")
        registry[p] = (g, gs)
        d *= p**gs
    return build_composite(n, d, registry)


def format_report(c: CompositeAme, report: CompositeReport) -> str:
    lines = [f"COMPOSITE n={c.n} d={c.d}"]
    for fr in report.factors:
        lines.append(
            f"FACTOR p={fr.p} groupsize={fr.group_size} "
            f"AME {'yes' if fr.party_report.is_ame else 'no'}"
        )
        for cut, rank in fr.party_report.cut_ranks.items():
            cset = ",".join(str(v + 1) for v in cut)
            lines.append(f"  CUT {{{cset}}} RANK {rank}")
        if fr.ungrouped_report is not None:
            ug = fr.ungrouped_report
            status = "yes" if ug.is_ame else "no"
            lines.append(f"  UNGROUPED AME {status}")
            if ug.witness is not None:
                wset = ",".join(str(v + 1) for v in ug.witness)
                lines.append(f"  UNGROUPED WITNESS {wset}")
    lines.append(f"RESULT {'pass' if report.is_ame else 'fail'}")
    return "\n".join(lines) + "\n"

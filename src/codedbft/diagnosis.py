"""Dispute-graph fault localization.

A complete trust graph over processors 1..n loses an edge whenever two
processors' broadcast claims about the same message contradict; at least
one endpoint of every removed edge lied, so the edge never returns. A
vertex that loses t+1 edges cannot be fault-free (that would take t+1
faulty neighbours) and is convicted; conviction removes its remaining
edges, which can convict further vertices. A conviction is reported
alone: the edges it drops are implied by it, never listed as events.
The graph is shared protocol state: every processor derives the
identical graph from broadcast data, so one instance per execution
suffices.

`removed` is the frozenset of removed edges. With n it fixes the whole
graph, so it keys state derived from the graph alone, such as a
generation's send obligations, across graphs and executions.
"""

from __future__ import annotations


class ConfigurationError(ValueError):
    """Protocol parameters violate a resilience bound."""


# ("edge", i, j) with i < j, or ("convicted", v) without the edges it drops
Event = tuple


class TrustGraph:
    """Complete graph K_n minus dispute edges; t+1 losses convict."""

    def __init__(self, n: int, t: int):
        if t < 0:
            raise ConfigurationError(f"fault bound must be nonnegative, got {t}")
        if n < 3 * t + 1:
            raise ConfigurationError(f"need n >= 3t+1, got n={n}, t={t}")
        self.n = n
        self.t = t
        self._adj: dict[int, set[int]] = {
            v: set(range(1, n + 1)) - {v} for v in range(1, n + 1)
        }
        self.convicted: set[int] = set()
        # removed edges (i, j), i < j, frozen anew by every effective drop
        self.removed: frozenset[tuple[int, int]] = frozenset()

    # ------------------------------------------------------------ queries

    def _check_vertex(self, v: int) -> None:
        if not 1 <= v <= self.n:
            raise ValueError(f"vertex {v} out of range 1..{self.n}")

    def edge_present(self, i: int, j: int) -> bool:
        self._check_vertex(i)
        self._check_vertex(j)
        return j in self._adj[i]

    def neighbours(self, v: int) -> set[int]:
        """The vertices v trusts besides itself; read only."""
        return self._adj[v]

    def removed_count(self, v: int) -> int:
        self._check_vertex(v)
        return (self.n - 1) - len(self._adj[v])

    def unconvicted(self) -> list[int]:
        return [v for v in range(1, self.n + 1) if v not in self.convicted]

    # ----------------------------------------------------------- mutation

    def remove_edge(self, i: int, j: int) -> list[Event]:
        """Record a dispute; returns its edge, then the convictions it causes."""
        if i == j:
            raise ValueError("no self-loops in the trust graph")
        if not self.edge_present(i, j):
            return []
        self._drop(i, [j])
        return [("edge", min(i, j), max(i, j)), *self._settle()]

    def convict(self, v: int) -> list[Event]:
        """Mark v faulty outright (all processors saw the same proof)."""
        self._check_vertex(v)
        if v in self.convicted:
            return []
        return [self._convict_now(v), *self._settle()]

    def _drop(self, v: int, others: list[int]) -> None:
        """Remove the edges from v to each of `others`, freezing once."""
        for u in others:
            self._adj[v].discard(u)
            self._adj[u].discard(v)
        self.removed = self.removed.union((min(v, u), max(v, u)) for u in others)

    def _convict_now(self, v: int) -> Event:
        self.convicted.add(v)
        self._drop(v, sorted(self._adj[v]))
        return ("convicted", v)

    def _settle(self) -> list[Event]:
        """Threshold convictions to fixpoint, lowest vertex first."""
        events: list[Event] = []
        changed = True
        while changed:
            changed = False
            for v in range(1, self.n + 1):
                if v in self.convicted:
                    continue
                if self.removed_count(v) >= self.t + 1:
                    events.append(self._convict_now(v))
                    changed = True
                    break
        return events

    # -------------------------------------------------------- transcripts

    def to_jsonable(self) -> dict:
        return {
            "n": self.n,
            "t": self.t,
            "removed_edges": [list(edge) for edge in sorted(self.removed)],
            "convicted": sorted(self.convicted),
        }

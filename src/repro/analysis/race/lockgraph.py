"""Lock-order graph: deadlock *potential* detection (MCH040).

A deadlock needs a cycle in the lock-acquisition-order graph, but any
single run usually serializes the acquisitions and never trips it.  The
graph persists the order across the whole session: whenever a ULT
acquires mutex B while holding mutex A, the edge ``A -> B`` is recorded;
a cycle among the recorded edges is reported (MCH040) even though no
run ever actually deadlocked.  The per-ULT held table is also what the
runtime checker reads for MCH011 (suspending or finishing while holding).
"""

from __future__ import annotations

from typing import Any, Optional

__all__ = ["LockOrderGraph"]


class LockOrderGraph:
    """Acquisition-order edges between mutexes, plus per-ULT held sets."""

    def __init__(self) -> None:
        #: id(mutex) -> (mutex, display name); strong ref pins id().
        self.locks: dict[int, tuple[Any, str]] = {}
        #: id(mutex) -> ordered {id(successor): (held name, acq name, where)}.
        self.edges: dict[int, dict[int, tuple[str, str, str]]] = {}
        #: id(ult) -> (ult, [lock ids in acquisition order]), for ULTs
        #: holding at least one mutex.
        self.held: dict[int, tuple[Any, list[int]]] = {}
        #: cycle signatures already reported (frozenset of lock ids).
        self.reported_cycles: set[frozenset[int]] = set()
        self._counter = 0

    # ------------------------------------------------------------------
    def name_of(self, mutex: Any) -> str:
        entry = self.locks.get(id(mutex))
        if entry is None:
            self._counter += 1
            name = getattr(mutex, "name", "") or f"mutex-{self._counter}"
            self.locks[id(mutex)] = (mutex, name)
            return name
        return entry[1]

    def held_names(self, ult: Any) -> list[str]:
        entry = self.held.get(id(ult))
        if entry is None:
            return []
        return [self.locks[lid][1] for lid in entry[1]]

    # ------------------------------------------------------------------
    def note_acquire(self, ult: Any, mutex: Any, where: str) -> Optional[list[str]]:
        """Record the acquisition; return a cycle (as lock names) if this
        edge closes a previously-unreported one."""
        name = self.name_of(mutex)
        mid = id(mutex)
        entry = self.held.get(id(ult))
        if entry is None:
            entry = self.held[id(ult)] = (ult, [])
        held_ids = entry[1]
        cycle: Optional[list[str]] = None
        for held_id in held_ids:
            if held_id == mid:
                continue
            succ = self.edges.setdefault(held_id, {})
            if mid not in succ:
                succ[mid] = (self.locks[held_id][1], name, where)
            found = self._find_path(mid, held_id)
            if found is not None:
                signature = frozenset(found)
                if signature not in self.reported_cycles:
                    self.reported_cycles.add(signature)
                    cycle = [self.locks[lid][1] for lid in found + [found[0]]]
        held_ids.append(mid)
        return cycle

    def note_release(self, ult: Any, mutex: Any) -> None:
        mid = id(mutex)
        entry = self.held.get(id(ult))
        if entry is None or mid not in entry[1]:
            # Cross-ULT release (legal for handoff protocols): find the holder.
            entry = next((e for e in self.held.values() if mid in e[1]), None)
            if entry is None:
                return
        entry[1].remove(mid)
        if not entry[1]:
            del self.held[id(entry[0])]

    def _find_path(self, start: int, goal: int) -> Optional[list[int]]:
        """DFS over recorded edges; returns the lock-id path start..goal."""
        stack: list[tuple[int, list[int]]] = [(start, [start])]
        seen: set[int] = set()
        while stack:
            node, path = stack.pop()
            if node == goal:
                return path
            if node in seen:
                continue
            seen.add(node)
            for succ in self.edges.get(node, {}):
                if succ not in seen:
                    stack.append((succ, path + [succ]))
        return None

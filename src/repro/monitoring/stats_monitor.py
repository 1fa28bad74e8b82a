"""The default monitoring implementation: Listing-1 statistics.

Captures, per RPC *context key*
``"<parent_rpc_id>:<parent_provider_id>:<rpc_id>:<provider_id>"``
(exactly the key format of paper Listing 1), streaming statistics for
every phase of the RPC lifecycle, split by origin/target role and by
peer address ("received from na+sm://..." / "sent to ...").

The collected document is available at run time via :meth:`to_json`
(the paper: "makes them available at run time via an API") and is
dumped as JSON on finalize when a ``dump_callback`` is provided (the
paper: "outputs them as JSON when shutting down the service").
"""

from __future__ import annotations

import json
from typing import Any, Callable, Optional

from .monitor import Monitor
from .statistics import RunningStats

__all__ = ["StatisticsMonitor"]


class _RpcRecord:
    """Statistics for one RPC context key."""

    __slots__ = ("rpc_id", "provider_id", "parent_rpc_id", "parent_provider_id", "name",
                 "origin", "target")

    def __init__(self, request: Any) -> None:
        self.rpc_id = request.rpc_id
        self.provider_id = request.provider_id
        self.parent_rpc_id = request.parent_rpc_id
        self.parent_provider_id = request.parent_provider_id
        self.name = request.rpc_name
        # origin: per destination address -> phase -> RunningStats
        self.origin: dict[str, dict[str, RunningStats]] = {}
        # target: per source address -> phase -> RunningStats
        self.target: dict[str, dict[str, RunningStats]] = {}

    def to_json(self) -> dict[str, Any]:
        def render(side: dict[str, dict[str, RunningStats]], prefix: str) -> dict:
            out: dict[str, Any] = {}
            for peer, phases in side.items():
                peer_doc: dict[str, Any] = {}
                for phase, stats in phases.items():
                    if phase.startswith("ult_"):
                        # Listing 1 nests ULT phases under "ult".
                        peer_doc.setdefault("ult", {})[phase[4:]] = stats.to_json()
                    else:
                        peer_doc[phase] = stats.to_json()
                out[f"{prefix} {peer}"] = peer_doc
            return out

        return {
            "rpc_id": self.rpc_id,
            "provider_id": self.provider_id,
            "parent_rpc_id": self.parent_rpc_id,
            "parent_provider_id": self.parent_provider_id,
            "name": self.name,
            "origin": render(self.origin, "sent to"),
            "target": render(self.target, "received from"),
        }


class StatisticsMonitor(Monitor):
    """Aggregates per-RPC statistics in the paper's Listing-1 schema.

    The hooks key records by the four context ints and peers by
    address; :meth:`to_json` alone formats their Listing-1 text.  It
    sees every request a Margo instance handles: it rides no sampling
    decision.

    Parameters
    ----------
    dump_callback:
        Optional ``callable(json_text)`` invoked on finalize with the
        full JSON document (models Margo writing the stats file at
        shutdown).
    """

    def __init__(self, dump_callback: Optional[Callable[[str], None]] = None) -> None:
        #: (parent_rpc_id, parent_provider_id, rpc_id, provider_id) -> record
        self._rpcs: dict[tuple[int, int, int, int], _RpcRecord] = {}
        #: (those four ints, peer, phase) -> RunningStats: a hook's one lookup
        self._stats: dict[tuple, RunningStats] = {}
        self._bulk = RunningStats()
        self._bulk_bytes = RunningStats()
        #: id(request) -> forward start, for forwards not yet on the wire.
        self._pending_forward: dict[int, float] = {}
        self.dump_callback = dump_callback
        self.finalized_at: Optional[float] = None

    # ------------------------------------------------------------------
    def _record(self, request: Any) -> _RpcRecord:
        key = (request.parent_rpc_id, request.parent_provider_id,
               request.rpc_id, request.provider_id)
        record = self._rpcs.get(key)
        if record is None:
            record = self._rpcs[key] = _RpcRecord(request)
        return record

    def _new_stats(self, key: tuple, request: Any, side: str) -> RunningStats:
        """``key``'s stats, made in the nested record (the JSON's order)."""
        stats = self._stats[key] = RunningStats()
        getattr(self._record(request), side).setdefault(key[4], {})[key[5]] = stats
        return stats

    # ---- origin (client) side ----------------------------------------
    def on_forward_start(self, time: float, margo: Any, request: Any) -> None:
        self._pending_forward[id(request)] = time

    def on_forward_sent(self, time: float, margo: Any, request: Any) -> None:
        # Popped here, its only reader: a forward that times out never
        # reaches on_response_received.
        started = self._pending_forward.pop(id(request), None)
        if started is None:
            return
        # wire-bound serialization+send phase
        key = (request.parent_rpc_id, request.parent_provider_id, request.rpc_id,
               request.provider_id, request.dst_address, "serialize")
        (self._stats.get(key) or self._new_stats(key, request, "origin")).update(time - started)

    def on_response_received(
        self, time: float, margo: Any, request: Any, response: Any, elapsed: float
    ) -> None:
        key = (request.parent_rpc_id, request.parent_provider_id, request.rpc_id,
               request.provider_id, request.dst_address, "forward")
        (self._stats.get(key) or self._new_stats(key, request, "origin")).update(elapsed)

    # ---- target (server) side ----------------------------------------
    # Run for every RPC a server handles: one lookup, RunningStats.update inline.
    def on_request_received(self, time: float, margo: Any, request: Any) -> None:
        key = (request.parent_rpc_id, request.parent_provider_id, request.rpc_id,
               request.provider_id, request.src_address, "received")
        stats = self._stats.get(key)
        if stats is None:
            self._new_stats(key, request, "target").update(0.0)
        else:
            stats.num += 1  # every sample is 0.0: after the first, only num moves

    def on_ult_start(self, time: float, margo: Any, request: Any, queued_for: float) -> None:
        key = (request.parent_rpc_id, request.parent_provider_id, request.rpc_id,
               request.provider_id, request.src_address, "ult_queued")
        stats = self._stats.get(key) or self._new_stats(key, request, "target")
        stats.num += 1
        stats.sum += queued_for
        if queued_for < stats.min:
            stats.min = queued_for
        if queued_for > stats.max:
            stats.max = queued_for
        delta = queued_for - stats._mean
        stats._mean += delta / stats.num
        stats._m2 += delta * (queued_for - stats._mean)

    def on_ult_complete(
        self, time: float, margo: Any, request: Any, duration: float, queued_for: float
    ) -> None:
        key = (request.parent_rpc_id, request.parent_provider_id, request.rpc_id,
               request.provider_id, request.src_address, "ult_duration")
        stats = self._stats.get(key) or self._new_stats(key, request, "target")
        stats.num += 1
        stats.sum += duration
        if duration < stats.min:
            stats.min = duration
        if duration > stats.max:
            stats.max = duration
        delta = duration - stats._mean
        stats._mean += delta / stats.num
        stats._m2 += delta * (duration - stats._mean)

    # ---- bulk ----------------------------------------------------------
    def on_bulk_transfer(
        self, time: float, margo: Any, remote: str, size: int, op: str, duration: float
    ) -> None:
        self._bulk.update(duration)
        self._bulk_bytes.update(float(size))

    # ---- finalize -------------------------------------------------------
    def on_finalize(self, time: float, margo: Any) -> None:
        self.finalized_at = time
        if self.dump_callback is not None:
            self.dump_callback(self.dumps())

    # ------------------------------------------------------------------
    # query API (available at run time, paper section 4)
    # ------------------------------------------------------------------
    def to_json(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "rpcs": {":".join(map(str, k)): r.to_json() for k, r in self._rpcs.items()}
        }
        if self._bulk.num:
            doc["bulk"] = {
                "duration": self._bulk.to_json(),
                "size": self._bulk_bytes.to_json(),
            }
        return doc

    def dumps(self, indent: int = 2) -> str:
        return json.dumps(self.to_json(), indent=indent, sort_keys=True)

    def find_by_name(self, name: str) -> list[dict[str, Any]]:
        """All records whose RPC name matches (there may be several
        context keys: one per parent context / provider id)."""
        return [r.to_json() for r in self._rpcs.values() if r.name == name]

    def rpc_names(self) -> set[str]:
        return {r.name for r in self._rpcs.values()}

    @property
    def num_contexts(self) -> int:
        return len(self._rpcs)


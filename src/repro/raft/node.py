"""Mochi-RAFT: a Raft consensus provider on the Margo runtime.

Implements leader election, log replication, commitment, snapshot-based
log compaction with InstallSnapshot for lagging followers, and
single-server membership changes -- the full protocol of Ongaro &
Ousterhout [20], which the paper adopts for "composable consensus"
(section 7, Observation 11).

Each :class:`RaftNode` is a provider; one process may host several
(different provider ids = different consensus groups).  The replicated
application is any :class:`~repro.raft.smr.StateMachine`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional

from ..core.component import Provider
from ..margo.errors import RpcError
from ..margo.runtime import MargoInstance, RequestContext
from ..margo.ult import TIMED_OUT, Compute, Park, UltEvent, UltSleep
from .log import LogEntry, RaftLog
from .smr import StateMachine

__all__ = ["RaftNode", "RaftConfig", "Role", "CONFIG_OP"]

#: Command key marking a membership-change entry.
CONFIG_OP = "__config__"


@dataclass(frozen=True)
class RaftConfig:
    """Protocol timing and sizing."""

    heartbeat_interval: float = 0.1
    election_timeout_min: float = 0.3
    election_timeout_max: float = 0.6
    rpc_timeout: float = 0.12
    #: Client submit wait bound (leader side).
    submit_timeout: float = 5.0
    max_entries_per_rpc: int = 64
    #: Compact the log once it exceeds this many entries.
    snapshot_threshold: int = 512

    def __post_init__(self) -> None:
        if not 0 < self.heartbeat_interval < self.election_timeout_min:
            raise ValueError("need heartbeat_interval < election_timeout_min")
        if self.election_timeout_min >= self.election_timeout_max:
            raise ValueError("need election_timeout_min < election_timeout_max")


class Role:
    FOLLOWER = "follower"
    CANDIDATE = "candidate"
    LEADER = "leader"


class RaftNode(Provider):
    """One member of a Raft consensus group."""

    component_type = "raft"

    def __init__(
        self,
        margo: MargoInstance,
        name: str,
        provider_id: int,
        state_machine: StateMachine,
        peers: list[str],
        rng: Any,
        config: Optional[RaftConfig] = None,
        pool: Any = None,
    ) -> None:
        super().__init__(margo, name, provider_id, pool=pool, config={})
        if margo.address not in peers:
            raise ValueError("peers must include this node's own address")
        self.sm = state_machine
        self.peers: list[str] = list(peers)
        self.rng = rng
        self.rc = config or RaftConfig()

        self.current_term = 0
        self.voted_for: Optional[str] = None
        self.log = RaftLog()
        self.commit_index = 0
        self.last_applied = 0
        self.role = Role.FOLLOWER
        self.leader_hint: Optional[str] = None

        self.next_index: dict[str, int] = {}
        self.match_index: dict[str, int] = {}
        self._ae_inflight: set[str] = set()
        self._pending: dict[int, tuple[UltEvent, int]] = {}
        self._snapshot_data: bytes = b""
        # Client sessions for exactly-once semantics (Raft paper sec. 8):
        # client id -> (last applied sequence number, its result).  A
        # retried command (same client+seq) returns the cached result
        # instead of being applied twice.
        self._sessions: dict[str, tuple[int, Any]] = {}

        self._running = True
        self._election_deadline = 0.0
        self._next_heartbeat = 0.0
        self._reset_election_deadline()

        # Protocol counters, exported per group so several consensus
        # groups per process stay distinct.
        self.elections_started = self.terms_seen = 0
        self.snapshots_taken = self.entries_applied = 0
        for counter in ("elections_started", "terms_seen", "snapshots_taken", "entries_applied"):
            margo.export(f"raft_{counter}{{group={name}}}", self, counter)

        self.register_rpc("request_vote", self._on_request_vote)
        self.register_rpc("append_entries", self._on_append_entries)
        self.register_rpc("install_snapshot", self._on_install_snapshot)
        self.register_rpc("submit", self._on_submit)
        self.register_rpc("read", self._on_read)
        self.register_rpc("status", self._on_status)

        margo.spawn_ult(self._ticker(), name=f"raft-ticker:{name}")

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    @property
    def address(self) -> str:
        return self.margo.address

    def _majority(self) -> int:
        return len(self.peers) // 2 + 1

    def _other_peers(self) -> list[str]:
        return [p for p in self.peers if p != self.address]

    def _reset_election_deadline(self) -> None:
        rc = self.rc
        span = rc.election_timeout_max - rc.election_timeout_min
        self._election_deadline = (
            self.margo.kernel.now + rc.election_timeout_min + self.rng.random() * span
        )

    def _set_role(self, role: str) -> None:
        if role is self.role:
            return
        self.role = role
        # Role *changes* only (heartbeats stay silent): the health
        # plane, if one is on, correlates elections with incidents.
        plane = getattr(self.margo.network, "health_plane", None)
        if plane is not None:
            plane.note_role_change(self, role, self.current_term)

    def _become_follower(self, term: int) -> None:
        if term > self.current_term:
            self.current_term = term
            self.voted_for = None
            self.terms_seen += 1
        self._set_role(Role.FOLLOWER)
        self._reset_election_deadline()

    def stop(self) -> None:
        self._running = False

    # ------------------------------------------------------------------
    # the driving loop
    # ------------------------------------------------------------------
    def _ticker(self) -> Generator:
        tick = self.rc.heartbeat_interval / 2
        while self._running and not self.margo.finalized:
            yield UltSleep(tick)
            if not self._running or self.margo.finalized:
                return
            now = self.margo.kernel.now
            if self.role == Role.LEADER:
                if now >= self._next_heartbeat:
                    self._next_heartbeat = now + self.rc.heartbeat_interval
                    self._broadcast_append()
            elif now >= self._election_deadline:
                self.margo.spawn_ult(
                    self._run_election(), name=f"raft-election:{self.name}"
                )
                self._reset_election_deadline()

    # ------------------------------------------------------------------
    # elections
    # ------------------------------------------------------------------
    def _run_election(self) -> Generator:
        self.current_term += 1
        self.voted_for = self.address
        self._set_role(Role.CANDIDATE)
        self.elections_started += 1
        term = self.current_term
        votes = {"count": 1}  # self-vote
        won = UltEvent(self.margo.kernel, name=f"election:{self.name}:{term}")

        others = self._other_peers()
        if not others:
            self._become_leader()
            return

        def ask(peer: str) -> Generator:
            try:
                reply = yield from self.margo.forward(
                    peer,
                    "raft_request_vote",
                    {
                        "term": term,
                        "candidate": self.address,
                        "last_log_index": self.log.last_index,
                        "last_log_term": self.log.last_term,
                    },
                    provider_id=self.provider_id,
                    timeout=self.rc.rpc_timeout,
                )
            except RpcError:
                return None
            if reply["term"] > self.current_term:
                self._become_follower(reply["term"])
                won.set(False)
                return None
            if reply["granted"] and self.role == Role.CANDIDATE and self.current_term == term:
                votes["count"] += 1
                if votes["count"] >= self._majority():
                    won.set(True)
            return None

        for peer in others:
            self.margo.spawn_ult(ask(peer), name=f"vote:{self.name}:{peer}")
        outcome = yield Park(won, self.rc.rpc_timeout * 2)
        if outcome is True and self.role == Role.CANDIDATE and self.current_term == term:
            self._become_leader()
        return None

    def _become_leader(self) -> None:
        self._set_role(Role.LEADER)
        self.leader_hint = self.address
        for peer in self._other_peers():
            self.next_index[peer] = self.log.last_index + 1
            self.match_index[peer] = 0
        # Classic Raft: commit a no-op from the new term to learn the
        # commit point and fence earlier terms.
        self.log.append_new(self.current_term, {"op": "noop"})
        self._maybe_advance_commit()
        self._next_heartbeat = self.margo.kernel.now + self.rc.heartbeat_interval
        self._broadcast_append()

    # ------------------------------------------------------------------
    # replication (leader side)
    # ------------------------------------------------------------------
    def _broadcast_append(self) -> None:
        for peer in self._other_peers():
            if peer not in self._ae_inflight:
                self.margo.spawn_ult(
                    self._replicate_to(peer), name=f"ae:{self.name}:{peer}"
                )

    def _replicate_to(self, peer: str) -> Generator:
        if peer in self._ae_inflight or self.role != Role.LEADER:
            return None
        self._ae_inflight.add(peer)
        try:
            next_index = self.next_index.get(peer, self.log.last_index + 1)
            if next_index <= self.log.snapshot_index:
                yield from self._send_snapshot(peer)
                return None
            prev_index = next_index - 1
            entries = self.log.entries_from(next_index, self.rc.max_entries_per_rpc)
            wire = [
                {"term": e.term, "index": e.index, "command": e.command} for e in entries
            ]
            try:
                reply = yield from self.margo.forward(
                    peer,
                    "raft_append_entries",
                    {
                        "term": self.current_term,
                        "leader": self.address,
                        "prev_log_index": prev_index,
                        "prev_log_term": self.log.term_at(prev_index),
                        "entries": wire,
                        "leader_commit": self.commit_index,
                    },
                    provider_id=self.provider_id,
                    timeout=self.rc.rpc_timeout,
                )
            except RpcError:
                return None
            if reply["term"] > self.current_term:
                self._become_follower(reply["term"])
                return None
            if self.role != Role.LEADER:
                return None
            if reply["success"]:
                match = prev_index + len(entries)
                self.match_index[peer] = max(self.match_index.get(peer, 0), match)
                self.next_index[peer] = self.match_index[peer] + 1
                self._maybe_advance_commit()
                if self.next_index[peer] <= self.log.last_index:
                    # More to send: continue immediately (pipelined).
                    self.margo.spawn_ult(
                        self._continue_replication(peer), name=f"ae+:{self.name}:{peer}"
                    )
            else:
                hint = reply.get("conflict_index")
                self.next_index[peer] = max(
                    1, hint if hint is not None else next_index - 1
                )
                self.margo.spawn_ult(
                    self._continue_replication(peer), name=f"ae-:{self.name}:{peer}"
                )
        finally:
            self._ae_inflight.discard(peer)
        return None

    def _continue_replication(self, peer: str) -> Generator:
        yield Compute(1e-9)
        yield from self._replicate_to(peer)

    def _send_snapshot(self, peer: str) -> Generator:
        data = self._snapshot_data
        try:
            reply = yield from self.margo.forward(
                peer,
                "raft_install_snapshot",
                {
                    "term": self.current_term,
                    "leader": self.address,
                    "snapshot_index": self.log.snapshot_index,
                    "snapshot_term": self.log.snapshot_term,
                    "data": data,
                },
                provider_id=self.provider_id,
                timeout=self.rc.rpc_timeout * 4,
            )
        except RpcError:
            return None
        if reply["term"] > self.current_term:
            self._become_follower(reply["term"])
            return None
        self.match_index[peer] = self.log.snapshot_index
        self.next_index[peer] = self.log.snapshot_index + 1
        return None

    def _maybe_advance_commit(self) -> None:
        if self.role != Role.LEADER:
            return
        for candidate in range(self.log.last_index, self.commit_index, -1):
            if candidate <= self.log.snapshot_index:
                break
            if self.log.term_at(candidate) != self.current_term:
                continue
            replicated = 1 + sum(
                1 for p in self._other_peers() if self.match_index.get(p, 0) >= candidate
            )
            if replicated >= self._majority():
                self.commit_index = candidate
                self._apply_committed()
                break

    # ------------------------------------------------------------------
    # applying
    # ------------------------------------------------------------------
    def _apply_committed(self) -> None:
        while self.last_applied < self.commit_index:
            self.last_applied += 1
            self.entries_applied += 1
            entry = self.log.entry_at(self.last_applied)
            command = entry.command
            if isinstance(command, dict) and CONFIG_OP in command:
                self._apply_config(command[CONFIG_OP])
                result = None
            elif isinstance(command, dict) and "__client__" in command:
                client_id = command["__client__"]
                sequence = command["__seq__"]
                session = self._sessions.get(client_id)
                if session is not None and session[0] >= sequence:
                    # Duplicate (client retried after a lost ack): do not
                    # re-apply; return the original result.
                    result = session[1] if session[0] == sequence else None
                else:
                    result = self.sm.apply(command["__command__"])
                    self._sessions[client_id] = (sequence, result)
            else:
                result = self.sm.apply(command)
            pending = self._pending.pop(entry.index, None)
            if pending is not None:
                event, term = pending
                event.set(
                    {"ok": term == entry.term, "result": result}
                )
        self._maybe_snapshot()

    def _apply_config(self, members: list[str]) -> None:
        removed = [p for p in self.next_index if p not in members]
        self.peers = list(members)
        if self.address not in members:
            # We were removed: stop participating.
            self._set_role(Role.FOLLOWER)
            self.stop()
            return
        if self.role == Role.LEADER:
            # Send removed peers one final catch-up so they observe the
            # config entry (now committed) and shut themselves down,
            # instead of lingering and calling disruptive elections.
            for peer in removed:
                self.margo.spawn_ult(
                    self._part_with(peer), name=f"raft-part:{self.name}:{peer}"
                )
        else:
            for gone in removed:
                self.next_index.pop(gone, None)
                self.match_index.pop(gone, None)

    def _part_with(self, peer: str) -> Generator:
        yield from self._replicate_to(peer)
        self.next_index.pop(peer, None)
        self.match_index.pop(peer, None)

    def _maybe_snapshot(self) -> None:
        if len(self.log) > self.rc.snapshot_threshold and self.last_applied > self.log.snapshot_index:
            # The snapshot bytes must correspond exactly to the compaction
            # index; retain them for InstallSnapshot (the state machine
            # keeps advancing afterwards).  Client sessions ride along so
            # exactly-once semantics survive snapshot installation.
            self._snapshot_data = self._encode_snapshot()
            self.log.compact_to(self.last_applied)
            self.snapshots_taken += 1

    def _encode_snapshot(self) -> bytes:
        import base64
        import json

        def pack(value: Any) -> Any:
            if isinstance(value, bytes):
                return {"__b64__": base64.b64encode(value).decode()}
            return value

        doc = {
            "sm": base64.b64encode(self.sm.snapshot()).decode(),
            "sessions": {
                client: [seq, pack(result)]
                for client, (seq, result) in self._sessions.items()
            },
        }
        return json.dumps(doc, sort_keys=True).encode()

    def _decode_snapshot(self, data: bytes) -> None:
        import base64
        import json

        def unpack(value: Any) -> Any:
            if isinstance(value, dict) and "__b64__" in value:
                return base64.b64decode(value["__b64__"])
            return value

        doc = json.loads(data)
        self.sm.restore(base64.b64decode(doc["sm"]))
        self._sessions = {
            client: (seq, unpack(result))
            for client, (seq, result) in doc["sessions"].items()
        }

    # ------------------------------------------------------------------
    # RPC handlers
    # ------------------------------------------------------------------
    def _on_request_vote(self, ctx: RequestContext) -> Generator:
        args = ctx.args
        yield Compute(300e-9)
        if args["term"] > self.current_term:
            self._become_follower(args["term"])
        granted = False
        if args["term"] == self.current_term and self.role != Role.LEADER:
            if self.voted_for in (None, args["candidate"]) and self.log.is_up_to_date(
                args["last_log_index"], args["last_log_term"]
            ):
                granted = True
                self.voted_for = args["candidate"]
                self._reset_election_deadline()
        return {"term": self.current_term, "granted": granted}

    def _on_append_entries(self, ctx: RequestContext) -> Generator:
        args = ctx.args
        yield Compute(300e-9 + 100e-9 * len(args["entries"]))
        if args["term"] < self.current_term:
            return {"term": self.current_term, "success": False}
        self._become_follower(args["term"])
        self.leader_hint = args["leader"]
        entries = [
            LogEntry(term=e["term"], index=e["index"], command=e["command"])
            for e in args["entries"]
        ]
        ok = self.log.match_and_append(
            args["prev_log_index"], args["prev_log_term"], entries
        )
        if not ok:
            conflict = min(args["prev_log_index"], self.log.last_index + 1)
            return {
                "term": self.current_term,
                "success": False,
                "conflict_index": max(self.log.first_index, conflict),
            }
        if args["leader_commit"] > self.commit_index:
            self.commit_index = min(args["leader_commit"], self.log.last_index)
            self._apply_committed()
        return {"term": self.current_term, "success": True}

    def _on_install_snapshot(self, ctx: RequestContext) -> Generator:
        args = ctx.args
        yield Compute(300e-9 + len(args["data"]) / 10e9)
        if args["term"] < self.current_term:
            return {"term": self.current_term}
        self._become_follower(args["term"])
        self.leader_hint = args["leader"]
        if (
            args["snapshot_index"] > self.log.snapshot_index
            and args["snapshot_index"] > self.last_applied
        ):
            self._decode_snapshot(args["data"])
            self.log.reset_to_snapshot(args["snapshot_index"], args["snapshot_term"])
            self.commit_index = max(self.commit_index, args["snapshot_index"])
            self.last_applied = args["snapshot_index"]
        return {"term": self.current_term}

    def _on_submit(self, ctx: RequestContext) -> Generator:
        """Client entry point: replicate a command, wait for commit."""
        if self.role != Role.LEADER:
            yield Compute(200e-9)
            return {"ok": False, "leader": self.leader_hint}
        command = ctx.args["command"]
        if isinstance(command, dict) and "__client__" in command:
            session = self._sessions.get(command["__client__"])
            if session is not None and session[0] >= command["__seq__"]:
                # Retried command already applied: answer from the session
                # without appending a duplicate log entry.
                result = session[1] if session[0] == command["__seq__"] else None
                return {"ok": True, "result": result}
        entry = self.log.append_new(self.current_term, command)
        if isinstance(command, dict) and CONFIG_OP in command:
            # Membership changes take effect as soon as they are appended
            # (single-server change rule).
            self._apply_config_on_append(command[CONFIG_OP])
        event = UltEvent(self.margo.kernel, name=f"commit:{self.name}:{entry.index}")
        self._pending[entry.index] = (event, entry.term)
        self._maybe_advance_commit()  # single-node group commits instantly
        if self.role == Role.LEADER and self._other_peers():
            self._broadcast_append()
        outcome = yield Park(event, self.rc.submit_timeout)
        if outcome is TIMED_OUT:
            self._pending.pop(entry.index, None)
            return {"ok": False, "timeout": True, "leader": self.leader_hint}
        return outcome

    def _apply_config_on_append(self, members: list[str]) -> None:
        self.peers = list(members)
        for peer in self._other_peers():
            self.next_index.setdefault(peer, self.log.last_index)
            self.match_index.setdefault(peer, 0)

    def _on_read(self, ctx: RequestContext) -> Generator:
        """Linearizable read via the ReadIndex optimization (Raft paper
        section 8): record the commit index, confirm leadership with one
        round of heartbeats, wait for the apply point, then answer from
        the local state machine -- no log entry, no disk, one round trip
        to a majority."""
        if self.role != Role.LEADER:
            yield Compute(200e-9)
            return {"ok": False, "leader": self.leader_hint}
        read_index = self.commit_index
        confirmed = yield from self._confirm_leadership()
        if not confirmed or self.role != Role.LEADER:
            return {"ok": False, "leader": self.leader_hint}
        waited = 0.0
        while self.last_applied < read_index:
            yield UltSleep(self.rc.heartbeat_interval / 4)
            waited += self.rc.heartbeat_interval / 4
            if waited > self.rc.submit_timeout:
                return {"ok": False, "timeout": True}
        try:
            result = self.sm.query(ctx.args["command"])
        except Exception as err:  # surfaces as error response
            raise err
        return {"ok": True, "result": result}

    def _confirm_leadership(self) -> Generator:
        """One heartbeat round; True if a majority still accepts us."""
        others = self._other_peers()
        if not others:
            return True
        acks = {"count": 1}  # self
        done = UltEvent(self.margo.kernel, name=f"readidx:{self.name}")

        def probe(peer: str) -> Generator:
            prev_index = max(self.match_index.get(peer, 0), self.log.snapshot_index)
            try:
                reply = yield from self.margo.forward(
                    peer,
                    "raft_append_entries",
                    {
                        "term": self.current_term,
                        "leader": self.address,
                        "prev_log_index": prev_index,
                        "prev_log_term": self.log.term_at(prev_index),
                        "entries": [],
                        "leader_commit": self.commit_index,
                    },
                    provider_id=self.provider_id,
                    timeout=self.rc.rpc_timeout,
                )
            except RpcError:
                return None
            if reply["term"] > self.current_term:
                self._become_follower(reply["term"])
                done.set(False)
                return None
            acks["count"] += 1
            if acks["count"] >= self._majority():
                done.set(True)
            return None

        for peer in others:
            self.margo.spawn_ult(probe(peer), name=f"readidx:{self.name}:{peer}")
        outcome = yield Park(done, self.rc.rpc_timeout * 2)
        return outcome is True

    def _on_status(self, ctx: RequestContext) -> Generator:
        yield Compute(100e-9)
        return {
            "role": self.role,
            "term": self.current_term,
            "commit_index": self.commit_index,
            "last_applied": self.last_applied,
            "log_size": len(self.log),
            "snapshot_index": self.log.snapshot_index,
            "peers": list(self.peers),
            "leader": self.leader_hint,
        }

"""SSG groups: the network half of SWIM plus the view API.

An :class:`SSGGroup` is a provider participating in one named group.  It
runs the SWIM failure-detector loop (direct ping, k indirect ping-reqs,
suspicion, confirmation), disseminates membership updates by gossip
piggybacking, and exposes:

* :meth:`view` / :attr:`view_hash` -- the dynamic group view clients
  track (paper section 6, Observation 7);
* ``on_member_died`` / ``on_view_change`` callbacks -- the fault
  notification that top-down resilience builds on (section 7,
  Observation 12);
* :meth:`leave` -- voluntary departure (elastic scale-in).

SSG provides **eventual** consistency of the view, exactly as the paper
states; benchmark E7 measures convergence.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from ..core.component import Provider
from ..margo.errors import RpcError
from ..margo.runtime import MargoInstance, RequestContext
from ..margo.ult import UltSleep
from .swim import MemberStatus, SwimConfig, SwimState, Update
from .view import GroupView

__all__ = ["SSGGroup", "SSGError", "DEFAULT_SSG_PROVIDER_ID"]

DEFAULT_SSG_PROVIDER_ID = 250


class SSGError(RuntimeError):
    """SSG-level failure (e.g. could not join any bootstrap address)."""


class SSGGroup(Provider):
    """Membership in one group, driven by SWIM."""

    component_type = "ssg"

    def __init__(
        self,
        margo: MargoInstance,
        group_name: str,
        provider_id: int = DEFAULT_SSG_PROVIDER_ID,
        pool: Any = None,
        config: Optional[dict[str, Any]] = None,
        swim: Optional[SwimConfig] = None,
    ) -> None:
        super().__init__(margo, f"ssg:{group_name}", provider_id, pool=pool, config=config)
        self.group_name = group_name
        self.swim_config = swim or SwimConfig()
        self.state = SwimState(margo.address, self.swim_config)
        self.state.on_change = self._on_state_change
        self._rng = None  # lazily derived from kernel-less sources
        self._running = False
        self._left = False
        #: user callbacks
        self.on_view_change: list[Callable[[GroupView], None]] = []
        self.on_member_died: list[Callable[[str], None]] = []
        # protocol counters, exported per group.
        self.pings_sent = self.ping_reqs_sent = self.false_suspicions = 0
        for counter in ("pings_sent", "ping_reqs_sent", "false_suspicions"):
            margo.export(f"ssg_{counter}{{group={group_name}}}", self, counter)

        self.register_rpc(f"{group_name}_ping", self._on_ping)
        self.register_rpc(f"{group_name}_ping_req", self._on_ping_req)
        self.register_rpc(f"{group_name}_join", self._on_join)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self, rng: Any) -> None:
        """Start the failure-detector loop.  ``rng`` is a seeded
        ``random.Random`` (determinism: one stream per member)."""
        if self._running:
            raise SSGError("group protocol already running")
        self._rng = rng
        self._running = True
        self.margo.spawn_ult(
            self._protocol_loop(), name=f"swim:{self.group_name}:{self.margo.process.name}"
        )

    def stop(self) -> None:
        self._running = False

    def leave(self) -> Generator:
        """Voluntarily leave: announce departure and stop the protocol."""
        self._left = True
        update = self.state.local_leave()
        # Push the departure to a few members directly so it spreads
        # without waiting for our next (cancelled) protocol round.
        targets = [a for a in self.state.ping_candidates()][:3]
        for address in targets:
            try:
                yield from self._send_ping(address)
            except RpcError:
                pass
        self.stop()
        return update

    # ------------------------------------------------------------------
    # the view API
    # ------------------------------------------------------------------
    @property
    def view(self) -> GroupView:
        return GroupView.of(self.group_name, self.state.view_members(), self.state.epoch)

    @property
    def view_hash(self) -> str:
        return self.view.hash

    @property
    def is_member(self) -> bool:
        return not self._left

    # ------------------------------------------------------------------
    # bootstrap
    # ------------------------------------------------------------------
    def join_via(self, addresses: list[str]) -> Generator:
        """Join an existing group by contacting any reachable member."""
        last: Optional[BaseException] = None
        for address in addresses:
            if address == self.margo.address:
                continue
            try:
                rows = yield from self.margo.forward(
                    address,
                    f"ssg_{self.group_name}_join",
                    {"address": self.margo.address},
                    provider_id=self.provider_id,
                    timeout=self.swim_config.ping_timeout * 4,
                )
                self.state.load_snapshot(rows)
                return True
            except RpcError as err:
                last = err
        raise SSGError(
            f"could not join group {self.group_name!r} via any of {addresses}"
        ) from last

    def seed_members(self, addresses: list[str]) -> None:
        """Bootstrap: install an initial member list (creation time)."""
        for address in addresses:
            if address != self.margo.address:
                self.state.local_join(address)

    # ------------------------------------------------------------------
    # RPC handlers
    # ------------------------------------------------------------------
    def _on_ping(self, ctx: RequestContext) -> Generator:
        now = self.margo.kernel.now
        args = ctx.args or {}
        self.state.absorb_piggyback(args.get("updates", []), now)
        # Refutation path (SWIM's incarnation mechanism): the prober
        # tells us what it believes about *us*; if it thinks we are
        # suspect or dead, we outbid that belief with a fresh incarnation
        # and our ack carries it back -- this is also what re-merges a
        # healed partition (each side believed the other dead).
        your_status = args.get("target_status")
        if your_status in ("suspect", "dead") and not self._left:
            claimed = int(args.get("target_incarnation", 0))
            if claimed >= self.state.incarnation:
                self.state.incarnation = claimed + 1
                self.state._members[self.state.self_address].incarnation = (
                    self.state.incarnation
                )
                self.state._enqueue(
                    Update("alive", self.state.self_address, self.state.incarnation)
                )
        return {
            "updates": self.state.collect_piggyback(),
            "incarnation": self.state.incarnation,
        }
        yield  # pragma: no cover - handler is synchronous

    def _on_ping_req(self, ctx: RequestContext) -> Generator:
        """Indirect probe: ping `target` on behalf of the requester."""
        now = self.margo.kernel.now
        args = ctx.args
        self.state.absorb_piggyback(args.get("updates", []), now)
        target = args["target"]
        try:
            reply = yield from self.margo.forward(
                target,
                f"ssg_{self.group_name}_ping",
                {"updates": self.state.collect_piggyback()},
                provider_id=self.provider_id,
                timeout=self.swim_config.ping_timeout,
            )
            self.state.absorb_piggyback(reply.get("updates", []), self.margo.kernel.now)
            ack = True
        except RpcError:
            ack = False
        return {"ack": ack, "updates": self.state.collect_piggyback()}

    def _on_join(self, ctx: RequestContext) -> Generator:
        address = ctx.args["address"]
        self.state.local_join(address)
        return self.state.snapshot()
        yield  # pragma: no cover - handler is synchronous

    # ------------------------------------------------------------------
    # the protocol loop
    # ------------------------------------------------------------------
    def _protocol_loop(self) -> Generator:
        config = self.swim_config
        while self._running and not self.margo.finalized:
            yield UltSleep(config.period)
            if not self._running or self.margo.finalized:
                return
            now = self.margo.kernel.now
            # 1. confirm overdue suspects as dead
            for address in self.state.suspects_older_than(now - config.suspicion_timeout):
                self.state.local_confirm_dead(address)
            # 2. probe one random member
            candidates = self.state.ping_candidates()
            if candidates:
                target = self._rng.choice(candidates)
                acked = yield from self._probe(target)
                if not acked:
                    self.state.local_suspect(target, self.margo.kernel.now)
            # 3. occasionally probe a confirmed-dead member: if it acks
            # (restart, healed partition), its incarnation refutation
            # resurrects it (rejoin path).
            dead = self.state.dead_members()
            if dead and self._rng.random() < config.resurrect_probe_prob:
                try:
                    yield from self._send_ping(self._rng.choice(dead))
                except RpcError:
                    pass  # still dead

    def _probe(self, target: str) -> Generator:
        """Direct ping, then k indirect ping-reqs (the SWIM probe)."""
        try:
            yield from self._send_ping(target)
            return True
        except RpcError:
            pass
        config = self.swim_config
        helpers = [
            a for a in self.state.ping_candidates() if a != target
        ]
        self._rng.shuffle(helpers)
        for helper in helpers[: config.ping_req_k]:
            self.ping_reqs_sent += 1
            try:
                reply = yield from self.margo.forward(
                    helper,
                    f"ssg_{self.group_name}_ping_req",
                    {"target": target, "updates": self.state.collect_piggyback()},
                    provider_id=self.provider_id,
                    timeout=config.ping_timeout * 2.5,
                )
                self.state.absorb_piggyback(reply.get("updates", []), self.margo.kernel.now)
                if reply.get("ack"):
                    return True
            except RpcError:
                continue
        return False

    def _send_ping(self, target: str) -> Generator:
        self.pings_sent += 1
        status = self.state.status_of(target)
        record = self.state._members.get(target)
        reply = yield from self.margo.forward(
            target,
            f"ssg_{self.group_name}_ping",
            {
                "updates": self.state.collect_piggyback(),
                "target_status": status.value if status is not None else None,
                "target_incarnation": record.incarnation if record else 0,
            },
            provider_id=self.provider_id,
            timeout=self.swim_config.ping_timeout,
        )
        self.state.absorb_piggyback(reply.get("updates", []), self.margo.kernel.now)
        # If we believed the target suspect/dead, its ack (with a bumped
        # incarnation) resurrects it.
        if status is not None and status.value in ("suspect", "dead"):
            self.state.apply(
                Update("alive", target, int(reply.get("incarnation", 0))),
                self.margo.kernel.now,
            )
        return True

    # ------------------------------------------------------------------
    def _on_state_change(self, kind: str, address: str) -> None:
        # Every SWIM transition ("alive", "suspect", "dead") feeds the
        # cluster's health plane, if one is on: registry and incidents.
        plane = getattr(self.margo.network, "health_plane", None)
        if plane is not None:
            plane.note_membership(self, kind, address)
        if kind == "dead":
            # Track false positives: the "dead" member is actually alive.
            try:
                process = self.margo.network.lookup(address)
                if process.alive:
                    self.false_suspicions += 1
            except Exception:
                pass
            for callback in self.on_member_died:
                callback(address)
        view = self.view
        for callback in self.on_view_change:
            callback(view)

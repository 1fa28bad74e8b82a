"""Virtual databases: transparent bottom-up replication (paper section 7,
Observation 10).

A :class:`VirtualYokanProvider` "forwards its requests to other
components that hold the actual data": it registers the *same* RPCs as a
regular Yokan provider (so clients cannot tell the difference -- the
transparency the paper requires), but its resource is a set of handles
to N real databases on other processes.

* Writes go to **all** replicas (concurrently).
* Reads try replicas in order, failing over past dead ones.

This provides replication without the replicas knowing they are
replicated, and without the consensus machinery of Mochi-RAFT; see
:mod:`repro.raft.smr` for the strongly consistent alternative.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..core.component import Provider
from ..core.parallel import ParallelError, parallel
from ..margo.errors import RpcError, RpcFailedError
from ..margo.runtime import MargoInstance, RequestContext
from ..mercury import BulkHandle
from .backend import YokanError, decode_records
from .client import DatabaseHandle, YokanClient
from .provider import DEFAULT_BULK_THRESHOLD

__all__ = ["VirtualYokanProvider"]

#: Forwarding adds a small routing cost per request.
ROUTE_COST = 200e-9


class VirtualYokanProvider(Provider):
    """A Yokan-compatible provider that holds no data itself.

    Config::

        {
          "targets": [{"address": ..., "provider_id": ...}, ...],
          "rpc_timeout": 1.0            # per-replica failover timeout
        }
    """

    component_type = "yokan"  # same namespace: transparent to clients

    def __init__(
        self,
        margo: MargoInstance,
        name: str,
        provider_id: int,
        pool: Any = None,
        config: Optional[dict[str, Any]] = None,
    ) -> None:
        super().__init__(margo, name, provider_id, pool=pool, config=config)
        targets = self.config.get("targets", [])
        if not targets:
            raise YokanError("virtual database needs at least one target")
        client = YokanClient(margo)
        self.rpc_timeout = float(self.config.get("rpc_timeout", 1.0))
        self.replicas: list[DatabaseHandle] = []
        for target in targets:
            handle = client.make_handle(target["address"], target["provider_id"])
            handle.timeout = self.rpc_timeout  # bound failover latency
            self.replicas.append(handle)

        self.register_rpc("put", self._on_put)
        self.register_rpc("get", self._on_get)
        self.register_rpc("erase", self._on_erase)
        self.register_rpc("exists", self._on_exists)
        self.register_rpc("count", self._on_count)
        self.register_rpc("list_keys", self._on_list_keys)
        self.register_rpc("put_multi", self._on_put_multi)
        self.register_rpc("get_multi", self._on_get_multi)

    # ------------------------------------------------------------------
    # write path: all replicas, concurrently
    # ------------------------------------------------------------------
    def _write_all(self, make_gen) -> Generator:
        yield ROUTE_COST
        try:
            yield from parallel(self.margo, [make_gen(r) for r in self.replicas])
        except ParallelError as err:
            if len(err.errors) == len(self.replicas):
                raise YokanError(f"all {len(self.replicas)} replicas failed") from err
            # Partial failure: data is durable on surviving replicas; a
            # top-down repair (resync) brings the rest back (section 7).
        return None

    def _on_put(self, ctx: RequestContext) -> Generator:
        args = ctx.args
        key = args["key"]
        if "bulk" in args:
            bulk = args["bulk"]
            yield from self.margo.bulk_transfer(ctx.source, bulk.size, op="pull")
            value = bulk.data
        else:
            value = args["value"]
        yield from self._write_all(lambda replica: replica.put(key, value))
        return None

    def _on_erase(self, ctx: RequestContext) -> Generator:
        key = ctx.args["key"]
        yield from self._write_all(lambda replica: replica.erase(key))
        return None

    def _on_put_multi(self, ctx: RequestContext) -> Generator:
        bulk = ctx.args.get("bulk")
        if bulk is not None:
            yield from self.margo.bulk_transfer(ctx.source, bulk.size, op="pull")
            pairs = bulk.data
        else:
            pairs = ctx.args["pairs"]
        yield from self._write_all(lambda replica: replica.put_multi(pairs))
        return None

    # ------------------------------------------------------------------
    # read path: first live replica
    # ------------------------------------------------------------------
    def _read_any(self, make_gen) -> Generator:
        yield ROUTE_COST
        last_error: Optional[BaseException] = None
        for replica in self.replicas:
            try:
                result = yield from make_gen(replica)
                return result
            except RpcFailedError:
                # The replica responded: data-level errors (e.g.
                # NoSuchKey) are authoritative, not a reason to fail over.
                raise
            except RpcError as err:
                last_error = err  # replica unreachable: fail over
        raise YokanError(
            f"no live replica among {len(self.replicas)}"
        ) from last_error

    def _on_get(self, ctx: RequestContext) -> Generator:
        key = ctx.args["key"]
        value = yield from self._read_any(lambda r: r.get(key))
        if len(value) >= DEFAULT_BULK_THRESHOLD:
            yield from self.margo.bulk_transfer(ctx.source, len(value), op="push")
            return BulkHandle(self.margo.address, len(value), value)
        return value

    def _on_exists(self, ctx: RequestContext) -> Generator:
        key = ctx.args["key"]
        result = yield from self._read_any(lambda r: r.exists(key))
        return result

    def _on_count(self, ctx: RequestContext) -> Generator:
        result = yield from self._read_any(lambda r: r.count())
        return result

    def _on_list_keys(self, ctx: RequestContext) -> Generator:
        args = ctx.args or {}
        result = yield from self._read_any(
            lambda r: r.list_keys(
                args.get("prefix", b""),
                args.get("start_after"),
                args.get("max_keys", 0),
            )
        )
        return result

    def _on_get_multi(self, ctx: RequestContext) -> Generator:
        keys = ctx.args["keys"]
        result = yield from self._read_any(lambda r: r.get_multi(keys))
        return result

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def resync(self, source_index: int = 0) -> Generator:
        """Copy the image of one replica onto all others (top-down repair
        after a replica was replaced)."""
        source = self.replicas[source_index]
        image = yield from source.fetch_image()
        pairs = decode_records(image)
        for index, replica in enumerate(self.replicas):
            if index == source_index:
                continue
            if pairs:
                yield from replica.put_multi(pairs)
        return len(pairs)

    def get_config(self) -> dict[str, Any]:
        doc = dict(self.config)
        doc["virtual"] = True
        doc["num_replicas"] = len(self.replicas)
        return doc

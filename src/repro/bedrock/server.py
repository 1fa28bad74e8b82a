"""The Bedrock server: a "provider of providers" (paper section 5).

Bedrock "is a component meant to manage other providers running in a
Mochi process.  It follows the same architecture [as Fig. 1] ... but the
'resource' it manages is the configuration of the process it runs on."

Responsibilities implemented here:

* bootstrap a process from a Listing-3 JSON document (libraries +
  providers + dependency resolution), without glue code;
* expose the full live configuration, queryable with Jx9 (Listing 4);
* online reconfiguration: start/stop providers, add/remove pools and
  xstreams -- all validity-checked (Listing 5);
* provider **migration** orchestration over REMI (section 6, Obs. 5);
* provider **checkpoint/restore** hooks to a PFS (section 7, Obs. 9);
* cross-process consistency of concurrent reconfigurations via
  two-phase commit locks (section 5, Obs. 3: of two conflicting client
  requests, exactly one succeeds).
"""

from __future__ import annotations

from copy import deepcopy
from dataclasses import dataclass, field
from typing import Any, Callable, Container, Generator, Optional

from ..core.component import Provider
from ..margo.errors import RpcTimeoutError
from ..margo.runtime import MargoInstance, RequestContext
from ..margo.ult import Compute
from ..observability.exporters import chrome_trace
from ..storage.pfs import ParallelFileSystem
from .errors import (
    BedrockConfigError,
    BedrockError,
    DependencyError,
    EntityLockedError,
    NoSuchProviderError,
    ProviderConflictError,
    TransactionError,
)
from .jx9 import jx9_execute
from .module import BedrockModule, ModuleError, resolve_library

__all__ = ["BedrockServer", "ProviderRecord", "BEDROCK_PROVIDER_ID"]

#: Every Bedrock server registers at this provider id, by convention.
BEDROCK_PROVIDER_ID = 0

OP_COST = 500e-9

@dataclass(init=False)
class ProviderRecord:
    """Bookkeeping for one managed provider."""

    name: str
    type_name: str
    provider_id: int
    pool: str
    config: dict[str, Any]
    dependencies: dict[str, Any]
    module: BedrockModule
    instance: Any

    def __init__(
        self,
        name: str,
        type_name: str,
        provider_id: int,
        pool: str,
        config: dict[str, Any],
        dependencies: dict[str, Any],
        module: BedrockModule,
        instance: Any,
    ) -> None:
        self.name = name
        self.type_name = type_name
        self.provider_id = provider_id
        self.pool = pool
        self.config = config
        self.dependencies = dependencies
        self.module = module
        self.instance = instance

    def describe(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "type": self.type_name,
            "provider_id": self.provider_id,
            "pool": self.pool,
            "config": self.instance.get_config(),
            "dependencies": {
                k: v for k, v in self.dependencies.items()
            },
        }


# Configuration checks take their state as arguments: a live server and
# the static boot walk (boot.check_boot_config) run the same code.
def boot_sections(doc: dict[str, Any]) -> tuple[dict[str, Any], list[Any]]:
    """The ``libraries`` and ``providers`` of a Listing-3 document."""
    unknown = set(doc) - {"margo", "libraries", "providers"}
    if unknown:
        raise BedrockConfigError(f"unknown bedrock config keys: {sorted(unknown)}")
    libraries = doc.get("libraries", {})
    if not isinstance(libraries, dict):
        raise BedrockConfigError("'libraries' must be an object {type: path}")
    providers = doc.get("providers", [])
    if not isinstance(providers, list):
        raise BedrockConfigError("'providers' must be a list")
    return libraries, providers


def check_library(
    modules: dict[str, BedrockModule], type_name: str, library: str
) -> BedrockModule:
    """The module ``library`` provides, if it may be loaded as ``type_name``."""
    module = resolve_library(library)
    if module.type_name != type_name:
        raise BedrockConfigError(
            f"library {library!r} provides type {module.type_name!r}, "
            f"not {type_name!r}"
        )
    existing = modules.get(type_name)
    if existing is not None and existing is not module:
        raise BedrockConfigError(f"type {type_name!r} already loaded")
    return module


def check_start(
    op: Any,
    modules: dict[str, BedrockModule],
    taken: dict[str, tuple[str, int]],
    pools: Container[str],
    rpc_pool: str,
) -> int:
    """Raise why provider entry ``op`` cannot start; else its provider id.

    ``taken`` maps each running provider's name to its (type, provider id).
    """
    if not isinstance(op, dict) or not all(
        isinstance(op.get(key), str) for key in ("name", "type")
    ):
        raise BedrockConfigError(f"provider entry needs a string 'name' and 'type': {op}")
    name, type_name = op["name"], op["type"]
    if name in taken:
        raise ProviderConflictError(f"provider {name!r} already exists")
    if type_name not in modules:
        raise ModuleError(
            f"no module loaded for type {type_name!r} (loaded: {sorted(modules)})"
        )
    try:
        provider_id = int(op.get("provider_id", 1))
    except (TypeError, ValueError):
        raise BedrockConfigError(
            f"provider {name!r} has a non-integer provider_id {op['provider_id']!r}"
        ) from None
    for other, pair in taken.items():
        if pair == (type_name, provider_id):
            raise ProviderConflictError(
                f"(type={type_name}, provider_id={provider_id}) already in use "
                f"by {other!r}"
            )
    pool = op.get("pool", rpc_pool)
    if not isinstance(pool, str) or pool not in pools:
        raise BedrockConfigError(f"provider {name!r} references unknown pool {pool!r}")
    dependencies = op.get("dependencies") or {}
    if not isinstance(dependencies, dict):
        raise DependencyError(
            f"dependencies of {name!r} must be an object {{name: spec}}: {dependencies!r}"
        )
    for dep_name, spec in dependencies.items():
        if isinstance(spec, str):
            if spec not in taken:
                raise DependencyError(
                    f"provider {name!r} depends on unknown local provider {spec!r}"
                )
        elif isinstance(spec, dict):
            missing = {"type", "address", "provider_id"} - set(spec)
            if missing:
                raise DependencyError(
                    f"remote dependency {dep_name!r} of {name!r} missing {sorted(missing)}"
                )
            if spec["type"] not in modules:
                raise DependencyError(
                    f"remote dependency {dep_name!r} has unloaded type {spec['type']!r}"
                )
        else:
            raise DependencyError(
                f"dependency {dep_name!r} of {name!r} must be a local provider "
                f"name or a {{type, address, provider_id}} object"
            )
    return provider_id


class BedrockServer(Provider):
    """Manages the configuration of one Mochi process."""

    component_type = "bedrock"

    def __init__(
        self,
        margo: MargoInstance,
        config: Optional[dict[str, Any]] = None,
        pfs: Optional[ParallelFileSystem] = None,
    ) -> None:
        super().__init__(margo, "bedrock", BEDROCK_PROVIDER_ID, config={})
        self.pfs = pfs
        self.modules: dict[str, BedrockModule] = {}
        self.library_of: dict[str, str] = {}
        self.records: dict[str, ProviderRecord] = {}
        #: provider name -> set of dependent tokens ("local:<name>" or
        #: "remote:<address>:<name>").
        self.dependents: dict[str, set[str]] = {}
        #: entity -> transaction id holding its lock.
        self._locks: dict[str, str] = {}
        #: txid -> list of prepared ops.
        self._prepared: dict[str, list[dict[str, Any]]] = {}

        for operation in (
            "load_module",
            "start_provider",
            "stop_provider",
            "add_pool",
            "remove_pool",
            "add_xstream",
            "remove_xstream",
            "get_config",
            "query",
            "migrate_provider",
            "checkpoint_provider",
            "restore_provider",
            "add_dependent",
            "remove_dependent",
            "list_providers",
            "tx_prepare",
            "tx_commit",
            "tx_abort",
        ):
            self.register_rpc(operation, getattr(self, f"_on_{operation}"))

        # Counters in ``$__metrics__``; a malformed query only ticks
        # ``introspection_errors`` (it degrades to an error response).
        self.introspection_errors = self.providers_started = 0
        self.providers_stopped = self.migrations = self.migrated_bytes = 0
        for counter in ("introspection_errors", "providers_started",
                        "providers_stopped", "migrations", "migrated_bytes"):
            margo.export(f"bedrock_{counter}", self, counter)

        # Listing 3; the "margo" section was consumed by the Margo instance.
        libraries, providers = boot_sections(config or {})
        for type_name, library in libraries.items():
            self.load_module(type_name, library)
        for entry in providers:
            self._validate_start(entry)
            self._execute_start(entry)

    # ------------------------------------------------------------------
    # modules
    # ------------------------------------------------------------------
    def load_module(self, type_name: str, library: str) -> None:
        self.modules[type_name] = check_library(self.modules, type_name, library)
        self.library_of[type_name] = library

    # ------------------------------------------------------------------
    # start/stop providers (validation + execution split for 2PC reuse)
    # ------------------------------------------------------------------
    def _validate_start(self, op: dict[str, Any]) -> None:
        taken = {n: (r.type_name, r.provider_id) for n, r in self.records.items()}
        check_start(op, self.modules, taken, self.margo.pools, self.margo.config.rpc_pool)

    def _resolve_dependencies(self, op: dict[str, Any]) -> dict[str, Any]:
        resolved: dict[str, Any] = {}
        for dep_name, spec in (op.get("dependencies") or {}).items():
            if isinstance(spec, str):
                resolved[dep_name] = self.records[spec].instance
            else:
                module = self.modules[spec["type"]]
                if module.client_factory is None:
                    raise DependencyError(
                        f"type {spec['type']!r} has no client library"
                    )
                client = module.client_factory(self.margo)
                resolved[dep_name] = client.make_handle(
                    spec["address"], spec["provider_id"]
                )
        return resolved

    def _execute_start(self, op: dict[str, Any]) -> ProviderRecord:
        name = op["name"]
        module = self.modules[op["type"]]
        pool = op.get("pool", self.margo.config.rpc_pool)
        dependencies = dict(op.get("dependencies") or {})
        resolved = self._resolve_dependencies(op)
        instance = module.provider_factory(
            self.margo,
            name,
            int(op.get("provider_id", 1)),
            pool,
            dict(op.get("config") or {}),
            resolved,
        )
        record = ProviderRecord(
            name=name,
            type_name=op["type"],
            provider_id=int(op.get("provider_id", 1)),
            pool=pool,
            config=dict(op.get("config") or {}),
            dependencies=dependencies,
            module=module,
            instance=instance,
        )
        self.records[name] = record
        self.providers_started += 1
        for spec in dependencies.values():
            if isinstance(spec, str):
                self.dependents.setdefault(spec, set()).add(f"local:{name}")
        return record

    def _validate_stop(self, op: dict[str, Any]) -> None:
        name = op["name"]
        record = self.records.get(name)
        if record is None:
            raise NoSuchProviderError(f"no provider named {name!r}")
        holders = self.dependents.get(name)
        if holders:
            raise DependencyError(
                f"cannot stop provider {name!r}: depended on by {sorted(holders)}"
            )

    def _execute_stop(self, op: dict[str, Any]) -> None:
        record = self.records.pop(op["name"])
        for spec in record.dependencies.values():
            if isinstance(spec, str):
                holders = self.dependents.get(spec)
                if holders:
                    holders.discard(f"local:{record.name}")
        self.dependents.pop(record.name, None)
        self.providers_stopped += 1
        record.instance.destroy()

    # ------------------------------------------------------------------
    # configuration access
    # ------------------------------------------------------------------
    def get_config(self) -> dict[str, Any]:
        return {
            "margo": self.margo.get_config(),
            "libraries": dict(self.library_of),
            "providers": [r.describe() for r in self.records.values()],
            "address": self.margo.address,
        }

    def query(self, script: str) -> Any:
        """Run a Jx9 query (Listing 4) over the live configuration and
        the observer planes (see :class:`_Documents`)."""
        return jx9_execute(script, _Documents(self))

    def boot_document(self) -> dict[str, Any]:
        """A Listing-3 document that re-creates this process's current
        composition from scratch.

        The paper (section 5): "Its configuration format ... can also
        easily be shared with the community to diagnose issues and
        bugs."  Unlike :meth:`get_config` (live state, statistics), this
        is the *boot-clean* document: feed it to
        :func:`~repro.bedrock.boot.boot_process` to clone the process.
        """
        return {
            "margo": self.margo.get_config(),
            "libraries": dict(self.library_of),
            "providers": [
                {
                    "name": record.name,
                    "type": record.type_name,
                    "provider_id": record.provider_id,
                    "pool": record.pool,
                    "config": dict(record.config),
                    "dependencies": dict(record.dependencies),
                }
                for record in self.records.values()
            ],
        }

    # ------------------------------------------------------------------
    # RPC handlers (the remote API of Listing 5)
    # ------------------------------------------------------------------
    def _on_load_module(self, ctx: RequestContext) -> Generator:
        yield Compute(OP_COST)
        self.load_module(ctx.args["type"], ctx.args["library"])
        return None

    def _on_start_provider(self, ctx: RequestContext) -> Generator:
        op = ctx.args
        yield Compute(OP_COST)
        self._check_unlocked(f"provider:{op['name']}")
        self._validate_start(op)
        record = self._execute_start(op)
        # Pin the provider on each remote dependency's process, so that
        # process refuses to stop what we rely on.  A pin that fails
        # undoes the start: it leaves neither the provider nor a pin.
        pinned = []
        try:
            for spec in self._remote_dependencies(record):
                yield from self._forward_pin(spec, record, "bedrock_add_dependent")
                pinned.append(spec)
        except Exception:
            try:
                for spec in pinned:
                    yield from self._unpin(spec, record)
            finally:
                if self.records.get(record.name) is record:
                    self._execute_stop({"name": record.name})
            raise
        return record.describe()

    @staticmethod
    def _remote_dependencies(record: ProviderRecord) -> list[dict[str, Any]]:
        return [spec for spec in record.dependencies.values() if isinstance(spec, dict)]

    def _forward_pin(self, spec: dict[str, Any], record: ProviderRecord, rpc: str) -> Generator:
        yield from self.margo.forward(
            spec["address"],
            rpc,
            {
                "name": {"type": spec["type"], "provider_id": spec["provider_id"]},
                "dependent": f"remote:{self.margo.address}:{record.name}",
            },
            provider_id=BEDROCK_PROVIDER_ID,
            timeout=2.0,
        )

    def _unpin(self, spec: dict[str, Any], record: ProviderRecord) -> Generator:
        try:
            yield from self._forward_pin(spec, record, "bedrock_remove_dependent")
        except RpcTimeoutError:
            # The dependency's process is dead or unreachable (an
            # unknown address times out too): it holds no pin to drop.
            pass

    def _on_stop_provider(self, ctx: RequestContext) -> Generator:
        op = ctx.args
        yield Compute(OP_COST)
        self._check_unlocked(f"provider:{op['name']}")
        self._validate_stop(op)
        record = self.records[op["name"]]
        for spec in self._remote_dependencies(record):
            yield from self._unpin(spec, record)
        self._execute_stop(op)
        return None

    def _on_add_dependent(self, ctx: RequestContext) -> Generator:
        yield Compute(OP_COST)
        target = ctx.args["name"]
        record = self._find_by_type_id(target["type"], target["provider_id"])
        if record is None:
            raise NoSuchProviderError(
                f"no provider (type={target['type']}, id={target['provider_id']})"
            )
        self.dependents.setdefault(record.name, set()).add(ctx.args["dependent"])
        return None

    def _on_remove_dependent(self, ctx: RequestContext) -> Generator:
        yield Compute(OP_COST)
        target = ctx.args["name"]
        record = self._find_by_type_id(target["type"], target["provider_id"])
        if record is not None:
            holders = self.dependents.get(record.name)
            if holders:
                holders.discard(ctx.args["dependent"])
        return None

    def _find_by_type_id(self, type_name: str, provider_id: int) -> Optional[ProviderRecord]:
        for record in self.records.values():
            if record.type_name == type_name and record.provider_id == provider_id:
                return record
        return None

    def _on_add_pool(self, ctx: RequestContext) -> Generator:
        yield Compute(OP_COST)
        self.margo.add_pool(ctx.args)
        return None

    def _on_remove_pool(self, ctx: RequestContext) -> Generator:
        yield Compute(OP_COST)
        name = ctx.args["name"]
        used_by = [r.name for r in self.records.values() if r.pool == name]
        if used_by:
            raise BedrockConfigError(f"pool {name!r} is used by providers {used_by}")
        self.margo.remove_pool(name)
        return None

    def _on_add_xstream(self, ctx: RequestContext) -> Generator:
        yield Compute(OP_COST)
        self.margo.add_xstream(ctx.args)
        return None

    def _on_remove_xstream(self, ctx: RequestContext) -> Generator:
        yield Compute(OP_COST)
        self.margo.remove_xstream(ctx.args["name"])
        return None

    def _on_get_config(self, ctx: RequestContext) -> Generator:
        yield Compute(OP_COST)
        return self.get_config()

    def _on_query(self, ctx: RequestContext) -> Generator:
        yield Compute(OP_COST)
        try:
            return self.query(ctx.args["script"])
        except Exception as err:
            self.introspection_errors += 1
            raise BedrockError(f"query failed: {type(err).__name__}: {err}") from err

    def _on_list_providers(self, ctx: RequestContext) -> Generator:
        yield Compute(OP_COST)
        return sorted(self.records)

    # ------------------------------------------------------------------
    # migration orchestration (paper section 6, Observation 5)
    # ------------------------------------------------------------------
    def _on_migrate_provider(self, ctx: RequestContext) -> Generator:
        """Migrate a provider to another Bedrock-managed process.

        Steps: (1) the provider persists and REMI-ships its files to the
        destination node, (2) the destination Bedrock instantiates an
        identical provider over them, (3) the local provider is stopped.
        """
        op = ctx.args
        name = op["name"]
        record = self.records.get(name)
        if record is None:
            raise NoSuchProviderError(f"no provider named {name!r}")
        if not record.module.supports_migration:
            raise BedrockError(f"type {record.type_name!r} does not support migration")
        self._validate_stop({"name": name})  # no dependents may be left behind
        self._check_unlocked(f"provider:{name}")
        dest_address = op["dest_address"]
        remi_provider_id = int(op.get("remi_provider_id", 0))
        method = op.get("method", "auto")

        from ..remi.client import RemiClient

        migration_started = self.margo.kernel.now
        remi_client = RemiClient(self.margo)
        report = yield from record.instance.migrate(
            _BoundRemi(remi_client, dest_address, remi_provider_id, method),
            dest_address,
            record.provider_id,
        )
        new_provider_id = op.get("new_provider_id")
        if new_provider_id is None:
            # Keep the original id when free at the destination; otherwise
            # allocate the next id unused by providers of this type there.
            dest_config = yield from self.margo.forward(
                dest_address,
                "bedrock_get_config",
                provider_id=BEDROCK_PROVIDER_ID,
                timeout=5.0,
            )
            taken = {
                p["provider_id"]
                for p in dest_config["providers"]
                if p["type"] == record.type_name
            }
            new_provider_id = record.provider_id
            while new_provider_id in taken:
                new_provider_id += 1
        start_op = {
            "name": op.get("new_name", name),
            "type": record.type_name,
            "provider_id": int(new_provider_id),
            "pool": op.get("pool"),
            # The live config: what the provider fixed (a lineage) moves.
            "config": record.instance.config,
            "dependencies": record.dependencies
            if all(isinstance(s, dict) for s in record.dependencies.values())
            else {},
        }
        if start_op["pool"] is None:
            start_op.pop("pool")
        new_record = yield from self.margo.forward(
            dest_address,
            "bedrock_start_provider",
            start_op,
            provider_id=BEDROCK_PROVIDER_ID,
            timeout=10.0,
        )
        self._execute_stop({"name": name})
        self.migrations += 1
        self.migrated_bytes += report.total_bytes
        plane = getattr(self.margo.network, "health_plane", None)
        if plane is not None:
            plane.note_migration(
                name,
                self.margo.process.name,
                dest_address,
                self.margo.kernel.now - migration_started,
            )
        if self.margo.tracer is not None:
            self.margo.tracer.record_span(
                f"migrate:{name}",
                "migration",
                self.margo.process.name,
                migration_started,
                self.margo.kernel.now,
                attributes={
                    "dest": dest_address,
                    "files": report.num_files,
                    "bytes": report.total_bytes,
                    "method": report.method,
                },
            )
        return {
            "moved_files": report.num_files,
            "moved_bytes": report.total_bytes,
            "method": report.method,
            "new_provider": new_record,
        }

    # ------------------------------------------------------------------
    # checkpoint / restore (paper section 7, Observation 9)
    # ------------------------------------------------------------------
    def _on_checkpoint_provider(self, ctx: RequestContext) -> Generator:
        name = ctx.args["name"]
        record = self.records.get(name)
        if record is None:
            raise NoSuchProviderError(f"no provider named {name!r}")
        if not record.module.supports_checkpoint:
            raise BedrockError(f"type {record.type_name!r} does not support checkpoints")
        if self.pfs is None:
            raise BedrockError("this Bedrock server has no PFS attached")
        size = yield from record.instance.checkpoint(self.pfs, ctx.args["path"])
        return {"bytes": size, "path": ctx.args["path"]}

    def _on_restore_provider(self, ctx: RequestContext) -> Generator:
        name = ctx.args["name"]
        record = self.records.get(name)
        if record is None:
            raise NoSuchProviderError(f"no provider named {name!r}")
        if self.pfs is None:
            raise BedrockError("this Bedrock server has no PFS attached")
        size = yield from record.instance.restore(self.pfs, ctx.args["path"])
        return {"bytes": size, "path": ctx.args["path"]}

    # ------------------------------------------------------------------
    # two-phase commit (paper section 5, Observation 3)
    # ------------------------------------------------------------------
    def _entities_of(self, op: dict[str, Any]) -> list[str]:
        action = op["action"]
        if action in ("start_provider", "stop_provider", "pin_provider"):
            return [f"provider:{op['name']}"] + [
                f"provider:{spec}"
                for spec in (op.get("dependencies") or {}).values()
                if isinstance(spec, str)
            ]
        raise TransactionError(f"unknown transactional action {action!r}")

    def _check_unlocked(self, entity: str) -> None:
        holder = self._locks.get(entity)
        if holder is not None:
            raise EntityLockedError(
                f"{entity} is locked by transaction {holder}"
            )

    def _on_tx_prepare(self, ctx: RequestContext) -> Generator:
        yield Compute(OP_COST)
        txid = ctx.args["txid"]
        ops = ctx.args["ops"]
        needed: list[str] = []
        for op in ops:
            needed.extend(self._entities_of(op))
        # All-or-nothing lock acquisition.
        for entity in needed:
            holder = self._locks.get(entity)
            if holder is not None and holder != txid:
                return {"vote": False, "reason": f"{entity} locked by {holder}"}
        try:
            for op in ops:
                action = op["action"]
                if action == "start_provider":
                    self._validate_start(op)
                elif action == "stop_provider":
                    self._validate_stop(op)
                elif action == "pin_provider":
                    if op["name"] not in self.records:
                        raise NoSuchProviderError(
                            f"pin target {op['name']!r} does not exist"
                        )
        except BedrockError as err:
            return {"vote": False, "reason": str(err)}
        for entity in needed:
            self._locks[entity] = txid
        self._prepared[txid] = ops
        return {"vote": True}

    def _on_tx_commit(self, ctx: RequestContext) -> Generator:
        yield Compute(OP_COST)
        txid = ctx.args["txid"]
        ops = self._prepared.pop(txid, None)
        if ops is None:
            raise TransactionError(f"commit of unknown transaction {txid}")
        for op in ops:
            action = op["action"]
            if action == "start_provider":
                self._execute_start(op)
            elif action == "stop_provider":
                self._execute_stop(op)
            elif action == "pin_provider":
                self.dependents.setdefault(op["name"], set()).add(op["dependent"])
        self._release_locks(txid)
        return None

    def _on_tx_abort(self, ctx: RequestContext) -> Generator:
        yield Compute(OP_COST)
        txid = ctx.args["txid"]
        self._prepared.pop(txid, None)
        self._release_locks(txid)
        return None

    def _release_locks(self, txid: str) -> None:
        self._locks = {e: t for e, t in self._locks.items() if t != txid}


def _profile_doc(margo: MargoInstance) -> Any:
    profiler = margo.profiler
    if profiler is None:
        return None
    return dict(profiler.profile(), utilization=profiler.utilization())


def _health_doc(margo: MargoInstance, incidents: bool) -> Any:
    plane = getattr(margo.network, "health_plane", None)
    if plane is None:
        return None
    doc = plane.incidents.to_json() if incidents else plane.health_doc()
    return dict(doc, process=margo.process.name)


def _xray_doc(margo: MargoInstance) -> Any:
    plane = getattr(margo.kernel, "xray_plane", None)
    if plane is None:
        return None
    return {"paths": list(plane.recent), "windows": list(plane.windows)}


#: The names a query reads besides its own variables, and their builders.
_DOCUMENTS: dict[str, Callable[[MargoInstance], Any]] = {
    "__metrics__": lambda m: m.metrics(),
    "__traces__": lambda m: None if m.tracer is None else chrome_trace(m.tracer),
    "__profile__": _profile_doc,
    "__health__": lambda m: _health_doc(m, incidents=False),
    "__incidents__": lambda m: _health_doc(m, incidents=True),
    "__slo__": lambda m: None if m.slo_engine is None else m.slo_engine.status(),
    "__xray__": _xray_doc,
}


class _Documents(dict):
    """What a query reads: ``__config__`` and one document per observer
    plane (``null`` when the plane is off).  Each is built on first
    read, at most once per query, as a fresh tree: neither the script
    nor its reply can reach plane state."""

    def __init__(self, server: BedrockServer) -> None:
        super().__init__()
        self._server = server

    def __missing__(self, name: str) -> Any:
        server = self._server
        doc = server.get_config() if name == "__config__" else _DOCUMENTS[name](server.margo)
        self[name] = doc = deepcopy(doc)
        return doc


class _BoundRemi:
    """Adapter: a REMI client pre-bound to one destination provider.

    Component ``migrate`` hooks call ``migrate_files(dest_address,
    paths, dest_provider_id=..., loaded=...)`` and ``have`` alike:
    ``dest_address`` is the target *process*; Bedrock knows which REMI
    provider id serves it and which transfer method to use.
    """

    def __init__(self, remi_client: Any, dest_address: str, remi_provider_id: int, method: str) -> None:
        self._client = remi_client
        self._dest = dest_address
        self._remi_id = remi_provider_id
        self._method = method

    def migrate_files(self, dest_address: str, paths: list, dest_provider_id: int = 0,
                      loaded: Optional[dict] = None):
        report = yield from self._client.migrate_files(
            self._dest, paths, dest_provider_id=self._remi_id, method=self._method, loaded=loaded
        )
        return report

    def have(self, dest_address: str, paths: list, dest_provider_id: int = 0):
        held = yield from self._client.have(self._dest, paths, dest_provider_id=self._remi_id)
        return held

"""One-call process bootstrap from a Listing-3 document.

"Bedrock's bootstrapping mechanism is already a powerful way to set up
Mochi services without the need for glue code" (paper section 5).
:func:`boot_process` consumes the whole document: the ``margo`` section
configures the runtime, ``libraries`` + ``providers`` configure Bedrock.
"""

from __future__ import annotations

from typing import Any, Optional

from ..cluster import Cluster
from ..margo.config import MargoConfig
from ..margo.runtime import MargoInstance
from ..storage.local import LocalStore
from ..storage.pfs import ParallelFileSystem
from .errors import BedrockConfigError
from .module import BedrockModule
from .server import BedrockServer, boot_sections, check_library, check_start

__all__ = ["boot_process", "check_boot_config"]


def check_boot_config(doc: Optional[dict[str, Any]]) -> None:
    """Raise what booting ``doc`` would raise, without creating anything.

    The ``margo`` section goes through :meth:`MargoConfig.from_json`;
    ``libraries`` then ``providers`` go, in boot order, through the same
    checks a live :class:`BedrockServer` applies, over an empty process.
    """
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise BedrockConfigError(
            f"bedrock config must be an object, got {type(doc).__name__}"
        )
    margo = MargoConfig.from_json(doc.get("margo"))
    libraries, providers = boot_sections(doc)
    pools = {spec.name for spec in margo.pools}
    modules: dict[str, BedrockModule] = {}
    for type_name, library in libraries.items():
        modules[type_name] = check_library(modules, type_name, library)
    taken: dict[str, tuple[str, int]] = {}
    for entry in providers:
        provider_id = check_start(entry, modules, taken, pools, margo.rpc_pool)
        taken[entry["name"]] = (entry["type"], provider_id)


def boot_process(
    cluster: Cluster,
    name: str,
    node: str,
    config: Optional[dict[str, Any]] = None,
    pfs: Optional[ParallelFileSystem] = None,
    with_local_store: bool = True,
    monitors: tuple = (),
) -> tuple[MargoInstance, BedrockServer]:
    """Create a process on ``node`` and boot it from ``config``.

    Returns the Margo instance and its Bedrock server.  A node-local
    store is attached (once per node) unless ``with_local_store=False``.
    The whole document is checked first (:func:`check_boot_config`, the
    same check ``repro-lint`` runs on config files), so a bad document
    fails before any process exists, with the runtime's own exception.
    """
    check_boot_config(config)
    config = config or {}
    node_obj = cluster.node(node)
    if with_local_store and "disk" not in node_obj.attachments:
        LocalStore(node_obj)
    margo = cluster.add_margo(
        name, node_obj, config=config.get("margo"), monitors=monitors
    )
    bedrock = BedrockServer(margo, config=config, pfs=pfs)
    return margo, bedrock

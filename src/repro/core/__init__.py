"""Core: the component anatomy (Fig. 1) and the dynamic-service layer.

The service-layer symbols are loaded lazily to break the import cycle
bedrock -> core.component -> core.__init__ -> core.service -> bedrock.
"""

from .component import (
    Client,
    ComponentError,
    Provider,
    ProviderIdError,
    ResourceHandle,
)
from .parallel import ParallelError, parallel
from .spec import ProcessSpec, ServiceSpec, SpecError

__all__ = [
    "Provider",
    "Client",
    "ResourceHandle",
    "ComponentError",
    "ProviderIdError",
    "parallel",
    "ParallelError",
    "ServiceSpec",
    "ProcessSpec",
    "SpecError",
    "DynamicService",
    "ManagedProcess",
    "ServiceError",
    "ServiceController",
    "ElasticityPolicy",
]

_LAZY = {
    "DynamicService": "service",
    "ManagedProcess": "service",
    "ServiceError": "service",
    "ServiceController": "controller",
    "ElasticityPolicy": "controller",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.core' has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value

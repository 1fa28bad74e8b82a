"""MCH050-052 positive fixture: one broken contract per rule."""


class KvProvider:
    component_type = "kv"

    def __init__(self, margo):
        self.register_rpc("get", self._on_get)
        # MCH051: _on_stat does not exist.
        self.register_rpc("stat", self._on_stat)
        # MCH051: _on_scan is not a generator and has the wrong arity.
        self.register_rpc("scan", self._on_scan)

    def _on_get(self, ctx):
        yield Compute(0.1)  # noqa: F821
        # no return: the client binding this result gets None (MCH052).

    def _on_scan(self, prefix, limit, extra):
        return [prefix, limit, extra]

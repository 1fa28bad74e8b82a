"""Reference models: a component as plain Python data (ROADMAP item 1).

The specification the live providers are held to by the differential
tests.  Slow and obvious on purpose; imports nothing from ``repro``.

Warabi half: a blob is a mutable ``bytearray`` edited in place -- the
representation ``repro.warabi`` retired for immutable ``bytes`` shared
with the device, kept here as the oracle the way
``tests/reference_kernel.py`` keeps a slow heap
(``test_warabi_model.py``).
Yokan's ``KVModel`` is a dict plus what the last flush made durable.
"""

NO_SUCH_BLOB = "no such blob"
OUT_OF_RANGE = "out of range"
NEGATIVE = "negative"
NO_SUCH_KEY = "no such key"


class ModelError(Exception):
    """An operation the component must refuse; ``args[0]`` is the phrase
    its error message has to contain."""


class WarabiModel:
    """One blob target: ``create``/``write``/``read``/``size``/``erase``/
    ``list`` with the argument order of ``repro.warabi.TargetHandle``."""

    def __init__(self):
        self.blobs = {}  # id -> bytearray
        self.next_id = 0  # never re-issued, erase or not

    def _blob(self, blob_id):
        try:
            return self.blobs[blob_id]
        except KeyError:
            raise ModelError(NO_SUCH_BLOB) from None

    def create(self, size=0):
        if size < 0:
            raise ModelError(NEGATIVE)
        blob_id = self.next_id
        self.next_id += 1
        self.blobs[blob_id] = bytearray(size)
        return blob_id

    def write(self, blob_id, data, offset=0):
        blob = self._blob(blob_id)
        if offset < 0:
            raise ModelError(NEGATIVE)
        end = offset + len(data)
        if end > len(blob):
            blob.extend(bytes(end - len(blob)))  # a gap reads as zeros
        blob[offset:end] = data
        return len(data)

    def read(self, blob_id, offset=0, size=None):
        blob = self._blob(blob_id)
        if size is None:
            size = len(blob) - offset
        if offset < 0 or size < 0 or offset + size > len(blob):
            raise ModelError(OUT_OF_RANGE)
        return bytes(blob[offset : offset + size])

    def size(self, blob_id):
        return len(self._blob(blob_id))

    def erase(self, blob_id):
        self._blob(blob_id)
        del self.blobs[blob_id]

    def list(self):
        return sorted(self.blobs)

    def copy(self):
        twin = WarabiModel()
        twin.blobs = {blob_id: bytearray(blob) for blob_id, blob in self.blobs.items()}
        twin.next_id = self.next_id
        return twin


class KVModel:
    """One database: ``reopen`` keeps only what ``flush`` made durable."""

    def __init__(self):
        self.data = {}
        self.durable = {}

    def put(self, key, value):
        self.data[key] = value

    def put_multi(self, pairs):
        self.data.update(pairs)

    def erase(self, key):
        if key not in self.data:
            raise ModelError(NO_SUCH_KEY)
        del self.data[key]

    def clear(self):
        self.data.clear()

    def flush(self):
        self.durable = dict(self.data)

    def reopen(self):
        self.data = dict(self.durable)

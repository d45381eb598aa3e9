"""Zone (difference bound matrix) substrate for timed-automata checking.

The list-based :class:`DBM` is the portable reference backend; the
compiled native backend lives in :mod:`repro.zones.dbm_native` and is
auto-selected via :mod:`repro.zones.backend` (``REPRO_ZONE_BACKEND``
environment variable, ``set_backend`` or the CLI ``--zone-backend``
flag) when its C extension is built.
"""

from repro.zones.backend import (
    ZoneBackend,
    available_backends,
    resolve_backend,
    set_backend,
)
from repro.zones.bounds import (
    INF,
    LE_ZERO,
    LT_ZERO,
    bound_add,
    bound_as_text,
    bound_is_weak,
    bound_value,
    decode,
    encode,
    negate_weak,
)
from repro.zones.common import ZoneMatrix
from repro.zones.dbm import DBM

__all__ = [
    "DBM",
    "INF",
    "LE_ZERO",
    "LT_ZERO",
    "ZoneBackend",
    "ZoneMatrix",
    "available_backends",
    "bound_add",
    "bound_as_text",
    "bound_is_weak",
    "bound_value",
    "decode",
    "encode",
    "negate_weak",
    "resolve_backend",
    "set_backend",
]

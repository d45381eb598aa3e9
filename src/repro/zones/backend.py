"""Zone-backend selection: one DBM API, pluggable kernels.

Three interchangeable backends implement the
:class:`~repro.zones.common.ZoneMatrix` contract:

``reference``
    The portable list-based :class:`~repro.zones.dbm.DBM` (aliases:
    ``python``, ``list``).  No dependencies, arbitrary-precision ints.
``numpy``
    The vectorized :class:`~repro.zones.dbm_numpy.NumpyDBM`, paired
    with a batched passed-list store.  Requires numpy.
``native``
    The compiled :class:`~repro.zones.dbm_native.NativeDBM` (alias:
    ``c``): C kernels over the numpy storage, sharing the numpy
    backend's batched store.  Requires numpy plus the optional
    ``repro.zones._dbmkernel`` extension (``python setup.py build_ext
    --inplace``, or the ``[native]`` install extra); simply absent
    from :func:`available_backends` when unbuilt.

Selection order for :func:`resolve_backend`:

1. an explicit name passed by the caller (e.g. the explorer's
   ``zone_backend=`` parameter or the CLI ``--zone-backend`` flag),
2. a process-wide override installed via :func:`set_backend`,
3. the ``REPRO_ZONE_BACKEND`` environment variable,
4. ``auto``: the cheapest available backend for the workload at hand.

``auto`` is hint-aware: callers that know the compiled network (the
explorer) pass a :class:`~repro.zones.costmodel.BackendHint` with the
clock count and structural model size, and the committed
microbenchmark cost table in :mod:`repro.zones.costmodel`
picks the backend.  Without a hint the preference is static
(native > numpy > reference).

All backends produce bit-identical matrices, hashes and emptiness
verdicts (enforced by the differential tests), so switching backends
never changes verification results — only wall time.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.zones.dbm import DBM
from repro.zones.store import ReferencePassedBucket

__all__ = [
    "ENV_VAR",
    "ZoneBackend",
    "available_backends",
    "requested_backend",
    "resolve_backend",
    "set_backend",
]

ENV_VAR = "REPRO_ZONE_BACKEND"

_ALIASES = {
    "reference": "reference",
    "python": "reference",
    "list": "reference",
    "numpy": "numpy",
    "native": "native",
    "c": "native",
}


class ZoneBackend(NamedTuple):
    """A DBM implementation plus its matching passed-list store."""

    name: str
    dbm: type
    bucket: type


def _env_backend() -> str:
    """``REPRO_ZONE_BACKEND``, validated at read time (fail fast —
    a daemon must reject a typo at boot, not inside a request)."""
    from repro.envvars import env_choice

    return env_choice(ENV_VAR, ("auto", *_ALIASES),
                      default="auto")


_REFERENCE = ZoneBackend("reference", DBM, ReferencePassedBucket)
_numpy_backend: ZoneBackend | None = None
_native_backend: ZoneBackend | None = None
_forced: str | None = None


def _load_numpy() -> ZoneBackend:
    global _numpy_backend
    if _numpy_backend is None:
        from repro.zones.dbm_numpy import NumpyDBM
        from repro.zones.store import NumpyPassedBucket
        _numpy_backend = ZoneBackend("numpy", NumpyDBM, NumpyPassedBucket)
    return _numpy_backend


def _load_native() -> ZoneBackend:
    global _native_backend
    if _native_backend is None:
        from repro.zones.dbm_native import NativeDBM
        from repro.zones.store import NumpyPassedBucket
        _native_backend = ZoneBackend("native", NativeDBM,
                                      NumpyPassedBucket)
    return _native_backend


def available_backends() -> tuple[str, ...]:
    """Canonical names of the backends importable right now."""
    names = ["reference"]
    try:
        _load_numpy()
    except ImportError:
        pass
    else:
        names.append("numpy")
    try:
        _load_native()
    except ImportError:
        pass
    else:
        names.append("native")
    return tuple(names)


def set_backend(name: str | None) -> None:
    """Install a process-wide backend override (``None`` clears it).

    Accepts ``auto``, ``reference`` (aliases ``python``/``list``),
    ``numpy`` or ``native`` (alias ``c``); validation of availability
    happens at resolve time so an early CLI call cannot crash on a
    missing optional dependency.
    """
    global _forced
    if name is not None and name != "auto" and name not in _ALIASES:
        raise ValueError(
            f"unknown zone backend {name!r} "
            f"(choose from: auto, {', '.join(sorted(set(_ALIASES)))})")
    _forced = name


def requested_backend(name: str | None = None) -> str:
    """The *effective spec* before availability resolution.

    Returns ``"auto"`` or a canonical backend name, following the same
    explicit > override > environment > default order as
    :func:`resolve_backend`.  Lets
    :class:`~repro.mc.pool.EngineConfig` replay snapshots preserve an
    ``auto`` request literally, so worker processes re-resolve per
    model instead of inheriting one frozen choice (bit-identity across
    backends makes that safe).
    """
    if name is None:
        name = _forced or _env_backend()
    if name == "auto":
        return "auto"
    key = _ALIASES.get(name)
    if key is None:
        raise ValueError(
            f"unknown zone backend {name!r} "
            f"(choose from: auto, {', '.join(sorted(set(_ALIASES)))})")
    return key


def _resolve_auto(hint=None) -> ZoneBackend:
    """Cost-model resolution of ``auto`` (see module docstring)."""
    from repro.zones.costmodel import choose_backend
    candidates = available_backends()
    name = choose_backend(candidates, hint)
    if name == "native":
        return _load_native()
    if name == "numpy":
        return _load_numpy()
    return _REFERENCE


def resolve_backend(name: str | None = None, *,
                    hint=None) -> ZoneBackend:
    """Resolve a backend spec (see the module docstring for the order).

    ``hint`` is an optional :class:`~repro.zones.costmodel.BackendHint`
    consulted only when the spec resolves to ``auto``; explicit names
    ignore it.
    """
    if name is None:
        name = _forced or _env_backend()
    if name == "auto":
        return _resolve_auto(hint)
    key = _ALIASES.get(name)
    if key is None:
        raise ValueError(
            f"unknown zone backend {name!r} "
            f"(choose from: auto, {', '.join(sorted(set(_ALIASES)))})")
    if key == "numpy":
        try:
            return _load_numpy()
        except ImportError as exc:
            raise RuntimeError(
                "the numpy zone backend was requested but numpy is "
                "not importable") from exc
    if key == "native":
        try:
            return _load_native()
        except ImportError as exc:
            raise RuntimeError(
                "the native zone backend was requested but the "
                "compiled kernel is not importable — build it with "
                "'python setup.py build_ext --inplace' (or install "
                "the [native] extra), or pick auto/numpy/reference"
            ) from exc
    return _REFERENCE

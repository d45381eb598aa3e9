"""Zone-backend selection: one DBM API, two kernels.

Two interchangeable backends implement the
:class:`~repro.zones.common.ZoneMatrix` contract:

``reference``
    The portable list-based :class:`~repro.zones.dbm.DBM` (aliases:
    ``python``, ``list``).  No dependencies, arbitrary-precision ints.
    It is the executable specification: every lockstep test compares
    the native kernels against it.
``native``
    The compiled :class:`~repro.zones.dbm_native.NativeDBM` (alias:
    ``c``): C kernels over numpy int64 storage, paired with the
    row-stack passed store whose scans also run in C.  Requires numpy
    plus the optional ``repro.zones._dbmkernel`` extension (``python
    setup.py build_ext --inplace``, or the ``[native]`` install
    extra); simply absent from :func:`available_backends` when unbuilt.

Selection order for :func:`resolve_backend`:

1. an explicit name passed by the caller (e.g. the explorer's
   ``zone_backend=`` parameter or the CLI ``--zone-backend`` flag),
2. a process-wide override installed via :func:`set_backend`,
3. the ``REPRO_ZONE_BACKEND`` environment variable,
4. ``auto``: ``native`` when it is built and the model fits its clock
   limit (:data:`~repro.zones.dbm_native.MAX_CLOCKS`), else
   ``reference``.

Both backends produce bit-identical matrices, hashes and emptiness
verdicts (enforced by the differential tests), so switching backends
never changes verification results — only wall time.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.zones.dbm import DBM
from repro.zones.store import ReferencePassedBucket

__all__ = [
    "CHOICES",
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
    "native": "native",
    "c": "native",
}

#: Every accepted spelling: ``auto`` plus the backend names and aliases.
CHOICES = ("auto", *_ALIASES)


class ZoneBackend(NamedTuple):
    """A DBM implementation plus its matching passed-list store."""

    name: str
    dbm: type
    bucket: type


def _env_backend() -> str:
    """``REPRO_ZONE_BACKEND``, validated at read time (fail fast —
    a daemon must reject a typo at boot, not inside a request)."""
    from repro.envvars import env_choice

    return env_choice(ENV_VAR, CHOICES, default="auto")


_REFERENCE = ZoneBackend("reference", DBM, ReferencePassedBucket)
_native_backend: ZoneBackend | None = None
_forced: str | None = None


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
    try:
        _load_native()
    except ImportError:
        return ("reference",)
    return ("reference", "native")


def _canonical(name: str) -> str:
    key = _ALIASES.get(name)
    if key is None:
        raise ValueError(
            f"unknown zone backend {name!r} "
            f"(choose from: {', '.join(CHOICES)})")
    return key


def set_backend(name: str | None) -> None:
    """Install a process-wide backend override (``None`` clears it).

    Accepts ``auto``, ``reference`` (aliases ``python``/``list``) or
    ``native`` (alias ``c``); validation of availability happens at
    resolve time so an early CLI call cannot crash on a missing
    optional dependency.
    """
    global _forced
    if name is not None and name != "auto":
        _canonical(name)
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
    return _canonical(name)


def resolve_backend(name: str | None = None, *,
                    n_clocks: int | None = None) -> ZoneBackend:
    """Resolve a backend spec (see the module docstring for the order).

    ``n_clocks`` is the DBM dimension of the model about to run
    (reference clock included).  ``auto`` falls back to ``reference``
    when it exceeds the native kernel's limit; explicit names ignore
    it, so an explicit ``native`` on too big a model fails with the
    kernel's own error instead of silently changing backend.
    """
    if name is None:
        name = _forced or _env_backend()
    if name == "auto":
        try:
            native = _load_native()
        except ImportError:
            return _REFERENCE
        from repro.zones.dbm_native import MAX_CLOCKS
        if n_clocks is not None and n_clocks > MAX_CLOCKS:
            return _REFERENCE
        return native
    if _canonical(name) == "native":
        try:
            return _load_native()
        except ImportError as exc:
            raise RuntimeError(
                "the native zone backend was requested but the "
                "compiled kernel is not importable — build it with "
                "'python setup.py build_ext --inplace' (or install "
                "the [native] extra), or pick auto/reference"
            ) from exc
    return _REFERENCE

"""The protection-scheme registry.

Historically, adding a protection scheme meant editing the
:class:`~repro.common.params.ProtectionMode` enum *and* the dispatch
if-chain that chose each core's memory-system factory *and* every module
that compared ``ProtectionMode`` members to learn a scheme's capabilities.
This module replaces all of that with data: a :class:`SchemeSpec` bundles
a scheme's name, its memory-system factory and its capability flags, and
the registry (:func:`register_scheme` / :func:`get_scheme` /
:func:`available_schemes`) is the single authoritative name -> scheme
mapping the rest of the system dispatches through.

The seven built-in schemes self-register when their defining modules are
imported (:mod:`repro.core.muontrap`, :mod:`repro.baselines`); lookups
import those modules lazily, so importing :mod:`repro.schemes` alone stays
cheap and free of import cycles.  External code registers new schemes the
same way the builtins do::

    from repro.schemes import SchemeSpec, register_scheme

    register_scheme(SchemeSpec(
        name="my-scheme",
        factory=MySchemeMemorySystem,      # (config, **kwargs) -> MemorySystem
        display_name="MyScheme",
        timing_invariant=True,
    ))

after which ``SystemConfig(mode="my-scheme")`` builds end-to-end through
:func:`repro.api.simulate`, ``python -m repro run --mode my-scheme`` sweeps
it, and ``python -m repro schemes`` lists it.  :class:`ProtectionMode` is
kept as a thin, deprecated alias for the built-in names; its capability
properties resolve through this registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, Dict, List, Optional, Union

from repro.common.params import ProtectionConfig, ProtectionMode, scheme_name

#: Anything that names a scheme: a registry name or a ProtectionMode member.
SchemeLike = Union[str, ProtectionMode]


class UnknownSchemeError(ValueError):
    """A scheme name that matches no registry entry."""


@dataclass(frozen=True)
class SchemeSpec:
    """Everything the system needs to know about one protection scheme.

    ``factory`` is called exactly like the built-in memory-system
    constructors: ``factory(config, page_tables=..., stats=..., rng=...,
    hierarchy=..., core_ids=...)`` and must return a
    :class:`~repro.cpu.interface.MemorySystem`.  The capability flags
    replace scattered ``ProtectionMode`` comparisons: consumers ask the
    spec, not the enum.
    """

    name: str
    factory: Callable[..., object]
    #: Human-facing series label (figure legends, report columns).
    display_name: str = ""
    description: str = ""
    #: The scheme hides speculative state changes from timing probes (the
    #: paper's security property; False for the insecure baselines).
    timing_invariant: bool = False
    #: The scheme interposes speculative filter caches (a MuonTrap L0)
    #: between the core and the non-speculative hierarchy.
    supports_filter_caches: bool = False
    #: The scheme delays taint-dependent transmit instructions (STT).
    delays_transmitters: bool = False
    #: The scheme buffers speculative loads for later validation
    #: (InvisiSpec).
    uses_speculative_buffers: bool = False
    #: The scheme belongs to the five-series comparison of Figures 3/4.
    figure_series: bool = False
    #: Default :class:`~repro.common.params.ProtectionConfig` tweaks applied
    #: by :func:`scheme_config` (None = the machine default).  Never applied
    #: implicitly: ``SystemConfig(mode=...)`` is unaffected.
    default_protection: Optional[ProtectionConfig] = None
    #: True for the schemes shipped with the package (protected from
    #: unregistration).
    builtin: bool = False

    def __post_init__(self) -> None:
        if not self.name or self.name != self.name.strip():
            raise ValueError("scheme name must be a non-empty string")
        if any(ch.isspace() for ch in self.name):
            raise ValueError(f"scheme name {self.name!r} must not contain "
                             f"whitespace")
        if not callable(self.factory):
            raise ValueError(f"scheme {self.name!r}: factory must be "
                             f"callable")
        if not self.display_name:
            object.__setattr__(self, "display_name", self.name)

    @property
    def slug(self) -> str:
        """Identifier-safe name (statistics-tree node names)."""
        return self.name.replace("-", "_")

    def capabilities(self) -> Dict[str, bool]:
        """The capability flags as a name -> bool mapping."""
        return {spec_field.name: getattr(self, spec_field.name)
                for spec_field in fields(self)
                if spec_field.type == "bool" and spec_field.name != "builtin"}


#: The registry.  :func:`available_schemes` presents the builtins in this
#: canonical order (the insecure baselines, then the five protected
#: schemes in the order the figures compare them) regardless of which
#: module happened to import first; user schemes follow in registration
#: order.
_BUILTIN_ORDER = [
    "unprotected", "insecure-l0", "muontrap",
    "invisispec-spectre", "invisispec-future",
    "stt-spectre", "stt-future",
]
_REGISTRY: Dict[str, SchemeSpec] = {}
_BUILTINS_LOADED = False


def _ensure_builtins() -> None:
    """Import the modules whose schemes self-register, exactly once.

    The import order fixes the canonical registry order: the two insecure
    baselines, then the five protected schemes in the order the figures
    compare them.
    """
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    _BUILTINS_LOADED = True
    import repro.baselines.unprotected  # noqa: F401
    import repro.baselines.insecure_l0  # noqa: F401
    import repro.core.muontrap  # noqa: F401
    import repro.baselines.invisispec  # noqa: F401
    import repro.baselines.stt  # noqa: F401


def register_scheme(spec: SchemeSpec, replace: bool = False) -> SchemeSpec:
    """Add a scheme to the registry (and return it).

    Re-registering an existing name requires ``replace=True``; the built-in
    schemes cannot be replaced (the differential tests pin their
    behaviour).
    """
    _ensure_builtins()
    existing = _REGISTRY.get(spec.name)
    if existing is not None:
        if existing.builtin:
            raise ValueError(f"cannot replace built-in scheme {spec.name!r}")
        if not replace:
            raise ValueError(
                f"scheme {spec.name!r} is already registered "
                f"(pass replace=True to redefine it)")
    _REGISTRY[spec.name] = spec
    return spec


def _register_builtin(spec: SchemeSpec) -> SchemeSpec:
    """Registration path used by the built-in modules themselves.

    Bypasses :func:`_ensure_builtins` (the builtins are in the middle of
    loading when this runs) and tolerates re-execution.
    """
    _REGISTRY[spec.name] = spec
    return spec


def unregister_scheme(name: SchemeLike) -> None:
    """Remove a user-registered scheme (builtins cannot be removed)."""
    key = scheme_name(name)
    spec = _REGISTRY.get(key)
    if spec is None:
        return
    if spec.builtin:
        raise ValueError(f"cannot unregister built-in scheme {key!r}")
    del _REGISTRY[key]


def get_scheme(name: SchemeLike) -> SchemeSpec:
    """Resolve a scheme name (or ProtectionMode member) to its spec."""
    _ensure_builtins()
    key = scheme_name(name)
    try:
        return _REGISTRY[key]
    except KeyError:
        raise UnknownSchemeError(
            f"unknown protection scheme: {key!r} "
            f"(registered: {', '.join(scheme_names())})") from None


def is_registered(name: SchemeLike) -> bool:
    _ensure_builtins()
    return scheme_name(name) in _REGISTRY


def available_schemes() -> List[SchemeSpec]:
    """All registered schemes: builtins in canonical order, then the rest."""
    _ensure_builtins()
    builtins = [_REGISTRY[name] for name in _BUILTIN_ORDER
                if name in _REGISTRY]
    extras = [spec for name, spec in _REGISTRY.items()
              if name not in _BUILTIN_ORDER]
    return builtins + extras


def scheme_names() -> List[str]:
    return [spec.name for spec in available_schemes()]


def figure_series_schemes() -> List[SchemeSpec]:
    """The five schemes of Figures 3 and 4, in figure order."""
    return [spec for spec in available_schemes() if spec.figure_series]


def scheme_display_labels() -> Dict[str, str]:
    """name -> display label for every registered scheme."""
    return {spec.name: spec.display_name for spec in available_schemes()}


def scheme_config(name: SchemeLike, num_cores: int = 1):
    """A default system configuration running one scheme on every core.

    Applies the scheme's ``default_protection`` tweaks when it declares
    any; otherwise this is exactly
    ``SystemConfig(mode=name, num_cores=num_cores)``.
    """
    from repro.common.params import SystemConfig
    spec = get_scheme(name)
    config = SystemConfig(mode=spec.name, num_cores=num_cores)
    if spec.default_protection is not None:
        config = config.with_protection(spec.default_protection)
    return config


__all__ = [
    "SchemeSpec",
    "UnknownSchemeError",
    "available_schemes",
    "figure_series_schemes",
    "get_scheme",
    "is_registered",
    "register_scheme",
    "scheme_config",
    "scheme_display_labels",
    "scheme_name",
    "scheme_names",
    "unregister_scheme",
]

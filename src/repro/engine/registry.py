"""String-keyed strategy registries — the extension points of the engine.

FROTE's knobs (``selection``, ``mod_strategy``, the sampler used for
generation, the acceptance objective) were historically validated against
frozen allowlists.  This module replaces those with open registries: each
strategy family is a :class:`Registry` that user code extends with a
decorator, no edits under ``repro/`` required::

    from repro.engine import register_selector

    @register_selector("confidence")
    class ConfidenceSelector:
        def select(self, bp, eta, ctx):
            ...

    session = repro.edit(data).configure(selection="confidence")

Built-in strategies are pre-registered *lazily* (by dotted path), so merely
importing :mod:`repro.engine.registry` — e.g. to validate a
:class:`~repro.core.config.FroteConfig` — does not import the strategy
modules; the class is resolved on first :meth:`Registry.create`.
"""

from __future__ import annotations

import difflib
import importlib
from typing import Any, Callable, Iterator


class RegistryError(ValueError):
    """Unknown or conflicting strategy name (a :class:`ValueError`)."""


class UnknownEntryError(RegistryError, KeyError):
    """Unknown registry name.

    Doubles as a :class:`KeyError` so registries can back mapping-style
    lookups (``DATASETS[name]``, ``MODELS[name]``) without changing the
    exception contract of the legacy ``dict``-based APIs, while still
    carrying the registry's did-you-mean message.
    """

    def __str__(self) -> str:  # KeyError would repr()-quote the message
        return Exception.__str__(self)


class _LazyEntry:
    """A registration by dotted path, resolved on first use."""

    __slots__ = ("path",)

    def __init__(self, path: str) -> None:
        self.path = path

    def resolve(self) -> Any:
        module_name, _, attr = self.path.partition(":")
        module = importlib.import_module(module_name)
        return getattr(module, attr)


class Registry:
    """A named mapping from strategy names to factories.

    Parameters
    ----------
    kind:
        Human-readable family name used in error messages
        (``"selection strategy"``, ``"sampler"``, ...).
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: dict[str, Any] = {}

    # ------------------------------------------------------------------ #
    def register(
        self, name: str, obj: Any = None, *, overwrite: bool = False
    ) -> Any:
        """Register ``obj`` under ``name``; usable as a decorator.

        Re-registering a name raises unless ``overwrite=True`` — except
        that resolving a lazy (dotted-path) placeholder with a concrete
        object is always allowed, so built-in modules may decorate their
        classes with the same names the registry pre-declares.
        """
        if obj is None:
            return lambda target: self.register(name, target, overwrite=overwrite)
        existing = self._entries.get(name)
        if existing is not None and not overwrite and not isinstance(existing, _LazyEntry):
            raise RegistryError(
                f"{self.kind} {name!r} is already registered "
                f"(pass overwrite=True to replace it)"
            )
        self._entries[name] = obj
        return obj

    def register_lazy(self, name: str, path: str) -> None:
        """Pre-declare a built-in under ``name`` as ``"module:attr"``."""
        if name not in self._entries:
            self._entries[name] = _LazyEntry(path)

    def unregister(self, name: str) -> None:
        self._entries.pop(name, None)

    # ------------------------------------------------------------------ #
    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._entries))

    def names(self) -> tuple[str, ...]:
        """Registered names, sorted — lazy built-ins included."""
        return tuple(sorted(self._entries))

    def validate(self, name: str) -> str:
        """Check membership without importing anything; returns ``name``."""
        if name not in self._entries:
            raise UnknownEntryError(self._unknown_message(name))
        return name

    def get(self, name: str) -> Any:
        """The registered factory (resolving lazy entries in place)."""
        try:
            entry = self._entries[name]
        except KeyError:
            raise UnknownEntryError(self._unknown_message(name)) from None
        if isinstance(entry, _LazyEntry):
            entry = entry.resolve()
            self._entries[name] = entry
        return entry

    def create(self, name: str, /, *args, **kwargs) -> Any:
        """Instantiate the strategy: ``factory(*args, **kwargs)``.

        Non-callable registrations (e.g. plain function strategies wrapped
        in no class) are returned as-is when called with no arguments.
        """
        factory = self.get(name)
        if not callable(factory):
            if args or kwargs:
                raise TypeError(
                    f"{self.kind} {name!r} is not callable; "
                    f"cannot apply arguments {args} {kwargs}"
                )
            return factory
        return factory(*args, **kwargs)

    # ------------------------------------------------------------------ #
    def _unknown_message(self, name: str) -> str:
        known = self.names()
        msg = f"unknown {self.kind} {name!r}; registered: {', '.join(known) or '(none)'}"
        close = difflib.get_close_matches(name, known, n=2, cutoff=0.6)
        if not close:
            # Case-insensitive fallback: "lr" should still suggest 'LR'.
            folded = {k.lower(): k for k in known}
            close = [
                folded[c]
                for c in difflib.get_close_matches(
                    name.lower(), list(folded), n=2, cutoff=0.6
                )
            ]
        if close:
            quoted = " or ".join(repr(c) for c in close)
            msg += f" — did you mean {quoted}?"
        return msg


class InfoRegistry(Registry):
    """A :class:`Registry` of metadata entries with mapping-style access.

    Strategy registries store *factories*; some registries (datasets,
    models, run kinds) instead store descriptive info records that callers
    read directly.  This subclass adds the ``dict`` surface those callers
    expect — ``registry[name]``, ``.values()``, ``.items()`` — on top of
    the same did-you-mean error handling, so legacy ``DATASETS[name]``
    code keeps working against a live registry.
    """

    def __getitem__(self, name: str) -> Any:
        return self.get(name)

    def values(self) -> list[Any]:
        return [self.get(name) for name in self.names()]

    def items(self) -> list[tuple[str, Any]]:
        return [(name, self.get(name)) for name in self.names()]


# --------------------------------------------------------------------- #
# The strategy families of the edit engine.

SELECTORS = Registry("selection strategy")
MODIFIERS = Registry("modification strategy")
SAMPLERS = Registry("sampler")
OBJECTIVES = Registry("objective")


def _make_decorator(registry: Registry) -> Callable:
    def decorator(name: str, obj: Any = None, *, overwrite: bool = False) -> Any:
        return registry.register(name, obj, overwrite=overwrite)

    decorator.__name__ = f"register_{registry.kind.split()[0]}"
    decorator.__doc__ = f"Register a {registry.kind} by name (decorator form)."
    return decorator


register_selector = _make_decorator(SELECTORS)
register_modifier = _make_decorator(MODIFIERS)
register_sampler = _make_decorator(SAMPLERS)
register_objective = _make_decorator(OBJECTIVES)


# Built-ins, declared lazily so config validation needs no heavy imports.
SELECTORS.register_lazy("random", "repro.core.selection:RandomSelector")
SELECTORS.register_lazy("ip", "repro.core.selection:IPSelector")
SELECTORS.register_lazy("online", "repro.core.online_proxy:OnlineProxySelector")

MODIFIERS.register_lazy("none", "repro.core.modification:NoModification")
MODIFIERS.register_lazy("relabel", "repro.core.modification:RelabelModification")
MODIFIERS.register_lazy("drop", "repro.core.modification:DropModification")

SAMPLERS.register_lazy("smote", "repro.sampling.smote:SMOTE")
SAMPLERS.register_lazy("borderline", "repro.sampling.borderline:BorderlineSMOTE")
SAMPLERS.register_lazy("adasyn", "repro.sampling.adasyn:ADASYN")

OBJECTIVES.register_lazy("equal", "repro.core.objective:equal_weight_objective")
OBJECTIVES.register_lazy("weighted", "repro.core.objective:coverage_weighted_objective")

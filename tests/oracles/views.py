"""The view collection the two-tier oracles rewrite over."""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.errors import MappingError
from repro.integration import View


class ViewSet:
    """A collection of views indexed by name and by body predicate.

    The index by body predicate is what both MiniCon and the Bucket
    algorithm iterate over: "find the views that contain an atom of this
    predicate".
    """

    def __init__(self, views: Iterable[View] = ()):
        self._views: list[View] = []
        self._by_name: dict[str, View] = {}
        self._by_predicate: dict[str, list[View]] = {}
        for view in views:
            self.add(view)

    def add(self, view: View) -> None:
        """Add a view; duplicate view names are rejected."""
        if view.name in self._by_name:
            raise MappingError(f"duplicate view name {view.name!r}")
        self._views.append(view)
        self._by_name[view.name] = view
        for predicate in view.definition.predicates():
            self._by_predicate.setdefault(predicate, []).append(view)

    def by_name(self, name: str) -> View:
        """Look up a view by its name."""
        try:
            return self._by_name[name]
        except KeyError as exc:
            raise MappingError(f"no view named {name!r}") from exc

    def with_predicate(self, predicate: str) -> Sequence[View]:
        """All views whose definition body mentions ``predicate``."""
        return tuple(self._by_predicate.get(predicate, ()))

    def __iter__(self) -> Iterator[View]:
        return iter(self._views)

    def __len__(self) -> int:
        return len(self._views)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

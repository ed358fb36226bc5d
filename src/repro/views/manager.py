"""The View Manager (section 5): create, evolve and look up view schemas.

Coordinates the generator, the closure check and the history.  The TSE
Manager calls :meth:`ViewManager.register_successor` at the end of every
schema-change pipeline (arrow 3 of figure 6).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from repro.errors import ViewError
from repro.obs.tracing import Tracer
from repro.schema.graph import GlobalSchema
from repro.views.generation import ViewSchemaGenerator
from repro.views.history import ViewSchemaHistory
from repro.views.schema import ViewSchema


class ViewManager:
    """Facade over view generation and the view schema history."""

    def __init__(self, schema: GlobalSchema, tracer: Optional[Tracer] = None) -> None:
        self.schema = schema
        self.generator = ViewSchemaGenerator(schema, tracer=tracer)
        self.history = ViewSchemaHistory()

    def create_view(
        self,
        name: str,
        selected: Iterable[str],
        renames: Optional[Mapping[str, str]] = None,
        property_renames: Optional[Mapping[str, Mapping[str, str]]] = None,
        closure: str = "complete",
        provenance: str = "initial",
    ) -> ViewSchema:
        """Create and register version 1 of a new view."""
        view = self.generator.generate(
            name=name,
            version=1,
            selected=selected,
            renames=renames,
            property_renames=property_renames,
            provenance=provenance,
            closure=closure,
        )
        self.history.register_initial(view)
        return view

    def register_successor(
        self,
        name: str,
        selected: Iterable[str],
        renames: Optional[Mapping[str, str]] = None,
        property_renames: Optional[Mapping[str, Mapping[str, str]]] = None,
        closure: str = "complete",
        provenance: str = "",
    ) -> ViewSchema:
        """Generate the next version of a view and substitute it."""
        current = self.history.current(name)
        view = self.generator.generate(
            name=name,
            version=current.version + 1,
            selected=selected,
            renames=renames,
            property_renames=property_renames,
            provenance=provenance,
            closure=closure,
        )
        self.history.substitute(view)
        return view

    def current(self, name: str) -> ViewSchema:
        return self.history.current(name)

    def remove_class_from_view(
        self, name: str, view_class: str, provenance: str = "removeFromView"
    ) -> ViewSchema:
        """MultiView's ``removeFromView`` command — the paper's delete-class
        semantics (section 6.8): the class is dropped from the view schema;
        nothing else changes anywhere."""
        current = self.history.current(name)
        global_name = current.global_name_of(view_class)
        selected, renames = current.successor_parts()
        selected.discard(global_name)
        renames.pop(global_name, None)
        if not selected:
            raise ViewError(f"removing {view_class!r} would empty view {name!r}")
        return self.register_successor(
            name,
            selected,
            renames,
            current.property_renames,
            closure="ignore",
            provenance=provenance,
        )

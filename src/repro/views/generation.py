"""The view schema generation algorithm ([21], section 3.1 subtask 3).

Given a set of selected classes, generate the view's generalization
hierarchy automatically: the edges are the transitive reduction of the
global subsumption relation restricted to the selection.  Automatic
generation "relieves the user of constructing the is-a hierarchy for each
view schema and removes the potential inconsistencies ... due to the
mistakes of the user".
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Tuple

from repro.errors import TypeClosureError, UnknownClass
from repro.obs.tracing import Tracer
from repro.schema.graph import GlobalSchema
from repro.views.closure import missing_for_closure
from repro.views.schema import ViewSchema


class ViewSchemaGenerator:
    """Builds :class:`ViewSchema` versions from class selections."""

    def __init__(self, schema: GlobalSchema, tracer: Optional[Tracer] = None) -> None:
        self.schema = schema
        self.tracer = tracer if tracer is not None else Tracer()

    def generate(
        self,
        name: str,
        version: int,
        selected: Iterable[str],
        renames: Optional[Mapping[str, str]] = None,
        property_renames: Optional[Mapping[str, Mapping[str, str]]] = None,
        provenance: str = "",
        closure: str = "check",
    ) -> ViewSchema:
        """Generate one view schema version.

        ``closure`` controls type-closure handling (section 5's View
        Manager "can check the type-closure of a view schema and
        incorporate necessary classes"):

        * ``"check"`` — raise :class:`TypeClosureError` when object-valued
          attributes reference classes outside the selection;
        * ``"complete"`` — silently add the missing classes;
        * ``"ignore"`` — generate as-is.
        """
        with self.tracer.span(
            "view_generate", view=name, version=version, closure=closure
        ) as span:
            chosen = set(selected)
            for cls in chosen:
                if cls not in self.schema:
                    raise UnknownClass(f"view selects unknown class {cls!r}")
            if closure not in ("check", "complete", "ignore"):
                raise ValueError(f"unknown closure mode {closure!r}")
            if closure != "ignore":
                missing = missing_for_closure(self.schema, chosen)
                if missing and closure == "check":
                    raise TypeClosureError(
                        f"view {name!r} is not type-closed; missing {sorted(missing)}"
                    )
                chosen |= missing
            edges = tuple(self.schema.transitive_reduction_over(chosen))
            span.set(classes=len(chosen), edges=len(edges))
            renames = dict(renames or {})
            # property renames are keyed by view class name; a class that
            # left the view takes its renames with it
            view_classes = {renames.get(cls, cls) for cls in chosen}
            return ViewSchema(
                name=name,
                version=version,
                selected=frozenset(chosen),
                renames=renames,
                edges=edges,
                property_renames={
                    cls: dict(per_cls)
                    for cls, per_cls in (property_renames or {}).items()
                    if cls in view_classes
                },
                provenance=provenance,
            )

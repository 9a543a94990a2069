"""Tentative partition designs.

For every (view, attribute) pair DeepSea tracks the *tentative partition*
— what the fragmentation of the view on that attribute would look like if
the view were (re)materialized right now.  The tentative design evolves
progressively:

* it is seeded with the trivial fragmentation ``{D(V, A)}`` the first time
  a selection on A over the view is seen (§6.2, case 1);
* every Definition-7 split candidate refines it — by replacement in split
  mode, or by adding an overlapping fragment in overlapping mode;
* materialization writes the tentative intervals (modulo size bounding);
* statistics fragments (``PSTAT``) are created for every interval that
  ever appears here, so evidence survives eviction and re-creation.
"""

from __future__ import annotations

from repro.errors import PartitionError
from repro.partitioning.candidates import SplitCandidate
from repro.partitioning.fragmentation import Fragmentation
from repro.partitioning.intervals import Interval


class TentativePartitions:
    """The evolving partition design for every (view, attr) pair."""

    def __init__(self) -> None:
        self._designs: dict[tuple[str, str], Fragmentation] = {}
        # view -> its attributes with a design, sorted: read for every match
        # of every query, so not a scan over every design.  Replaced, never
        # mutated, when an attribute is added: the tuple is its own token.
        self._attrs: dict[str, tuple[str, ...]] = {}

    def get(self, view_id: str, attr: str) -> Fragmentation | None:
        return self._designs.get((view_id, attr))

    def ensure(self, view_id: str, attr: str, domain: Interval) -> Fragmentation:
        design = self._designs.get((view_id, attr))
        if design is None:
            design = Fragmentation.single(attr, domain)
            self._install(view_id, attr, design)
        return design

    def _install(self, view_id: str, attr: str, design: Fragmentation) -> None:
        if (view_id, attr) not in self._designs:
            self._attrs[view_id] = tuple(sorted((*self._attrs.get(view_id, ()), attr)))
        self._designs[(view_id, attr)] = design

    def intervals(self, view_id: str, attr: str) -> list[Interval]:
        design = self._designs.get((view_id, attr))
        return list(design.intervals) if design else []

    def attrs_of(self, view_id: str) -> tuple[str, ...]:
        """The view's attributes with a design, sorted: the same tuple until
        an attribute is added."""
        return self._attrs.get(view_id, ())

    # ------------------------------------------------------------------
    def apply_split(self, view_id: str, attr: str, candidate: SplitCandidate) -> None:
        """Replace the parent fragment by its pieces (horizontal refinement)."""
        design = self._designs.get((view_id, attr))
        if design is None:
            raise PartitionError(f"no tentative design for {view_id}.{attr}")
        self._designs[(view_id, attr)] = design.replace(candidate.parent, candidate.pieces)

    def add_overlapping(self, view_id: str, attr: str, piece: Interval) -> None:
        """Add an overlapping fragment (Definition 2 refinement)."""
        design = self._designs.get((view_id, attr))
        if design is None:
            raise PartitionError(f"no tentative design for {view_id}.{attr}")
        if piece in design.intervals:
            return
        self._designs[(view_id, attr)] = design.add_overlapping(piece)

    def replace_design(self, view_id: str, attr: str, design: Fragmentation) -> None:
        """Install a full design (used by the equi-depth policy)."""
        self._install(view_id, attr, design)

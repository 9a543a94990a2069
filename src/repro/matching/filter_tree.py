"""Filter-tree index over view signatures (§8.3).

Checking the full sufficient condition against every (subquery, view) pair
is too slow once the pool holds many views.  The filter tree prunes by
levels of increasingly specific signature parts: relations → join
equivalence classes → aggregation shape.  Each lookup walks exact keys,
so only views that agree on all three levels are handed to the range and
projection checks of the matcher.

The tree also doubles as the registry of statistics-tracked view
candidates (§8.3: "we also use this index to keep the statistics for view
and partition candidates").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.query.signature import Signature


@dataclass
class FilterTreeStats:
    """Pruning counters, used by the filter-tree ablation bench."""

    lookups: int = 0
    candidates_returned: int = 0
    views_indexed: int = 0


class FilterTree:
    """Three-level exact-key index: relations → join classes → agg shape."""

    def __init__(self) -> None:
        self._root: dict = {}
        self._signatures: dict[str, Signature] = {}
        self.stats = FilterTreeStats()
        # ``version`` moves on every add and remove, ``removals`` on removes
        # only.  Between removals a bucket only ever grows at its end, so a
        # reader that saw a bucket's first n views needs to look at the
        # views appended after them and nothing else (Rewriter.plan).
        self.version = 0
        self.removals = 0

    def add(self, view_id: str, signature: Signature) -> None:
        if view_id in self._signatures:
            return
        level1 = self._root.setdefault(signature.relations, {})
        level2 = level1.setdefault(signature.join_classes, {})
        level3 = level2.setdefault(signature.agg_key, {})
        level3[view_id] = signature
        self._signatures[view_id] = signature
        self.stats.views_indexed += 1
        self.version += 1

    def remove(self, view_id: str) -> None:
        signature = self._signatures.pop(view_id, None)
        if signature is None:
            return
        level1 = self._root[signature.relations]
        level2 = level1[signature.join_classes]
        level3 = level2[signature.agg_key]
        del level3[view_id]
        if not level3:
            del level2[signature.agg_key]
        if not level2:
            del level1[signature.join_classes]
        if not level1:
            del self._root[signature.relations]
        self.stats.views_indexed -= 1
        self.version += 1
        self.removals += 1

    def bucket(self, query_sig: Signature) -> "dict[str, Signature] | None":
        """The live bucket of views agreeing with the query on all indexed
        levels, in insertion order, or ``None`` (uncounted; don't mutate)."""
        level1 = self._root.get(query_sig.relations)
        if level1 is None:
            return None
        level2 = level1.get(query_sig.join_classes)
        if level2 is None:
            return None
        return level2.get(query_sig.agg_key)

    def candidates(self, query_sig: Signature) -> list[tuple[str, Signature]]:
        """Views agreeing with the query on all indexed levels."""
        self.stats.lookups += 1
        level3 = self.bucket(query_sig)
        if level3 is None:
            return []
        out = list(level3.items())
        self.stats.candidates_returned += len(out)
        return out

    def all_views(self) -> list[tuple[str, Signature]]:
        """Unpruned scan — the baseline the ablation compares against."""
        return list(self._signatures.items())

    def signature(self, view_id: str) -> Signature | None:
        return self._signatures.get(view_id)

    def __contains__(self, view_id: str) -> bool:
        return view_id in self._signatures

    def __len__(self) -> int:
        return len(self._signatures)

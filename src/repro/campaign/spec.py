"""Declarative campaign specs: parameter spaces over the whole toolkit.

A :class:`CampaignSpec` names *what* to compute — a parameter space
whose cells are threshold derivations, simulated sessions, recovery
policy comparisons, or whole indexed experiments — without saying how
to schedule it.  The runner turns a spec into work; the spec only has
to be serializable, hashable, and deterministic:

- ``grid`` spaces take the cartesian product of their axes (axes are
  iterated in sorted name order, so the expansion — like every hash in
  this package — is independent of dict insertion order);
- ``zip`` spaces walk their equal-length axes in lockstep;
- ``list`` spaces enumerate explicit cells, each merged over ``base``.

Every cell gets a *content hash* (canonical JSON of its parameters) and
a *derived seed* mixed from the spec's base seed and that hash, so the
same cell always replays with the same randomness no matter which spec
it appears in, at which index, or at which ``-j`` — which is what makes
the content-addressed cache and the ``-j 1`` / ``-j N`` byte-identity
guarantee possible.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import pathlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, Iterable, List, Optional

from repro.errors import ReproError

#: Bumped whenever the spec schema or the cell vocabulary changes
#: incompatibly; stored in every manifest and baseline header.
SPEC_SCHEMA_VERSION = 1

#: Cell kinds the executor understands.
CELL_KINDS = ("threshold", "simulate", "resume_policy", "experiment", "fleet")


class CampaignSpecError(ReproError):
    """A spec that cannot be expanded into cells."""


def canonical_json(obj: Any) -> str:
    """Canonical (sorted, compact) JSON for hashing and byte-identity."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def content_hash(obj: Any) -> str:
    """Hex SHA-256 of an object's canonical JSON."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def derive_seed(base_seed: int, cell_hash: str) -> int:
    """The cell's deterministic seed: base seed mixed with its hash.

    Derived from the cell's own content (not its index or siblings) so
    editing a spec never reseeds — and so never invalidates the cached
    results of — the cells it keeps.
    """
    digest = hashlib.sha256(f"{base_seed}:{cell_hash}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass(frozen=True)
class Cell:
    """One expanded unit of campaign work."""

    index: int
    cell_id: str
    params: Dict[str, Any]
    seed: int

    @property
    def kind(self) -> str:
        """The executor dispatch key."""
        return self.params.get("kind", "simulate")

    @cached_property
    def cell_hash(self) -> str:
        """Content hash of the parameters (code-independent).

        Computed once per cell (:meth:`CampaignSpec.expand` fills it in);
        ``params`` is never mutated after expansion.
        """
        return content_hash(self.params)


@dataclass(frozen=True)
class CampaignSpec:
    """A named, serializable sweep definition.

    Attributes:
        name: campaign identity (manifest, baselines, metric labels).
        mode: ``grid`` | ``zip`` | ``list``.
        base: parameters shared by every cell (cells override it).
        axes: for grid/zip modes, ``{param: [values...]}``.
        cells: for list mode, explicit per-cell parameter dicts.
        seed: base seed every per-cell seed derives from.
        tolerances: regression-gate tolerances keyed by metric-name
            glob; ``default`` applies when no glob matches.  Each entry
            is ``{"abs": x, "rel": y}`` (either may be omitted).
        description: free text for humans.
    """

    name: str
    mode: str = "list"
    base: Dict[str, Any] = field(default_factory=dict)
    axes: Dict[str, List[Any]] = field(default_factory=dict)
    cells: List[Dict[str, Any]] = field(default_factory=list)
    seed: int = 0
    tolerances: Dict[str, Dict[str, float]] = field(default_factory=dict)
    description: str = ""

    def __post_init__(self) -> None:
        if self.mode not in ("grid", "zip", "list"):
            raise CampaignSpecError(
                f"unknown mode {self.mode!r} (grid, zip or list)"
            )
        if self.mode == "zip" and self.axes:
            lengths = {len(v) for v in self.axes.values()}
            if len(lengths) > 1:
                raise CampaignSpecError(
                    f"zip axes must share one length, got {sorted(lengths)}"
                )

    # -- expansion -------------------------------------------------------------

    def _raw_cells(self) -> Iterable[Dict[str, Any]]:
        if self.mode == "list":
            for overrides in self.cells:
                yield {**self.base, **overrides}
        elif self.mode == "zip":
            names = sorted(self.axes)
            if not names:
                return
            for values in zip(*(self.axes[n] for n in names)):
                yield {**self.base, **dict(zip(names, values))}
        else:  # grid
            names = sorted(self.axes)
            if not names:
                return
            for values in itertools.product(*(self.axes[n] for n in names)):
                yield {**self.base, **dict(zip(names, values))}

    def expand(self) -> List[Cell]:
        """The ordered cell list (deterministic for a given spec)."""
        out: List[Cell] = []
        seen: Dict[str, int] = {}
        for index, params in enumerate(self._raw_cells()):
            kind = params.get("kind", "simulate")
            if kind not in CELL_KINDS:
                raise CampaignSpecError(
                    f"cell {index}: unknown kind {kind!r} "
                    f"(one of {', '.join(CELL_KINDS)})"
                )
            cell_id = str(params.get("label") or f"c{index:04d}")
            if cell_id in seen:
                raise CampaignSpecError(
                    f"duplicate cell id {cell_id!r} "
                    f"(cells {seen[cell_id]} and {index})"
                )
            seen[cell_id] = index
            cell_hash = content_hash(params)
            cell = Cell(
                index=index,
                cell_id=cell_id,
                params=params,
                seed=derive_seed(self.seed, cell_hash),
            )
            cell.__dict__["cell_hash"] = cell_hash
            out.append(cell)
        if not out:
            raise CampaignSpecError(f"spec {self.name!r} expands to no cells")
        return out

    # -- identity --------------------------------------------------------------

    def content_dict(self) -> Dict[str, Any]:
        """The computation-defining subset (name/docs/tolerances excluded)."""
        return {
            "schema_version": SPEC_SCHEMA_VERSION,
            "mode": self.mode,
            "base": self.base,
            "axes": self.axes,
            "cells": self.cells,
            "seed": self.seed,
        }

    def spec_hash(self) -> str:
        """Identity of the computation: what ``--resume`` checks against."""
        return content_hash(self.content_dict())

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """The full JSON form, ``from_dict``'s inverse."""
        return {
            "schema_version": SPEC_SCHEMA_VERSION,
            "name": self.name,
            "description": self.description,
            "mode": self.mode,
            "base": self.base,
            "axes": self.axes,
            "cells": self.cells,
            "seed": self.seed,
            "tolerances": self.tolerances,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CampaignSpec":
        """Parse a spec document (schema-checked)."""
        if not isinstance(data, dict):
            raise CampaignSpecError(f"spec must be an object, got {type(data)}")
        version = data.get("schema_version", SPEC_SCHEMA_VERSION)
        if version != SPEC_SCHEMA_VERSION:
            raise CampaignSpecError(
                f"spec schema {version} != supported {SPEC_SCHEMA_VERSION}"
            )
        known = {
            "schema_version", "name", "description", "mode", "base",
            "axes", "cells", "seed", "tolerances",
        }
        unknown = set(data) - known
        if unknown:
            raise CampaignSpecError(f"unknown spec fields: {sorted(unknown)}")
        if "name" not in data:
            raise CampaignSpecError("spec needs a name")
        return cls(
            name=str(data["name"]),
            description=str(data.get("description", "")),
            mode=str(data.get("mode", "list")),
            base=dict(data.get("base", {})),
            axes={k: list(v) for k, v in data.get("axes", {}).items()},
            cells=[dict(c) for c in data.get("cells", [])],
            seed=int(data.get("seed", 0)),
            tolerances={
                str(k): dict(v)
                for k, v in data.get("tolerances", {}).items()
            },
        )

    def save(self, path) -> pathlib.Path:
        """Write the spec as indented JSON.

        Keys keep their insertion order — tolerance glob precedence is
        "first match wins in spec order", so alphabetizing here would
        silently reshuffle overlapping patterns on every resave.
        """
        path = pathlib.Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path

    @classmethod
    def load(cls, path) -> "CampaignSpec":
        """Read a spec written by :meth:`save` (or by hand)."""
        path = pathlib.Path(path)
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            raise CampaignSpecError(f"cannot load spec {path}: {exc}") from exc
        return cls.from_dict(data)

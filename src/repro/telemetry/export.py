"""The shared ``to_dict()`` / ``to_json()`` export of every report type.

RunReport, ClusterReport, HealthReport and the scheduler stats are all
frozen dataclasses; :class:`ReportExport` gives them one JSON-ready
export so benches and dashboards never hand-roll field lists.  The
conversion handles what ``dataclasses.asdict`` does not: numpy scalars
and arrays, nested report dataclasses inside tuples, read-only mappings
(a flush's lazily computed latency quantiles) and None-valued optional
sections.
"""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Mapping
from typing import Any

import numpy as np


def to_serializable(value: Any) -> Any:
    """Recursively convert a report value into JSON-ready primitives."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: to_serializable(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.integer, np.floating, np.bool_)):
        return value.item()
    if isinstance(value, Mapping):
        return {str(key): to_serializable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_serializable(item) for item in value]
    return value


class ReportExport:
    """Mixin: ``to_dict()`` / ``to_json()`` for report dataclasses."""

    def to_dict(self) -> dict:
        """Every field as JSON-ready primitives (nested reports become
        nested dicts, numpy values become Python scalars/lists)."""
        return to_serializable(self)

    def to_json(self, indent: int | None = None) -> str:
        """The :meth:`to_dict` payload serialized to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent)

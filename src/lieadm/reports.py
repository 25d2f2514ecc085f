"""Canonical report serialization.

Every machine-readable document carries "schema": 1 at top level and is
serialized with sorted keys and fixed indentation, so identical inputs
produce byte-identical output regardless of construction order.
"""

from __future__ import annotations

import json

SCHEMA_VERSION = 1


def with_schema(doc: dict) -> dict:
    out = {"schema": SCHEMA_VERSION}
    out.update(doc)
    return out


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"

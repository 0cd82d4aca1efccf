"""The --json encoding done the slow, obvious way, as an oracle for the
streaming writer ``qk.output.write_json``: convert the report objects to plain
JSON values, then let ``json.dumps`` write them.  Used only by the tests.
"""

from __future__ import annotations

import json
import math

from qk.base import Record

_SCALARS = frozenset({int, str, bool, type(None)})


def jsonable(x):
    """Records to dicts of all of their fields, infinities and NaN to None,
    integral floats to int, tuples to lists, mapping keys to str()."""
    t = type(x)
    if t in _SCALARS:
        return x
    if t is list or t is tuple:
        return [jsonable(v) for v in x]
    if isinstance(x, Record):
        return {name: jsonable(getattr(x, name)) for name in x.__slots__}
    if isinstance(x, float):
        if math.isinf(x) or math.isnan(x):
            return None
        return int(x) if x.is_integer() else x
    if isinstance(x, dict):
        return {str(key): jsonable(value) for key, value in x.items()}
    return x


def dumps(doc) -> str:
    """The text write_json must write for doc."""
    return json.dumps(jsonable(doc), sort_keys=True, indent=2, allow_nan=False)

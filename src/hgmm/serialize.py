"""Strict JSON writing for every file the package outputs.

Output is strict JSON: keys keep their insertion order, floats take
Python's shortest round-trip ``repr`` (the form the CSV writers use), and
strings are escaped, so each record stays on one line.  A float that is
not finite raises ``ValueError``; a caller that holds one, such as the
run manifest's ``e_res_max``, writes it as the string ``"inf"``,
``"-inf"`` or ``"nan"`` itself.
"""

from __future__ import annotations

import json


def to_json(obj) -> str:
    """Serialize nested dict/list/scalar data of plain Python values."""
    return json.dumps(obj, ensure_ascii=False, allow_nan=False)

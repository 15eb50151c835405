"""JSON rendering with floats at 17 significant digits.

17 significant decimal digits is the smallest count that round-trips every
IEEE-754 double, so json.loads(render_json(obj)) reproduces all numeric
fields bit-exactly.  The same formatter backs the CLI's text mode, keeping
text and JSON output numerically identical.
"""

from __future__ import annotations

import math
from typing import Any

SIGNIFICANT_DIGITS = 17
#: Spaces per nesting level of ``render_json``.
INDENT = 2


def format_float(x: float) -> str:
    """Render a finite float with 17 significant digits.

    The result always reads back as a float: a trailing ``.0`` is added
    when the %g form would look like an integer.
    """
    if not math.isfinite(x):
        raise ValueError(f"cannot render non-finite value {x!r}")
    text = format(float(x), f".{SIGNIFICANT_DIGITS}g")
    if "." not in text and "e" not in text and "E" not in text:
        text += ".0"
    return text


def _render(value: Any, level: int) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        # json-compatible escaping for the characters that can occur here
        escaped = value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{escaped}"'
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_float(value)
    pad = " " * (INDENT * (level + 1))
    close_pad = " " * (INDENT * level)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f'{pad}"{key}": {_render(val, level + 1)}'
            for key, val in value.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + close_pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [pad + _render(val, level + 1) for val in value]
        return "[\n" + ",\n".join(items) + "\n" + close_pad + "]"
    raise TypeError(f"cannot render {type(value).__name__} as JSON")


def render_json(value: Any) -> str:
    """Serialize dicts/lists/scalars to JSON text with full-precision floats."""
    return _render(value, 0)

"""The report writers: every JSON report goes through dumps17, every CSV one
through csv_text.  The stdlib encoder writes shortest-round-trip floats; report
consumers want a fixed width instead, so every JSON float is rendered with
%.17g (which still round-trips exactly).  A CSV float is written with repr.

Reports carry finite numbers only, in JSON and CSV alike: a NaN or infinity
raises NumericError, which the CLI turns into exit code 3.  The one exception
is an echoed parameter (theta, q, s or tau): q = tau = inf is the sup end of
the scale, so an infinite parameter is written as the string "inf" in JSON,
and its caller passes the string "inf" to csv_text.
"""

from __future__ import annotations

import itertools
import math
import re

from .errors import NumericError

__all__ = ["csv_text", "dumps17", "infinite_param"]

_NON_FINITE = "reports must not contain NaN or infinity"
_CSV_CHUNK = 4096
_CSV_SPECIAL = re.compile('[,"\r\n]')

_PARAM_KEYS = frozenset(("theta", "q", "s", "tau"))


def infinite_param(key: str, value) -> bool:
    """True for an echoed parameter that is +inf, the one allowed non-finite."""
    return key in _PARAM_KEYS and value == math.inf


def require_finite(values) -> None:
    """Raise NumericError unless every value in the iterable is finite."""
    if not all(map(math.isfinite, values)):
        raise NumericError(_NON_FINITE)


def _encode(obj, out: list[str], indent: int) -> None:
    pad = "  " * indent
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        require_finite((obj,))
        out.append(format(obj, ".17g"))
    elif isinstance(obj, str):
        out.append(
            '"'
            + obj.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
            + '"'
        )
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (k, v) in enumerate(obj.items()):
            if not isinstance(k, str):
                raise ValueError(f"JSON keys must be strings, got {k!r}")
            out.append(f'{pad}  "{k}": ')
            if infinite_param(k, v):
                out.append('"inf"')
            else:
                _encode(v, out, indent + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not len(obj):
            out.append("[]")
            return
        if set(map(type, obj)) == {float}:
            # A column of plain floats is rendered in one pass, byte for byte
            # as the per-item path below would.
            require_finite(obj)
            out.append("[" + ("%.17g, " * len(obj) % tuple(obj))[:-2] + "]")
            return
        out.append("[")
        for i, v in enumerate(obj):
            _encode(v, out, indent)
            if i < len(obj) - 1:
                out.append(", ")
        out.append("]")
    else:
        raise ValueError(f"cannot serialize {type(obj).__name__} to JSON")


def dumps17(obj) -> str:
    out: list[str] = []
    _encode(obj, out, 0)
    return "".join(out)


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        require_finite((v,))
        return repr(float(v))
    return str(v)


def _csv_quoted(cells: list[str]) -> list[str]:
    """The cells quoted as csv.QUOTE_MINIMAL quotes them: a cell holding a
    comma, a quote, CR or LF goes in quotes, with each quote doubled."""
    return ['"' + c.replace('"', '""') + '"' if _CSV_SPECIAL.search(c) else c for c in cells]


def csv_text(header, columns) -> str:
    """A header line of the names in `header`, then one line per row of the
    equal-length `columns`.  A float is written with repr and must be finite,
    None as an empty field, anything else with str, quoted as csv.writer's
    QUOTE_MINIMAL would (and also on a CR)."""
    specs, cells = [], []
    for col in columns:
        if set(map(type, col)) == {float}:
            # A column of plain floats is checked and rendered in one pass.
            require_finite(col)
            specs.append("%r")
            cells.append(col)
        else:
            specs.append("%s")
            cells.append(_csv_quoted([_csv_cell(v) for v in col]))
    rows = zip(*cells, strict=True)
    line = ",".join(specs) + "\n"
    out = [",".join(header) + "\n"]
    # One format pass per _CSV_CHUNK rows keeps each argument tuple small.
    while chunk := tuple(itertools.chain.from_iterable(itertools.islice(rows, _CSV_CHUNK))):
        out.append(line * (len(chunk) // len(cells)) % chunk)
    return "".join(out)

"""The CSV dialect, read and written, and the JSON writer.

Every JSON report goes through dumps17, every CSV one through csv_text, and
every CSV input through read_csv.  The stdlib encoder writes
shortest-round-trip floats; report consumers want a fixed width instead, so
every JSON float is rendered with %.17g (which still round-trips exactly).  A
CSV float is written with repr and read back with float(), so a finite float
survives a CSV round trip bit for bit.

Reports carry finite numbers only, in JSON and CSV alike: a NaN or infinity
raises NumericError, naming the JSON key or CSV column that holds it, which
the CLI turns into exit code 3.  The one exception
is an echoed parameter (theta, q, s or tau): q = tau = inf is the sup end of
the scale, so an infinite parameter is written as the string "inf" in JSON,
and its caller passes the string "inf" to csv_text.  An input's header is
a dict from each column's name to its kind; read_csv reports the lowest faulty
row as a UsageError, before the loaders' checks of keys and coverage.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import operator
import os
import re

import numpy as np

from .errors import NumericError, UsageError

__all__ = ["csv_text", "dumps17", "infinite_param", "read_csv", "require_unique_keys"]

_NON_FINITE = "reports must not contain NaN or infinity"
_CSV_CHUNK = 4096
_CSV_SPECIAL = re.compile('[,"\r\n]')

_PARAM_KEYS = frozenset(("theta", "q", "s", "tau"))


def infinite_param(key: str, value) -> bool:
    """True for an echoed parameter that is +inf, the one allowed non-finite."""
    return key in _PARAM_KEYS and value == math.inf


def require_finite(values, name: str | None = None) -> None:
    """Raise NumericError unless every value in the iterable is finite; the
    message names the key or column `name` and its first such value."""
    if not all(map(math.isfinite, values)):
        if name is None:
            raise NumericError(_NON_FINITE)
        bad = next(v for v in values if not math.isfinite(v))
        raise NumericError(f"{_NON_FINITE}: {name} holds {float(bad)!r}")


def _encode(obj, out: list[str], indent: int, key: str | None = None) -> None:
    """Append obj's JSON to out; key is the innermost dict key holding obj."""
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
        require_finite((obj,), key)
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
                _encode(v, out, indent + 1, k)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not len(obj):
            out.append("[]")
            return
        if set(map(type, obj)) == {float}:
            # A column of plain floats is rendered in one pass, byte for byte
            # as the per-item path below would.
            require_finite(obj, key)
            out.append("[" + ("%.17g, " * len(obj) % tuple(obj))[:-2] + "]")
            return
        out.append("[")
        for i, v in enumerate(obj):
            _encode(v, out, indent, key)
            if i < len(obj) - 1:
                out.append(", ")
        out.append("]")
    else:
        raise ValueError(f"cannot serialize {type(obj).__name__} to JSON")


def dumps17(obj) -> str:
    out: list[str] = []
    _encode(obj, out, 0)
    return "".join(out)


def _csv_cell(v, name: str) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        require_finite((v,), name)
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
    for name, col in zip(header, columns, strict=True):
        if set(map(type, col)) == {float}:
            # A column of plain floats is checked and rendered in one pass.
            require_finite(col, name)
            specs.append("%r")
            cells.append(col)
        else:
            specs.append("%s")
            cells.append(_csv_quoted([_csv_cell(v, name) for v in col]))
    rows = zip(*cells, strict=True)
    line = ",".join(specs) + "\n"
    out = [",".join(header) + "\n"]
    # One format pass per _CSV_CHUNK rows keeps each argument tuple small.
    while chunk := tuple(itertools.chain.from_iterable(itertools.islice(rows, _CSV_CHUNK))):
        out.append(line * (len(chunk) // len(cells)) % chunk)
    return "".join(out)


# Column kinds: "text" is kept as written; "float" (finite, parsed by float())
# and "int" (parsed by int()) may carry a rule against zero, "> 0" or ">= 0".
_RULES = {"": None, "> 0": operator.gt, ">= 0": operator.ge}


def _column(name: str, kind: str, fields: tuple[str, ...]):
    """(`fields` parsed as `kind`, None), or (None, (index, message)) for the
    first faulty field.  A text column is the fields as written, an int
    column a list of Python ints, a float column a float64 array."""
    typ, _, rule = kind.partition(" ")
    if typ == "text":
        return fields, None
    parse, test = (int if typ == "int" else float), _RULES[rule]
    try:
        vals = list(map(parse, fields))
        finite = typ == "int" or all(map(math.isfinite, vals))
        if finite and (not vals or not test or test(min(vals), 0)):
            return (vals if typ == "int" else np.array(vals, dtype=float)), None
    except ValueError:
        pass
    for k, field in enumerate(fields):  # some field is faulty: find the first
        try:
            val = parse(field)
        except ValueError as exc:
            return None, (k, f"non-{'integer' if typ == 'int' else 'numeric'} {name} ({exc})")
        if typ == "float" and not math.isfinite(val):
            return None, (k, f"{name} must be finite, got {field}")
        if test and not test(val, 0):
            return None, (k, f"{name} must be {rule}, got {field}")


def read_csv(path_or_text: str, what: str, header: dict[str, str], empty_ok: bool = False):
    """The data rows of a CSV path or text, as (row numbers, columns).

    A string holding a newline is text, and so is one that holds a comma and
    names no existing file; any other string is a path.  `header` maps each
    column's name, in order, to its kind.  Checks the header and every row's
    field count, then parses each column; the lowest row holding a faulty
    field (the leftmost, within a row) is reported.  Row numbers are 1-based
    file rows; blank lines are skipped.  A header with no data rows is an
    error unless empty_ok.
    """
    text = path_or_text
    if "\n" not in text and ("," not in text or os.path.exists(text)):
        try:
            with open(path_or_text, "r", newline="") as fh:
                text = fh.read()
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot read {what} CSV: {exc}") from exc
    reader = csv.reader(io.StringIO(text))
    try:
        records = list(reader)
    except csv.Error as exc:  # an over-long field or a bare CR outside quotes
        raise UsageError(f"{what} CSV line {reader.line_num}: {exc}") from exc
    rownums = [i for i, row in enumerate(records, 1) if row]
    records = [row for row in records if row]
    if not records:
        raise UsageError(f"{what} CSV is empty")
    got = [c.strip() for c in records[0]]
    if got != list(header):
        want = ",".join(header)
        raise UsageError(f"row {rownums[0]}: expected header '{want}', got " + ",".join(got))
    for rownum, row in zip(rownums[1:], records[1:]):
        if len(row) != len(header):
            raise UsageError(f"row {rownum}: expected {len(header)} fields, got {len(row)}")
    if len(records) == 1 and not empty_ok:
        raise UsageError(f"{what} CSV has a header but no data rows")
    fields = list(zip(*records[1:])) or [()] * len(header)
    columns, faults = zip(*map(_column, header, header.values(), fields))
    if any(faults):
        k, why = min(filter(None, faults), key=operator.itemgetter(0))
        raise UsageError(f"row {rownums[k + 1]}: {why}")
    return rownums[1:], list(columns)


def require_unique_keys(rownums: list[int], names: tuple[str, ...], *keys) -> None:
    """Raise UsageError at the first row whose values in the `keys` columns,
    named `names`, repeat an earlier row's."""
    seen = set()
    for rownum, key in zip(rownums, zip(*keys)):
        if key in seen:
            key_text = ",".join(map(str, key))
            raise UsageError(f"row {rownum}: duplicate entry for {','.join(names)} = {key_text}")
        seen.add(key)

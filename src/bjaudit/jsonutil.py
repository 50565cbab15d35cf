"""The CSV dialect, read and written, and the JSON writer.

Every JSON report goes through dumps17, every CSV one through csv_text, and
every CSV input through read_csv.  The stdlib encoder writes
shortest-round-trip floats; report consumers want a fixed width instead, so
every JSON float is rendered with %.17g (which still round-trips exactly).  A
CSV float is written with repr and read back with float(), so a finite float
survives a CSV round trip bit for bit.  A JSON string, key or value, has its
quote, backslash and control characters escaped.

A column of plain floats is rendered in one pass: by a % format, or, from
_KERNEL_MIN values on (a JSON list, or a CSV table of plain-float columns),
by one vectorized decimal kernel in numpy.  The kernel writes the bytes that
format(x, ".17g") and repr(x) write, and leaves each value it cannot certify
to them.

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
import functools
import io
import itertools
import math
import operator
import os
import re

from .errors import NumericError, UsageError

__all__ = ["csv_text", "dumps17", "infinite_param", "read_csv", "require_unique_keys"]

_NON_FINITE = "reports must not contain NaN or infinity"
_CSV_CHUNK = 4096
_CSV_SPECIAL = re.compile('[,"\r\n]')
# JSON string escapes: the quote, the backslash and every control character
_JSON_ESCAPES = str.maketrans(
    {chr(c): f"\\u{c:04x}" for c in range(32)}
    | {"\\": "\\\\", '"': '\\"', "\b": "\\b", "\f": "\\f", "\n": "\\n", "\r": "\\r", "\t": "\\t"}
)

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


# -- the decimal kernel: large float columns, digit for digit as format/repr --
#
# x·10^(16-e), with e = floor(log10 |x|), is formed as a double-double (Dekker
# 1971: a Veltkamp split and an exact product, with 10^k as the sum of two
# doubles), so its integer part f and fraction r are known to about 1e-14.
# %.17g's digits are round(f + r); repr's are the fewest digits whose value lies
# within half a spacing of x (a quarter below a power of two).  A value within
# _TIE of a rounding or round-trip boundary, or outside [1e-280, 1e280], is not
# certified and is written by format/repr itself.  The text is laid out one
# character position per row, left at NUL where a value has no character there,
# and the NULs are deleted at the end.

_KERNEL_MIN = 1024  # values in a float column or table from which the kernel pays
_TIE = 2.0**-20
_KMIN, _KMAX = -265, 297  # the powers 10^k that |x| in [1e-280, 1e280] needs
_SPLITTER = 134217729.0  # 2^27 + 1
_P16, _P17 = 10**16, 10**17
# character positions: sign, "0.000", 17 digits and a point, "e", the
# exponent's sign and three digits, then the separator
_WIDTH = 29


def _power_parts(k: int) -> tuple[float, float]:
    """10^k as hi + lo: hi correctly rounded, lo the rest correctly rounded."""
    if k >= 0:
        hi = float(10**k)
        return hi, float(10**k - int(hi))
    num, den = (1 / 10**-k).as_integer_ratio()
    return num / den, (den - num * 10**-k) / (den * 10**-k)


@functools.cache
def _kernel_tables():
    """10^k for k in [_KMIN, _KMAX] as hi and lo doubles, the ASCII digits of
    0000..9999 as four rows, and the trailing zeros of each (4 for 0000)."""
    import numpy as np

    hi, lo = np.array([_power_parts(k) for k in range(_KMIN, _KMAX + 1)]).T
    g = np.arange(10**4)
    quads = (g // np.array([[1000], [100], [10], [1]]) % 10 + ord("0")).astype(np.uint8)
    zeros = (g % 10 == 0).astype(np.int64) + (g % 100 == 0) + (g % 1000 == 0) + (g == 0)
    return hi.copy(), lo.copy(), quads, zeros


def _split(v):
    t = v * _SPLITTER
    hi = t - (t - v)
    return hi, v - hi


def _scaled(a, e):
    """a·10^(16-e) as its integer part and fraction, and 10^(16-e)'s hi part."""
    import numpy as np

    hi_t, lo_t = _kernel_tables()[:2]
    ph, pl = hi_t[16 - e - _KMIN], lo_t[16 - e - _KMIN]
    hi = a * ph
    ah, al = _split(a)
    bh, bl = _split(ph)
    lo = ((ah * bh - hi) + ah * bl + al * bh) + al * bl + a * pl
    floor = np.floor(lo)
    return hi.astype(np.int64) + floor.astype(np.int64), lo - floor, ph


def _decimal_digits(a, shortest: bool):
    """For each a >= 0: a 17-digit integer n and the exponent e with
    a ~ n·10^(e-16) (%.17g's digits, or repr's padded with zeros), and
    whether they are certified."""
    import numpy as np

    ok = (a >= 1e-280) & (a <= 1e280)
    a = np.where(ok, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    f, r, ph = _scaled(a, e)
    off = np.flatnonzero((f < _P16) | (f >= _P17))  # log10 one off near 10^e
    if off.size:
        e[off] += np.where(f[off] < _P16, -1, 1)
        f[off], r[off], ph[off] = _scaled(a[off], e[off])
        ok[off] &= (f[off] >= _P16) & (f[off] < _P17)
    n = f + (r > 0.5)
    ok &= (np.abs(r - 0.5) > _TIE) & (n < _P17)
    if not shortest:
        return n, e, ok
    # half the spacing of the doubles at a, above and below, in units of f
    m, b = np.frexp(a)
    above = np.ldexp(ph, b - 54)
    below = np.where(m == 0.5, above / 2, above)
    rows = np.arange(a.size)
    for p in range(1, 17):  # drop p digits while a neighbour still reads back as a
        q = f // 10**p
        rem = f - q * 10**p
        down = rem + r
        up = (10**p - rem) - r
        ok_down, ok_up = down < below, up < above
        unsure = (np.abs(down - below) <= _TIE) | (np.abs(up - above) <= _TIE)
        unsure |= ok_down & ok_up & (np.abs(down - up) <= _TIE)
        ok[rows[unsure]] = False
        more = np.flatnonzero((ok_down | ok_up) & ~unsure)
        if not more.size:
            break
        rows, f, r, above, below = rows[more], f[more], r[more], above[more], below[more]
        n[rows] = (q[more] + (ok_up & ~(ok_down & (down <= up)))[more]) * 10**p
    return n, e, ok & (n < _P17)


def _decimal_block(x, shortest: bool, seps: list[bytes]) -> bytes:
    """The rows of the 2-D float array x, each value followed by its column's
    separator, as %.17g or repr would write them."""
    import numpy as np

    flat = x.reshape(-1)
    text = np.zeros((_WIDTH + max(map(len, seps)), flat.size), np.uint8)
    for c, sep in enumerate(seps):
        text[_WIDTH : _WIDTH + len(sep), c :: len(seps)] = np.frombuffer(sep, np.uint8)[:, None]
    a = np.abs(flat)
    n, e, ok = _decimal_digits(a, shortest)
    zero = a == 0
    n[zero], e[zero] = _P16, 0
    ok |= zero
    quads, zeros = _kernel_tables()[2:]
    hi8 = (n // 10**8).astype(np.int32)
    lo8 = (n - hi8 * np.int64(10**8)).astype(np.int32)
    hi4, lo4 = hi8 // 10**4, lo8 // 10**4
    g = [hi4 % 10**4, hi8 - hi4 * 10**4, lo4, lo8 - lo4 * 10**4]  # digits 2-5, ..., 14-17
    # digits[1 + i] is the ith digit; digits[0] and digits[18] stay NUL
    digits = np.zeros((19, flat.size), np.uint8)
    digits[1] = hi8 // 10**8 + ord("0")
    for i in range(4):
        np.take(quads, g[i], axis=1, out=digits[2 + 4 * i : 6 + 4 * i], mode="clip")
    trailing = zeros[g[3]] + (g[3] == 0) * (
        zeros[g[2]] + (g[2] == 0) * (zeros[g[1]] + (g[1] == 0) * zeros[g[0]])
    )
    nd = 17 - trailing
    digits[1, zero] = ord("0")
    sci = (e < -4) | (e >= 16 + (not shortest))
    whole = ~sci & (e >= 0)
    # past the last significant digit only a whole part's zeros are kept, and
    # repr's ".0"; the point follows digit e, or the first digit in e-notation
    keep = np.where(whole, np.maximum(nd, e + 1 + shortest), nd)
    point = np.where(sci, np.where(nd > 1, 0, 17), np.where(whole & (keep > e + 1), e, 17))
    col = np.arange(18)[:, None]
    digits[1:18] *= col[:17] < keep
    text[6:24] = np.where(col <= point, digits[1:], np.where(col == point + 1, ord("."), digits[:-1]))
    text[0] = np.signbit(flat) * np.uint8(ord("-"))
    lead = np.where(~sci & (e < 0), 1 - e, 0)  # "0." to "0.000" before a fraction's digits
    text[1:6] = np.frombuffer(b"0.000", np.uint8)[:, None] * (col[:5] < lead)
    exp = np.flatnonzero(sci)
    if exp.size:
        mag = np.abs(e[exp])
        text[24, exp] = ord("e")
        text[25, exp] = np.where(e[exp] < 0, ord("-"), ord("+"))
        three = quads[1:, mag]
        three[0] *= mag >= 100
        text[26:29, exp] = three
    bad = np.flatnonzero(~ok)
    if bad.size:
        fmt = repr if shortest else "{:.17g}".format
        cells = "".join(fmt(v).ljust(_WIDTH, "\0") for v in flat[bad].tolist())
        text[:_WIDTH, bad] = np.frombuffer(cells.encode(), np.uint8).reshape(-1, _WIDTH).T
    return text.T.tobytes().translate(None, b"\0")


def _decimal_text(columns, names, shortest: bool, seps: list[bytes]) -> str:
    """The equal-length float columns written row by row, each value followed
    by its column's separator, about _CSV_CHUNK values at a time.  A
    non-finite value raises NumericError naming the first column that holds
    one."""
    import numpy as np

    step = max(_CSV_CHUNK // len(columns), 1)
    text = bytearray()
    for i in range(0, len(columns[0]), step):
        block = np.array([col[i : i + step] for col in columns], dtype=float).T
        if not np.isfinite(block).all():
            for col, name in zip(columns, names):
                require_finite(col, name)
        text += _decimal_block(np.ascontiguousarray(block), shortest, seps)
    return text.decode("ascii")


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
        out.append('"' + obj.translate(_JSON_ESCAPES) + '"')
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (k, v) in enumerate(obj.items()):
            if not isinstance(k, str):
                raise ValueError(f"JSON keys must be strings, got {k!r}")
            out.append(f'{pad}  "{k.translate(_JSON_ESCAPES)}": ')
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
            if len(obj) >= _KERNEL_MIN:
                text = _decimal_text([obj], [key], False, [b", "])
            else:
                require_finite(obj, key)
                text = "%.17g, " * len(obj) % tuple(obj)
            out += ["[", text[:-2], "]"]
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
    header, columns = tuple(header), list(columns)
    rows = len(columns[0]) if columns else 0
    if (
        rows * len(columns) >= _KERNEL_MIN
        and len(header) == len(columns)
        and all(len(col) == rows for col in columns)
        and all(set(map(type, col)) == {float} for col in columns)
    ):
        seps = [b","] * (len(columns) - 1) + [b"\n"]
        return ",".join(header) + "\n" + _decimal_text(columns, header, True, seps)
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
            import numpy as np  # here: `bjaudit constants` loads jsonutil but not numpy

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

"""Bulk report rendering against per-item reference implementations.

dumps17 and csv_text render a float64 array column in one pass, audit reports
are built from arrays, and straddling_grid is vectorized.  Each must produce
the same bytes as the per-item code kept here as the reference, which writes
an array as its tolist().
"""

import contextlib
import csv
import io
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import bjaudit.audit as audit_mod
import bjaudit.cli as cli_mod
import bjaudit.jsonutil as jsonutil_mod
import bjaudit.measures as measures_mod
import bjaudit.rearrange as rearrange_mod
import bjaudit.spectral as spectral_mod
from bjaudit import (
    ConstantProvider,
    DiscreteMeasureSpace,
    NumericError,
    SimpleFunction,
    audit_jackson,
    audit_weak_l1,
    params_from_s_tau,
    straddling_grid,
)
from bjaudit.audit import AuditReport
from bjaudit.functionals import e_functional_trig, load_trig_csv
from bjaudit.jsonutil import csv_text, dumps17, infinite_param
from bjaudit.measures import instance_csv_text, load_instance_csv
from bjaudit.rearrange import EMPTY_STEP, StepFunction, decreasing_rearrangement, step_csv_text
from bjaudit.spectral import matrix_csv_text, state_csv_text

NON_FINITE = "reports must not contain NaN or infinity"


# -- reference implementations: one Python call per item ------------------------


def _ref_fmt_float(x, key):
    if not math.isfinite(x):
        raise NumericError(NON_FINITE if key is None else f"{NON_FINITE}: {key} holds {x!r}")
    return format(x, ".17g")


SHORT_ESCAPES = {"\\": "\\\\", '"': '\\"', "\b": "\\b", "\f": "\\f", "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def _ref_string(s):
    # a quote, a backslash and every control character U+0000..U+001F escaped
    chars = (
        SHORT_ESCAPES.get(c, f"\\u{ord(c):04x}" if ord(c) < 0x20 else c) for c in s
    )
    return '"' + "".join(chars) + '"'


def _ref_encode(obj, out, indent, key=None):
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
        out.append(_ref_fmt_float(float(obj), key))
    elif isinstance(obj, str):
        out.append(_ref_string(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (k, v) in enumerate(obj.items()):
            if not isinstance(k, str):
                raise ValueError(f"JSON keys must be strings, got {k!r}")
            out.append(f"{pad}  {_ref_string(k)}: ")
            if infinite_param(k, v):
                out.append('"inf"')
            else:
                _ref_encode(v, out, indent + 1, k)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, np.ndarray):
        _ref_encode(obj.tolist(), out, indent, key)
    elif isinstance(obj, (list, tuple)):
        if not len(obj):
            out.append("[]")
            return
        out.append("[")
        for i, v in enumerate(obj):
            _ref_encode(v, out, indent, key)
            if i < len(obj) - 1:
                out.append(", ")
        out.append("]")
    else:
        raise ValueError(f"cannot serialize {type(obj).__name__} to JSON")


def ref_dumps17(obj):
    out = []
    _ref_encode(obj, out, 0)
    return "".join(out)


def ref_csv_text(header, columns):
    def cell(v):
        if v is None:
            return ""
        if isinstance(v, float):
            if not math.isfinite(v):
                raise NumericError(NON_FINITE)
            return repr(float(v))
        return str(v)

    lines = [",".join(header)]
    for row in zip(*columns, strict=True):
        lines.append(",".join(map(cell, row)))
    return "\n".join(lines) + "\n"


def ref_build_report(name, params, grid, lhs, rhs):
    grid = [None] if grid is None else [float(t) for t in grid]
    lhs = [float(x) for x in lhs]
    rhs = [float(x) for x in rhs]
    margin = [r - l for l, r in zip(lhs, rhs)]
    min_margin = min(margin)
    violated = min_margin < -1e-12
    witness = None
    if violated:
        w = grid[margin.index(min_margin)]
        witness = None if w is None else w
    return AuditReport(
        inequality_name=name,
        params=params,
        grid=tuple(grid),
        lhs=tuple(lhs),
        rhs=tuple(rhs),
        margin=tuple(margin),
        min_margin=min_margin,
        violated=violated,
        witness_t=witness,
        abs_tol=1e-12,
    )


def ref_straddling_grid(sf, rel=1e-3, extend=1.5):
    if sf.n_steps == 0:
        return np.array([1.0])
    pts = []
    for b in sf.breaks[1:]:
        pts.extend([b * (1.0 - rel), b * (1.0 + rel)])
    mids = (sf.breaks[:-1] + sf.breaks[1:]) / 2.0
    pts.extend(m for m in mids if m > 0)
    pts.append(sf.breaks[-1] * extend)
    return np.unique(np.array([p for p in pts if p > 0]))


# -- dumps17 ---------------------------------------------------------------------

EDGE_FLOATS = [
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    2.2250738585072009e-308,  # largest subnormal
    2.2250738585072014e-308,  # smallest normal
    1e-310,
    1.7976931348623157e308,
    -1.7976931348623157e308,
    0.1,
    1.0 / 3.0,
    1e16,
    123456789012345678.0,
]
finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
scalars = st.one_of(
    finite,
    st.integers(min_value=-(10**20), max_value=10**20),
    st.booleans(),
    st.none(),
    st.text(max_size=8),
    finite.map(np.float64),
)
params = st.dictionaries(
    st.sampled_from(["theta", "q", "s", "tau", "constant", "provider"]),
    finite | st.just(math.inf) | st.text(max_size=4),
)
float_arrays = st.lists(finite, max_size=40).map(lambda xs: np.array(xs, dtype=float))
documents = st.recursive(
    st.lists(finite, max_size=40) | float_arrays | st.lists(scalars, max_size=12) | scalars | params,
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(documents)
def test_dumps17_matches_per_item_reference(doc):
    try:
        expected = ref_dumps17(doc)
    except NumericError as exc:
        with pytest.raises(NumericError) as got:
            dumps17(doc)
        assert str(got.value) == str(exc)
    else:
        assert dumps17(doc) == expected


@settings(max_examples=200, deadline=None)
@given(
    st.lists(finite, min_size=1, max_size=30),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.data(),
)
def test_dumps17_rejects_non_finite_anywhere_in_a_float_column(col, bad, data):
    # finite, the column is written as the reference writes it
    assert dumps17(np.array(col)) == ref_dumps17(col)
    col.insert(data.draw(st.integers(0, len(col))), bad)
    a = np.array(col)
    for doc in (col, tuple(col), a, {"margin": col}, {"tau": col}, {"tau": a}, [col], [a]):
        with pytest.raises(NumericError, match=NON_FINITE):
            dumps17(doc)
    # under a key, the message names the key and the value
    for column in (col, a):
        with pytest.raises(NumericError) as got:
            dumps17({"report": {"margin": column}})
        assert str(got.value) == f"{NON_FINITE}: margin holds {bad!r}"


def test_dumps17_float_column_forms():
    assert dumps17([1.0]) == dumps17(np.array([1.0])) == "[1]"
    for col in ((0.1, -0.0, 5e-324), np.array([0.1, -0.0, 5e-324])):
        assert dumps17(col) == "[0.10000000000000001, -0, 4.9406564584124654e-324]"
    assert dumps17(np.array([1.7976931348623157e308])) == "[1.7976931348623157e+308]"
    assert dumps17([1.7976931348623157e308]) == "[1.7976931348623157e+308]"
    # an infinite echoed parameter stays the one allowed non-finite
    assert dumps17({"tau": math.inf, "s": 1.0}) == '{\n  "tau": "inf",\n  "s": 1\n}'
    # mixed columns keep the per-item path
    assert dumps17([1.0, 2, True, None, np.float64(0.5)]) == "[1, 2, true, null, 0.5]"


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.text(), st.text() | st.lists(st.text(), max_size=3), max_size=5))
def test_dumps17_strings_are_valid_json(doc):
    # keys and values alike: a quote, a backslash and every control character
    # are escaped, so json.loads reads the document back
    assert json.loads(dumps17(doc)) == doc


def test_dumps17_escapes_control_characters():
    assert dumps17({'k"\t': "a\tb\x01\rc\x1f"}) == '{\n  "k\\"\\t": "a\\tb\\u0001\\rc\\u001f"\n}'


# -- csv_text --------------------------------------------------------------------

csv_cells = st.one_of(
    finite,
    st.integers(-(10**6), 10**6),
    st.none(),
    st.text("ab_", max_size=4),
    finite.map(np.float64),
)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 12),
    st.lists(st.booleans(), min_size=1, max_size=5),
    st.sampled_from([1, 2, 5, 4096]),
    st.data(),
)
def test_csv_text_matches_per_item_reference(n_rows, plain, chunk, data):
    # a column is all plain floats, as a list or as a float64 array (the
    # one-pass path), or of mixed cells, and the rows are formatted `chunk`
    # at a time
    columns = [
        data.draw(st.lists(finite if p else csv_cells, min_size=n_rows, max_size=n_rows))
        for p in plain
    ]
    given = [
        np.array(col, dtype=float) if p and data.draw(st.booleans()) else col
        for col, p in zip(columns, plain)
    ]
    header = [f"c{i}" for i in range(len(columns))]
    with mock.patch.object(jsonutil_mod, "_CSV_CHUNK", chunk):
        assert csv_text(header, given) == ref_csv_text(header, columns)


def test_csv_text_forms():
    assert csv_text(("t", "v"), ([], [])) == csv_text(("t", "v"), (np.zeros(0), np.zeros(0))) == "t,v\n"
    assert csv_text(("t", "v"), ([None, 0.1], ["inf", 5e-324])) == "t,v\n,inf\n0.1,5e-324\n"
    assert csv_text(("t", "v"), (np.array([-0.0, 0.1]), np.array([5e-324, 1e16]))) == (
        "t,v\n-0.0,5e-324\n0.1,1e+16\n"
    )
    assert csv_text(("t", "v"), (["x", None], np.array([0.1, 5e-324]))) == "t,v\nx,0.1\n,5e-324\n"
    for a_col, b_col in (([1.0], [1.0, 2.0]), (np.ones(1), np.ones(2)), (["x"], np.ones(2))):
        with pytest.raises(ValueError):
            csv_text(("a", "b"), (a_col, b_col))
    for b_col in ([3.0, math.inf], [None, math.inf], np.array([3.0, math.inf])):
        for a_col in ([1.0, 2.0], np.array([1.0, 2.0]), ["x", "y"]):
            with pytest.raises(NumericError) as got:
                csv_text(("a", "b"), (a_col, b_col))
            assert str(got.value) == f"{NON_FINITE}: b holds inf"


def _stdlib_csv_text(header, columns):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*columns, strict=True))
    return buf.getvalue()


# csv.writer (Python 3.11) leaves a bare CR unquoted with lineterminator="\n",
# so the comparison with it draws no CR; the round trip below does.
no_cr_text = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r"))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(no_cr_text, no_cr_text), max_size=8))
def test_csv_text_quotes_strings_as_csv_writer(rows):
    columns = [list(col) for col in zip(*rows)] or [[], []]
    assert csv_text(("a", "b"), columns) == _stdlib_csv_text(("a", "b"), columns)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(st.characters(blacklist_categories=("Cs",))), min_size=1, max_size=8))
def test_csv_text_strings_read_back(ids):
    mags = np.arange(len(ids), dtype=float) / 3
    text = csv_text(("atom_id", "magnitude"), (ids, mags))
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["atom_id", "magnitude"]
    assert [row[0] for row in rows[1:]] == ids
    assert [float(row[1]) for row in rows[1:]] == mags.tolist()


def test_instance_csv_round_trips_ids_that_need_quotes():
    ids = ("a,b", 'q"x', "x\ny", "x\ry", "plain")
    sp = DiscreteMeasureSpace(weights=np.array([1.0, 2.0, 0.5, 0.25, 3.0]), atom_ids=ids)
    f = SimpleFunction(np.array([2.0, 1.0, 0.0, 4.0, 5e-324]))
    text = instance_csv_text(sp, f)
    assert text.splitlines()[1:3] == ['"a,b",1.0,2.0', '"q""x",2.0,1.0']
    sp_back, f_back = load_instance_csv(text)
    assert sp_back.atom_ids == ids
    assert sp_back.weights.tobytes() == sp.weights.tobytes()
    assert f_back.magnitudes.tobytes() == f.magnitudes.tobytes()


def _non_finite_instance(bad):
    sp = DiscreteMeasureSpace(weights=np.array([1.0, 2.0]))
    f = SimpleFunction(np.array([3.0, 4.0]))
    # the constructors reject a non-finite weight, so it is put in after them
    object.__setattr__(sp, "weights", np.array([1.0, bad]))
    return sp, f


WRITERS = [
    lambda bad: csv_text(("a", "b"), ([1.0, bad], [None, 2.0])),
    lambda bad: csv_text(("a",), ([1, np.float64(bad)],)),
    lambda bad: matrix_csv_text(np.array([[1.0, complex(0, bad)], [complex(0, -bad), 1.0]])),
    lambda bad: matrix_csv_text(np.array([[bad]])),
    lambda bad: state_csv_text(np.array([1.0, bad])),
    lambda bad: instance_csv_text(*_non_finite_instance(bad)),
]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "write", WRITERS, ids=["csv_text", "csv_text_mixed", "matrix_im", "matrix_re", "state", "instance"]
)
def test_csv_writers_reject_non_finite(write, bad):
    with pytest.raises(NumericError, match=NON_FINITE):
        write(bad)


# -- large reports -----------------------------------------------------------------


def _large_instance(n=2000, seed=20240517):
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.1, 3.0, n)
    mags = rng.uniform(0.05, 5.0, n)
    ties = rng.random(n) < 0.25
    mags[ties] = np.round(mags[ties], 1)
    mags[rng.random(n) < 0.1] = 0.0
    return DiscreteMeasureSpace(weights=weights), SimpleFunction(mags)


def _large_reports():
    sp, f = _large_instance()
    return [
        audit_jackson(f, sp, params_from_s_tau(1.0, 2.0), ConstantProvider("paper-c")),
        audit_jackson(f, sp, params_from_s_tau(0.5, math.inf), ConstantProvider("unit")),
        audit_weak_l1(f, sp, "paper-2-over-pi"),
        audit_weak_l1(f, sp, "safe-unit", grid=np.geomspace(1e-3, 1e4, 500)),
    ]


def _texts(reports):
    return [(rep.to_json_text(), rep.to_csv_text()) for rep in reports]


REPORT_COLUMNS = ("grid", "lhs", "rhs", "margin")


def _fields(rep):
    """The repr of a report's fields, each column as a list of Python floats:
    exact, where numpy's repr shows 8 digits and elides long arrays."""
    plain = {k: np.asarray(vars(rep)[k], dtype=float).tolist() for k in REPORT_COLUMNS}
    return repr(vars(rep) | plain)


def test_large_reports_match_per_item_reference(monkeypatch):
    reports = _large_reports()
    texts = _texts(reports)
    assert len(reports[0].grid) > 2000 and any(rep.violated for rep in reports)
    for rep in reports:
        for col in map(vars(rep).get, REPORT_COLUMNS):
            assert type(col) is np.ndarray and col.dtype == np.float64 and not col.flags.writeable
    monkeypatch.setattr(audit_mod, "_build_report", ref_build_report)
    monkeypatch.setattr(audit_mod, "straddling_grid", ref_straddling_grid)
    monkeypatch.setattr(audit_mod, "dumps17", ref_dumps17)
    refs = _large_reports()
    assert [_fields(rep) for rep in reports] == [_fields(ref) for ref in refs]
    assert texts == _texts(refs)


# -- straddling_grid ---------------------------------------------------------------


@st.composite
def step_functions(draw):
    n = draw(st.integers(0, 25))
    if n == 0:
        return EMPTY_STEP
    # near the subnormal range b (1 -+ rel) can round onto b or to zero
    scale = draw(st.sampled_from([5e-324, 1e-320, 1e-310, 1e-300, 1.0, 1e300]))
    raw = draw(st.lists(st.floats(1.0, 1e6), min_size=n, max_size=n, unique=True))
    breaks = np.unique(np.array(raw) * scale)
    values = np.arange(breaks.size, 0, -1, dtype=float)
    return StepFunction(breaks=np.concatenate([[0.0], breaks]), values=values)


@settings(max_examples=150, deadline=None)
@given(step_functions())
def test_straddling_grid_matches_loop(sf):
    got = straddling_grid(sf)
    ref = ref_straddling_grid(sf)
    assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


def test_straddling_grid_edge_cases():
    assert straddling_grid(EMPTY_STEP).tolist() == [1.0]
    tiny = StepFunction(
        breaks=np.array([0.0, 5e-324, 1e-323]), values=np.array([2.0, 1.0])
    )
    got = straddling_grid(tiny)
    assert got.tobytes() == ref_straddling_grid(tiny).tobytes()
    assert (got > 0).all()


# -- the decimal kernel ------------------------------------------------------------
#
# Float64 array columns (and all-float CSV tables) of jsonutil._KERNEL_MIN
# values or more are rendered by one vectorized kernel, which must write what
# format(x, ".17g") and repr(x) write.


@contextlib.contextmanager
def through_the_kernel():
    """Fails unless the decimal kernel, jsonutil._decimal_block, ran inside."""
    block = jsonutil_mod._decimal_block
    with mock.patch.object(jsonutil_mod, "_decimal_block", wraps=block) as spy:
        yield
    assert spy.called, "no float column reached the decimal kernel"


def _edge_column(seed=0):
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**64, 4000, dtype=np.uint64, endpoint=False).view(np.float64)
    powers = np.array([2.0**k for k in range(-1074, 1024)] + [10.0**k for k in range(-323, 309)])
    col = np.concatenate(
        [
            bits[np.isfinite(bits)],  # random 64-bit patterns
            EDGE_FLOATS,
            [0.0, -0.0, 1e-280, 1e280, 9.999999999999999e22, 1e23],
            powers,
            np.nextafter(powers, 0.0),
            np.nextafter(powers, np.inf)[:-1],
            5e-324 * rng.integers(1, 2**52, 200),  # subnormals
            rng.uniform(1e15, 1e17, 500),
            rng.integers(2**50, 2**53, 500) / 4.0,  # exact ties at 17 digits
            rng.uniform(2.0**53, 1e17, 2000),  # integers, some half a spacing from a shorter one
            np.arange(1000) / 10.0,
            rng.uniform(0.0, 5.0, 1000),
        ]
    )
    col = np.concatenate([col, -col])
    return col[rng.permutation(col.size)].tolist()


@pytest.mark.parametrize("seed", [0, 1])
def test_kernel_writes_format_and_repr(seed):
    col = _edge_column(seed)
    a = np.array(col)
    assert len(col) >= jsonutil_mod._KERNEL_MIN
    half = len(col) // 2
    lines = [f"{x!r},{y!r}" for x, y in zip(col[:half], col[half : 2 * half])]
    with through_the_kernel():
        assert dumps17({"margin": a}) == '{\n  "margin": [' + ", ".join(format(x, ".17g") for x in col) + "]\n}"
    with through_the_kernel():
        assert csv_text(("a", "b"), (a[:half], a[half : 2 * half])) == "a,b\n" + "".join(x + "\n" for x in lines)
    # on [2^53, 1e17) the scaling is exact and a tie is decided by round-half-even,
    # so repr's digits are certified there, not left to repr
    ints = np.abs(np.array(col))
    ints = ints[(ints >= 2.0**53) & (ints < 1e17)]
    assert ints.size >= 4000
    assert jsonutil_mod._decimal_digits(ints, True)[2].all()


@settings(max_examples=100, deadline=None)
@given(st.lists(finite, min_size=1, max_size=40), st.integers(0, 5))
def test_kernel_matches_per_item_reference(values, extra):
    # the drawn values repeated past the cutoff, one column per format
    col = (values * (jsonutil_mod._KERNEL_MIN // len(values) + 1))[: jsonutil_mod._KERNEL_MIN + extra]
    a = np.array(col)
    with through_the_kernel():
        assert dumps17(a) == ref_dumps17(col)
    with through_the_kernel():
        assert csv_text(("t", "v"), (a, a[::-1])) == ref_csv_text(("t", "v"), (col, col[::-1]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_kernel_rejects_non_finite_by_name(bad):
    # past the first _CSV_CHUNK values, so the kernel writes a block before
    # it meets the bad value
    col = np.arange(6000, dtype=float)
    col[4500] = bad
    with through_the_kernel(), pytest.raises(NumericError) as got:
        dumps17({"report": {"margin": col}})
    assert str(got.value) == f"{NON_FINITE}: margin holds {bad!r}"
    with through_the_kernel(), pytest.raises(NumericError, match=f"^{NON_FINITE}$"):
        dumps17([col])
    with through_the_kernel(), pytest.raises(NumericError) as got:
        csv_text(("a", "b", "c"), (col[::-1], col, col))
    assert str(got.value) == f"{NON_FINITE}: a holds {bad!r}"


# -- float64 arrays: report columns -------------------------------------------------

array_values = finite | st.sampled_from([1e300, -1e300, 1e-300, -1e-300])


@pytest.mark.parametrize("kernel_min", [16, jsonutil_mod._KERNEL_MIN], indirect=True)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(array_values, min_size=1, max_size=40), st.data())
def test_writers_take_float_arrays_as_lists(kernel_min, values, data):
    # a column of 0, 1, cutoff - 1 or cutoff values, the drawn ones repeated
    size = data.draw(st.sampled_from([0, 1, kernel_min - 1, kernel_min]))
    a = np.resize(np.array(values), size)
    b = a[::-1].copy()
    for doc in (a, {"margin": a}, {"report": {"grid": a, "lhs": [a, 1]}}):
        # doc with each array as its list (json round-trips finite floats exactly)
        as_lists = json.loads(json.dumps(doc, default=np.ndarray.tolist))
        assert dumps17(doc) == dumps17(as_lists) == ref_dumps17(as_lists)
    for header, columns in ((("t",), (a,)), (("t", "v"), (a, b)), (("t", "v"), (a, b.tolist()))):
        lists = [np.asarray(col).tolist() for col in columns]
        assert csv_text(header, columns) == csv_text(header, lists) == ref_csv_text(header, lists)


@pytest.mark.parametrize("kernel_min", [16], indirect=True)
@pytest.mark.parametrize("size", [5, 40], ids=["below", "above"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_writers_reject_non_finite_in_an_array(kernel_min, size, bad):
    col = np.arange(size, dtype=float)
    col[size // 2] = bad
    with pytest.raises(NumericError) as got:
        dumps17({"report": {"margin": col}})
    assert str(got.value) == f"{NON_FINITE}: margin holds {bad!r}"
    with pytest.raises(NumericError) as got:
        csv_text(("a", "b"), (np.arange(size, dtype=float), col))
    assert str(got.value) == f"{NON_FINITE}: b holds {bad!r}"


@pytest.mark.parametrize(
    "array",
    [np.arange(3), np.ones(3, np.float32), np.ones((2, 2)), np.zeros(0, np.int64), np.array(1.0)],
    ids=["int64", "float32", "2-D", "empty-int64", "0-D"],
)
def test_writers_refuse_other_arrays(array):
    with pytest.raises(ValueError, match="cannot serialize"):
        dumps17({"grid": array})
    if array.ndim:  # a 0-D array has no length, so it is no column
        with pytest.raises(ValueError, match="cannot serialize"):
            csv_text(("t",), (array,))


# the tests above, again with every float64 array column through the kernel
THROUGH_THE_KERNEL = [
    test_dumps17_matches_per_item_reference,
    test_dumps17_rejects_non_finite_anywhere_in_a_float_column,
    test_dumps17_float_column_forms,
    test_csv_text_matches_per_item_reference,
    test_csv_text_forms,
    test_csv_text_strings_read_back,
    test_instance_csv_round_trips_ids_that_need_quotes,
]


@pytest.mark.parametrize("kernel_min", [1], indirect=True)
@pytest.mark.parametrize("test", THROUGH_THE_KERNEL, ids=[t.__name__ for t in THROUGH_THE_KERNEL])
def test_every_float_column_through_the_kernel(kernel_min, test):
    with through_the_kernel():
        test()


@pytest.mark.parametrize("kernel_min", [1], indirect=True)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_csv_writers_reject_non_finite_through_the_kernel(kernel_min, bad):
    for write in WRITERS:
        with pytest.raises(NumericError, match=NON_FINITE):
            write(bad)


@pytest.mark.parametrize("kernel_min", [1], indirect=True)
def test_large_reports_match_per_item_reference_through_the_kernel(kernel_min, monkeypatch):
    test_large_reports_match_per_item_reference(monkeypatch)


# -- the writers' callers hand float columns over as arrays -------------------------


def _holds_float_list(obj) -> bool:
    """Whether obj holds a list or tuple of two or more plain floats."""
    if isinstance(obj, dict):
        return any(map(_holds_float_list, obj.values()))
    if isinstance(obj, (list, tuple)):
        floats = len(obj) >= 2 and all(type(v) is float for v in obj)
        return floats or any(map(_holds_float_list, obj))
    return False


@pytest.fixture
def arrays_only(monkeypatch):
    """dumps17 and csv_text, in every module that writes with them, fail on a
    list or tuple of plain floats: a float column must come as an array."""

    def guarded(write):
        def check(*args):
            assert not _holds_float_list(args), f"a list of floats reached {write.__name__}"
            return write(*args)

        return check

    for mod in (cli_mod, rearrange_mod, measures_mod, spectral_mod):
        for name in ("dumps17", "csv_text"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, guarded(getattr(jsonutil_mod, name)))


def test_arrays_only_catches_a_float_list(arrays_only):
    with pytest.raises(AssertionError, match="a list of floats reached csv_text"):
        rearrange_mod.csv_text(("t", "v"), ([0.0, 1.0], np.ones(2)))
    with pytest.raises(AssertionError, match="a list of floats reached dumps17"):
        cli_mod.dumps17({"report": {"grid": (0.5, 1.0)}})


@pytest.mark.parametrize("n_steps", [0, 1, 2000])
def test_rearrange_writers_hand_over_arrays(arrays_only, n_steps, tmp_path, capsys):
    # the zero function (its one row 0.0,0.0), one step, and 2,000 steps,
    # which the kernel writes; bytes as the reference writes the lists
    mags = np.arange(n_steps, 0, -1, dtype=float) / 7 if n_steps else np.zeros(3)
    sp = DiscreteMeasureSpace(weights=np.linspace(0.5, 2.0, mags.size))
    f = SimpleFunction(mags)
    path = tmp_path / "inst.csv"
    path.write_text(instance_csv_text(sp, f))
    sf = decreasing_rearrangement(f, sp)
    breaks, values = sf.breaks.tolist(), sf.values.tolist()
    assert len(values) == n_steps
    ref_steps = ref_csv_text(("t_break", "value"), (breaks, values + [0.0]))
    assert n_steps or ref_steps == "t_break,value\n0.0,0.0\n"
    doc = {"breaks": breaks, "values": values, "support_mass": sf.support_mass, "sup_value": sf.sup_value}
    for fmt, ref in (("csv", ref_steps), ("json", ref_dumps17(doc) + "\n")):
        assert cli_mod.main(["rearrange", "--input", str(path), "--format", fmt]) == 0
        assert capsys.readouterr().out == ref
    assert step_csv_text(sf) == ref_steps
    ref_instance = (sp.atom_ids, sp.weights.tolist(), mags.tolist())
    assert path.read_text() == ref_csv_text(("atom_id", "weight", "magnitude"), ref_instance)


def test_trig_and_spectral_writers_hand_over_arrays(arrays_only, tmp_path, capsys):
    path = tmp_path / "coef.csv"
    path.write_text("k,re,im\n-2,0.5,0.25\n0,1.0,0.0\n1,0.1,-0.3\n3,1e-3,2e-3\n")
    coeffs = load_trig_csv(str(path))
    ns = [1, 2, 3, 4]
    es = [e_functional_trig(coeffs, n) for n in ns]
    refs = (("csv", ref_csv_text(("n", "e_value"), (ns, es))), ("json", ref_dumps17({"n": ns, "e_value": es}) + "\n"))
    for fmt, ref in refs:
        assert cli_mod.main(["trig", "--input", str(path), "--format", fmt]) == 0
        assert capsys.readouterr().out == ref
    a = np.array([[1.0, 0.5 - 2j], [0.5 + 2j, -0.1]])
    ref_matrix = ([0, 0, 1, 1], [0, 1, 0, 1], a.real.ravel().tolist(), a.imag.ravel().tolist())
    assert matrix_csv_text(a) == ref_csv_text(("row", "col", "re", "im"), ref_matrix)
    psi = np.array([0.6, 0.8j, -0.0])
    ref_state = ([0, 1, 2], psi.real.tolist(), psi.imag.tolist())
    assert state_csv_text(psi) == ref_csv_text(("index", "re", "im"), ref_state)

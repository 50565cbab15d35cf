"""The one CSV reader behind the four input loaders: path or text, the order
in which faults are reported, and bit-exact round trips with the writers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bjaudit import (
    DiscreteMeasureSpace,
    SimpleFunction,
    UsageError,
    load_instance_csv,
    load_matrix_csv,
    load_state_csv,
    load_trig_csv,
)
from bjaudit.measures import instance_csv_text
from bjaudit.spectral import matrix_csv_text, state_csv_text

EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1.7976931348623157e308]
finite = st.one_of(st.sampled_from(EDGES), st.floats(allow_nan=False, allow_infinity=False))
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
nonnegative = st.one_of(st.just(-0.0), st.floats(min_value=0.0, allow_infinity=False))


def test_one_line_text_is_text():
    assert load_trig_csv("k,re,im") == {}
    with pytest.raises(UsageError, match="no data rows"):
        load_instance_csv("atom_id,weight,magnitude")


def test_a_file_named_with_a_comma_is_a_path(tmp_path):
    path = tmp_path / "a,b.csv"
    path.write_text("atom_id,weight,magnitude\nx,2.0,1.0\n")
    sp, f = load_instance_csv(str(path))
    assert sp.atom_ids == ("x",) and sp.total_mass == 2.0 and f.magnitudes[0] == 1.0
    with pytest.raises(UsageError, match="cannot read instance CSV"):
        load_instance_csv(str(tmp_path / "missing.csv"))


def test_a_file_that_is_not_text_is_a_usage_error(tmp_path):
    path = tmp_path / "binary.csv"
    path.write_bytes(b"atom_id,weight,magnitude\n\xff\xfe,1,2\n")
    with pytest.raises(UsageError, match="cannot read instance CSV"):
        load_instance_csv(str(path))


def test_fields_parse_as_python_float_and_int():
    # float() and int() accept surrounding spaces and digit underscores
    sp, f = load_instance_csv("atom_id,weight,magnitude\n a , 1_0 ,2.5 \n")
    assert sp.atom_ids == (" a ",)
    assert sp.weights.tolist() == [10.0] and f.magnitudes.tolist() == [2.5]
    assert load_trig_csv("k,re,im\n -1_0 ,1,0\n") == {-10: 1 + 0j}


# faulty values of each checked column, by column position
INSTANCE_FAULTS = {
    1: ["x", "", "nan", "inf", "1e999", "0", "-0.0", "-1.5"],
    2: ["x", "", "nan", "-inf", "-2", "-1e-300"],
}
STATE_FAULTS = {0: ["-1", "x", "1.5", ""], 1: ["x", "nan", "inf"], 2: ["y", "-inf", ""]}


@st.composite
def faulty_csv(draw, fmt):
    """A CSV text with one to three faulty fields, and the lowest file row
    holding one.  A state also gets a duplicate index or a gap, which must
    not be reported before the field faults."""
    n = draw(st.integers(1, 8))
    if fmt == "instance":
        header, faults = "atom_id,weight,magnitude", INSTANCE_FAULTS
        rows = [[f"a{i}", repr(draw(positive)), repr(draw(nonnegative))] for i in range(n)]
    else:
        header, faults = "index,re,im", STATE_FAULTS
        order = draw(st.permutations(range(n)))
        rows = [[str(i), repr(draw(finite)), repr(draw(finite))] for i in order]
        victim = draw(st.integers(0, n - 1))
        if draw(st.booleans()) and n > 1:
            rows[victim][0] = rows[victim - 1][0]
        else:
            rows[victim][0] = str(n + draw(st.integers(0, 5)))
    cell = st.tuples(st.integers(0, n - 1), st.sampled_from(sorted(faults)))
    cells = draw(st.sets(cell, min_size=1, max_size=3))
    for r, c in cells:
        rows[r][c] = draw(st.sampled_from(faults[c]))
    # blank lines are skipped but still count as file rows
    lines, rownums = [header], []
    for row, blank in zip(rows, draw(st.lists(st.booleans(), min_size=n, max_size=n))):
        lines += [""] * blank + [",".join(row)]
        rownums.append(len(lines))
    return "\n".join(lines) + "\n", min(rownums[r] for r, _ in cells)


@pytest.mark.parametrize("load, fmt", [(load_instance_csv, "instance"), (load_state_csv, "state")])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_field_faults_are_reported_at_the_lowest_row(load, fmt, data):
    text, row = data.draw(faulty_csv(fmt))
    with pytest.raises(UsageError) as exc:
        load(text)
    message = str(exc.value)
    assert message.startswith(f"row {row}: ")
    assert "duplicate" not in message and "implies" not in message


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_matrix_csv_round_trip_is_bitwise(data):
    n = data.draw(st.integers(1, 4))
    a = np.empty((n, n), dtype=complex)
    a.real = np.reshape(data.draw(st.lists(finite, min_size=n * n, max_size=n * n)), (n, n))
    a.imag = np.reshape(data.draw(st.lists(finite, min_size=n * n, max_size=n * n)), (n, n))
    back = load_matrix_csv(matrix_csv_text(a))
    assert back.shape == a.shape and back.tobytes() == a.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(finite, finite), min_size=1, max_size=16))
def test_state_csv_round_trip_is_bitwise(entries):
    psi = np.array([complex(re, im) for re, im in entries])
    back = load_state_csv(state_csv_text(psi))
    assert back.shape == psi.shape and back.tobytes() == psi.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.text(st.characters(blacklist_categories=("Cs",))), positive, nonnegative),
        min_size=1,
        max_size=8,
    )
)
def test_instance_csv_round_trip_is_bitwise(atoms):
    ids, weights, mags = zip(*atoms)
    sp = DiscreteMeasureSpace(weights=np.array(weights), atom_ids=ids)
    f = SimpleFunction(np.array(mags))
    sp_back, f_back = load_instance_csv(instance_csv_text(sp, f))
    assert sp_back.atom_ids == ids
    assert sp_back.weights.tobytes() == sp.weights.tobytes()
    assert f_back.magnitudes.tobytes() == f.magnitudes.tobytes()

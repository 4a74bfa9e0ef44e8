import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gramflow import (
    ArgumentError,
    ParseError,
    SpaceAssignment,
    SpaceError,
    cup,
    kron,
    parse_type,
    read_tensor,
    shape_of,
    write_tensor,
)
from gramflow.tensors import kron_all
from oracles import tensor_by_floats


def test_shape_of_transitive_verb():
    sa = SpaceAssignment({"n": 2, "s": 3})
    assert shape_of(parse_type("n^r s n^l"), sa) == (2, 3, 2)


def test_shape_of_unit_is_scalar_shape():
    assert shape_of(parse_type(""), SpaceAssignment({"n": 2})) == ()


def test_shape_of_repeated_base():
    assert shape_of(parse_type("n n"), SpaceAssignment({"n": 4})) == (4, 4)


def test_shape_of_missing_base():
    with pytest.raises(SpaceError, match="'s'"):
        shape_of(parse_type("s"), SpaceAssignment({"n": 2}))


def test_space_assignment_accepts_basic_type_keys_and_rejects_bad_dims():
    sa = SpaceAssignment({"n": 3})
    assert sa.dim("n") == 3
    assert sa.dim("n") == 3
    with pytest.raises(ArgumentError, match=r"^dimension for base 'n' must be >= 1, got 0$") as err:
        SpaceAssignment({"n": 0})
    assert isinstance(err.value, ValueError)


@pytest.mark.parametrize("d", [2.5, True, "x", 3.0, None])
def test_space_assignment_rejects_dims_that_are_not_integers(d):
    with pytest.raises(ArgumentError, match=r"^dimension for base 'n' is .+, not an integer$"):
        SpaceAssignment({"n": d})


def test_space_assignment_accepts_numpy_integer_dims():
    sa = SpaceAssignment({"n": np.int64(3), "s": np.uint8(2)})
    assert sa.dims == {"n": 3, "s": 2}
    assert all(type(d) is int for d in sa.dims.values())


def test_space_assignment_is_immutable_and_hashable():
    sa = SpaceAssignment({"n": 3, "s": 2})
    with pytest.raises(TypeError):
        sa.dims["n"] = 4
    same = SpaceAssignment({"s": np.int64(2), "n": 3})
    assert sa == same and hash(sa) == hash(same)
    assert sa != SpaceAssignment({"n": 3, "s": 3})
    assert sa != SpaceAssignment({"n": 3})
    assert {sa: 1}[same] == 1


def test_kron_basis_vectors():
    out = kron([1.0, 0.0], [0.0, 1.0])
    assert out.shape == (2, 2)
    assert list(out.ravel()) == [0.0, 1.0, 0.0, 0.0]


def test_kron_scalar_unit_up_to_scale():
    assert list(kron(3.0, [1.0, 2.0])) == [3.0, 6.0]
    assert kron(np.asarray(1.0), np.asarray(1.0)).shape == ()


def test_kron_of_uniform_vectors_is_not_the_cup():
    # the rank-1 product state differs from the correlated pair state
    product_state = kron([1.0, 1.0], [1.0, 1.0])
    assert list(product_state.ravel()) == [1.0, 1.0, 1.0, 1.0]
    assert list(cup(2).ravel()) == [1.0, 0.0, 0.0, 1.0]
    assert not np.array_equal(product_state, cup(2))


def test_kron_associative_with_shape_concat():
    rng = np.random.default_rng(0)
    # integer-valued entries keep the products exact
    a = rng.integers(-4, 5, size=(2,)).astype(float)
    b = rng.integers(-4, 5, size=(3, 2)).astype(float)
    c = np.asarray(3.0)
    left = kron(kron(a, b), c)
    right = kron(a, kron(b, c))
    assert left.shape == (2, 3, 2)
    assert np.array_equal(left, right)
    assert np.array_equal(kron_all([a, b, c]), left)
    assert kron_all([]).shape == () and float(kron_all([])) == 1.0

    x, y, z = rng.normal(size=(2,)), rng.normal(size=(3,)), rng.normal(size=(2, 2))
    assert np.allclose(kron(kron(x, y), z), kron(x, kron(y, z)), rtol=1e-15, atol=0)


def test_cup_examples():
    assert np.array_equal(cup(2), np.eye(2))
    assert cup(1).shape == (1, 1) and cup(1)[0, 0] == 1.0
    for d in (1, 2, 5):
        assert float(np.sum(cup(d) * cup(d))) == float(d)
    with pytest.raises(ValueError):
        cup(0)


def test_tensor_file_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    for shape in [(), (4,), (2, 3), (2, 2, 2), (1, 5, 2)]:
        arr = rng.normal(size=shape)
        path = tmp_path / "t.tns"
        write_tensor(arr, path)
        back = read_tensor(path)
        assert back.shape == arr.shape
        assert np.array_equal(back, arr)


def test_tensor_file_rank0_layout(tmp_path):
    path = tmp_path / "s.tns"
    write_tensor(np.asarray(2.5), path)
    first_line = path.read_text().splitlines()[0]
    assert first_line == ""
    assert read_tensor(path).shape == ()


def test_tensor_file_comments_and_errors(tmp_path):
    path = tmp_path / "c.tns"
    path.write_text("# a comment\n2 2\n1 2\n# another\n3 4\n")
    assert np.array_equal(read_tensor(path), [[1.0, 2.0], [3.0, 4.0]])

    path.write_text("2 2\n1 2 3\n")
    with pytest.raises(ParseError, match="expected 4 values"):
        read_tensor(path)

    path.write_text("2\none two\n")
    with pytest.raises(ParseError, match="non-numeric"):
        read_tensor(path)

    path.write_text("x y\n1\n")
    with pytest.raises(ParseError, match="dimension"):
        read_tensor(path)

    path.write_text("-2 -2\n1 2 3 4\n")
    with pytest.raises(ParseError, match="c.tns: negative dimension in '-2 -2'"):
        read_tensor(path)


@pytest.mark.parametrize("text, message", [
    ("2 2\n1.0 nan\n3.0 4.0\n", "t.tns:2: non-finite tensor value 'nan'"),
    ("# c\n2 2\n1.0 2.0\n\n# c\n3.0 -inf\n", "t.tns:6: non-finite tensor value '-inf'"),
    ("3\n1e999 1.0 nan\n", "t.tns:2: non-finite tensor value '1e999'"),
    ("\nInfinity\n", "t.tns:2: non-finite tensor value 'Infinity'"),
])
def test_tensor_file_rejects_non_finite_values(tmp_path, text, message):
    path = tmp_path / "t.tns"
    path.write_text(text)
    with pytest.raises(ParseError, match=message):
        read_tensor(path)


def test_tensor_file_rejects_non_utf8_text(tmp_path):
    path = tmp_path / "t.tns"
    path.write_bytes("2\n1.0 caf\u00e9\n".encode("latin-1"))
    with pytest.raises(ParseError, match="t.tns: not UTF-8 text"):
        read_tensor(path)


VALUE_TEXTS = st.one_of(
    st.floats().map(repr),
    st.floats().map(lambda x: "%.17g" % x),
    st.floats().map(lambda x: "%.6g" % x),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["1_0", "-0.0", "+.5e+3", "1e999", "-1e-400", "4.9e-324", "nan", "-inf",
                     "Infinity", "1__0", "0x10", "one", "1e"]),
)
TENSOR_LINES = st.lists(
    st.lists(VALUE_TEXTS, max_size=4).map(" ".join)
    | st.sampled_from(["", "# comment", "  # 1 2", "\t"]),
    max_size=6,
)


@settings(max_examples=300, deadline=None)
@given(st.none() | st.lists(st.integers(0, 3), max_size=3), TENSOR_LINES,
       st.sampled_from(["\n", "\r\n"]))
@example([2, 2], ["1_0 2.5", "# c", "", "-0.0 4.9e-324"], "\n")
@example([2], ["1.0", "nan"], "\r\n")
def test_read_tensor_matches_float_oracle(tmp_path_factory, dims, lines, newline):
    if dims is None:  # a vector holding every value given
        dims = [sum(len(line.split()) for line in lines if not line.lstrip().startswith("#"))]
    path = tmp_path_factory.mktemp("tns") / "t.tns"
    path.write_bytes(newline.join([" ".join(map(str, dims))] + lines).encode("utf-8"))
    try:
        want = tensor_by_floats(path)
    except ParseError as exc:
        with pytest.raises(ParseError) as err:
            read_tensor(path)
        assert str(err.value) == str(exc)
        return
    got = read_tensor(path)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


HEADER_TEXTS = st.text() | st.lists(st.integers(-3, 4), max_size=4).map(
    lambda dims: " ".join(map(str, dims)))


@settings(max_examples=300, deadline=None)
@given(HEADER_TEXTS.filter(lambda h: len(h.splitlines()) <= 1 and not h.lstrip().startswith("#")),
       st.text() | TENSOR_LINES.map("\n".join))
@example("-1 -4", "1 2 3 4")
@example("0 99999999999999999999", "")
@example(" ".join(["1"] * 65), "7")
def test_read_tensor_returns_a_finite_array_of_the_header_shape_or_parse_error(
        tmp_path_factory, header, body):
    path = tmp_path_factory.mktemp("tns") / "t.tns"
    path.write_bytes(f"{header}\n{body}".encode("utf-8"))
    try:
        got = read_tensor(path)
    except ParseError as exc:
        assert str(exc).startswith(str(path))
        return
    assert got.dtype == np.float64 and np.isfinite(got).all()
    assert got.shape == tuple(int(tok) for tok in header.split())

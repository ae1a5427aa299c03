"""The shared reader of binary artifacts refuses a file of another shape,
naming it."""

import numpy as np
import pytest

from regir._npz import read_npz, write_npz

FMT = "regir-test"
HEADER = {"format": FMT, "version": 1}


def test_read_npz_refuses_a_zip_without_a_header(tmp_path):
    path = tmp_path / "bare.npz"
    with open(path, "wb") as fh:
        np.savez(fh, a=np.zeros(2))
    with pytest.raises(ValueError, match=f"^{path}: not a {FMT} file \\(no header\\)"):
        read_npz(path, FMT, 1)


def test_read_npz_refuses_another_format(tmp_path):
    path = tmp_path / "other.npz"
    write_npz(path, {"format": "regir-other", "version": 1}, {"a": np.zeros(2)})
    with pytest.raises(ValueError, match=f"^{path}: not a {FMT} file$"):
        read_npz(path, FMT, 1)


@pytest.mark.parametrize("arrays", [
    {"a": np.zeros(2, np.int32), "b": np.zeros(2, np.int32)},
    {}, {"b": np.zeros(2, np.int32)}],
    ids=["extra", "missing", "other"])
def test_read_npz_requires_exactly_the_named_arrays(tmp_path, arrays):
    path = tmp_path / "arrays.npz"
    write_npz(path, HEADER, arrays)
    with pytest.raises(ValueError, match=f"^{path}: arrays .*expected \\['a'\\]"):
        read_npz(path, FMT, 1, {"a": np.int32})


def test_read_npz_without_dtypes_requires_float64(tmp_path):
    path = tmp_path / "params.npz"
    write_npz(path, HEADER, {"w": np.zeros(3), "b": np.zeros(2, np.float32)})
    with pytest.raises(ValueError, match=f"^{path}: arrays must be float64"):
        read_npz(path, FMT, 1)
    write_npz(path, HEADER, {"w": np.zeros((3, 2))})
    header, arrays = read_npz(path, FMT, 1)
    assert header == HEADER and arrays["w"].shape == (3, 2)

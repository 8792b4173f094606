import re

import numpy as np
import pytest

from conftest import write_non_finite
from fusedet import fmp
from fusedet.errors import NumericGuardError, ParseError, ShapeError


class TestRoundTrip:
    def test_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 6, 3))
        path = tmp_path / "m.fmp"
        fmp.write_map(path, x)
        assert np.array_equal(fmp.read_map(path), x)

    def test_write_twice_identical_bytes(self, tmp_path):
        x = np.random.default_rng(1).standard_normal((2, 3, 3))
        a, b = tmp_path / "a.fmp", tmp_path / "b.fmp"
        fmp.write_map(a, x)
        fmp.write_map(b, x)
        assert a.read_bytes() == b.read_bytes()

    def test_header_layout(self, tmp_path):
        path = tmp_path / "m.fmp"
        fmp.write_map(path, np.arange(6.0).reshape(1, 2, 3))
        raw = path.read_bytes()
        assert raw[:4] == b"PST1"
        assert raw[4:16] == (0).to_bytes(8, "little") + (1).to_bytes(4, "little")  # seed, count
        assert raw[16:21] == (3).to_bytes(2, "little") + b"map"
        assert raw[21:34] == bytes([3]) + b"".join(n.to_bytes(4, "little") for n in (1, 2, 3))
        assert raw[34:] == np.arange(6.0).astype("<f8").tobytes()

    def test_arrays_keep_seed_keys_and_shapes(self, tmp_path):
        rng = np.random.default_rng(2)
        arrays = {"b": rng.standard_normal((2, 3)), "a": np.array(4.5), "empty": np.zeros((0, 3))}
        path = tmp_path / "c.pst"
        fmp.write_arrays(path, arrays, seed=17)
        seed, back = fmp.read_arrays(path)
        assert seed == 17 and list(back) == ["a", "b", "empty"]
        for key, value in arrays.items():
            assert back[key].shape == value.shape and np.array_equal(back[key], value)
            assert back[key].flags.writeable


class TestRejections:
    def test_wrong_ndim(self, tmp_path):
        with pytest.raises(ShapeError):
            fmp.write_map(tmp_path / "m.fmp", np.zeros((2, 2)))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.fmp"
        fmp.write_map(path, np.zeros((1, 1, 1)))
        raw = bytearray(path.read_bytes())
        raw[0] = ord("X")
        path.write_bytes(bytes(raw))
        with pytest.raises(ParseError, match="magic"):
            fmp.read_map(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "m.fmp"
        fmp.write_map(path, np.zeros((2, 2, 2)))
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(ParseError, match="truncated"):
            fmp.read_map(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "m.fmp"
        fmp.write_map(path, np.zeros((1, 1, 2)))
        path.write_bytes(path.read_bytes() + b"zz")
        with pytest.raises(ParseError, match="trailing"):
            fmp.read_map(path)

    def test_too_short_for_header(self, tmp_path):
        path = tmp_path / "m.fmp"
        path.write_bytes(b"FMP1\x01")
        with pytest.raises(ParseError):
            fmp.read_map(path)

    def test_old_fmp1_map(self, tmp_path):
        # the earlier map format: magic FMP1, three u32 D, H, W, then the values
        path = tmp_path / "old.fmp"
        path.write_bytes(b"FMP1" + b"".join(n.to_bytes(4, "little") for n in (1, 1, 2)) + bytes(16))
        with pytest.raises(ParseError, match="magic"):
            fmp.read_map(path)

    def test_repeated_key(self, tmp_path):
        entry = (1).to_bytes(2, "little") + b"w" + bytes([1]) + (1).to_bytes(4, "little") + bytes(8)
        path = tmp_path / "twice.pst"
        path.write_bytes(b"PST1" + (0).to_bytes(8, "little") + (2).to_bytes(4, "little") + entry + entry)
        with pytest.raises(ParseError, match="repeated key 'w'"):
            fmp.read_arrays(path)

    @pytest.mark.parametrize("shape", [(0,) * 65, (0, 2**32 - 1, 2**32 - 1)], ids=["rank-65", "huge-empty"])
    def test_shape_numpy_cannot_hold(self, tmp_path, shape):
        entry = (1).to_bytes(2, "little") + b"w" + bytes([len(shape)])
        entry += b"".join(n.to_bytes(4, "little") for n in shape)
        path = tmp_path / "odd.pst"
        path.write_bytes(b"PST1" + (0).to_bytes(8, "little") + (1).to_bytes(4, "little") + entry)
        with pytest.raises(ParseError, match="cannot have shape"):
            fmp.read_arrays(path)

    def test_negative_seed(self, tmp_path):
        path = tmp_path / "neg.pst"
        path.write_bytes(b"PST1" + (-1).to_bytes(8, "little", signed=True) + (0).to_bytes(4, "little"))
        with pytest.raises(ParseError, match="negative seed"):
            fmp.read_arrays(path)

    def test_container_that_is_not_a_map(self, tmp_path):
        path = tmp_path / "p.pst"
        fmp.write_arrays(path, {"map": np.zeros((2, 2))})
        with pytest.raises(ParseError, match="not a feature map"):
            fmp.read_map(path)
        fmp.write_arrays(path, {"map": np.zeros((1, 2, 2)), "extra": np.zeros(1)})
        with pytest.raises(ParseError, match="not a feature map"):
            fmp.read_map(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload(self, tmp_path, bad):
        path = tmp_path / "m.fmp"
        x = np.zeros((2, 3, 3))
        x[1, 2, 0] = bad
        write_non_finite(path, {"map": x})
        with pytest.raises(NumericGuardError, match="1 non-finite"):
            fmp.read_map(path)

    def test_non_finite_names_every_key(self, tmp_path):
        path = tmp_path / "c.pst"
        write_non_finite(path, {"a": [np.nan, 1.0], "b": [0.0], "c": [np.inf, -np.inf]})
        with pytest.raises(NumericGuardError, match=re.escape(f"{path} holds 3 non-finite values in a, c")):
            fmp.read_arrays(path)

    @pytest.mark.parametrize("write", [fmp.write_map, lambda path, x: fmp.write_arrays(path, {"b": [0.0], "a": x})])
    def test_writer_refuses_non_finite_with_the_reader_message(self, tmp_path, write):
        path = tmp_path / "m.fmp"
        x = np.zeros((2, 3, 3))
        x[0, 0, 0], x[1, 2, 2] = np.nan, -np.inf
        with pytest.raises(NumericGuardError, match=re.escape(f"{path} holds 2 non-finite values in ")):
            write(path, x)
        assert not path.exists()

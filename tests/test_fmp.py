import numpy as np
import pytest

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
        fmp.write_map(path, np.zeros((1, 2, 3)))
        raw = path.read_bytes()
        assert raw[:4] == b"FMP1"
        assert raw[4:16] == (1).to_bytes(4, "little") + (2).to_bytes(4, "little") + (3).to_bytes(4, "little")
        assert len(raw) == 16 + 6 * 8


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload(self, tmp_path, bad):
        path = tmp_path / "m.fmp"
        x = np.zeros((2, 3, 3))
        x[1, 2, 0] = bad
        fmp.write_map(path, x)
        with pytest.raises(NumericGuardError, match="1 non-finite"):
            fmp.read_map(path)

import pytest

from fusedet.errors import ParseError, PreconditionError, finite_float, read_records


class TestReadRecords:
    def test_record_lines_and_numbers(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("# header\n\n  \t\nfirst  # tail\n    indented \t\nlast#x\n")
        seen = []
        got = read_records(path, lambda line: seen.append(line) or len(seen))
        assert seen == ["first", "    indented", "last"] and got == [1, 2, 3]

    def test_text_stands_for_the_file(self):
        assert read_records("<mem>", str.upper, "a\n# b\nc") == ["A", "C"]

    @pytest.mark.parametrize("exc", [ValueError("bad literal"), PreconditionError("bad literal")])
    def test_build_error_names_file_and_line(self, tmp_path, exc):
        path = tmp_path / "r.txt"
        path.write_text("ok\n\n# c\nboom\n")

        def build(line):
            if line == "boom":
                raise exc
            return line

        with pytest.raises(ParseError) as info:
            read_records(path, build)
        assert info.value.line == 4 and str(info.value) == f"{path} line 4: bad literal"

    def test_other_errors_pass_through(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("x\n")
        with pytest.raises(FileNotFoundError):
            read_records(path, lambda line: open(tmp_path / "absent"))


class TestFiniteFloat:
    @pytest.mark.parametrize("text", ["0.5", "-0.0", "1e-320", "1.7e308", " 2 "])
    def test_finite_accepted(self, text):
        assert finite_float(text) == float(text)

    @pytest.mark.parametrize("text", ["nan", "NaN", "inf", "-inf", "+Infinity", "1e400", "-1e400", "x"])
    def test_non_finite_or_malformed_rejected(self, text):
        with pytest.raises(ValueError):
            finite_float(text)

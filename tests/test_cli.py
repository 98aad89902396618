"""Command-line interface: output tables, presets, exit codes."""

import csv
import os
import tempfile
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monotone_index import SamplePairs, cli, empirical_index
from monotone_index.cli import UsageError, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows(text):
    return [line.split(",") for line in text.strip().splitlines()]


# the data row of `theoretical --via-h` on each paper (window, rho) case,
# the same for both paper alphas at the default precision
PAPER_VIA_H = {
    ("w02", "0"): "0,0,0.584894,0.910502,0.642386,0.642386",
    ("w02", "0.5"): "0,0,0.584894,0.910502,0.642386,0.642386",
    ("w02", "-0.5"): "0,0,0.584894,0.910502,0.642386,0.642386",
    ("w812", "0"): "0,0,0.0995871,0.0995871,1,1",
    ("w812", "0.5"): "0.135278,0.135278,0.127648,0.127648,1,1",
    ("w812", "-0.5"): "0,0.135278,0.0715261,0.0715261,0.345864,0.345864",
    ("w020", "0"): "0,0,1.11775,1.51506,0.73776,0.73776",
    ("w020", "0.5"): "0.135278,0.135278,1.34269,1.74,0.788133,0.788133",
    ("w020", "-0.5"): "0,0.135278,0.892807,1.29012,0.626358,0.626358",
}


class TestTheoretical:
    @pytest.mark.parametrize("params", ["a15", "a5"])
    @pytest.mark.parametrize("window,rho", list(PAPER_VIA_H))
    def test_paper_cases_via_h_byte_identical(self, capsys, params, window, rho):
        code, out, err = run(capsys, "theoretical", "--paper-window", window, "--rho", rho,
                             "--paper-params", params, "--via-h")
        assert (code, err) == (0, "")
        assert out == ("jump_pos,jump_abs,int_pos,int_abs,value,value_via_h\n"
                       + PAPER_VIA_H[window, rho] + "\n")

    def test_narrow_window(self, capsys):
        code, out, _ = run(capsys, "theoretical", "--window", "0,2")
        assert code == 0
        header, row = rows(out)
        assert header == ["jump_pos", "jump_abs", "int_pos", "int_abs", "value"]
        np.testing.assert_allclose(float(row[4]), 0.642386, atol=1e-5)

    def test_jump_down_straddling_window(self, capsys):
        code, out, _ = run(capsys, "theoretical", "--window", "8,12", "--rho", "-0.5")
        assert code == 0
        row = rows(out)[1]
        np.testing.assert_allclose(float(row[4]), 0.345864, atol=1e-5)
        np.testing.assert_allclose(float(row[1]), 0.135278, atol=1e-5)

    def test_presets_and_via_h(self, capsys):
        code, out, _ = run(
            capsys,
            "theoretical",
            "--paper-window", "w020",
            "--paper-params", "a5",
            "--rho", "0.5",
            "--via-h",
        )
        assert code == 0
        header, row = rows(out)
        assert header[-1] == "value_via_h"
        np.testing.assert_allclose(float(row[4]), 0.788133, atol=1e-5)
        np.testing.assert_allclose(float(row[5]), float(row[4]), atol=1e-5)

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "breakdown.csv"
        code = main(["theoretical", "--window", "0,2", "--output", str(path)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert path.read_text().startswith("jump_pos,")

    def test_overflowing_window(self, capsys):
        # h overflows a double long before x = 8000; the index stays defined
        code, out, _ = run(capsys, "theoretical", "--window", "0,8000")
        assert code == 0
        np.testing.assert_allclose(float(rows(out)[1][4]), 1.0, atol=1e-6)

    def test_overflowing_jump(self, capsys):
        # h(x0) and the jump rho*h(x0) overflow a double; the index is 1
        code, out, _ = run(capsys, "theoretical", "--window", "7000,8000",
                           "--x0", "7500", "--rho", "0.5")
        assert code == 0
        assert float(rows(out)[1][4]) == 1.0

    @pytest.mark.parametrize("x0", ["975", "999.9"])
    def test_via_h_jump_image_off_the_jump_is_domain_error(self, capsys, x0):
        # 1 - F(1000) is 1e-15 at alpha = 5, too coarse to cut H at the jump
        code, out, err = run(capsys, "theoretical", "--window", "0,1000", "--x0", x0,
                             "--rho", "-0.5", "--paper-params", "a5", "--via-h")
        assert (code, out) == (3, "")
        assert "too coarse" in err

    def test_precision_controls_digits(self, capsys):
        _, wide, _ = run(capsys, "theoretical", "--window", "0,2", "--precision", "12")
        _, narrow, _ = run(capsys, "theoretical", "--window", "0,2", "--precision", "3")
        assert len(rows(wide)[1][4]) > len(rows(narrow)[1][4])

    def test_usage_errors(self, capsys):
        assert run(capsys, "theoretical", "--window", "oops")[0] == 2
        assert run(capsys, "theoretical", "--window", "2,1")[0] == 2
        assert run(capsys, "theoretical", "--window", "0,2", "--gamma", "-1")[0] == 2
        assert run(capsys, "theoretical", "--window", "0,2", "--precision", "40")[0] == 2

    def test_window_flags_are_exclusive(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["theoretical", "--window", "0,2", "--paper-window", "w02"])
        assert err.value.code == 2
        capsys.readouterr()

    def test_missing_window_rejected(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["theoretical"])
        assert err.value.code == 2
        capsys.readouterr()


class TestHfunc:
    def test_grid_rows(self, capsys):
        code, out, _ = run(capsys, "hfunc", "--window", "8,12", "--grid", "5")
        assert code == 0
        table = rows(out)
        assert table[0] == ["u", "H"]
        assert len(table) == 6
        np.testing.assert_allclose(float(table[-1][0]), 1.0)

    def test_documented_profile_endpoint(self, capsys):
        code, out, _ = run(
            capsys,
            "hfunc", "--paper-window", "w020", "--rho", "0.5", "--grid", "1000",
        )
        assert code == 0
        last = rows(out)[-1]
        np.testing.assert_allclose(float(last[1]), 144.17, rtol=1e-3)

    def test_grid_validation(self, capsys):
        assert run(capsys, "hfunc", "--window", "8,12", "--grid", "1")[0] == 2

    @pytest.mark.parametrize("argv, u", [
        # p = inf - inf in h', so every row of H is nan
        (("--grid", "5", "--gamma", "1e-8", "--delta", "1e300", "--x0", "1e8",
          "--rho", "1e300", "--window", "0,1e300", "--alpha", "1e-8", "--beta", "1e300"),
         "0.2"),
        # h' overflows at x = 8000, the last row
        (("--window", "0,8000", "--rho", "0.5", "--grid", "4"), "1.0"),
    ])
    def test_nonfinite_h_exits_3(self, capsys, argv, u):
        code, out, err = run(capsys, "hfunc", *argv)
        assert (code, out) == (3, "")
        assert f"at u = {u}:" in err
        assert "Warning" not in err


class TestEstimate:
    def write(self, tmp_path, text):
        path = tmp_path / "pairs.csv"
        path.write_text(text)
        return str(path)

    def test_worked_example(self, capsys, tmp_path):
        path = self.write(tmp_path, "1,0\n2,2\n3,1\n")
        code, out, err = run(capsys, "estimate", "--input", path)
        assert code == 0
        header, row = rows(out)
        assert header == ["n", "index", "numerator", "denominator", "bn"]
        assert row[0] == "3"
        np.testing.assert_allclose(float(row[1]), 2.0 / 3.0, rtol=1e-6)
        np.testing.assert_allclose(float(row[4]), np.sqrt(3.0), rtol=1e-6)
        assert err == ""

    def test_header_row_is_skipped(self, capsys, tmp_path):
        path = self.write(tmp_path, "x,y\n1,0\n2,2\n3,1\n")
        code, out, _ = run(capsys, "estimate", "--input", path)
        assert code == 0
        assert rows(out)[1][0] == "3"

    def test_matches_library_exactly(self, capsys, tmp_path):
        rng = np.random.default_rng(42)
        x = rng.uniform(0.0, 2.0, 2000)
        y = rng.normal(size=2000)
        lines = "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(x, y))
        path = self.write(tmp_path, lines)
        code, out, _ = run(capsys, "estimate", "--input", path, "--precision", "17")
        assert code == 0
        row = rows(out)[1]
        want = empirical_index(SamplePairs(x, y))
        assert float(row[1]) == want.index
        assert float(row[4]) == want.bn

    def test_tie_warning_on_stderr(self, capsys, tmp_path):
        path = self.write(tmp_path, "1,5\n1,3\n2,4\n")
        code, out, err = run(capsys, "estimate", "--input", path)
        assert code == 0
        assert "tied inputs" in err

    def test_degenerate_sample_is_domain_error(self, capsys, tmp_path):
        path = self.write(tmp_path, "1,7\n2,7\n3,7\n")
        code, _, err = run(capsys, "estimate", "--input", path)
        assert code == 3
        assert "error:" in err

    def test_error_line_counts_blank_lines(self, capsys, tmp_path):
        path = self.write(tmp_path, "x,y\n1,2\n\n\n3,abc\n")
        code, _, err = run(capsys, "estimate", "--input", path)
        assert code == 2
        assert "line 5:" in err

    def test_oversized_field_is_usage_error(self, capsys, tmp_path):
        path = self.write(tmp_path, "x,y\n1,2\n3," + "9" * 200_000 + "\n5,6\n")
        code, _, err = run(capsys, "estimate", "--input", path)
        assert code == 2
        assert f"{path}: line 3: field larger than field limit" in err

    def test_undecodable_file_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_bytes(b"x,y\n1,2\n3,4\n5,\xff6\n7,8\n")
        code, _, err = run(capsys, "estimate", "--input", str(path))
        assert code == 2
        assert f"{path}: line 4: not " in err

    def test_malformed_rows(self, capsys, tmp_path):
        assert run(capsys, "estimate", "--input",
                   self.write(tmp_path, "1,2\n3,4,5\n"))[0] == 2
        assert run(capsys, "estimate", "--input",
                   self.write(tmp_path, "1,2\n"))[0] == 2
        assert run(capsys, "estimate", "--input",
                   str(tmp_path / "missing.csv"))[0] == 2


def outcome(read, path):
    """The pairs' bytes, or the UsageError text."""
    try:
        pairs = read(path)
    except UsageError as exc:
        return str(exc)
    return pairs.x.tobytes(), pairs.y.tobytes()


NUMBERS = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                    st.integers(-10**20, 10**20).map(str))
# the spellings on which the csv loop and numpy's parser could part
ODD_CELLS = st.sampled_from([
    "", " ", "x", '"1"', '"', "1_0", " 1 ", "\t2\x0c", "nan", "-inf", "1e999", "-0", ".5",
    "5.", "0x1", "\u0661", "1 2", "\x00", "\ufeff1", "\udcff", "0" * 50, "#1",
])


@st.composite
def csv_texts(draw):
    """Rows of two numbers, an optional header and at most two odd rows
    of zero to three cells, with mixed line ends."""
    rows = draw(st.lists(st.tuples(NUMBERS, NUMBERS).map(",".join), max_size=8))
    if draw(st.booleans()):
        rows.insert(0, "x,y")
    odd_rows = st.lists(st.one_of(NUMBERS, ODD_CELLS), max_size=3).map(",".join)
    for row in draw(st.lists(odd_rows, max_size=2)):
        rows.insert(draw(st.integers(0, len(rows))), row)
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    text = "".join(row + draw(ends) for row in rows)
    return text if draw(st.booleans()) else text.rstrip("\r\n")


class TestIngest:
    """_read_pairs against the csv loop it stands in for."""

    def write(self, tmp_path, text):
        path = tmp_path / "pairs.csv"
        path.write_text(text, newline="")
        return str(path)

    def run_warning_free(self, capsys, *argv):
        # a warning would reach stderr outside pytest, which records it
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run(capsys, *argv)
        assert caught == []
        return result

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(csv_texts(), st.sampled_from([16, 64, 1 << 20]), st.sampled_from([40, 131072]))
    def test_same_pairs_or_same_error(self, text, block, field_limit):
        old_limit = csv.field_size_limit(field_limit)
        try:
            with tempfile.TemporaryDirectory() as tmp, \
                    mock.patch.object(cli, "INGEST_BLOCK", block):
                path = os.path.join(tmp, "pairs.csv")
                with open(path, "wb") as fh:
                    fh.write(text.encode("utf-8", "surrogateescape"))
                assert outcome(cli._read_pairs, path) == outcome(cli._csv_pairs, path)
        finally:
            csv.field_size_limit(old_limit)

    @pytest.mark.parametrize("text", [
        "x,y\n1,2\n3,4\n",
        "1,2\n3,4\n",
        "1,2\r\n\r\n3,4\r\n",
        "x,y\r1,2\r3,4\r",
        "x,y\n1,2\n3,4",
        " 1 , 2 \n-3.5e-300,4\n",
    ])
    def test_well_formed_files_skip_the_loop(self, tmp_path, text):
        path = self.write(tmp_path, text)
        want = outcome(cli._csv_pairs, path)
        with mock.patch.object(cli, "_csv_pairs", side_effect=AssertionError("declined")), \
                mock.patch.object(cli, "INGEST_BLOCK", 4):
            assert outcome(cli._read_pairs, path) == want

    def test_columns_are_contiguous(self, tmp_path):
        path = self.write(tmp_path, "".join(f"{i},{-i}\n" for i in range(100)))
        with mock.patch.object(cli, "INGEST_BLOCK", 64):
            pairs = cli._read_pairs(path)
        assert pairs.x.flags.c_contiguous and pairs.y.flags.c_contiguous
        assert pairs.x.tolist() == list(range(100))

    @pytest.mark.parametrize("digit", ["0", "9"])
    def test_oversized_field_in_row_three(self, capsys, tmp_path, digit):
        # numpy reads "0" * 200000 as 0.0 and "9" * 200000 as inf
        path = self.write(tmp_path, "1,2\n3,4\n5," + digit * 200_000 + "\n7,8\n")
        code, out, err = run(capsys, "estimate", "--input", path)
        assert (code, out) == (2, "")
        assert err == f"error: {path}: line 3: field larger than field limit (131072)\n"

    @pytest.mark.parametrize("text,message", [
        ("\n\n\n", "no data rows"),
        # numpy warns "input contained no data" on a block of blank lines
        ("x,y\n\n\n\n", "need at least two data rows"),
        ("x,y\n" + "\n" * 5000, "need at least two data rows"),
    ])
    def test_blank_lines_only(self, capsys, tmp_path, text, message):
        path = self.write(tmp_path, text)
        code, out, err = self.run_warning_free(capsys, "estimate", "--input", path)
        assert (code, out, err) == (2, "", f"error: {path}: {message}\n")

    # a stray double quote is reported on the line where its record
    # starts, and no text may follow a closing quote in a field
    @pytest.mark.parametrize("text,message", [
        ('x,"y\n1,2\n3,4\n5,6\n', "line 1: unexpected end of data"),
        ('x,y\n1,2\n"3,4\n5,6\n7,8\n', "line 3: unexpected end of data"),
        ('x,y\n"1"2,3\n4,5\n', "line 2: ',' expected after '\"'"),
        ('x,y\n1,2\n"3\n",abc\n', "line 3: expected two numeric columns"),
    ], ids=["header", "data-row", "after-closing-quote", "two-line-record"])
    def test_stray_quote_is_reported_where_its_record_starts(
        self, capsys, tmp_path, text, message
    ):
        path = self.write(tmp_path, text)
        code, out, err = self.run_warning_free(capsys, "estimate", "--input", path)
        assert (code, out, err) == (2, "", f"error: {path}: {message}\n")

    @pytest.mark.parametrize("text,x,y", [
        ('"1",2\n3,4\n', [1, 3], [2, 4]),
        ("x,y\n1_0,2\n3,4\n", [10, 3], [2, 4]),
        ("1,2\n  \n3,4\n", [1, 3], [2, 4]),
        ("1,2\r3,4\r5,6\r", [1, 3, 5], [2, 4, 6]),
        ("1,2\n3,4", [1, 3], [2, 4]),
        # strict quoting still takes a quoted header over two lines
        ('"x\ny",z\n1,2\n3,4\n', [1, 3], [2, 4]),
    ])
    def test_accepted_as_before(self, tmp_path, text, x, y):
        pairs = cli._read_pairs(self.write(tmp_path, text))
        assert (pairs.x.tolist(), pairs.y.tolist()) == (x, y)

    def test_pipe_is_read_once(self, capsys, tmp_path):
        # a quoted row sends the file to the csv loop, which must still
        # see the rows that numpy's parser would have taken from the pipe
        text = 'x,y\n"1",2\n' + "".join(f"{i},{i % 7}\n" for i in range(3, 500))
        read_fd, write_fd = os.pipe()

        def feed():
            with os.fdopen(write_fd, "w") as fh:
                fh.write(text)

        writer = threading.Thread(target=feed)
        writer.start()
        try:
            piped = run(capsys, "estimate", "--input", f"/dev/fd/{read_fd}")
        finally:
            os.close(read_fd)
            writer.join(timeout=30)
        assert not writer.is_alive()
        assert piped == run(capsys, "estimate", "--input", self.write(tmp_path, text))
        assert piped[0] == 0

    def test_large_well_formed_file_is_quiet(self, capsys, tmp_path):
        rng = np.random.default_rng(7)
        x, y = rng.uniform(0.0, 2.0, 10_000), rng.normal(size=10_000)
        lines = (f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), y.tolist()))
        path = self.write(tmp_path, "x,y\n" + "".join(lines))
        code, out, err = self.run_warning_free(capsys, "estimate", "--input", path)
        assert (code, err) == (0, "")
        assert rows(out)[1][0] == "10000"


class TestOutput:
    """--output is written only once the command has succeeded."""

    def test_output_may_be_the_input(self, capsys, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text("1,0\n2,2\n3,1\n")
        code, out, err = run(capsys, "estimate", "--input", str(path), "--output", str(path))
        assert (code, out, err) == (0, "", "")
        assert path.read_text() == "n,index,numerator,denominator,bn\n3,0.666667,2,3,1.73205\n"

    @pytest.mark.parametrize("argv,want", [
        (["estimate", "--input", "PAIRS"], 2),
        (["theoretical", "--window", "2,1"], 2),
        (["estimate", "--input", "FLAT"], 3),
        (["theoretical", "--window", "0,1000", "--x0", "975", "--rho", "-0.5",
          "--paper-params", "a5", "--via-h"], 3),
    ])
    @pytest.mark.parametrize("existing", [True, False])
    def test_failure_leaves_output_as_it_was(self, capsys, tmp_path, argv, want, existing):
        (tmp_path / "PAIRS").write_text("x,y\n1,2\n3,abc\n")
        (tmp_path / "FLAT").write_text("1,7\n2,7\n3,7\n")
        argv = [str(tmp_path / a) if a in ("PAIRS", "FLAT") else a for a in argv]
        target = tmp_path / "out.csv"
        if existing:
            target.write_bytes(b"kept\r\n")
        code, out, err = run(capsys, *argv, "--output", str(target))
        assert (code, out) == (want, "")
        assert err.startswith("error: ")
        if existing:
            assert target.read_bytes() == b"kept\r\n"
        else:
            assert not target.exists()

    def test_unwritable_output_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "no" / "such" / "x.csv"
        code, out, err = run(capsys, "theoretical", "--window", "0,2", "--output", str(target))
        assert (code, out) == (2, "")
        assert err == f"error: [Errno 2] No such file or directory: {str(target)!r}\n"


class TestSimulate:
    ARGS = (
        "simulate", "--window", "0,2", "--n-grid", "10,40",
        "--reps", "2", "--seed", "7",
    )

    def test_reproducible_byte_for_byte(self, capsys):
        code, first, _ = run(capsys, *self.ARGS)
        assert code == 0
        code, second, _ = run(capsys, *self.ARGS)
        assert first == second

    def test_table_shape(self, capsys):
        _, out, _ = run(capsys, *self.ARGS)
        table = rows(out)
        assert table[0] == ["n", "replication", "seed", "index", "bn", "status"]
        assert len(table) == 5
        assert all(r[5] == "ok" for r in table[1:])

    def test_threads_flag_changes_nothing(self, capsys):
        _, base, _ = run(capsys, *self.ARGS, "--threads", "1")
        _, multi, _ = run(capsys, *self.ARGS, "--threads", "4")
        assert base == multi

    def test_threads_below_one_rejected(self, capsys):
        assert run(capsys, *self.ARGS, "--threads", "0")[0] == 2

    def test_bad_grid(self, capsys):
        # both are rejected while the flags are being assembled, before
        # any computation runs, so they count as usage errors
        assert run(capsys, "simulate", "--window", "0,2", "--n-grid", "10,abc")[0] == 2
        assert run(capsys, "simulate", "--window", "0,2", "--n-grid", "40,10")[0] == 2


class TestNoiseDemo:
    def test_documented_run_concentrates_at_half(self, capsys):
        code, out, _ = run(
            capsys,
            "noise-demo", "--alpha", "1.5", "--window", "0,2",
            "--n", "100000", "--reps", "5", "--seed", "42",
        )
        assert code == 0
        table = rows(out)[1:]
        assert len(table) == 5
        for row in table:
            assert abs(float(row[3]) - 0.5) < 0.02

    def test_same_table_as_simulate_at_one_size(self, capsys):
        _, demo, _ = run(capsys, "noise-demo", "--window", "0,2", "--n", "500",
                         "--reps", "2", "--seed", "3")
        _, sim, _ = run(capsys, "simulate", "--window", "0,2", "--rho", "0",
                        "--n-grid", "500", "--sigma", "0.1", "--reps", "2", "--seed", "3")
        assert demo == sim

    def test_rho_flag_is_ignored(self, capsys):
        base = ("noise-demo", "--window", "0,2", "--n", "500", "--reps", "2", "--seed", "3")
        _, plain, _ = run(capsys, *base)
        _, jumped, _ = run(capsys, *base, "--rho", "0.5")
        assert plain == jumped

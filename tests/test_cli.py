"""Command-line interface: output tables, presets, exit codes."""

import numpy as np
import pytest

from monotone_index import SamplePairs, empirical_index
from monotone_index.cli import main


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

    def test_env_thread_override_validated(self, capsys, monkeypatch):
        monkeypatch.setenv("MONOTONE_INDEX_THREADS", "2")
        assert run(capsys, *self.ARGS)[0] == 0
        monkeypatch.setenv("MONOTONE_INDEX_THREADS", "zero")
        assert run(capsys, *self.ARGS)[0] == 2

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

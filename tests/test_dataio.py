import numpy as np
import pytest

from taperdyn import ConfigError, IngestError, Trajectory
from taperdyn.dataio import (
    fmt,
    ingest_series,
    read_complex_csv,
    read_nino34_csv,
    read_scalar_csv,
    read_trajectory_csv,
    write_complex_matrix_csv,
    write_csv_atomic,
    write_trajectory_csv,
)


class TestFmt:
    def test_roundtrip_is_lossless(self):
        g = np.random.default_rng(0)
        for x in list(g.standard_normal(200)) + [1e-300, 1e300, 0.1, 2.0 / 3.0]:
            assert float(fmt(x)) == x


class TestWriteCsv:
    def test_header_and_precision(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv_atomic(path, "a,b", [(0.1, 1.0 / 3.0)])
        lines = path.read_text().splitlines()
        assert lines[0] == "a,b"
        a, b = lines[1].split(",")
        assert float(a) == 0.1
        assert float(b) == 1.0 / 3.0

    def test_no_tmp_leftovers(self, tmp_path):
        write_csv_atomic(tmp_path / "x.csv", "h", [(1.0,)])
        assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]

    def test_complex_matrix(self, tmp_path):
        path = tmp_path / "k.csv"
        write_complex_matrix_csv(path, np.array([[1 + 2j, 3 - 4j]]))
        lines = path.read_text().splitlines()
        assert lines[0] == "re_0,im_0,re_1,im_1"
        assert [float(v) for v in lines[1].split(",")] == [1.0, 2.0, 3.0, -4.0]


class TestScalarComplex:
    def test_scalar_with_header(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("value\n1.5\n-2.0\n")
        np.testing.assert_array_equal(read_scalar_csv(path), [1.5, -2.0])

    def test_scalar_rejects_nan_with_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("1.0\nnan\n")
        with pytest.raises(IngestError, match=":2"):
            read_scalar_csv(path)

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan"])
    def test_complex_rejects_non_finite_with_line(self, tmp_path, cell):
        path = tmp_path / "c.csv"
        path.write_text(f"re,im\n1.0,2.0\n0.5,{cell}\n")
        with pytest.raises(IngestError, match=f":3: non-finite value '{cell}'"):
            read_complex_csv(path)

    def test_parse_error_line_number(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("1.0\n2.0\npotato\n")
        with pytest.raises(IngestError, match=":3"):
            read_scalar_csv(path)

    def test_complex(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("re,im\n1.0,2.0\n0.5,-0.5\n")
        np.testing.assert_array_equal(read_complex_csv(path),
                                      [1 + 2j, 0.5 - 0.5j])

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError, match="not found"):
            read_scalar_csv(tmp_path / "nope.csv")


class TestNino34:
    def test_well_formed(self, tmp_path):
        path = tmp_path / "n.csv"
        path.write_text("year,month,value\n1999,11,0.5\n1999,12,0.6\n2000,1,0.7\n")
        months, values = read_nino34_csv(path)
        assert months == [(1999, 11), (1999, 12), (2000, 1)]
        np.testing.assert_allclose(values, [0.5, 0.6, 0.7])

    def test_gap_is_named(self, tmp_path):
        path = tmp_path / "n.csv"
        path.write_text("year,month,value\n1999,11,0.5\n2000,1,0.7\n")
        with pytest.raises(IngestError, match="1999-12"):
            read_nino34_csv(path)

    def test_bad_month(self, tmp_path):
        path = tmp_path / "n.csv"
        path.write_text("1999,13,0.5\n")
        with pytest.raises(IngestError, match="13"):
            read_nino34_csv(path)


class TestTrajectoryRoundTrip:
    def test_roundtrip(self, tmp_path):
        g = np.random.default_rng(1)
        traj = Trajectory(g.standard_normal((20, 3)), dt=0.25, seed=42,
                          meta={"system": "demo"})
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, traj)
        back = read_trajectory_csv(path)
        np.testing.assert_array_equal(back.states, traj.states)
        assert back.dt == 0.25
        assert back.seed == 42
        assert back.meta["system"] == "demo"

    def test_inconsistent_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(IngestError, match="column"):
            read_trajectory_csv(path)


class TestHeaderAfterComments:
    """The first data row is the optional header, wherever it sits."""

    @pytest.mark.parametrize("prefix", ["", "# note\n", "\n", "# a\n\n# b\n"])
    def test_complex(self, tmp_path, prefix):
        path = tmp_path / "c.csv"
        path.write_text(prefix + "re,im\n1,0\n0.5,-2\n")
        np.testing.assert_array_equal(read_complex_csv(path), [1.0, 0.5 - 2.0j])

    @pytest.mark.parametrize("prefix", ["", "# note\n", "\n"])
    def test_scalar(self, tmp_path, prefix):
        path = tmp_path / "s.csv"
        path.write_text(prefix + "value\n1.5\n2.5\n")
        np.testing.assert_array_equal(read_scalar_csv(path), [1.5, 2.5])

    def test_nino34(self, tmp_path):
        path = tmp_path / "n.csv"
        path.write_text("# source\n\nyear,month,value\n1999,12,0.5\n2000,1,0.7\n")
        months, values = read_nino34_csv(path)
        assert months == [(1999, 12), (2000, 1)]
        np.testing.assert_array_equal(values, [0.5, 0.7])

    def test_trajectory_header_under_metadata_line(self, tmp_path):
        traj = Trajectory(np.arange(6.0).reshape(3, 2), dt=0.5, seed=3,
                          meta={"system": "demo"})
        path = tmp_path / "t.csv"
        write_trajectory_csv(path, traj)
        lines = path.read_text().splitlines()
        path.write_text("\n".join([lines[0], "p,theta", *lines[1:]]) + "\n")
        back = read_trajectory_csv(path)
        np.testing.assert_array_equal(back.states, traj.states)
        assert (back.dt, back.seed, back.meta["system"]) == (0.5, 3, "demo")

    @pytest.mark.parametrize("reader, text", [
        (read_scalar_csv, "# note\nvalue\n1.0\nvalue\n"),
        (read_complex_csv, "\nre,im\n1,0\nre,im\n"),
        (read_nino34_csv, "\nyear,month,value\n1999,12,0.5\nyear,month,value\n"),
        (read_trajectory_csv, "# dt=1\np,theta\n1,2\np,theta\n"),
    ])
    def test_only_the_first_data_row_may_be_a_header(self, tmp_path, reader, text):
        path = tmp_path / "x.csv"
        path.write_text(text)
        with pytest.raises(IngestError, match=":4:"):
            reader(path)

    @pytest.mark.parametrize("reader", [read_scalar_csv, read_complex_csv,
                                        read_nino34_csv, read_trajectory_csv])
    def test_header_alone_has_no_data_rows(self, tmp_path, reader):
        path = tmp_path / "x.csv"
        path.write_text("# note\nheader,b,c\n")
        with pytest.raises(IngestError, match="no data rows"):
            reader(path)


class TestIngestDispatch:
    def test_unknown_format(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1.0\n")
        with pytest.raises(ConfigError, match="unknown format"):
            ingest_series(path, "yaml")

    def test_dispatch(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1.0\n2.0\n3.0\n")
        np.testing.assert_array_equal(ingest_series(path, "scalar_csv"),
                                      [1.0, 2.0, 3.0])

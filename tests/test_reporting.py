import math

import numpy as np

from s3lab.reporting import _fmt, write_csv


def write_csv_per_cell(path, header, rows):
    """The reference writer: one _fmt call per cell."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row.get(col, "")) for col in header) + "\n")


def test_write_csv_bytes_match_per_cell_formatting(tmp_path):
    header = ["s", "b", "i", "x", "y", "z"]
    floats = [0.1, 1.0, -0.0, 1e-300, 5e-324, 1.7976931348623157e308, math.nan, math.inf,
              -math.inf, 2.0 / 3.0, 123456789.0, -1e22]
    rows = [{"s": "5.1", "b": i % 2 == 0, "i": i - 4, "x": x, "y": 10**30 if i else -(2**70),
             "z": "c"} for i, x in enumerate(floats)]
    rows += [
        # numpy scalars: str(np.float64(1.0)) is "1.0" where _fmt gives "1"
        {"s": "np", "b": np.bool_(True), "i": np.int64(-7), "x": np.float64(1.0),
         "y": np.float64(math.nan), "z": np.float32(0.1)},
        # missing keys write empty cells
        {"s": "gap", "x": 2.5},
        {},
        # the column types change from row to row
        {"s": "swap", "b": 1, "i": True, "x": 3, "y": "7", "z": 0.25},
        {"s": "swap", "b": 0.5, "i": "i", "x": False, "y": 7.0, "z": None},
        {"s": "a,b", "b": False, "i": 0, "x": -0.0, "y": -2, "z": (1, 2)},
    ]
    rows += rows[:3]  # rows of a type tuple already seen
    write_csv(tmp_path / "fast.csv", header, rows)
    write_csv_per_cell(tmp_path / "ref.csv", header, rows)
    fast, ref = (tmp_path / "fast.csv").read_bytes(), (tmp_path / "ref.csv").read_bytes()
    assert fast == ref
    lines = fast.decode().splitlines()
    assert lines[0] == "s,b,i,x,y,z"
    assert lines[len(floats) + 1] == "np,True,-7,1,nan,0.1"
    assert lines[len(floats) + 2] == "gap,,,2.5,,"
    assert lines[len(floats) + 3] == ",,,,,"


def test_write_csv_empty_rows_and_one_column(tmp_path):
    for header, rows in [(["a", "b"], []), (["a"], [{"a": 1.5}, {"a": "x"}, {"a": True}])]:
        write_csv(tmp_path / "fast.csv", header, rows)
        write_csv_per_cell(tmp_path / "ref.csv", header, rows)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

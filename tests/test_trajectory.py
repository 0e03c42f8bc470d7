import csv

import numpy as np
import pytest

from tanglesim.harness import member_columns, write_csv
from tanglesim.trajectory import GridRecorder, make_grid


def test_make_grid_includes_both_endpoints():
    g = make_grid(10.0, 0.5)
    assert g[0] == 0.0
    assert g[-1] == 10.0
    assert len(g) == 21


def test_recorder_stamps_pre_event_state():
    rec = GridRecorder(make_grid(4.0, 1.0), 1)
    # state A until an event at t=2.5, state B afterwards
    rec.advance(2.5, [3.0], [2.0], [1.0], [5])
    frame = rec.finish([7.0], [4.0], [3.0], [9])
    # grid points 0,1,2 saw state A; 3,4 the post-event state
    assert np.array_equal(frame.tips[:, 0], [3, 3, 3, 7, 7])
    assert np.array_equal(frame.created[:, 0], [5, 5, 5, 9, 9])


def test_event_exactly_on_grid_point_lands_in_that_sample():
    rec = GridRecorder(make_grid(2.0, 1.0), 1)
    rec.advance(1.0, [1.0], [1.0], [0.0], [1])
    frame = rec.finish([2.0], [2.0], [0.0], [2])
    # an event at t=1.0 is included in the value reported for t=1.0
    assert frame.tips[1, 0] == 2.0


def test_row_iter_uses_one_based_type_labels(tmp_path):
    # a member's CSV rows: one per grid time and type, labelled 1..d
    rec = GridRecorder(make_grid(1.0, 1.0), 2)
    frame = rec.finish([5.0, 6.0], [3.0, 4.0], [2.0, 2.0], [8, 9])
    path = tmp_path / "m.csv"
    counters = np.stack((frame.tips, frame.free, frame.pending, frame.created))
    write_csv(path, *member_columns(frame.times, counters))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["time", "type", "tips", "free", "pending", "created"]
    assert rows[1][:2] == ["0.0", "1"]
    assert rows[2][:2] == ["0.0", "2"]
    assert rows[2][2:] == ["6.0", "4.0", "2.0", "9.0"]
    assert [r[1] for r in rows[1:]] == ["1", "2", "1", "2"]


def test_grid_must_be_positive():
    with pytest.raises(ValueError):
        make_grid(10.0, 0.0)
    with pytest.raises(ValueError):
        make_grid(-1.0, 0.5)

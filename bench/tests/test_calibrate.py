"""The speed calibration: kernel timings are spaced by the gap and turn into
the factor that scales a run's timings.

Run from the repository root: ``python3 -m pytest bench/tests``.
"""

import pytest

from calibrate import REFERENCE_S, Calibrator, kernel, speed


def test_kernel_does_the_same_work_every_call():
    assert kernel() == kernel()


def test_calibrator_times_the_kernel_only_once_the_gap_has_passed():
    calibrator = Calibrator(gap_s=3600.0)
    calibrator.between()
    assert len(calibrator.times) == 1
    calibrator.between(force=True)
    assert len(calibrator.times) == 2
    assert all(t > 0 for t in calibrator.times)


def test_speed_is_the_reference_over_the_median_kernel_time():
    assert speed([REFERENCE_S / 2, REFERENCE_S / 2, 10.0]) == pytest.approx(2.0)
    assert speed([REFERENCE_S]) == pytest.approx(1.0)

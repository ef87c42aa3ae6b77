"""Input pulse models: support, start behavior, first moment."""

import numpy as np
import pytest

from mbamp.pulse import BoxPulse, PowerStartPulse, SmoothBumpPulse


def test_box_inside_value():
    p = BoxPulse(5.0, 2.0)
    assert p(1.0) == 5.0 + 0j


def test_support_is_exactly_zero_outside():
    pulses = [BoxPulse(5.0, 2.0), PowerStartPulse(1.0, 2.0, 1.0),
              SmoothBumpPulse(1.0, 2.0, 1.0)]
    for p in pulses:
        for t in (-1.0, -1e-12, p.support + 1e-12, 100.0):
            assert p(t) == 0j


def test_vectorized_eval_matches_scalar():
    p = SmoothBumpPulse(2.0, 3.0, 2.0)
    ts = np.array([-0.5, 0.0, 0.3, 1.0, 1.9, 2.0, 2.5])
    vec = p(ts)
    for t, v in zip(ts, vec):
        assert v == p(float(t))


def test_power_start_leading_order():
    p = PowerStartPulse(1.0, 2.0, 1.0)
    for t in (1e-6, 1e-8):
        assert p(t) / t == pytest.approx(1.0, rel=1e-5)


def test_smooth_bump_keeps_power_start():
    # the roll-off factor is 1 + O(t^2) at the origin
    p = SmoothBumpPulse(3.0, 2.5, 2.0)
    for t in (1e-4, 1e-5):
        assert abs(p(t) / (3.0 * t ** 1.5) - 1.0) < 1e-6


def test_smooth_bump_flat_at_far_end():
    p = SmoothBumpPulse(1.0, 2.0, 1.0)
    # value and numerical derivative both vanish hard at T
    assert abs(p(1.0 - 1e-4)) < 1e-8
    d = (p(1.0 - 1e-4) - p(1.0 - 2e-4)) / 1e-4
    assert abs(d) < 1e-3


def test_nontriviality_enforced():
    with pytest.raises(ValueError):
        BoxPulse(0.0, 1.0)
    with pytest.raises(ValueError):
        SmoothBumpPulse(0.0, 2.0, 1.0)


def test_finite_support_enforced():
    with pytest.raises(ValueError):
        BoxPulse(1.0, np.inf)
    with pytest.raises(ValueError):
        PowerStartPulse(1.0, 2.0, -1.0)


def test_start_exponent_exceeds_one():
    with pytest.raises(ValueError):
        PowerStartPulse(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        SmoothBumpPulse(1.0, 0.5, 1.0)


def test_box_start_exponent_is_not_an_init_field():
    assert BoxPulse(5.0, 2.0).start_exponent == 1.0
    with pytest.raises(TypeError):
        BoxPulse(5.0, 2.0, 3.0)


def test_box_jump_list():
    p = BoxPulse(2.0, 1.5)
    assert p.jumps() == ((0.0, 2.0 + 0j), (1.5, -2.0 - 0j))
    assert SmoothBumpPulse(1.0, 2.0, 1.0).jumps() == ()

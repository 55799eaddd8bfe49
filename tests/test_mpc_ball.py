"""Unit tests for the ball-gathering (graph exponentiation) round charge."""

import pytest

from repro.mpc.ball import ball_gather_rounds


class TestRounds:
    def test_small_radii(self):
        assert ball_gather_rounds(0) == 1
        assert ball_gather_rounds(1) == 1
        assert ball_gather_rounds(2) == 2
        assert ball_gather_rounds(4) == 3

    def test_doubling_growth(self):
        # Doubling the radius costs exactly one extra round.
        assert ball_gather_rounds(64) == ball_gather_rounds(32) + 1

    def test_loglog_shape(self):
        # Radius 1024 is only 11 rounds: exponentially cheaper than 1024.
        assert ball_gather_rounds(1024) == 11

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            ball_gather_rounds(-1)

"""Fiber model: attenuation arithmetic and phase preservation."""

import math

import numpy as np
import pytest

from timebin_bb84.channel import ChannelSpec, transmittance
from timebin_bb84.optics import bob_transform, ideal_amz, link_state


def test_zero_length_is_lossless():
    assert transmittance(ChannelSpec(length_km=0.0, fixed_insertion_db=0.0)) == 1.0


def test_fifty_km_at_standard_attenuation():
    assert abs(transmittance(ChannelSpec(length_km=50.0)) - 0.1) < 1e-12


def test_length_plus_insertion():
    spec = ChannelSpec(length_km=100.0, fixed_insertion_db=1.0)
    assert abs(transmittance(spec) - 10 ** (-2.1)) < 1e-12


def test_relative_phase_preserved_through_fiber():
    # the fiber scales amplitudes by sqrt(transmittance): the receiver's
    # distribution is the unpropagated one scaled by the transmittance,
    # cell by cell, so the observed visibility is unchanged
    spec = ChannelSpec(length_km=37.0, fixed_insertion_db=0.4)
    t = transmittance(spec)
    rng = np.random.default_rng(11)
    for _ in range(200):
        amps = rng.normal(size=2) + 1j * rng.normal(size=2)
        amps /= np.linalg.norm(amps)
        state = link_state(*amps)
        before = bob_transform(state, ideal_amz()).p
        after = bob_transform(state.scaled(math.sqrt(t)), ideal_amz()).p
        assert np.max(np.abs(after - t * before)) < 1e-12


@pytest.mark.parametrize(
    "kwargs", [{"length_km": -1}, {"atten_db_per_km": -0.1}, {"fixed_insertion_db": -2}]
)
def test_spec_domain(kwargs):
    with pytest.raises(ValueError):
        ChannelSpec(**kwargs)

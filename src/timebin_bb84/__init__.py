"""Time-bin BB84 key-distribution simulator.

Models a four-state prepare-and-measure link built from unbalanced
interferometers: the transmitter encodes each bit in either the arrival
time of a weak pulse or the relative phase between its two time bins, and
the receiver's interferometer sorts photons into three arrival slots whose
outer two reveal the time basis and whose central one interferes, the exit
port revealing the phase basis.  The measurement basis is therefore chosen
passively by the arrival slot.  On top of the exact optics sit a gated
detector model with dark counts and first-fire registration, the sifting
and error-estimation protocol between the two stations, and an
intercept-resend attacker.
"""

from .channel import ChannelSpec, transmittance
from .config import ConfigError, SessionConfig, parse_config
from .detection import (
    ApdSpec,
    RngHandle,
    SourceSpec,
    any_click_probability,
    click_probability,
    detect_batch,
    expected_event_rates,
    first_fire_table,
)
from .eavesdrop import EveSpec, enumerate_attack_qber
from .optics import (
    AmzSpec,
    Basis,
    CanonicalState,
    CANONICAL_STATES,
    Port,
    Slot,
    SlotPortDistribution,
    TimeBinState,
    alice_device_state,
    apply_coupler,
    bob_transform,
    calibrate_pm,
    canonical_link_state,
    extinction_db_to_visibility,
    ideal_amz,
    link_state,
    slot_port_probabilities,
    vacuum_state,
    variable_coupler,
    visibility_to_extinction_db,
)
from .protocol import (
    ClassifiedEvents,
    InsufficientKeyError,
    ProtocolError,
    PulseTrain,
    SiftedKey,
    run_protocol,
)
from .session import (
    SessionResult,
    SessionSummary,
    profile_rows,
    run_session,
    summarize,
    sweep,
)

__version__ = "0.1.0"

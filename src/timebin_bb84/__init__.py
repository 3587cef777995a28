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

__version__ = "0.1.0"

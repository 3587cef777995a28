"""Pinned random stream: byte-exact CLI outputs for fixed (seed, config).

A refactor of the physics must leave these digests unchanged.  A deliberate
change to the random stream updates a digest here and gives the reason in
CHANGES.md.
"""

import hashlib

import pytest

from timebin_bb84 import cli

# sha256 of summary.csv + alice.key + bob.key, concatenated in that order.
PINNED = [
    (
        "[session]\nn_pulses = 2000000\nseed = 20260101\n",
        "8412495bbfd6255e1e9f83108c5095b338796c5f5b7b27334e9ba1345ac0e27e",
    ),
    (
        "[session]\nn_pulses = 2000000\nseed = 20260102\n"
        "[eve]\nenabled = true\n"
        "[bob_amz]\nphase_jitter_rad = 0.1\n",
        "609550fcddb20e290ddeb56a9f4f32acce0d0b6aabd97d21bedf39ac5e3a7487",
    ),
    (
        "[session]\nn_pulses = 2000000\nseed = 20260103\n"
        "[eve]\nenabled = true\n"
        "[alice_amz]\nphase_jitter_rad = 0.05\n"
        "[eve_amz]\nphase_jitter_rad = 0.2\n"
        "[bob_amz]\nphase_jitter_rad = 0.1\n",
        "c3e20763374882625c1816b509963206242287c15604f7d2db7ee8b81dc0ed64",
    ),
]


@pytest.mark.parametrize("ini, digest", PINNED, ids=["default", "eve_bob_drift", "eve_all_drift"])
def test_run_outputs_match_pinned_digest(tmp_path, capsys, ini, digest):
    path = tmp_path / "session.ini"
    path.write_text(ini)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == cli.EXIT_OK
    capsys.readouterr()
    blob = b"".join((out / name).read_bytes() for name in ("summary.csv", "alice.key", "bob.key"))
    assert hashlib.sha256(blob).hexdigest() == digest

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
        "95ddfa1d828601d4f7b76ccbbe5bdbbe138945116b56225268ed9f0fc9b9448c",
    ),
    (
        "[session]\nn_pulses = 2000000\nseed = 20260102\n"
        "[eve]\nenabled = true\n"
        "[bob_amz]\nphase_jitter_rad = 0.1\n",
        "dd2a5218d3c9ebc5fdc6fe038d5d899301fee164284f9ad97f77b3c2a9f6841c",
    ),
    (
        "[session]\nn_pulses = 2000000\nseed = 20260103\n"
        "[eve]\nenabled = true\n"
        "[alice_amz]\nphase_jitter_rad = 0.05\n"
        "[eve_amz]\nphase_jitter_rad = 0.2\n"
        "[bob_amz]\nphase_jitter_rad = 0.1\n",
        "77887b6421843532f840736c84da1e85ffba686a0ebffabce9bc57dcf16b1ea6",
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

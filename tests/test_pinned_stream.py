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
        "e6e2e0556490b8e8fa5a6f637c82cd7f6e9f592ec146d298f7bbba3f4af98580",
    ),
    (
        "[session]\nn_pulses = 2000000\nseed = 20260102\n"
        "[eve]\nenabled = true\n"
        "[bob_amz]\nphase_jitter_rad = 0.1\n",
        "3f85cabf1afd3774e725826f8507e3c310287821c779def4e311a3da044af17f",
    ),
    (
        "[session]\nn_pulses = 2000000\nseed = 20260103\n"
        "[eve]\nenabled = true\n"
        "[alice_amz]\nphase_jitter_rad = 0.05\n"
        "[eve_amz]\nphase_jitter_rad = 0.2\n"
        "[bob_amz]\nphase_jitter_rad = 0.1\n",
        "8118dc4174951edddb5e9d7783c25c008fa1728109882275b332b953ffad700d",
    ),
    (
        "[session]\nn_pulses = 2000000\nseed = 20260105\nconventional_mode = true\n"
        "[apd_d1]\nefficiency = 0.05\n"
        "[alice_amz]\nphase_offset_rad = 0.3\nphase_jitter_rad = 0.05\n"
        "[bob_amz]\nphase_jitter_rad = 0.1\n",
        "42b65f34107c5ac092fa4c9d0630852179410538aa258efb7a9cf6aed1754562",
    ),
]


@pytest.mark.parametrize("ini, digest", PINNED, ids=["default", "eve_bob_drift", "eve_all_drift", "conventional_drift"])
def test_run_outputs_match_pinned_digest(tmp_path, capsys, ini, digest):
    path = tmp_path / "session.ini"
    path.write_text(ini)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == cli.EXIT_OK
    capsys.readouterr()
    blob = b"".join((out / name).read_bytes() for name in ("summary.csv", "alice.key", "bob.key"))
    assert hashlib.sha256(blob).hexdigest() == digest


# sha256 of profile.csv from ``profile --seed 20260104 --sampled 1000000``
# on the default config: one binomial click count per receiver cell.
PINNED_SAMPLED_PROFILE = "cc523087d9538d3cf112b36bd0c85226fdb89feebd3703b1bd720afa00a0512d"


def test_sampled_profile_matches_pinned_digest(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["profile", "--seed", "20260104", "--sampled", "1000000", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    capsys.readouterr()
    assert hashlib.sha256((out / "profile.csv").read_bytes()).hexdigest() == PINNED_SAMPLED_PROFILE

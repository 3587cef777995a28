"""Pinned random stream: byte-exact CLI outputs for fixed (seed, config).

A refactor of the physics must leave these digests unchanged.  A deliberate
change to the random stream updates a digest here and gives the reason in
CHANGES.md.
"""

import hashlib

import pytest

from timebin_bb84 import cli, session

# A dense link (eta 1, mu 0.5) with the attacker on, over two full batches
# and 5 pulses: about 40% of pulses are candidates, so each batch spans
# several 2^16-candidate slices.
_DENSE = (
    f"[session]\nn_pulses = {2 * session.BATCH_SIZE + 5}\nseed = SEED\n"
    "[source]\nmu = 0.5\n"
    "[apd_d0]\nefficiency = 1.0\n[apd_d1]\nefficiency = 1.0\n"
    "[eve]\nenabled = true\n"
)

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
        "[session]\nn_pulses = 2000000\nseed = 20260105\ngates_per_pulse = 2\n"
        "[apd_d1]\nefficiency = 0.05\n"
        "[alice_amz]\nphase_offset_rad = 0.3\nphase_jitter_rad = 0.05\n"
        "[bob_amz]\nphase_jitter_rad = 0.1\n",
        "358db8d6dbd5a1c9fb23e7c694df9f87e1ceb409bb237e46e2bfefaf24dc4f6e",
    ),
    (
        _DENSE.replace("SEED", "20260106")
        + "[eve_amz]\nphase_jitter_rad = 0.2\n"
        "[bob_amz]\nexcess_loss_db = 0.0\nphase_jitter_rad = 0.1\n",
        "16ef2337a4fcff36b2e2844b11b9dbde8d7979c2b4b3173b5a86dfc255293ba5",
    ),
    (
        _DENSE.replace("SEED", "20260107") + "[bob_amz]\nexcess_loss_db = 0.0\n",
        "0ecf04d285d77d5a26822135c2710a557feb074deec3e256368748731f786f63",
    ),
    (
        "[session]\nn_pulses = 2000000\nseed = 20260111\ngates_per_pulse = 1\n"
        "[apd_d0]\ndark_per_gate = 1e-4\n"
        "[bob_amz]\nphase_jitter_rad = 0.1\n",
        "29fdaee692e4e0160569dfc1239ed078756aa0dc758e4b32f971a6ea4c190ae8",
    ),
    # The attacker's leg drifts in front of a steady receiver, on the dense
    # link with two gates and offsets on the transmitter and the attacker.
    (
        f"[session]\nn_pulses = {2 * session.BATCH_SIZE + 5}\nseed = 20260112\ngates_per_pulse = 2\n"
        "[source]\nmu = 0.5\n"
        "[apd_d0]\nefficiency = 1.0\n[apd_d1]\nefficiency = 1.0\n"
        "[eve]\nenabled = true\n"
        "[eve_amz]\nphase_offset_rad = 0.2\nphase_jitter_rad = 0.3\n"
        "[alice_amz]\nphase_offset_rad = -0.4\n",
        "7a2619c47339475cd93e53cad9c44f5fd543efb31736740bdc6f28d70a852a38",
    ),
]
PINNED_IDS = [
    "default", "eve_bob_drift", "eve_all_drift", "conventional_drift", "dense_drift", "dense_steady",
    "one_gate_drift", "eve_drift_steady_bob",
]


@pytest.mark.parametrize("ini, digest", PINNED, ids=PINNED_IDS)
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


# sha256 of sweep.csv from ``sweep --seed S --pulses 200000 --axis A
# --values V`` on the default config, one per axis: each point sets the
# axis's keys and its sub-seed.
PINNED_SWEEPS = [
    ("length_km", "20260108", "0,25,50",
     "7948fd6185c2e2d2160235cc1c0f6c4ba1b4f04984ce45240f5f8a91e9f42654"),
    ("mu", "20260109", "0.05,0.1,0.2",
     "010e34570e8c74314cd57a58e2f89c7723ee25d0d31a95b7bdec8bce9b433359"),
    ("dark", "20260110", "1e-05,0.0003,0.003",
     "ae81171b2c5d1936b8cc0664c5eeeafe40e69d7aa722775326c163d0347ab4fc"),
]


@pytest.mark.parametrize(
    "axis, seed, values, digest", PINNED_SWEEPS, ids=[p[0] for p in PINNED_SWEEPS]
)
def test_sweep_outputs_match_pinned_digest(tmp_path, capsys, axis, seed, values, digest):
    out = tmp_path / "out"
    argv = ["sweep", "--seed", seed, "--pulses", "200000", "--axis", axis, "--values", values,
            "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    capsys.readouterr()
    assert hashlib.sha256((out / "sweep.csv").read_bytes()).hexdigest() == digest

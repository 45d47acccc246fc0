"""Golden outputs: fixed-seed runs whose files must stay byte-identical.

The digests were taken before the ZNE, observables, seed and Pauli code was
folded into one implementation each; a refactor that changes any byte of
these files changes behaviour.  `dump-circuit` has its own golden test in
test_cli.py.
"""

import hashlib

import pytest

from cosmopair.cli import main

GOLDEN = {
    "sweep": (
        ["sweep", "--x", "1.3,2.3",
         "--methods", "analytic,matrix,statevector,shots,noisy,mitigated,zne",
         "--n-steps", "2", "--shots", "300", "--seed", "7"],
        {
            "sweep.csv": "0a62d291f78b0c2c0bf0c834112d43846a8724e64470956b2cdadc5abefa7c58",
            "sweep.json": "2bf031d9cbf0071283a2b856a6614b323b5319949c2764017b4cac3500258ec5",
        },
    ),
    "noise-study": (
        ["noise-study", "--x", "1.3,2.2", "--shots", "300", "--seed", "5"],
        {
            "counts_x1.3.csv": "ff7f7a0e6a77c7dfed717908fc79c75dc37a0a679dba72cd893e9b761f3ccacf",
            "counts_x2.2.csv": "8468e3ea7bd65998a190c92b3e54cd31365dbf93e03cb22a6f4a2263da401fe4",
            "noise_study.json": "e91fa5874bdd4d25006f480bfad1b6e79315b50af6c842fa1f5f679ec0c0d95b",
        },
    ),
    "trajectory": (
        ["trajectory", "--x", "2.0", "--n-steps", "300"],
        {
            "trajectory_x2.csv": "16de619be77bd08f412b356cc57e6f739c6c8bceb891e17e29958b3b2ea2dd9a",
        },
    ),
    "dump-schedule": (
        ["dump-schedule", "--x", "1.3,2.0", "--n-steps", "4"],
        {
            "schedule_x1.3_n4.json": "0e2c1dc955944baf2eddc8d494578c123fb6c1780876efbbbb4c96a109bdbe35",
            "schedule_x2_n4.json": "896e4bf3e2743e37c4b00f138ba895f4668b41201e72e384d9bcb86df2748135",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_bytes(tmp_path, capsys, name):
    argv, expected = GOLDEN[name]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()
    }
    assert digests == expected

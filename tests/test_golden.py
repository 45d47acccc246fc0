"""Golden outputs: fixed-seed runs whose files must stay byte-identical.

The digests were taken before the ZNE, observables, seed and Pauli code was
folded into one implementation each; a refactor that changes any byte of
these files changes behaviour.  The `sweep` and `noise-study` digests were
re-taken when noisy counts became one multinomial draw over the exact
channel: the same law of the counts, different random draws.
`sweep-noiseless` pins every noiseless row of the same sweep, which that
change left byte-identical.  `dump-circuit` has its own golden test in
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
            "sweep.csv": "e1344d95e34d89849567e5350a605724eebe4125a10cba38b128c25e46e0ee3a",
            "sweep.json": "a3160e7a4e36fd68e6a80da6c5f80e5327fcd3ab93fe54fa2a21de2cd18d8ad9",
        },
    ),
    "sweep-noiseless": (
        ["sweep", "--x", "1.3,2.3", "--methods", "analytic,matrix,statevector,shots",
         "--n-steps", "2", "--shots", "300", "--seed", "7"],
        {
            "sweep.csv": "1edd6bd82e62d776c03924fd76dc08d1291f9916847a6f59ebead7568d821c89",
            "sweep.json": "d305ead51363f1781fbb81087b36a477ea9f335d8349ffc4579e09f410161aab",
        },
    ),
    "noise-study": (
        ["noise-study", "--x", "1.3,2.2", "--shots", "300", "--seed", "5"],
        {
            "counts_x1.3.csv": "bb0250f6d425649683496de05fcc3647eb32962354975f93b18f687d20a5f9a0",
            "counts_x2.2.csv": "87986ee80e22b272a112416b099353a4719b7d9d98b63284e512b104a9bb0626",
            "noise_study.json": "bbb2c063823a1d6b87235a0be33b52a9eda363ef015759cb2ae72b3b49f908bf",
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

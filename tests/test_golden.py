"""Golden outputs: fixed-seed runs whose files must stay byte-identical.

The digests were taken before the ZNE, observables, seed and Pauli code was
folded into one implementation each; a refactor that changes any byte of
these files changes behaviour.  The `sweep` and `noise-study` digests were
re-taken when noisy counts became one multinomial draw over the exact
channel: the same law of the counts, different random draws.
`sweep-noiseless` pins every noiseless row of the same sweep, which that
change left byte-identical.  Both sweep digests were re-taken again when
`run_schedule` began building slice unitaries from the templates' fixed
gate runs: the `statevector` rows sum in a new order, so their `n_k` moved
in the 14th significant digit and their ~2e-14 `leakage` with it; every
`shots` row and every other file stayed byte-identical.  The
`noise_study.json` digest was re-taken when its ideal row came from
`run_schedule` instead of a gate-by-gate replay of the circuit: `ideal.p_pair`
moved by about 1e-17 and `ideal.leakage` by about 4e-16, the rounding of a
different product order; the counts files, and every other digest across
the change of the noisy channel to Pauli-transfer coefficients and then to
cached Clifford folds (distributions moved by about 3e-14, no draw
flipped), stayed byte-identical.  `dump-circuit` has its own golden test in test_cli.py.

The windows above hold de Sitter slices only.  The `radiation-*` entries
start the grid at y_i = -10 with 10 slices, so at x = 2.0 (and at x = 1.3)
the last two slices are radiation slices: they pin the radiation branch of
the schedule dump, of circuit synthesis and of every sweep method.
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
            "sweep.csv": "48915a5687504b5f6ec9669ed8028051849ed4f09b5c34457cb4d282ba603b90",
            "sweep.json": "7a8bb7d7fb18433e7f92b0b5368b82bd8764bd4ee13d9d9d485815c0c1e810fa",
        },
    ),
    "sweep-noiseless": (
        ["sweep", "--x", "1.3,2.3", "--methods", "analytic,matrix,statevector,shots",
         "--n-steps", "2", "--shots", "300", "--seed", "7"],
        {
            "sweep.csv": "27a0688bdca6afc333af1aee9042605cb5194e55a2e8c0011334a842f27d7428",
            "sweep.json": "5fce8fd9b612c195899bb12d762e472366cab8e11ce824489085a1eff3872bef",
        },
    ),
    "noise-study": (
        ["noise-study", "--x", "1.3,2.2", "--shots", "300", "--seed", "5"],
        {
            "counts_x1.3.csv": "bb0250f6d425649683496de05fcc3647eb32962354975f93b18f687d20a5f9a0",
            "counts_x2.2.csv": "87986ee80e22b272a112416b099353a4719b7d9d98b63284e512b104a9bb0626",
            "noise_study.json": "fde82eb65a5ed7cdc9d1c4a103914d1e4ca35b259f7167f3985df870c81a01c2",
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
    "radiation-dump-schedule": (
        ["dump-schedule", "--x", "1.3,2.0", "--y-i=-10", "--n-steps", "10"],
        {
            "schedule_x1.3_n10.json": "5a12d38a11cbb1f581d5e1165c6aeaf4d48e1104d71b02a876d752386a551bc1",
            "schedule_x2_n10.json": "5f4d2b2572d7837e635edb809401b4c2c7985d1ca08e6d9fb662e6221470e22a",
        },
    ),
    "radiation-dump-circuit": (
        ["dump-circuit", "--x", "1.3,2.0", "--y-i=-10", "--n-steps", "10"],
        {
            "circuit_x1.3_n10.txt": "7582cc2464a45da4abac571fc598c631d05ecfb70c3ea7c22d4441539d104f1c",
            "circuit_x2_n10.txt": "bcd1501f901a63c2f57bd9690276954fe79886ff1cd7366e8fce5c91be409540",
        },
    ),
    "radiation-sweep": (
        ["sweep", "--x", "1.3,2.0", "--y-i=-10",
         "--methods", "analytic,matrix,statevector,shots,noisy,mitigated,zne",
         "--n-steps", "10", "--shots", "300", "--seed", "7"],
        {
            "sweep.csv": "7caef705571ff4b7822850ae1d0109ca45634cb1dfa8f731dad6eebd59a6a11f",
            "sweep.json": "d7063aa553627157c3ae3d54f108562f89845f4937ef212eb7890be0372e3b94",
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

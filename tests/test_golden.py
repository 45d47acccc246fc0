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

The `chunk-*` entries pin where the fast engines cut a schedule into
batches.  Over y_i = -2.5 with 257 slices the first radiation slice is 96
(x = 1.3) and 51 (x = 2.0), so the radiation runs cross the batch bounds at
128 and 256 and end in a one-slice batch.  `run_schedule`'s bytes depend on
the size of each stack of slice unitaries, so a batch cut anywhere else
moves the last digits of the `statevector` rows; the
de-Sitter-only and ten-slice windows above cannot see that.
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
    "chunk-sweep": (
        ["sweep", "--x", "1.3,2.0", "--y-i=-2.5",
         "--methods", "analytic,matrix,statevector,shots,noisy,mitigated,zne",
         "--n-steps", "257", "--shots", "300", "--seed", "7"],
        {
            "sweep.csv": "e464b46a59aa9c81f0aa8005097adb0a9ca5a1f6dad344e882c2df74d8686f82",
            "sweep.json": "3a99ffa7a53f7c08aebe845748baca69cf91d4ca2955b0ada4752d1ec7ebddc5",
        },
    ),
    "chunk-dump-circuit": (
        ["dump-circuit", "--x", "1.3,2.0", "--y-i=-2.5", "--n-steps", "257"],
        {
            "circuit_x1.3_n257.txt": "ae974bab2efd0d48c53959c8ea5b560ea3192b4a74e7a3e01f0ec42c76dba2c5",
            "circuit_x2_n257.txt": "8184f9ce98303ad00333fbafd8809b8e41b14286bc8c9cc68ef0356017e9bd47",
        },
    ),
    "chunk-noise-study": (
        ["noise-study", "--x", "1.3,2.0", "--y-i=-2.5", "--n-steps", "257",
         "--shots", "300", "--seed", "5"],
        {
            "counts_x1.3.csv": "53746989ac52eb5e099a75967929d2a94d2e30d353cd7d9a8ab2333c87c6d613",
            "counts_x2.csv": "d93de849e91b7cb75f2394deb639295c9180688e41306b2bbae80dd62d9969b6",
            "noise_study.json": "70d8aaa54bf49091809e3c4ab9100112da57e619246172ce5326a42b623ab3c8",
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

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
flipped), stayed byte-identical.  The six digests that hold `statevector`
rows (`sweep`, `sweep-noiseless`, `radiation-sweep`, `chunk-sweep`,
`noise-study`, `chunk-noise-study`) were re-taken when `run_schedule` began
evaluating each template as a compiled polynomial in its RZ phases instead
of multiplying out its runs slice by slice: the `statevector` `n_k` and
the ideal `p_pair` moved by at most 1.8e-15, their `leakage` by at most
2.2e-14; every counts file, every other row and every other digest stayed
byte-identical.  The three digests that hold `mitigated` rows (`sweep`,
`radiation-sweep`, `chunk-sweep`) were re-taken when those rows began
reporting the delta-method stderr of the readout-inverted p_pair instead
of the raw counts' binomial stderr: only the `stderr` field of the
`mitigated` rows moved.  `dump-circuit` has its own golden test in
test_cli.py.

The windows above hold de Sitter slices only.  The `radiation-*` entries
start the grid at y_i = -10 with 10 slices, so at x = 2.0 (and at x = 1.3)
the last two slices are radiation slices: they pin the radiation branch of
the schedule dump, of circuit synthesis and of every sweep method.

The `chunk-*` entries pin where the fast engines cut a schedule into
batches.  Over y_i = -2.5 with 257 slices the first radiation slice is 96
(x = 1.3) and 51 (x = 2.0), so the radiation runs cross the batch bounds at
128 and 256 and end in a one-slice batch.  `run_schedule`'s bytes depend on
how its slices are batched, so a batch cut anywhere else may move the last
digits of the `statevector` rows; the
de-Sitter-only and ten-slice windows above cannot see that.

The `zero-steps-*` entries pin `--n-steps 0`, the vacuum preparation
alone, of the three commands that accept it: a one-row trajectory, an
empty `steps` list and the two X gates of the preparation.

The `stream-*` entries pin files long enough to be written in several
chunks of 4096 slices; each ends in a short chunk.  Over y_i = -10 the
first radiation slice of the 10000-slice trajectories lies in their
second chunk (8095 at x = 1.5, 8000 at x = 2.0), and that of the
5000-slice schedule at x = 1.3 just below the first bound (4065).
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
            "sweep.csv": "b8f5b6303c451c350e9b6e227316800b7cc4b279ff5e76864d32bd45f8e7f5b6",
            "sweep.json": "445850c74f8d02ca4c664b9ba41a6b9f00deff400bccdc633257293720d227d4",
        },
    ),
    "sweep-noiseless": (
        ["sweep", "--x", "1.3,2.3", "--methods", "analytic,matrix,statevector,shots",
         "--n-steps", "2", "--shots", "300", "--seed", "7"],
        {
            "sweep.csv": "2cbb3102fd4990a986354d5f1b8118bc5af7315c717d0567bee9f48e747d325c",
            "sweep.json": "8b356a27807da9c8893ecedd191f5297b6ca93709983377825e922cdf908ab16",
        },
    ),
    "noise-study": (
        ["noise-study", "--x", "1.3,2.2", "--shots", "300", "--seed", "5"],
        {
            "counts_x1.3.csv": "bb0250f6d425649683496de05fcc3647eb32962354975f93b18f687d20a5f9a0",
            "counts_x2.2.csv": "87986ee80e22b272a112416b099353a4719b7d9d98b63284e512b104a9bb0626",
            "noise_study.json": "47b0af10f93a8bb09e620947ef2630ad812240c11cd6ddd04f8ce563343080a0",
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
            "sweep.csv": "61c3ddadf2a6f5d83a94d71286f2304637eed5eb69cc436a15fcbeacd0823ab4",
            "sweep.json": "4deab950990fc9eff0bcb80ba42bf4b6b0320689e5a4ac21724be215454b5787",
        },
    ),
    "chunk-sweep": (
        ["sweep", "--x", "1.3,2.0", "--y-i=-2.5",
         "--methods", "analytic,matrix,statevector,shots,noisy,mitigated,zne",
         "--n-steps", "257", "--shots", "300", "--seed", "7"],
        {
            "sweep.csv": "2b7447c8b9a30c2e76399db379ce5c8bf956892ac51d7f0be46f522d67c6b851",
            "sweep.json": "2a3a2ddaf17d91711f0c21ae37edb54306a72ad764dd8c6b61709d8b7f1943e3",
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
            "noise_study.json": "a56303f006853b6a680fc9d575655571963d114e7c084fc0ccd8aa8b5c8479f9",
        },
    ),
    "zero-steps-trajectory": (
        ["trajectory", "--x", "2.0,3.3", "--n-steps", "0"],
        {
            "trajectory_x2.csv": "1dfefa0fd6d1ae7149069760e7afe02f03367af820d57a2805ae9e06c603eb9e",
            "trajectory_x3.3.csv": "c2f3b67af3ce8e4dac1de16b7b176e298f4837d028f8759275e550a0494eba51",
        },
    ),
    "zero-steps-dump-schedule": (
        ["dump-schedule", "--x", "2.0,3.3", "--n-steps", "0"],
        {
            "schedule_x2_n0.json": "84bb3792b16ed14cc42ab1d9c68ca899a96f9f84e4876a138b2280c8d61463cd",
            "schedule_x3.3_n0.json": "000a7800af3eb04bc6d66be9cefc601f5826a5297a89652debcb99cb228dd57c",
        },
    ),
    "zero-steps-dump-circuit": (
        ["dump-circuit", "--x", "2.0,3.3", "--n-steps", "0"],
        {
            "circuit_x2_n0.txt": "d0c5287f8f99e2edec464c34ef71649b2796b834914283812615230665569003",
            "circuit_x3.3_n0.txt": "ad4adea4f8c7eb067e8d92469d87e239a61180dd9f8e5c62a99e74d68dacff9a",
        },
    ),
    "stream-trajectory": (
        ["trajectory", "--x", "1.5,2.0", "--y-i=-10", "--n-steps", "10000"],
        {
            "trajectory_x1.5.csv": "a1eed5f6412439aa321017a24c03643030f7459dc45baafff7aa4fdb3ffbf398",
            "trajectory_x2.csv": "e4fd6f339e115dc8bb1b461e15bd34942d4fdf64f93ac1a8b02bbd74a321c8d4",
        },
    ),
    "stream-dump-schedule": (
        ["dump-schedule", "--x", "1.3,2.0", "--y-i=-10", "--n-steps", "5000"],
        {
            "schedule_x1.3_n5000.json": "95cd2f55b709e2bf7d61443f7316d28b04dd89e06b39b878b2e508977708be00",
            "schedule_x2_n5000.json": "af496a2c1f2eb5dcab3302dd143f6dc02ae0408db9e752cc5e813a9a2e0b7c39",
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

"""CLI output is byte-identical to recorded digests.

``solve``, ``strategy --x0 0.2`` and ``simulate --x0 0.2`` run in process on
every shipped config, and so do the ``--eps`` tail paths ``strategy --x0
0.2 --eps 0.05`` and ``simulate --x0 0.1 --eps 0.05``, and ``solve`` and
``simulate --x0 0.37`` at ``--set problem.beta=1.3``.  The sha256 of each
file they write is compared with a digest recorded from a known-good
build.  A refactor must leave
these bytes alone.  An intended change of output must update the digests
here and list the change in CHANGES.md.
"""

import hashlib

import pytest

from monopoly_control.cli import main

GOLDEN = {
    "arvan_moses_high": {
        "summary.txt": "8b052d73aaa6bd4eb632d61990fcec0a9f573865d8662166d915f055c6326624",
        "value.csv": "2d091f0521f609674387d389ca43caa388685fbb64d39d1e534fa0f8e84d8969",
        "simulate_summary.txt": "1aa5dec592e7bcb67e12d1dd4e2e5e14d47e76f5b58a8fc1c061107d83d03a41",
        "trajectory.csv": "1665bc64103724dd9b5235634f81d370d82e3345d8e22d163a8ed96956e159e8",
        "strategy.txt": "1cdaa1ed652c134b868a5b65a7a7358b48914631d9eed3f302db52c0e5c92d9c",
        "drawdown.csv": "11c9c09766726c8bab79cb5ac37733d925d207fc629a3b497c63b504f19ff577",
    },
    "arvan_moses_low": {
        "summary.txt": "92b58357bbd2cfa4c4981eea3e6f81128caf1eba5eca6747b1764f2dcd02f007",
        "value.csv": "c7513c593d27ebd809b49103ae263f235143a92266392555b12eb16d8e437b5f",
        "simulate_summary.txt": "160aaee903c73cc700669020e8e23fc229bf3507a12187d4d7894676be7943dc",
        "trajectory.csv": "143c5ff5f045b06ba563b939a766321852c2b56925345d14da48a89aceda09bc",
        "strategy.txt": "f152811e62aaedf0e34ad745627a65c71c8e70583589c49318ec033d44f0df47",
        "drawdown.csv": "aed941e1a51f21af290254f16aff91f35385803794ba605975d5d32d05093296",
    },
    "arvan_moses_mid": {
        "summary.txt": "f1f5ffbd55df783a96b1c602ad28b560890c4f4a3d508a5f6653cb113b869275",
        "value.csv": "4f4308a301d849d39f311e7b3b275c614582f0399d75fdea91a61b6557089b92",
        "simulate_summary.txt": "278a7d16e3debaaaa0d493db14efd4abddbf6caf846d2c3be41e14a224d6ddb7",
        "trajectory.csv": "e7becff3499c707d6787f40a54d35053de713acfd4b8abe612c8cffe170a90da",
        "strategy.txt": "149d6d7f23a9b0cd80e3cb3797c3c984b50f481ff169b110eeb4dff3df327e61",
        "drawdown.csv": "60c82b09a32c1458a790d9608cd5efa429eee313f32864b7d65134ee72d243df",
    },
    "linear_cost": {
        "summary.txt": "5ba8808306efca053327f78fa837092b15161924a3e2879b3991a79e267f80e2",
        "value.csv": "bb633e8368cef278519712b9743e3c576e24aa18ae75852f5ed18eab51f25baa",
        "simulate_summary.txt": "f4f2cda8eb6bb028c4a37ccf512d8b137bc99c82932f0f7c2b1d5805c990652b",
        "trajectory.csv": "a05c0446d48f0ce8c9563f09872d96a851f31057a8ce1b4e4a7308ed2562f13e",
        "strategy.txt": "d96eb1314cc2f025ab0696c5aad9febe422eb7a498279be18edf49f444417850",
        "drawdown.csv": "67610907048f65ae7b456dcdaf219b59ad8d6f9cf1bc8d9a97391c4af0a5b075",
    },
    "table_curves": {
        "summary.txt": "1dc3e9e28133d949a5598b3b0c910bf51e6f46651d0939bacd803396498b1481",
        "value.csv": "bfbca5524526931ee5a77427a403d7ce6ba4cc3f2e0ddbd23c751bf2c0b9ff45",
        "simulate_summary.txt": "42f5a845f8cab209d5bad30e306736a71e65613515e8a0e6e47f274aa8b1455c",
        "trajectory.csv": "28f27214568a090af77c3dc1878c0ddd5813af83a469099ebe853f18c319bfb3",
        "strategy.txt": "a7c9a909f3b35230dd9df5debbe2c47237060b95c15d0e477b86f934f36c9009",
        "drawdown.csv": "98f960fba18b77695623a695d104a50b63cba5101147660d97001d888d8511fe",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_output_matches_digests(name, configs_dir, tmp_path):
    cfg = str(configs_dir / f"{name}.cfg")
    assert main(["solve", cfg, "--out", str(tmp_path)]) == 0
    assert main(["strategy", cfg, "--x0", "0.2", "--out", str(tmp_path)]) == 0
    assert main(["simulate", cfg, "--x0", "0.2", "--out", str(tmp_path)]) == 0
    got = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
           for f in GOLDEN[name]}
    assert got == GOLDEN[name]


# strategy --x0 0.2 --eps 0.05 and simulate --x0 0.1 --eps 0.05
GOLDEN_EPS = {
    "arvan_moses_high": {
        "strategy.txt": "1cdaa1ed652c134b868a5b65a7a7358b48914631d9eed3f302db52c0e5c92d9c",
        "drawdown.csv": "11c9c09766726c8bab79cb5ac37733d925d207fc629a3b497c63b504f19ff577",
        "trajectory.csv": "6a1289325389258115853aee8431b3ca133447a400c468b31fd084ae41cb7bcb",
        "simulate_summary.txt": "3b7b795e11d5609f4e1082874385d857392b78473c4ded048c9fb6aa291ee984",
    },
    "arvan_moses_low": {
        "strategy.txt": "f152811e62aaedf0e34ad745627a65c71c8e70583589c49318ec033d44f0df47",
        "drawdown.csv": "aed941e1a51f21af290254f16aff91f35385803794ba605975d5d32d05093296",
        "trajectory.csv": "9ebe03feda0328f65b316c73e3c9809c883374c7e52b330fd746b537bcb8f24f",
        "simulate_summary.txt": "2fd0b8424d32e553293eeae9e9a8cb66d3a964d0de78766a0d9dd6fcb8dfa1f2",
    },
    "arvan_moses_mid": {
        "strategy.txt": "a633e5d2cd91b105d067f3a8d3aeaafaca9b7044258a03792aa2fd14337a5b27",
        "drawdown.csv": "60c82b09a32c1458a790d9608cd5efa429eee313f32864b7d65134ee72d243df",
        "trajectory.csv": "0da6e22d4d789532faf77ab228217d23eab7327b04dd26a99f485c85c1e5dca5",
        "simulate_summary.txt": "77e47adcad390dd1d70a8cef7d8828d3c6db20d8903c760ea064cc70a06fd7d1",
    },
    "linear_cost": {
        "strategy.txt": "d96eb1314cc2f025ab0696c5aad9febe422eb7a498279be18edf49f444417850",
        "drawdown.csv": "67610907048f65ae7b456dcdaf219b59ad8d6f9cf1bc8d9a97391c4af0a5b075",
        "trajectory.csv": "bd6fd7f2da3ae96a89af96dac1d39baa31cc0eadc02d4d351ce929e098e4706b",
        "simulate_summary.txt": "985e2b28a44b38ebd29bf9f4ad63d478431a499ea5a21c567ccf6e76696cab60",
    },
    "table_curves": {
        "strategy.txt": "6bebc9972bde6e9aff2985a25e5cc66c404320e4c41786333ef0c5d9e2509ddc",
        "drawdown.csv": "98f960fba18b77695623a695d104a50b63cba5101147660d97001d888d8511fe",
        "trajectory.csv": "fa4d1ae53146adbfa4a6fd28cc9f4c1e83bdffc6f7812df1cb2f29fa315bbfc0",
        "simulate_summary.txt": "98b3744a0b249a463fb6e608871a336d2cbd0dcd3c34fbd46e1d7f31f9db778c",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN_EPS))
def test_cli_eps_tail_outputs_match_digests(name, configs_dir, tmp_path):
    cfg = str(configs_dir / f"{name}.cfg")
    out = ["--eps", "0.05", "--out", str(tmp_path)]
    assert main(["strategy", cfg, "--x0", "0.2", *out]) == 0
    assert main(["simulate", cfg, "--x0", "0.1", *out]) == 0
    got = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
           for f in GOLDEN_EPS[name]}
    assert got == GOLDEN_EPS[name]


# solve and simulate --x0 0.37 at --set problem.beta=1.3, a discount rate
# and a stock other than each config's own
GOLDEN_BETA = {
    "arvan_moses_high": {
        "summary.txt": "dca88ab3bedb751f62aa8356bc93bdc8fe1e5d33daf4cced5979c1cb8e7591fa",
        "value.csv": "2ab0f9a1109ab4c040dab33cf41ef1921cf949e81d97a1985d665d0b7812cc1f",
        "trajectory.csv": "01d5f677bb32a528cd4fb7e3f36db118cfd8d20c8b2933b34d0007a1858c8789",
        "simulate_summary.txt": "ab0456daa4d4280cf289eaf62b8252ce2512f0a5c3a36b8d83fa526b9f0ef75e",
    },
    "arvan_moses_low": {
        "summary.txt": "fd9e0581438ad4ed3d2b4123c1e10bf37069be40f9909de4896b8c1e6579ddea",
        "value.csv": "1e15c1046a577a5f237022554b729aefbc1164642e4af6ea0dce43b61aa16fb9",
        "trajectory.csv": "d233eb46a56660767d8cacf99b42d18dd51f6a6659607f5a6078679bf875a0f6",
        "simulate_summary.txt": "47ce9680c2290f22e3c294dff8331da484c78f0e5a7ada2a1352c9647df83e0d",
    },
    "arvan_moses_mid": {
        "summary.txt": "63c030f9e3cc5cb5ef900de864c16883b4d9b11cd845d5ea4fd422076901a32f",
        "value.csv": "9db1c281e486df525c7d992f11fc2a0e4f62df34017a7ac6485a37a00249ef92",
        "trajectory.csv": "3d07a686d00b2f84ae8d12d2fa0e9a3de28c1af817bbf0dec4273688b83feb88",
        "simulate_summary.txt": "45b8f866e106f2a493924b25098eeb1f8c40797970e29db567b98ee054734743",
    },
    "linear_cost": {
        "summary.txt": "5e503df8db5c419c168a3d2cc82dda1642114f721a725e62f8ce91461abe66ba",
        "value.csv": "c1b173c83255924c13c4a294da9df970a3db8a40ad38063da3cf040862d5638c",
        "trajectory.csv": "dc5fdc0114581a8e2bb9e8ad36cb884e3783d04e5f11ea0031303837b05e2327",
        "simulate_summary.txt": "cc3915e0b6bc55a38f9f039d4d72065d2d165510e07b75ed523669345835b215",
    },
    "table_curves": {
        "summary.txt": "89a69527ebe6d6613baa0fa267f19dcb75222841c7b5b5eaa79c305d7010c834",
        "value.csv": "2a7a6c9b72d89ebab454799785201efd6d69ecc41a29e6b32ac9dd4d90f78c84",
        "trajectory.csv": "f571099f29fe647cf78fa8ddd72099ea2f9f49941fc5f425ec8d9f168dfee5ca",
        "simulate_summary.txt": "6c67b82dbdaaa154e6ccb67e14771a520cdb98ab3178377eb1e55c08bcadb7d1",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN_BETA))
def test_cli_second_beta_outputs_match_digests(name, configs_dir, tmp_path):
    cfg = str(configs_dir / f"{name}.cfg")
    out = ["--set", "problem.beta=1.3", "--out", str(tmp_path)]
    assert main(["solve", cfg, *out]) == 0
    assert main(["simulate", cfg, "--x0", "0.37", *out]) == 0
    got = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
           for f in GOLDEN_BETA[name]}
    assert got == GOLDEN_BETA[name]

"""CLI output is byte-identical to recorded digests.

``solve``, ``strategy --x0 0.2`` and ``simulate --x0 0.2`` run in process on
every shipped config, and the sha256 of each file they write is compared
with a digest recorded from a known-good build.  A refactor must leave
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
        "value.csv": "8a727b0f35d8b656a0e2c7fedb3a0cc1d7eeb159d1b852b97d8174879eedcd5a",
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

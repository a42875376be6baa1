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
        "summary.txt": "dc3cb58fd56cc4e0049abdb020cc9eac9d62db60f545c5a59fb057271ee8e6b5",
        "value.csv": "682e2308c3365f01c5b038f7bb079d4fb862e390ac411bbbce0abbb2fc9c9cb5",
        "simulate_summary.txt": "0ab67419d85edf5e717761174718ae15cc4a1c36fd247e23da32475f580380b1",
        "trajectory.csv": "b55f8befbf19475f47e9c7ea1414da310ebc0a7f24ec9bef53ea395c6985bb0c",
        "strategy.txt": "494ca87902b1c19f3f76a6fbcc0cec3d14704bc9927095c3a3d973586aa5ed3d",
        "drawdown.csv": "4cad8a7ef04e933aa08741d6c6cce9284b2fbf0d813ea0cea710341c8c629bb2",
    },
    "arvan_moses_low": {
        "summary.txt": "92b58357bbd2cfa4c4981eea3e6f81128caf1eba5eca6747b1764f2dcd02f007",
        "value.csv": "c7513c593d27ebd809b49103ae263f235143a92266392555b12eb16d8e437b5f",
        "simulate_summary.txt": "2e9e4c15d03a1a780c43434ffdf23502460c58e2279c046647d05a4e3827d064",
        "trajectory.csv": "e5e3fd62e6a584019236c668458ab86c3c1a987ce36710c656c3c8cec46f9a40",
        "strategy.txt": "f152811e62aaedf0e34ad745627a65c71c8e70583589c49318ec033d44f0df47",
        "drawdown.csv": "45b7f825330f3eccabec5b807c8f88011b2f5da32b6705de251c100c6ae4ced2",
    },
    "arvan_moses_mid": {
        "summary.txt": "f1f5ffbd55df783a96b1c602ad28b560890c4f4a3d508a5f6653cb113b869275",
        "value.csv": "4f4308a301d849d39f311e7b3b275c614582f0399d75fdea91a61b6557089b92",
        "simulate_summary.txt": "e5f78705c31b4f9a079943662abb696ff767790dfe70e31f93d0465f840d3733",
        "trajectory.csv": "8915ae2953ed0850be6b044919798e756173a8bcc040bfc72e064c68f208419e",
        "strategy.txt": "149d6d7f23a9b0cd80e3cb3797c3c984b50f481ff169b110eeb4dff3df327e61",
        "drawdown.csv": "0b1d062174ec2b31772e477807eaae546ec69752518d4172b1d91a9558920fa4",
    },
    "linear_cost": {
        "summary.txt": "5ba8808306efca053327f78fa837092b15161924a3e2879b3991a79e267f80e2",
        "value.csv": "bb633e8368cef278519712b9743e3c576e24aa18ae75852f5ed18eab51f25baa",
        "simulate_summary.txt": "365f498f952ffeeca7eacab04f71d97f08f86aaebf01c3885ca2b3ef9fa8272a",
        "trajectory.csv": "8be6b1679892d329a08bb3e6e62e56f95e490bde40263acf1d8a3e5f2a13ede9",
        "strategy.txt": "d96eb1314cc2f025ab0696c5aad9febe422eb7a498279be18edf49f444417850",
        "drawdown.csv": "554858092f76c7af023438ae6e9879e00016240349dae344a9ed9e1ef9f2234a",
    },
    "table_curves": {
        "summary.txt": "1dc3e9e28133d949a5598b3b0c910bf51e6f46651d0939bacd803396498b1481",
        "value.csv": "bfbca5524526931ee5a77427a403d7ce6ba4cc3f2e0ddbd23c751bf2c0b9ff45",
        "simulate_summary.txt": "c2a3342439d65a5311a6d9ef7ff9137a23d784f63371c77780ff6ada0206786a",
        "trajectory.csv": "6450694a56610a6eb4699706cd1ae380ec411c742cd4a0bab7c7cab37cc6b31f",
        "strategy.txt": "a7c9a909f3b35230dd9df5debbe2c47237060b95c15d0e477b86f934f36c9009",
        "drawdown.csv": "16cc5ec66dcca65053b34bb32a9cc806e5546ec5857bd85ac8499553743dd1d1",
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
        "strategy.txt": "494ca87902b1c19f3f76a6fbcc0cec3d14704bc9927095c3a3d973586aa5ed3d",
        "drawdown.csv": "4cad8a7ef04e933aa08741d6c6cce9284b2fbf0d813ea0cea710341c8c629bb2",
        "trajectory.csv": "429523d5ad9e103861a94a84fda241658ff51c6e77b71aa0158899bcb0cbf7fe",
        "simulate_summary.txt": "005c7df77571399b2374a4b0b5c87ecae4a5beede33826d6e842d653c1edd781",
    },
    "arvan_moses_low": {
        "strategy.txt": "f152811e62aaedf0e34ad745627a65c71c8e70583589c49318ec033d44f0df47",
        "drawdown.csv": "45b7f825330f3eccabec5b807c8f88011b2f5da32b6705de251c100c6ae4ced2",
        "trajectory.csv": "1d055d5d38700220cfaf9ac72aaca5e7d03300a71ecebbce329398b260f1fbac",
        "simulate_summary.txt": "13a0314d91255b38aa966b5dfd45287ff636c88791447c3b4490dea904ecf893",
    },
    "arvan_moses_mid": {
        "strategy.txt": "a633e5d2cd91b105d067f3a8d3aeaafaca9b7044258a03792aa2fd14337a5b27",
        "drawdown.csv": "0b1d062174ec2b31772e477807eaae546ec69752518d4172b1d91a9558920fa4",
        "trajectory.csv": "44be78561ada6a11e34070a7d1968a3238b54be77033851500941af3e10f5c27",
        "simulate_summary.txt": "4b91d776027e0f52364099cde56448eb3d570f4dfb459563c22c0c394a92b5c4",
    },
    "linear_cost": {
        "strategy.txt": "d96eb1314cc2f025ab0696c5aad9febe422eb7a498279be18edf49f444417850",
        "drawdown.csv": "554858092f76c7af023438ae6e9879e00016240349dae344a9ed9e1ef9f2234a",
        "trajectory.csv": "e461d27b1a574cc4014343cbdabb8d69a540997b03422f48eb23150eb3f22661",
        "simulate_summary.txt": "5a06f7f3c7ee1b7101e1d23e7586df62b3605f75c46a9d4f2014bb361f416b5f",
    },
    "table_curves": {
        "strategy.txt": "6bebc9972bde6e9aff2985a25e5cc66c404320e4c41786333ef0c5d9e2509ddc",
        "drawdown.csv": "16cc5ec66dcca65053b34bb32a9cc806e5546ec5857bd85ac8499553743dd1d1",
        "trajectory.csv": "4c77c450298b8ac75e68b347d0ebf9d02887711e62f99bd97aa0a0fcefb6b4f8",
        "simulate_summary.txt": "b9a33b85f485f41806c8afcc3f856b927a42632854263289b4b606b0c3b01164",
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
        "summary.txt": "15d840c1230444d34cfba5a5448cbf47d5172e5e64ec73bcd3f7fbd7b76809fd",
        "value.csv": "eb6daca0ac55b7f2bbaf0f95e037f597bfff80786060fc1478e2d9186149e0a3",
        "trajectory.csv": "f354bf24171ed99bcddc52dbe116fb314b80902968d6310acb67ee4f679f49db",
        "simulate_summary.txt": "e15b6b693638ac14b98d2f952aa9a269beb7b535251bc5bb41b53d0da70926b2",
    },
    "arvan_moses_low": {
        "summary.txt": "fd9e0581438ad4ed3d2b4123c1e10bf37069be40f9909de4896b8c1e6579ddea",
        "value.csv": "1e15c1046a577a5f237022554b729aefbc1164642e4af6ea0dce43b61aa16fb9",
        "trajectory.csv": "4a07de19a1108a6e5c61de402f85339fb38b4b19dac2bf4ca20dda7e82f4d7e9",
        "simulate_summary.txt": "22a4222b1f68f6d0bbe6fdb36c1820b1cc158471b1c122342a8bdf403433203f",
    },
    "arvan_moses_mid": {
        "summary.txt": "63c030f9e3cc5cb5ef900de864c16883b4d9b11cd845d5ea4fd422076901a32f",
        "value.csv": "9db1c281e486df525c7d992f11fc2a0e4f62df34017a7ac6485a37a00249ef92",
        "trajectory.csv": "6cbb6281768f22c3efb9852a3c3969a45e34980161d19717468217742f2f0818",
        "simulate_summary.txt": "a5dcba132125d4d439ab167c4844241456d166564322cb4c5d9a11f2ea9fca07",
    },
    "linear_cost": {
        "summary.txt": "5e503df8db5c419c168a3d2cc82dda1642114f721a725e62f8ce91461abe66ba",
        "value.csv": "c1b173c83255924c13c4a294da9df970a3db8a40ad38063da3cf040862d5638c",
        "trajectory.csv": "9625490aa342e05d326e8021f90900f9e738a3ac08d4f23dead41bcbb0d22218",
        "simulate_summary.txt": "f44667e33a99e3d034aced90f20dc4d59efe14c9aca1eb6bf61e8e56d2e16dbc",
    },
    "table_curves": {
        "summary.txt": "89a69527ebe6d6613baa0fa267f19dcb75222841c7b5b5eaa79c305d7010c834",
        "value.csv": "2a7a6c9b72d89ebab454799785201efd6d69ecc41a29e6b32ac9dd4d90f78c84",
        "trajectory.csv": "e801cea1afde7b48344a955fbc4cbb80e70c27b32dfb079a4fd9a335a1948610",
        "simulate_summary.txt": "6a8d5a7d22b85c4848ea930393e7c668dc0cc56379bb63776d40531edcf79890",
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

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
        "summary.txt": "3096169613228c2463095493e9b10e2f9d2f8957bca0879a870e7560d80c2020",
        "value.csv": "550fd46e63beabb63965be85b88075ba417c84dcab2ec08f6ee284c3484d8edf",
        "simulate_summary.txt": "cf24d3e4f4fefd75b3c5b1ab862874d74dbea18995760c743f5562e13225cb85",
        "trajectory.csv": "cd4f93ca8e7d5dd31b32038761d17f57efee2eeb27dfe9bcd62da2a9da352e94",
        "strategy.txt": "975f279552befcdd2dcd78e878022e7917b084ee38fe5810f5ea7f62ede0aec8",
        "drawdown.csv": "a7a5a93f34b16a75b8ae6c26b459a3df8b19085c3f6c39ba75923ff37c261943",
    },
    "arvan_moses_low": {
        "summary.txt": "b7f70d1bd7495f19cd30a276c4c7fcebd1ae9dfd0529faea22516b1eca75e9d5",
        "value.csv": "65becd8b04dbec210fbdd16dc19dfe7ab9f583ad59de07d78134baa5669cac1d",
        "simulate_summary.txt": "eae732a467ad65df3601c51b81f25c973368915a5da7c197f4bf4a41bc58a6b4",
        "trajectory.csv": "af78b75c09ace110361c38f7a1fb01ce646d3c885284909e8c7c0f01d7db7878",
        "strategy.txt": "f152811e62aaedf0e34ad745627a65c71c8e70583589c49318ec033d44f0df47",
        "drawdown.csv": "9f58257e0425195196fa11193a33f5218523da36b702c156e5a7f90db8629548",
    },
    "arvan_moses_mid": {
        "summary.txt": "1ccf961bab743a69748960ea061da04b7522c7db0e2523015204bc16e8580a35",
        "value.csv": "6b08acd75fe531d63dd956bf514ffaf152baf255f619db9c828b4b25bccb8011",
        "simulate_summary.txt": "6d57d12df5fd7bbc2640c766b0064f4595d525a5c445252b5539a33705b8b28a",
        "trajectory.csv": "b7a66586dd89ebf0920f9ffa5850fe6b873196cb7ccae8b5b0c52e2d3f611ff7",
        "strategy.txt": "149d6d7f23a9b0cd80e3cb3797c3c984b50f481ff169b110eeb4dff3df327e61",
        "drawdown.csv": "4afcf12b27a2e94b83d149d67690ce1dd9941561456e94961007325fc22d3c80",
    },
    "linear_cost": {
        "summary.txt": "5ba8808306efca053327f78fa837092b15161924a3e2879b3991a79e267f80e2",
        "value.csv": "80b83d00c179b740166500fea5dd7b77caeafb41e44cbe1a13037c39e9c36209",
        "simulate_summary.txt": "1201135dd04fc8c40060cf54eaa14e07b2b820d8e708218f931e40a4b03f391d",
        "trajectory.csv": "205e52cfdcc28f3387fe61708f73ee3cb6f0a8380c75fac3b38548cea74a934b",
        "strategy.txt": "d96eb1314cc2f025ab0696c5aad9febe422eb7a498279be18edf49f444417850",
        "drawdown.csv": "5b5ea6f800a1f7e29c2398c2ca352f0a236bbf7768157e9692434295467e6ed0",
    },
    "table_curves": {
        "summary.txt": "1dc3e9e28133d949a5598b3b0c910bf51e6f46651d0939bacd803396498b1481",
        "value.csv": "e584b0e64bd794e850d898488fff14b5a3661be4e6a1ff864e1863f3e709338e",
        "simulate_summary.txt": "6a99c7fd4a6c53c9803a256900701ec0c1d8b34a75e9023acc5c77fc03362057",
        "trajectory.csv": "28775ce89a5d91ff8686829d013af2f4242914e68090e3a770d179861935a17c",
        "strategy.txt": "a7c9a909f3b35230dd9df5debbe2c47237060b95c15d0e477b86f934f36c9009",
        "drawdown.csv": "24c70271ae430e20da6b233520ab8fb8bab8824d5afdf5079d3d5d993b9e1145",
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
        "strategy.txt": "975f279552befcdd2dcd78e878022e7917b084ee38fe5810f5ea7f62ede0aec8",
        "drawdown.csv": "a7a5a93f34b16a75b8ae6c26b459a3df8b19085c3f6c39ba75923ff37c261943",
        "trajectory.csv": "875b7a4722e58fc334b5c2b88dc590e9e8742c4317f1eac605396fd1fc9f3ccd",
        "simulate_summary.txt": "f6843b749ebfaf1adcd41716c182af4527cefe5e5e38c4496defca89e3541ca0",
    },
    "arvan_moses_low": {
        "strategy.txt": "f152811e62aaedf0e34ad745627a65c71c8e70583589c49318ec033d44f0df47",
        "drawdown.csv": "9f58257e0425195196fa11193a33f5218523da36b702c156e5a7f90db8629548",
        "trajectory.csv": "c6bf8af75fb57bc8433681e284d027120c65bc68789af12e33e09835069ee42b",
        "simulate_summary.txt": "2926a4b55dd1841662b28363acf2f321b1f9a39e533db90542752027ea5b637a",
    },
    "arvan_moses_mid": {
        "strategy.txt": "a633e5d2cd91b105d067f3a8d3aeaafaca9b7044258a03792aa2fd14337a5b27",
        "drawdown.csv": "4afcf12b27a2e94b83d149d67690ce1dd9941561456e94961007325fc22d3c80",
        "trajectory.csv": "4d77b97b7f08aef2a1605f788762d46b23ec7593b4e707c80d6bc06123322e0b",
        "simulate_summary.txt": "240f8cd60010816d812cf79ef515c5c5e1bbc69976bdf1c7f41721d610b30ee6",
    },
    "linear_cost": {
        "strategy.txt": "d96eb1314cc2f025ab0696c5aad9febe422eb7a498279be18edf49f444417850",
        "drawdown.csv": "5b5ea6f800a1f7e29c2398c2ca352f0a236bbf7768157e9692434295467e6ed0",
        "trajectory.csv": "7e4cf69a40a70bb55aefa9cddffefe58ea7f317f42d4603f1d11b36e43e0e2e6",
        "simulate_summary.txt": "9b3dd172ccdf86b392a7df20698b035c517ba3ab15100c4e749749e5da4840c2",
    },
    "table_curves": {
        "strategy.txt": "6bebc9972bde6e9aff2985a25e5cc66c404320e4c41786333ef0c5d9e2509ddc",
        "drawdown.csv": "24c70271ae430e20da6b233520ab8fb8bab8824d5afdf5079d3d5d993b9e1145",
        "trajectory.csv": "c7858be7182f74d83be6280d1ecfe91e88c7f82b861bfbaf4b9f3596ef1abd09",
        "simulate_summary.txt": "010ee950c93ca85848a975a6c2eba8642edf20063a5922dbffaeee9c84497538",
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
        "summary.txt": "88153633c7f023125497e0bb9494331d2da08677be23c9aa58bd7bbc3fe54050",
        "value.csv": "f5215a23084077cbba33b4aa956b70f06c3c5acf865f94c1b39df6757d5389a8",
        "trajectory.csv": "af41331b7a96f3e507cd03060fd352e929b490f482fc8c8b9847ffad736736e9",
        "simulate_summary.txt": "d0346e2bd01eb59861025795c947a1a87fa588881c6ee7a86b2746888bba2ee0",
    },
    "arvan_moses_low": {
        "summary.txt": "0675bf419f72fce989af5926b9dafe0f599fc4493b674fb623cf02505673b8d9",
        "value.csv": "7c6c0631cbf0afc0b6db3a19122532e715d0878d334b7c6cf5f8edff3a40dc44",
        "trajectory.csv": "b10d72c1f5c91257c9b1171673393a684260f7511e0e7b982fa1bfeec32d2c88",
        "simulate_summary.txt": "dcad269d16dc45ff956f334f93ad9723ca67a957b404a3f7c32ca9679b8104cc",
    },
    "arvan_moses_mid": {
        "summary.txt": "ebd97abb7bb344fa47c07362a89316c0a9f33ac56d925928e473bdee302ac493",
        "value.csv": "761ef48b16d0c515d917fc69a74b347598a9828163f09c79a1af6bedca115847",
        "trajectory.csv": "67d62b4d6e39fa9a50f384de3b3dc518c623f0104dddefc861de02a4ceb17724",
        "simulate_summary.txt": "359871087aba016f7665e0ba7c67850299c900df8ce87db83fd5621e23688929",
    },
    "linear_cost": {
        "summary.txt": "5e503df8db5c419c168a3d2cc82dda1642114f721a725e62f8ce91461abe66ba",
        "value.csv": "0fdf0115bba665575b98d128c6ff47e91a24039368b33ebc63a1323628f1910d",
        "trajectory.csv": "e99a873e4de4f3eef2ed49efb3bcfbae31159099b501490ebab7400f03d9f742",
        "simulate_summary.txt": "d20b7fe2465a4208c9e237200f8c1a9ec9dabbf02a98b9625f6c09fad8a1dc34",
    },
    "table_curves": {
        "summary.txt": "89a69527ebe6d6613baa0fa267f19dcb75222841c7b5b5eaa79c305d7010c834",
        "value.csv": "bbc82fe4787879fc87cc4bf486867452ad999afad4b546293bd60f33613318dd",
        "trajectory.csv": "4784e19103926148b48b90f5e7c5d4b9fe1224abd680d5b5191c33fa775992ae",
        "simulate_summary.txt": "2a0d1fde6d037f432356f70874c51fe1c1355210f2262759e1e0a21d497562a6",
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

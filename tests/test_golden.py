"""Golden outputs: every file written by a fixed set of commands, byte for byte.

The SHA-256 digests below were recorded from the commands in ``_write_all``.
A change that is meant to keep every output byte (a speed-up, a refactor)
must leave them all equal; a change that alters outputs on purpose must
record them again and say why.
"""

import hashlib
from pathlib import Path

from saddlescape.cli import main

GOLDEN = {
    "check/check_report.json": "c1ae718a5dab2194637533cda8947eca9a71277c47ba48a9104f672c1b21b2b8",
    "check_L1.5/check_report.json": "e173097f0c456d65e158250b6fc3a85e47d902327963b7ccdfb6bdbde227dd88",
    "check_chunk/check_report.json": "ccae6a689916727e6b5d77bbaa2155be8b99837dda8804f17e065d69bba636fc",
    "check_zero/check_report.json": "b9e61eedd2a1e3f7c65e424951cbd9b91b757c2b96e27cc494db6994b603ddc4",
    "plot_gd/blocks_seed0.csv": "f9cdc22b8ccca662e9fe468824e09c20acd76ac563d5537a4546eeaa2d6be288",
    "plot_gd/blocks_seed1.csv": "35a1badae7f55846aa3555a6e759e3bb2352ca38faa5b349801682a9d4e16c28",
    "plot_gd/blocks_seed2.csv": "2cfecf1f729dfdb9ecc086bf57f062ff10f9a1ad6e48106ece28a74e3a81f79e",
    "plot_gd/fseries_seed0.csv": "bd6aaf64c9e839f64ab77746f13fa8309a788deec8e5ec98ecfca77e61e88ffc",
    "plot_gd/fseries_seed1.csv": "057b361b80170a4db6abe9ba4ce4fa8b7574ae86ce2852a256216ef0a0c74bb6",
    "plot_gd/fseries_seed2.csv": "30f2859137fd9c103e42af6c951d3fbbe28e646108a3a5afbc60c842966e35b6",
    "plot_gd/path_seed0.csv": "bf4bc34fbe18959d330b9ee2c8b06639cf71cab757c793923d50ca9f06374483",
    "plot_gd/path_seed1.csv": "11faf7b831170295a44aea3b3f04c335c92df2b5ebbf49708ce4aeeb2e5a005f",
    "plot_gd/path_seed2.csv": "3189d32d27750b1cfb6a2afb82fe8242e323c1b330e62f6d87e3c1ba8aff5eb7",
    "plot_sgd/blocks_seed0.csv": "42f4e495335259416bef852d6029e0df6c3f21501d7c9c9ee7b13c1ef7f9cf2a",
    "plot_sgd/blocks_seed1.csv": "4a298e117cd2f31ef71e363fbbd7cac4b8ff2c280799c9622e78e5c051dac562",
    "plot_sgd/blocks_seed2.csv": "b039570856f0d20bac3d7dae4f8259eb6f598622ee4a016a196f30a849e528a0",
    "plot_sgd/fseries_seed0.csv": "c13ee93d8b04c6284a8e502d78dfd6c43c47ba9dbc037075b383a2b6262b3d4d",
    "plot_sgd/fseries_seed1.csv": "93311de4182741bc72bc5febf9ae84bdbe3465db5e339c2cf20f535050ab8148",
    "plot_sgd/fseries_seed2.csv": "33a4dd2557e6db9162ef15212d8a72bbe87c7c2f5330818b4e5df62da76064de",
    "plot_sgd/path_seed0.csv": "d83fc9029d70d70bba3d84c36774185b4e4c8b86c04c76b94986c83cd6092f8b",
    "plot_sgd/path_seed1.csv": "b3a32e3d6cbf39e3f4c95a1e59866a106dbdcf6f4975a31d590c7bafedfb4f11",
    "plot_sgd/path_seed2.csv": "dcc80d2c2531800db9028a056013bd8c0e4eba91e34478ae3e08c49c766e5b3e",
    "run_gd/run_seed0.csv": "7ad0953c4dd5e6e0a6dca63b1fd4eef4ea97f8af6939f2c7306cb0f64b1ddb48",
    "run_gd/run_seed1.csv": "964c66e5c12d36643d7c2195a4b443bb32b5d2edadb839a48dd35ee620a9530b",
    "run_gd/run_seed2.csv": "5179a8bd6edc547005f106dfb1a90db6605d2cf15fc1b1f8de19059ceeb90dfc",
    "run_gd/summary.json": "f763458cdcf7ced9893b287aac4a0b7df3fa0efed4f71134d73f5d03878c21d2",
    "run_sgd/run_seed0.csv": "f1a46eecfe9b12c662ef4d1f5c094fe583bf3c59ba65bbc4fcd74042d9d650eb",
    "run_sgd/run_seed1.csv": "20e91278fa79f392083d4121bc2c85a77c274c8d0269d0990bf04ba2a010033c",
    "run_sgd/run_seed2.csv": "cd8f6c6a7ef1f4a79953b394502eeb62f2cc774e5785d85a0d9274c3d175beee",
    "run_sgd/summary.json": "7965cbcda3e524ae0c49ba101f22f29e680c77b291aa7078827964d531c66e7d",
    "sweep/sweep.csv": "cd32e442ba834217c2eeaa7722b32b0b5db1c3562b4ceb84eb59b0b63c048f44",
}


def _write_all(root: Path):
    assert main(["check", "--n-saddles", "5", "--seed", "0", "--out", str(root / "check")]) == 0
    # a curvature that is not a power of two shows how the closed form rounds
    assert main(["check", "--L", "1.5", "--gamma", "0.5", "--n-saddles", "5", "--seed", "0",
                 "--out", str(root / "check_L1.5")]) == 0
    # counts above CHUNK make every sampled check run several passes
    assert main(["check", "--n-saddles", "5", "--seed", "0", "--grad-samples", "40000",
                 "--seam-samples", "20000", "--min-points", "50000", "--pairs", "40000",
                 "--out", str(root / "check_chunk")]) == 0
    # zero counts make the sampled checks vacuous, with empty details
    assert main(["check", "--n-saddles", "3", "--grad-samples", "0", "--seam-samples", "0",
                 "--min-points", "0", "--out", str(root / "check_zero")]) == 0
    common = ["--n-saddles", "5", "--seeds", "3"]
    for algo in ("gd", "sgd"):
        runs = str(root / f"run_{algo}")
        assert main(["run", "--algo", algo, *common, "--record-every", "1",
                     "--out", runs]) == 0
        assert main(["plotdata", "--runs", runs, "--out", str(root / f"plot_{algo}")]) == 0
    assert main(["sweep", "--L", "1", "1.5", "--algo", "gd", "sgd", *common,
                 "--out", str(root / "sweep")]) == 0


def test_outputs_match_golden_digests(tmp_path):
    _write_all(tmp_path)
    digests = {f.relative_to(tmp_path).as_posix(): hashlib.sha256(f.read_bytes()).hexdigest()
               for f in sorted(tmp_path.rglob("*")) if f.is_file()}
    assert digests == GOLDEN

"""Byte-for-byte pins of ``--format doc`` output.

Each argv's stdout is hashed with SHA-256 and compared with a digest
recorded before the refactors that could change it (the per-instance
pipeline and certificate route; the shared bound hypotheses, analysis
rows and identities option table; the variable-sum contraction, which
the n = 3, 4 experiment with k up to 10 exercises; the pruning from
below, which binds hardest on the four-variable Zeilberger sweep; the
enumeration's stop at C = Z/pZ, which the thm4 sweeps reach; the orbit
quotient of the thm4 sweep, whose below-threshold pins carry uncovered
rows with nonempty missing sets; the expansion of each orbit when it is
first met, whose size-3 pin holds orbits with a stabilizer), so any
change to a doc byte fails here.
"""

import hashlib
import json

import pytest

from sumsetlab.cli import main

INSTANCES = {
    "uniform.json": {"p": 7, "sets": [[0, 1, 2, 3], [0, 1, 2, 3]],
                     "forbidden": {"1,2": [0], "2,1": [0]}},
    "asym.json": {"p": 5, "sets": [[0, 1], [0, 1, 2]], "forbidden": {"1,2": [0]}},
    "spread.json": {"p": 7, "sets": [[0], [0, 1, 2, 3]]},
    "infeasible.json": {"p": 7, "sets": [[0, 1], [0, 1]],
                        "forbidden": {"1,2": [0, 1], "2,1": [3]}},
}

GOLDEN = [
    (["sumset", "uniform.json"],
     "022088fbb941854a74d3cf557973e3a7315abb0ab0be797a6f035228226895fb"),
    (["sumset", "asym.json"],
     "6c4671165d0a8b0aea9031bdd73966f6a4643d21e8c172d3a8fa0058f0618328"),
    (["sumset", "spread.json"],
     "105a112e1c3d165fb37d0b7014c4c848032453f4a0566d51c0fb5b117d35b845"),
    (["sumset", "infeasible.json"],
     "ab6ef31f85cad95dfc207ca57800a6c2dbbfe3dcd1269f4258a80f1bb7c27bcf"),
    (["experiment", "--trials", "8", "--seed", "5"],
     "1a4f17883d8da1df4d0f9f55d7ee6116568ac4fd38eaa5ab0b9d7a715dec74c5"),
    (["identities", "aomoto"],
     "38f9d6b175fb589bdbb1857f1f9b8fbe4cf441ee55ac027f55a0495482ad1a5a"),
    (["identities", "lemma22"],
     "054b9d02754a8d83d348fafe9ea6037f3632f893987a2458239cc262524c4725"),
    (["identities", "dyson"],
     "d54f20c5e6af4fa8304ba53b0b2206035be0659a555638d62e60fa6d9e5abe23"),
    (["identities", "zeilberger"],
     "31d5e31fd6d5f7b13861069a71883ab1011c957b8580e1db869f67756ace48c0"),
    (["identities", "prop21"],
     "489ef26297e18c91031b283bc59ab6ec0989d146a69317791e31ee1054e2fec4"),
    (["experiment", "--trials", "12", "--seed", "3", "--p-set", "29,31",
      "--n-set", "3,4", "--m-set", "1,2", "--k-max", "10"],
     "edcf35cf3d2bf8c3bc37795d8c6fc057cabc78cab1ee160ab6f538642ee0db9c"),
    (["thm4", "--p", "7", "--m", "1"],
     "c0cd84fad18af0768bf0fa9dd5096e404d0e119ad7b3f83412273ca12fb8fa58"),
    (["thm4", "--p", "13", "--m", "2", "--forbidden", "6,10"],
     "f202e1e080bdb0bca639c3c21125f51d4cd555c5a402b146dbe195d67f9169b0"),
    (["thm4", "--p", "29", "--m", "1", "--mode", "sample", "--count", "6", "--seed", "1"],
     "01b998416f15fb922fb35fa2bbb83c5136583be53d2cbc23c3748664c30ff3ae"),
    (["identities", "zeilberger", "--max-vars", "4", "--max-entry", "3"],
     "ff0cc00d601ce490b83b5e8786a72d69e1742933dfd0ceaf7cc51d60f578a9ae"),
    (["thm4", "--p", "13", "--m", "1", "--size", "5", "--forbidden", "3"],
     "256a0502cb1dbbcc2cefec7c02e7965cd34cc44a3ef500805c1404b97d3a9424"),
    (["thm4", "--p", "31", "--m", "2", "--mode", "sample", "--count", "20", "--seed", "4",
      "--size", "8"],
     "e895b663598dd72904078fc01b3b73c9adb3ab4ccb9f21353322e79a342bb74a"),
    (["thm4", "--p", "13", "--m", "1", "--size", "3"],
     "caecdb6863046576ab02b1a7f61133d0ee8f83a693605f036a9e970088d6f800"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_doc_output_is_pinned(capsys, tmp_path, argv, digest):
    for name, doc in INSTANCES.items():
        (tmp_path / name).write_text(json.dumps(doc))
    argv = [str(tmp_path / a) if a in INSTANCES else a for a in argv]
    assert main(argv + ["--format", "doc"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest

"""Byte identity of the CLI on the embedded data.

Each call below runs ``main`` in-process; the SHA-256 of ``[exit code,
stdout, stderr]`` (as compact JSON) must equal the digest recorded in
``DIGESTS``.  A change meant to keep the output identical (a speed-up, a
refactor) must pass unchanged.  When an output change is intended, print the
new table with ``PYTHONPATH=src python tests/test_cli_digests.py`` and say in
the change log which calls moved and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json

import pytest

from superelliptic.cli import main

ROWS = ((3, 1), (5, 5), (6, 11), (9, 12), (10, 14))

CALLS: tuple[tuple[str, ...], ...] = (
    ("verify",),
    ("verify", "--strict"),
    ("verify", "--verbose"),
    ("verify", "--strict", "--verbose"),
    ("verify", "--format", "json"),
    ("verify", "--strict", "--format", "json"),
    ("verify", "--genus", "6", "--verbose"),
    ("verify", "--genus", "9", "--strict", "--format", "json"),
    ("verify", "--genus", "2"),
    ("list",),
    ("list", "--blue-only"),
    ("list", "--format", "json"),
    ("list", "--blue-only", "--format", "json"),
    *(("list", "--genus", str(g)) for g in range(2, 12)),
    ("list", "--genus", "9", "--format", "json"),
    *(("levels", "--genus", str(g)) for g in range(2, 12)),
    ("levels", "--genus", "6", "--format", "json"),
    ("levels", "--genus", "10", "--format", "json"),
    *(("export", "--what", "csv", "--genus", str(g)) for g in range(2, 12)),
    ("export", "--what", "dataset"),
    ("export", "--what", "blue"),
    ("export", "--what", "errata"),
    *(("row", "--genus", str(g), "--nr", str(n), *fmt)
      for g, n in ROWS for fmt in ((), ("--format", "json"))),
    *(("classify", "--genus", str(g), "--nr", str(n), *fmt)
      for g, n in ROWS for fmt in ((), ("--format", "json"))),
    ("row", "--genus", "3", "--nr", "99"),
    ("classify", "--genus", "11", "--nr", "1"),
)


def digest(argv: tuple[str, ...]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    blob = json.dumps([code, out.getvalue(), err.getvalue()], ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


DIGESTS = {
    "verify":
        "8782629b65953b21809309cd76a2a77046e32dcb4f8fe32244a20d7ce308bd7c",
    "verify --strict":
        "dfa8915e02505ba573c5461834e4c0d282b5acbf728a69be9ff80286115e21d3",
    "verify --verbose":
        "7169cdc326e0a1363598fbcd9a1f63af75911d97f53e39e9406ad8590bf168c5",
    "verify --strict --verbose":
        "dfa8915e02505ba573c5461834e4c0d282b5acbf728a69be9ff80286115e21d3",
    "verify --format json":
        "097b41f3b0ef77cb41978150d1beb67f768afe2acc85d716090491dd126e54f2",
    "verify --strict --format json":
        "28e081c37df2303dbb098668107ca455f60471bbfa14588bdfcff06229e9daf8",
    "verify --genus 6 --verbose":
        "4f5dd5758452e489936ca4c57e33ff1530bf46808c48b14758b879714e34dc69",
    "verify --genus 9 --strict --format json":
        "232e81cce034051116205839f44e169be6625a1371a21b3443874f7a3e80f1c6",
    "verify --genus 2":
        "e0fd9c11584094c6336e025fe35a2c347bcf36f263b466346ff4b3c97edc2bd6",
    "list":
        "906f44c9e8a7e61c0da442de3f01fdecb35acfa08eb85f683a9b943eb1c955f1",
    "list --blue-only":
        "8d7270cfd4e074a894d005ab8eeefeedb3c647d030daa1b9abcc0dd04e5796ce",
    "list --format json":
        "d45087c349229d1427b98382ccc0ca8d5d78de666575c8f3d06a577b4cfd3360",
    "list --blue-only --format json":
        "05c36c90712bb33b73d2111c5f328a802c59f68bb9797d5086c95588a1b1beea",
    "list --genus 2":
        "e0fd9c11584094c6336e025fe35a2c347bcf36f263b466346ff4b3c97edc2bd6",
    "list --genus 3":
        "cd83c0e7581bb823537c61c323de9bbb361fbd95b07b9e77609fda725863a127",
    "list --genus 4":
        "a6f2b7f943cac402a386a1ea0c9091ceca1ccc8f4687e10f27352081350e33bb",
    "list --genus 5":
        "45d07a446be4aeed4089973a5217c7036145607c6be90d1a03687405be82db6d",
    "list --genus 6":
        "aa29d310427e8c232f92549b3f01892b519707726ca99382bece207a9e29012f",
    "list --genus 7":
        "6a95c9a2eb6c5d5b1abee689dea775c50b665be9329cab021b9d69e8f6002cd8",
    "list --genus 8":
        "89aee67ff251f365ed70d6110073e7e3c48126da27eb379ade8d3221963cf57f",
    "list --genus 9":
        "d2a98acf2c0864a00382ee2cf8c787a03552e4fd4a8c2f1be41d345b58e74687",
    "list --genus 10":
        "5477bcbccf34a0fc65ce5800d494b8584b6536dda323e4f5db33ad3bfd216e90",
    "list --genus 11":
        "13de7ae1c610edbf9575583ab29c4db0d514ca093c036767561befdde5ee568f",
    "list --genus 9 --format json":
        "cdad9356464e06c793b1b459f1b26247136fd7bacab22c4d3d296876cd90cff7",
    "levels --genus 2":
        "af61b133c12bd65545794bd501b8812e6d43b5487f2e4d73e3f7ad6e925dbe75",
    "levels --genus 3":
        "cc122f16e5d327f9bd4df5237a0a3cc48599f9663d5a47f52eef3da3b139a74b",
    "levels --genus 4":
        "269a5cebb2ea5714882db2f7e4efd460c585e3ecee88a8e9d74c9feb01c8de10",
    "levels --genus 5":
        "f9827a9561aa261fa5cc0940ceca5d63e7905936181def993e01cf61f3deda19",
    "levels --genus 6":
        "b97e762339d225d5a19af9c12936e75367e4a3b01f580f08b255e08c73c12630",
    "levels --genus 7":
        "736c8a1516658e0ec2dd4da55b85538bec625f28b9a93ec9d76cd4d4ecdae5cc",
    "levels --genus 8":
        "1ec3496db098321db0ad57b27fe8bfd667519eec45a0a3331ee137a3173d2a75",
    "levels --genus 9":
        "b7ea6a2618b6d58b2897c12c0e4d0cc3314466922172e1287c2d002fba0f3b4a",
    "levels --genus 10":
        "2107352d34aca1be352f5e05ebd2cf0a7f38172703425d8cd91830dab908df8a",
    "levels --genus 11":
        "238069e84536170625a4e88601f65644fbd244290ba64c4fa4fc95c589ca9015",
    "levels --genus 6 --format json":
        "e2340cc95ca32e704d66352ac52a4a60381a27fcc783d7dce6aeb07a98435ed4",
    "levels --genus 10 --format json":
        "1e1117f5df2e1907c337555942f79b7c3cc215307fad979123374a09993c0174",
    "export --what csv --genus 2":
        "e0fd9c11584094c6336e025fe35a2c347bcf36f263b466346ff4b3c97edc2bd6",
    "export --what csv --genus 3":
        "b7fe18f13246f4474aedee4051463544b327cb38a32c8b6dec27a71b89222647",
    "export --what csv --genus 4":
        "2077cd5f8ab847b8e17ecda9b4160a76660054574479fcc57fce7fd095904607",
    "export --what csv --genus 5":
        "86c2226264fde83d7cf529d6c52e87ec897b50e3287966edc57041ffa81a8c1a",
    "export --what csv --genus 6":
        "5c7c3bc24e7398d6dae44245f7720f4a763a05aef4ff6a0b579ab1d17f224d28",
    "export --what csv --genus 7":
        "cb32f93578f0998e5f427deb3808bf0843fd8b21c50090e8c0d948bcaf427df8",
    "export --what csv --genus 8":
        "5762634242cb9a9f8b73abf07ae19c2a927f3545c745c7fcda6ba6e2579ebe92",
    "export --what csv --genus 9":
        "193c67729d003053bace3541398082c654381ead6b3da771cb0e7be1823a79ea",
    "export --what csv --genus 10":
        "29d3dbeb8a04702aef526d9ba9e34a104e9cd2e97b5bc852cba3d271d9d59d7e",
    "export --what csv --genus 11":
        "13de7ae1c610edbf9575583ab29c4db0d514ca093c036767561befdde5ee568f",
    "export --what dataset":
        "f36cc8d27c0fed8edddb703650e889c2b59196731de484fcc7353fb857d40ffe",
    "export --what blue":
        "c7235754dec46db15af7742d18be0d84b9d43b877ef5c4611d8dd8beb1bbc1ea",
    "export --what errata":
        "7c65dbfe97e786b82a488cab6e34d42f286efa3c0ddf378d9e491efc8eded895",
    "row --genus 3 --nr 1":
        "3d9b9c60d00ba2057f8b5551654b210be87cc1ee8dabedfb76f688d95e7f0dc5",
    "row --genus 3 --nr 1 --format json":
        "1f5dc7f10afe60a68594c0edee69bcba82c5d36baacffca64b8e8798f562e013",
    "row --genus 5 --nr 5":
        "c6cf89c2da5c540d416262be4613d1b613da536f977a16b2d71714e2f2b9b72e",
    "row --genus 5 --nr 5 --format json":
        "61770560e9f290f94f40c48a7f7d26488770cece0bb1079e52d6034b427fde96",
    "row --genus 6 --nr 11":
        "1f312e7778d5bf8b610526af4410a90afdb7b0c02b256a11aadac033d8c17d85",
    "row --genus 6 --nr 11 --format json":
        "d72ff0905384b7e0f04a99704374faf2e81b2a54ddc7f0708881d9360c84e24e",
    "row --genus 9 --nr 12":
        "80f43f38cd93b805eeac060920b47ec31904b3133ff0e82a4b02a20978326dd5",
    "row --genus 9 --nr 12 --format json":
        "213c65ef6c7b90a72d0ec41892ebc02bbb88a922a1dfee7943ac452ed04bf95d",
    "row --genus 10 --nr 14":
        "4cefd43e823a3847f9a55cb956b52f6394475d8654745dd9b4715a8a4175ef51",
    "row --genus 10 --nr 14 --format json":
        "e46b585f00a02509ef4000aa7b43cf7803877e82a8d7a09895cc0b43a4d5b575",
    "classify --genus 3 --nr 1":
        "f84024eb4f2338e3384f9d24df82017092806b4a436417ee59afe3721744eb3e",
    "classify --genus 3 --nr 1 --format json":
        "d6b060ad3875f4b6cfc45b13a56496e56e8c04335e9389490ab5e7cb92eb819f",
    "classify --genus 5 --nr 5":
        "01df1050ad349870467637584605ab98e6d178596816d6378ddaf2e4e18c9bfd",
    "classify --genus 5 --nr 5 --format json":
        "02083e893c11c63ac6877aa97d89307dce85c7f0200ff26f991c9bb8f5689b04",
    "classify --genus 6 --nr 11":
        "f84024eb4f2338e3384f9d24df82017092806b4a436417ee59afe3721744eb3e",
    "classify --genus 6 --nr 11 --format json":
        "d6b060ad3875f4b6cfc45b13a56496e56e8c04335e9389490ab5e7cb92eb819f",
    "classify --genus 9 --nr 12":
        "01df1050ad349870467637584605ab98e6d178596816d6378ddaf2e4e18c9bfd",
    "classify --genus 9 --nr 12 --format json":
        "02083e893c11c63ac6877aa97d89307dce85c7f0200ff26f991c9bb8f5689b04",
    "classify --genus 10 --nr 14":
        "01df1050ad349870467637584605ab98e6d178596816d6378ddaf2e4e18c9bfd",
    "classify --genus 10 --nr 14 --format json":
        "02083e893c11c63ac6877aa97d89307dce85c7f0200ff26f991c9bb8f5689b04",
    "row --genus 3 --nr 99":
        "cab97992f5631256997ecb71b9065fe4c986da866840744a4af5b7342c62388c",
    "classify --genus 11 --nr 1":
        "9c1e4d485ed186f0986cf8db7a09e5c27c0b2db5d799634d900e547377702ee3",
}


def test_every_call_has_a_digest() -> None:
    assert set(DIGESTS) == {" ".join(argv) for argv in CALLS}
    assert len(CALLS) >= 60


@pytest.mark.parametrize("argv", CALLS, ids=" ".join)
def test_cli_output_is_byte_identical(argv) -> None:
    assert digest(argv) == DIGESTS[" ".join(argv)]


if __name__ == "__main__":
    print("DIGESTS = {")
    for argv in CALLS:
        print(f'    "{" ".join(argv)}":\n        "{digest(argv)}",')
    print("}")

"""Byte-level pins of the command line output.

Each entry is the exit code and the sha256 of stdout for one argument
list. The digests were taken before the rule statements were gathered
into one registry, so any refactor that changes a single output byte
(a rule statement, a witness, a rejection count, a key order) fails here.
The enumerations at small and middling b4_max were pinned before the
sweeps started solving the localization sum instead of looping over it;
they hit the cutoffs where rejection counts and family ranges change.
"""

import hashlib

import pytest

from semifree8.cli import main

PINNED = {
    "enumerate --json --max-b4 2":
        "f1b9e0ca7cd3c57c3e79d4d000c63713dbc2bd0498ccae799f7de2ba2a0c4744",
    "enumerate --json --max-b4 3":
        "802bea75ece0823c7eefb71991b81d2a645d5ed2436b10711fbfeb808c70eb2f",
    "enumerate --json --max-b4 7":
        "f50e42630a8f350a6eeb8f43be54e4489a362963f28f8171f7917317c688064d",
    "enumerate --json --max-b4 8":
        "c1705837de53b7a1549994eb914a768ad902f771e629acff8e82ae2058de7327",
    "enumerate --json --max-b4 9":
        "f6af2336b98eddadc461948f1ae3c05f7b6dea2c74dc9eacb3e4cd06a1fba4a1",
    "enumerate --json --max-b4 16":
        "0dcc246a98f2167b7802f7fc04cb214f7402800d855696c6ba0cefb236df9d88",
    "enumerate --json --max-b4 22":
        "ac5225f770d2b1c6b8d32c7dba19cf83095ff1c2ec9b2d29a3703a113d0ac84f",
    "enumerate --json --max-b4 14":
        "db1a59b4f5455f5412dd12360c1a775dbbda09e9094e9cf15ec8e9319c5d4e53",
    "enumerate --json --max-b4 30":
        "8375bc6da7a41db0752c63dcdad12977ab1aa87a6c8c61bdcda486d8f3e85061",
    "classify-fano --json":
        "b8f743ae452a98f931036f877216fefbc530bbc6abbcf3580d1ad7ae0ff615e2",
    "catalog --json":
        "ac5ce14062ddaab2a21b09cedac01061a6304a11b3c80ef2870c6e3c81c8342a",
    "catalog --name p4-isolated-min --json":
        "547acecb035d771ffbe217da54ca25521826354aff722a4e6aa81805feef0c27",
    "catalog --name p4-sphere-min --json":
        "065dae07ffce40923e8d4009e4cfaddac3379976502ffa9ad8569b8a4ffeb8d9",
    "catalog --name q4-interior-quadric --json":
        "ed97a9cd42bde2efdf540d55bd712822831ef92a601aafcc69295b6d84e30793",
    "catalog --name q4-two-planes --json":
        "7bf87c64cb47848935b1ae26c7244980a999da0f8c85a4befac2dc21090b6c8f",
    "catalog --name w5-surface-and-plane --json":
        "cb0ecfe8960d09ccf211dfad3b73dba75ad3ebae957e869cd51c247b17885fe1",
    "catalog --name x8-six-points --json":
        "f906215bc4e7a31fe97e57f149c34d23d1dbbb8b09b2460f74efc63e5b59e0c1",
    "catalog --name p4-isolated-min":
        "9e468a80e48dc232f8eb848b2791dcb7e4e41c239e6a835d71bbf02660fb6d61",
    "catalog --name p4-sphere-min":
        "4ce8cc28a19932eab4c1b850bef0f1abda9922232f4fa4131875b40ec51679d4",
    "catalog --name q4-interior-quadric":
        "016df494b8586a2bbd0493327a04aefab30776e61440f06127dbe5a676c9dd22",
    "catalog --name q4-two-planes":
        "685a8f59c478382d881c9be72287d81e22c72127b32d55fc63b4043af08f98ba",
    "catalog --name w5-surface-and-plane":
        "968836a801184ffe7d726ddfd39563109eecb24062ae821d01461ce243d4e7fb",
    "catalog --name x8-six-points":
        "773968831ddb28cf506c868b0c44627ea4a966bbe0c8b3a5f943ea0b61c836cc",
}


@pytest.mark.parametrize("argv", sorted(PINNED))
def test_output_matches_pinned_digest(capsys, argv):
    code = main(argv.split())
    captured = capsys.readouterr()
    assert code == 0 and not captured.err
    assert hashlib.sha256(captured.out.encode()).hexdigest() == PINNED[argv]

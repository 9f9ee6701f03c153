"""Golden reports: the exit status and the sha256 of the standard output of
one run per command, recorded at commit 6968dbe.

A change that is meant to keep every report byte-identical must leave these
unchanged.  A change that alters a report on purpose declares it and records
the new hash here.
"""

import hashlib

import pytest

from gigkdv import cli

GOLDEN = [
    ("balance verify --variant fdk --n 2000 --seed 7", 0,
     "1433992b17d6d290589748f35324fe8e0fc133d4f83815b21bb7eb04f5ed08ce"),
    ("balance verify --variant psi --n 2000 --seed 7", 0,
     "a36ba8173f7fe21c7781c9f024bb32c5115c8497a74b77e376c9388763ce43a4"),
    ("balance verify --variant matrix --r 2 --n 1000 --seed 7", 0,
     "7f22d254ad8767db05ddc0d5345612bb0036606220de77bac07658f515fdd259"),
    ("balance machinery --n 20000 --seed 7", 0,
     "c05180dd668d38bcfc1e5ceb8e0d70b7ea1ffa0c32865f89db0dcdc9a77a4a2b"),
    ("lattice stationarity --n 2000 --t 10 --probes 5,10 --seed 9", 0,
     "dc00cd71db45cf247202dd452ee86c4c95f51aa29fd3e77c56a5502bb8cf6030"),
    ("lattice run --n 50 --t 3 --seed 3", 0,
     "d41c9e89fc4e6c3a81b9ef05a4d2ad8fa5ead5a2517919d5f6e3d1c959cef3de"),
    # re-recorded when the limit-family CDFs became incomplete gamma
    # functions: the two weak_limit rows moved in their last digits
    ("dist check --seed 20260809", 0,
     "ff71386c36c552c3671d0ca69cbbdae63d2e1123046d41279b57c6d15b8951a0"),
    ("map check --seed 20260809", 0,
     "add4286c0e6f6438e29eb190d83fa385fc3127bb21fcb70776bfab046b91a835"),
    ("matrix check --r 3 --seed 7", 0,
     "c036420e36efdf759eb9dc921da6ec920086f8ac398cb8a92dc1f0dbc26e3712"),
    ("specfun check --seed 0", 0,
     "02c59c9717bf556c01d36c800e735fbe1185a9d8cf04fdc026a2792c9d5cada1"),
]


@pytest.mark.parametrize("command,status,digest", GOLDEN,
                         ids=[command for command, _, _ in GOLDEN])
def test_report_bytes_unchanged(command, status, digest, capsys, monkeypatch):
    monkeypatch.delenv(cli.SEED_ENV, raising=False)
    assert cli.dispatch(command.split()) == status
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest

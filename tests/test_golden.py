"""Golden reports: the exit status and the sha256 of the standard output of
one run per command, recorded at commit 6968dbe.

A change that is meant to keep every report byte-identical must leave these
unchanged.  A change that alters a report on purpose declares it and records
the new hash here.  Commands that read a file name it by a path relative to
the run's directory, which holds FILES, so a report that records the path
is the same wherever the tests run.
"""

import hashlib

import pytest

from gigkdv import cli

GOLDEN = [
    # the five `balance verify` reports were re-recorded when the printed
    # independence statistic became the distance correlation; only
    # independence.statistic moved.  fdk and psi were re-recorded when the
    # GIG CDF came to integrate over one merged grid of cuts: the KS
    # statistics and p-values moved in their last digits.  All five were
    # re-recorded when the transport gate came to weigh the unnormalized
    # densities in units of their rounding: only max_log_residual and
    # residual_tol moved, in every report of the batch too
    ("balance verify --variant fdk --n 2000 --seed 7", 0,
     "c0152d5eca3dd838741b82be72812442a2b44e24f5d1f18ae4d08ea838d2bd1f"),
    ("balance verify --variant psi --n 2000 --seed 7", 0,
     "7937aa04c5e29d3baa81270ce3911a484e715c2678df4deedb4d194a900b5819"),
    # the two matrix reports were re-recorded when MGIG draws at r <= 3
    # became exact, by rejection from a Wishart envelope: the draws, the
    # KS tests (now n against n, unthinned), the independence test and the
    # mcmc block (its new sampler key) moved.  Both were re-recorded when
    # the MGIG normalizers came to weigh the exact sampler's envelope
    # proposals: the same draws, but max_log_residual and residual_tol moved
    ("balance verify --variant matrix --r 2 --n 1000 --seed 7", 0,
     "315758c544d1d4adf24791167b7b7b03c843f5c4cbbbf5828611846387ead54a"),
    # recorded at aeafd57: pins the d = 6 distance matrices and r = 3 draws.
    # Re-recorded when the importance weights of the MGIG normalizers came
    # to be computed from the Bartlett factor, not from x: the same draws,
    # but max_log_residual and residual_tol moved in their last digits
    ("balance verify --variant matrix --r 3 --n 1000 --seed 7", 0,
     "8b18639095dee5aae3d3cb8db28403af31c670ddabe59083afeb8ecc3927868f"),
    ("balance machinery --n 20000 --seed 7", 0,
     "c05180dd668d38bcfc1e5ceb8e0d70b7ea1ffa0c32865f89db0dcdc9a77a4a2b"),
    ("lattice stationarity --n 2000 --t 10 --probes 5,10 --seed 9", 0,
     "dc00cd71db45cf247202dd452ee86c4c95f51aa29fd3e77c56a5502bb8cf6030"),
    ("lattice run --n 50 --t 3 --seed 3", 0,
     "d41c9e89fc4e6c3a81b9ef05a4d2ad8fa5ead5a2517919d5f6e3d1c959cef3de"),
    # re-recorded when the limit-family CDFs became incomplete gamma
    # functions: the two weak_limit rows moved in their last digits; and
    # when the sampler KS battery came to test 20 distinct laws, not 8:
    # only sampler_ks_min_p moved; and when the GIG CDF came to integrate
    # over one merged grid of cuts: the two weak_limit rows and
    # sampler_ks_min_p moved in their last digits
    ("dist check --seed 20260809", 0,
     "691b212f8fbb39688b21ed3658f33a5d28622d462a2f8d9990ef543e4a93a3c0"),
    ("map check --seed 20260809", 0,
     "add4286c0e6f6438e29eb190d83fa385fc3127bb21fcb70776bfab046b91a835"),
    ("matrix check --r 3 --seed 7", 0,
     "c036420e36efdf759eb9dc921da6ec920086f8ac398cb8a92dc1f0dbc26e3712"),
    ("specfun check --seed 0", 0,
     "02c59c9717bf556c01d36c800e735fbe1185a9d8cf04fdc026a2792c9d5cada1"),
    # recorded at 21d2d9d, before the CLI's parameter table
    ("dist sample --n 100 --seed 3", 0,
     "d3ea8809e004ad65ae40405c792b0f51c6baf0f21a43aab6ecb077082f925ad8"),
    # re-recorded when the header came to record only the rates a law reads
    ("dist sample --law invgamma --lambda 1.5 --b 2 --n 50 --seed 5", 0,
     "abf56c4db22c6da89cafb3435ebfc6d41f44e0c8175586d13be85f9d4fadb6cf"),
    # re-recorded when MGIG draws at r <= 3 became exact: the draws and
    # acceptance_rate moved, and the run exits 0 where 5 draws per chain
    # were too few for the chains' R-hat
    ("matrix sample --r 2 --n 40 --burn-in 20 --thin 1 --seed 3", 0,
     "97d76f2b0f80eae20a57de383ce9e63804b36d8cbce29ce8537d1f1661029f7c"),
    ("map eval --alpha 1 --beta 2 --x 1 --y 1", 0,
     "89976df1c07f71cc4085fb43d19f1005f01612710103a2303e5b583d8c622018"),
    ("map eval --alpha 2 --beta 0.5 --x 0.3 --y 4 --psi", 0,
     "b2d25f196d92221176f7088ad0c98c77901f64d027502c652436d53233a982d4"),
    ("lattice stationarity --n 2000 --t 10 --c 1 --c2 2 --probes 5,10 --seed 9", 0,
     "8aa8943d9bc11104a52783e29868ac9a1817afef4a8aa5b09ee4dab018be1ab2"),
    # re-recorded when the GIG CDF came to integrate over one merged grid
    # of cuts: the KS statistics and p-values moved in their last digits
    ("balance verify --batch specs.txt --seed 7", 0,
     "064ae22a5d03fd6525c1144e4752137e0999bc4c88e5035f100345731c5faef8"),
    ("lattice run --t 3 --config run.cfg", 0,
     "6b1cdc20f2fe4aee52b109f4739cfe6e527d5f5b706e941eeb793ea9152d52e2"),
]

FILES = {
    # the lines give no lambda, and the second no seed
    "specs.txt": "variant=fdk alpha=1 beta=2 c1=1 c2=1 n=2000 seed=3\n"
                 "variant=psi alpha=1 beta=0 c1=1 c2=2 n=2000\n"
                 "# a comment line\n"
                 "variant=fdk alpha=0.5 beta=3 c1=1 c2=3 n=2000 seed=4\n",
    "run.cfg": "seed=3\nn=20\nalpha=2\nbeta=1\n",
}


@pytest.mark.parametrize("command,status,digest", GOLDEN,
                         ids=[command for command, _, _ in GOLDEN])
def test_report_bytes_unchanged(command, status, digest, capsys, monkeypatch,
                                tmp_path):
    monkeypatch.delenv(cli.SEED_ENV, raising=False)
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert cli.dispatch(command.split()) == status
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest

"""Command-line entry point.

One subcommand per module.  Each subcommand declares its valued parameters
once, in a table of `Param`s (see `_COMMANDS`): the key, the cast from text and
the default.  The key is the name the output header records, the key of
`--config` files and `--batch` lines, and, with '--' in front and '-' for
'_', the flag (`lambda`, `--lambda`; `burn_in`, `--burn-in`).  Every key
resolves by one precedence: a `--batch` line (`balance verify` only), the
flag, the GIGKDV_SEED environment variable (seed only), a `--config` file of
flat key=value lines, the default.  Every value given is cast and checked,
also one that a source of higher precedence overrides; a key that names
no parameter of the subcommand is an error, and so is a key that the run
does not read (`r` for the fdk variant of `balance verify`).  The output
header records the resolved values.  Outputs carry no timestamps, so
identical (binary, config, seed) runs are byte-identical.

Exit status: 0 on success/pass, 1 when a verification battery fails,
2 on usage or domain errors and on sizes too large to hold.  When the
reader of standard output goes away (`gigkdv lattice run ... | head`), the
run stops quietly with status 141, the status of a process ended by SIGPIPE.
"""

import argparse
import itertools
import json
import math
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, balance, dist, lattice, maps, matrix, specfun
from .errors import DomainError, IllConditionedError, NotSpdError

SEED_ENV = "GIGKDV_SEED"
_REQUIRED = object()  # the default of a parameter that has none


class ConfigError(Exception):
    pass


class Param(NamedTuple):
    key: str
    cast: Callable  # text -> value; raises ValueError on bad text
    default: object = _REQUIRED
    help: str | None = None


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _seed(text: str) -> int:
    seed = int(text)
    if not 0 <= seed < 2**64:
        raise ValueError(f"must lie in [0, 2**64), got {seed}")
    return seed


def _positive(text: str) -> float:
    value = float(text)
    if not value > 0.0:
        raise ValueError(f"must be > 0, got {value}")
    return value


# no address space holds more than 2**59 float64 values (4 EiB), so a larger
# size is rejected as it is parsed: past 2**60 values numpy cannot index an
# array at all, and raises ValueError where it would raise MemoryError
_MAX_SIZE = 2**59


def _size(text: str) -> int:
    """A count of values; one below 1 is left to the command to reject."""
    n = int(text)
    if n > _MAX_SIZE:
        raise ValueError(f"must be <= 2**59, as no address space holds more "
                         f"float64 values, got {n}")
    return n


def _dimension(text: str) -> int:
    r = int(text)
    if r < 1:
        raise ValueError(f"must be >= 1, got {r}")
    if r > math.isqrt(_MAX_SIZE):
        raise ValueError(f"must be <= {math.isqrt(_MAX_SIZE)}, as no address space "
                         f"holds a larger r x r matrix, got {r}")
    return r


def _probes(text: str) -> str:
    """Comma-separated integers, written as the header records them."""
    return ",".join(str(int(v)) for v in text.split(","))


def _entries(text: str) -> tuple:
    """Row-major matrix entries, separated by ',' or ';'."""
    return tuple(float(v) for v in text.replace(";", ",").split(",") if v.strip())


def _cast(table, values: dict, where: Callable) -> dict:
    """`values` ({key: text}) cast by the parameters of `table`; `where(key)`
    names the source of a value in error messages."""
    by_key = {prm.key: prm for prm in table}
    out = {}
    for key, text in values.items():
        if key not in by_key:
            raise ConfigError(f"{where(key)}: unknown key; the keys here are "
                              f"{', '.join(sorted(by_key))}")
        try:
            out[key] = by_key[key].cast(text)
        except ValueError as exc:
            raise ConfigError(f"{where(key)}: {exc}") from None
    return out


def _lines(path):
    """(line number, text) of each line of `path` that holds more than a
    '#' comment, with the comment and the outer whitespace removed."""
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                yield lineno, line


def load_config(path: str) -> dict:
    """Flat key=value file; '#' starts a comment.  Returns raw strings."""
    out = {}
    for lineno, line in _lines(path):
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}:1: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"{path}:{lineno}:1: empty key or value")
        out[key] = value
    return out


def resolve(args):
    """(params, given): every parameter of the subcommand's table, from its
    flag, GIGKDV_SEED (seed only), the `--config` file or its default, in
    that order of precedence; and the source of each given one, as error
    messages name it."""
    table = args.table
    params = {prm.key: prm.default for prm in table}
    given = {}

    def take(values, where):
        params.update(_cast(table, values, where))
        given.update((key, where(key)) for key in values)

    if args.config:
        take(load_config(args.config), lambda key: f"{args.config}: {key}")
    if SEED_ENV in os.environ:
        take({"seed": os.environ[SEED_ENV]}, lambda key: SEED_ENV)
    take({prm.key: text for prm in table if (text := getattr(args, prm.key)) is not None},
         _flag)
    missing = [_flag(key) for key, value in params.items() if value is _REQUIRED]
    if missing:
        args.parser.error(f"the following arguments are required: {', '.join(missing)}")
    return params, given


def _unread(given: dict, keys, reader: str) -> None:
    """Reject a run that is given one of `keys`, which `reader` does not read."""
    for key in keys:
        if key in given:
            raise ConfigError(f"{given[key]}: not read by {reader}")


def _fmt(v) -> str:
    if isinstance(v, (np.floating, np.integer, np.bool_)):
        v = v.item()
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (list, tuple, np.ndarray)):
        return "[" + ";".join(_fmt(float(x)) for x in np.asarray(v).ravel()) + "]"
    return str(v)


def _header(cmd: str, seed, params: dict) -> str:
    fields = " ".join(f"{k}={_fmt(v)}" for k, v in sorted(params.items()))
    return f"# gigkdv v{__version__} cmd={cmd} seed={seed} {fields}".rstrip()


def write_csv(out, cmd, seed, params, columns, rows) -> None:
    out.write(_header(cmd, seed, params) + "\n")
    out.write(",".join(columns) + "\n")
    for row in rows:
        out.write(",".join(_fmt(v) for v in row) + "\n")


def write_json(out, cmd, seed, params, payload) -> None:
    doc = {"schema": "gigkdv-report-v1", "version": __version__,
           "command": cmd, "seed": seed, "params": params, "report": payload}
    json.dump(doc, out, indent=2, sort_keys=True, default=_json_default)
    out.write("\n")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _square(entries, r: int, key: str) -> np.ndarray:
    """Row-major `entries` as an r x r matrix; None gives the identity."""
    if entries is None:
        return np.eye(r)
    if len(entries) != r * r:
        raise DomainError(f"{key} needs {r * r} row-major entries, got {len(entries)}")
    return np.asarray(entries).reshape(r, r)


# ---------------------------------------------------------------------------
# subcommand implementations: each takes the resolved seed, the other
# resolved parameters (the header's, unless it says otherwise), the parsed
# flags, with the source of each given parameter in `args.given`, and the
# output stream
# ---------------------------------------------------------------------------

def _battery(rows_of, columns=("test", "statistic", "threshold", "pass")):
    """The handler of a battery command: one CSV row per check, from
    `rows_of(seed, params)`, each ending in its pass flag; exit 1 unless
    every row passes."""
    def run(seed, params, args, out):
        rows = rows_of(seed, params)
        write_csv(out, f"{args.module}-{args.action}", seed, params, columns, rows)
        return 0 if all(row[-1] for row in rows) else 1
    return run


# each law's sign of the GIG order and the rates it reads; an unread rate is
# 0: gamma is GIG(lambda, a, 0) and invgamma is GIG(-lambda, 0, b)
_LAWS = {"gig": (1.0, ("a", "b")), "gamma": (1.0, ("a",)), "invgamma": (-1.0, ("b",))}


def _cmd_dist_sample(seed, params, args, out):
    if params["law"] not in _LAWS:
        raise DomainError(f"unknown law {params['law']!r}")
    sign, rates = _LAWS[params["law"]]
    if params["law"] != "gig" and not params["lambda"] > 0.0:
        raise DomainError(f"the {params['law']} law needs lambda > 0, got {params['lambda']}")
    unread = [key for key in ("a", "b") if key not in rates]
    _unread(args.given, unread, f"the {params['law']} law")
    for key in unread:  # the header records only the keys the law reads
        del params[key]
    law = dist.GigParams(sign * params["lambda"], params.get("a", 0.0), params.get("b", 0.0))
    values = dist.sample(law, seed, params["n"])
    write_csv(out, "dist-sample", seed, params, ("value",),
              ((v,) for v in values))
    return 0


def _cmd_map_eval(seed, params, args, out):
    fn = maps.psi if args.psi else maps.f_dk
    u, v = fn(maps.MapParams(params["alpha"], params["beta"]), (params["x"], params["y"]))
    out.write(_header("map-eval", seed, {**params, "psi": args.psi}) + "\n")
    out.write(f"{u!r},{v!r}\n")
    return 0


def _cmd_matrix_sample(seed, params, args, out):
    r = params["r"]
    a, b = _square(params["a"], r, "a"), _square(params["b"], r, "b")
    law = matrix.MgigParams(params["p"], a, b)
    cfg = matrix.McmcConfig(burn_in=params["burn_in"], thin=params["thin"])
    run = matrix.mgig_sample(law, seed, params["n"], mcmc=cfg)
    params.update(a=a, b=b, acceptance_rate=run.acceptance_rate, mcmc_ok=run.ok)
    write_csv(out, "matrix-sample", seed, params,
              tuple(f"m{i}{j}" for i in range(r) for j in range(r)),
              (tuple(m.ravel()) for m in run.draws))
    return 0 if run.ok else 1


def _balance_spec(params, given):
    """The spec of one `balance verify` run; a key that its variant does not
    read (r, a and b for fdk and psi, c1 and c2 for matrix) must not be given."""
    map_params = maps.MapParams(params["alpha"], params["beta"])
    if params["variant"] == "matrix":
        _unread(given, ("c1", "c2"), "the matrix variant")
        r = params["r"]
        return balance.BalanceSpec(map_params, params["lambda"], variant="matrix",
                                   a=_square(params["a"], r, "a"),
                                   b=_square(params["b"], r, "b"))
    spec = balance.BalanceSpec(map_params, params["lambda"], params["c1"],
                               params["c2"], params["variant"])
    _unread(given, ("r", "a", "b"), f"the {spec.variant} variant")
    return spec


def _parse_batch(path, table, params, given):
    """(params, given) of one run per nonempty line of `path`, a line's
    key=value tokens overriding `params`, whose sources are `given`."""
    runs = []
    for lineno, line in _lines(path):
        entry = {}
        for token in line.split():
            if "=" not in token:
                raise ConfigError(f"{path}:{lineno}: expected key=value tokens")
            key, _, value = token.partition("=")
            entry[key] = value
        where = f"{path}:{lineno}: "
        runs.append(({**params, **_cast(table, entry, lambda key: where + key)},
                     {**given, **{key: where + key for key in entry}}))
    return runs


def _cmd_balance_verify(seed, params, args, out):
    if args.batch:
        # every line is checked before the first verdict runs
        runs = [(_balance_spec(run, given), run["seed"], run["n"]) for run, given in
                _parse_batch(args.batch, args.table, {**params, "seed": seed}, args.given)]
        reports = [balance.monte_carlo_balance(*run) for run in runs]
        write_json(out, "balance-verify-batch", seed,
                   {"batch": args.batch, "count": len(reports)},
                   {"reports": [rep.to_dict() for rep in reports]})
        return 0 if all(rep.passed for rep in reports) else 1
    spec = _balance_spec(params, args.given)
    report = balance.monte_carlo_balance(spec, seed, params["n"])
    # the spec's a and b, symmetrized, stand for the given ones
    write_json(out, "balance-verify", seed,
               {"variant": spec.variant, "n": params["n"], **balance.spec_params(spec)},
               report.to_dict())
    return 0 if report.passed else 1


def _machinery_rows(seed, params):
    params["variant"] = "psi"  # the header records it
    spec = balance.BalanceSpec(maps.MapParams(params["alpha"], params["beta"]),
                               params["lambda"], params["c1"], params["c2"], "psi")
    return balance.machinery_check(spec, params["s"], params["sigma"], params["theta"],
                                   seed, params["n"]).rows()


def _lattice_config(seed, params, args):
    """The lattice of `params`, whose c2 it fills in."""
    if params["c2"] is None:
        params["c2"] = params["c"]
    boundary = lattice.load_boundary(args.replay) if args.replay else None
    return lattice.stationary_config(
        maps.MapParams(params["alpha"], params["beta"]), params["lambda"],
        params["c"], params["c2"], n_sites=params["n"], horizon=params["t"],
        seed=seed, boundary=boundary)


def _cmd_lattice_run(seed, params, args, out):
    cfg = _lattice_config(seed, params, args)
    frames = lattice.evolve(cfg)
    first = next(frames)  # the boundary draws, which may fail, before any output
    out.write(_header("lattice-run", seed, params) + "\n")
    out.write("t,n,x,y\n")
    for frame in itertools.chain([first], frames):
        for i in range(cfg.n_sites):
            out.write(f"{frame.t},{i + 1},"
                      f"{float(frame.x_row[i])!r},{float(frame.y_row[i])!r}\n")
    return 0


def _cmd_lattice_stationarity(seed, params, args, out):
    cfg = _lattice_config(seed, params, args)
    report = lattice.stationarity_report(cfg, params["probes"].split(","))
    write_json(out, "lattice-stationarity", seed, params, report.to_dict())
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# parameter tables and the argument tree
# ---------------------------------------------------------------------------

_SEED = Param("seed", _seed, 0)
_BATTERY_SEED = Param("seed", _seed, 20260809)
_BALANCE_SEED = Param("seed", _seed, 7)
_ALPHA = Param("alpha", float, 1.0)
_BETA = Param("beta", float, 2.0)
_LAMBDA = Param("lambda", float, 0.5)
_C1, _C2 = Param("c1", float, 1.0), Param("c2", float, 1.0)
_N = Param("n", _size, 1000)
_R = Param("r", _dimension, 2)
_A = Param("a", _entries, None, "row-major entries of a (comma separated); "
           "default the identity")
_B = Param("b", _entries, None, "row-major entries of b; default the identity")
_LATTICE = (_N, Param("t", _size, 20), _ALPHA, _BETA, _LAMBDA,
            Param("c", _positive, 1.0), Param("c2", _positive, None, "default c"), _SEED)
_REPLAY = (("--replay", {"help": "boundary file to replay"}),)
_CHAINS = "used where exact draws fall back to MCMC (the envelope accepts under 1 %)"

# (module, action, help, handler, parameter table, flag-only arguments)
_COMMANDS = (
    ("specfun", "check", "Bessel residual battery as CSV",
     _battery(lambda seed, params: specfun.check_table(),
              ("test", "nu", "z", "statistic", "threshold", "pass")),
     (_SEED,), ()),
    ("dist", "sample", "draw i.i.d. variates", _cmd_dist_sample,
     (Param("law", str, "gig", "gig, gamma or invgamma"), _LAMBDA,
      Param("a", float, 1.0), Param("b", float, 1.0), _N, _SEED), ()),
    ("dist", "check", "distribution invariant battery",
     _battery(lambda seed, params: dist.check_battery(seed)), (_BATTERY_SEED,), ()),
    ("map", "eval", "apply the cell map to one point", _cmd_map_eval,
     (*(Param(key, float) for key in ("alpha", "beta", "x", "y")), _SEED),
     (("--psi", {"action": "store_true", "help": "use the conjugated map"}),)),
    ("map", "check", "identity/Jacobian battery",
     _battery(lambda seed, params: maps.check_battery(seed)), (_BATTERY_SEED,), ()),
    ("matrix", "check", "involution/Jacobian battery at dimension r",
     _battery(lambda seed, params: matrix.prop51_battery(
         params["r"], params["alpha"], params["beta"], seed)),
     (_R, _ALPHA, _BETA, _SEED), ()),
    ("matrix", "sample", "MGIG draws (exact, else MCMC), one row-major matrix per line",
     _cmd_matrix_sample,
     (_R, Param("p", float, 1.5), _A, _B, _N,
      Param("burn_in", int, matrix.McmcConfig.burn_in,
            f"MCMC burn-in steps per chain, default {matrix.McmcConfig.burn_in}; {_CHAINS}"),
      Param("thin", int, matrix.McmcConfig.thin,
            f"MCMC steps per kept draw, default {matrix.McmcConfig.thin}; {_CHAINS}"), _SEED), ()),
    ("balance", "verify", "Monte-Carlo detailed-balance report (JSON)",
     _cmd_balance_verify,
     (Param("variant", str, "fdk", "fdk, psi or matrix"), _ALPHA, _BETA, _C1, _C2,
      _LAMBDA, Param("n", _size, 100_000), _R, _A, _B, _BALANCE_SEED),
     (("--batch", {"help": "file with one spec per line (key=value tokens)"}),)),
    ("balance", "machinery", "tilted-transform identity residuals (CSV)",
     _battery(_machinery_rows),
     (_ALPHA, _BETA, _C1, _C2, _LAMBDA, Param("s", float, 0.7),
      Param("sigma", float, -1.0), Param("theta", float, -0.5),
      Param("n", _size, 200_000), _BALANCE_SEED), ()),
    ("lattice", "run", "evolve the lattice; CSV rows t,n,x,y", _cmd_lattice_run,
     _LATTICE, _REPLAY),
    ("lattice", "stationarity", "KS stationarity report (JSON)",
     _cmd_lattice_stationarity,
     (*_LATTICE, Param("probes", _probes, "10,25,50", "comma-separated probe times")),
     _REPLAY),
)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="gigkdv", description=__doc__)
    ap.add_argument("--version", action="version", version=f"gigkdv {__version__}")
    top = ap.add_subparsers(dest="module", required=True)
    modules = {}
    for module, action, text, fn, table, flag_only in _COMMANDS:
        if module not in modules:
            modules[module] = top.add_parser(module).add_subparsers(
                dest="action", required=True)
        sp = modules[module].add_parser(action, help=text)
        for prm in table:
            sp.add_argument(_flag(prm.key), help=prm.help or (
                "required" if prm.default is _REQUIRED else f"default {prm.default}"))
        for flag, kwargs in flag_only:
            sp.add_argument(flag, **kwargs)
        sp.add_argument("--config", help="flat key=value parameter file")
        sp.add_argument("--out", default="-", help="output path, '-' for stdout")
        sp.set_defaults(fn=fn, table=table, parser=sp)
    return ap


def dispatch(argv=None) -> int:
    """Run one subcommand; returns the process exit status."""
    args = build_parser().parse_args(argv)
    try:
        params, args.given = resolve(args)
        seed = params.pop("seed")
        # like a shell redirection, --out is created before the work starts
        if args.out == "-":
            return args.fn(seed, params, args, sys.stdout)
        with open(args.out, "w") as out:
            return args.fn(seed, params, args, out)
    except BrokenPipeError:
        raise  # `main` ends quietly when the reader of stdout goes away
    except (DomainError, NotSpdError, IllConditionedError, ConfigError,
            OverflowError, MemoryError, OSError, UnicodeDecodeError) as exc:
        print(f"gigkdv: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        status = dispatch()
        sys.stdout.flush()
    except BrokenPipeError:
        # send the interpreter's final flush of stdout to /dev/null as well
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 128 + 13  # SIGPIPE
    sys.exit(status)


if __name__ == "__main__":
    main()

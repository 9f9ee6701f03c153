"""Command-line entry point.

One subcommand per module; every run resolves its parameters from (in
order of precedence) explicit flags, the GIGKDV_SEED environment variable
(seed only), a `--config` file of flat key=value lines, and built-in
defaults, and then records the resolved values in the output header.
Outputs carry no timestamps, so identical (binary, config, seed) runs are
byte-identical.

Exit status: 0 on success/pass, 1 when a verification battery fails,
2 on usage or domain errors.  When the reader of standard output goes away
(`gigkdv lattice run ... | head`), the run stops quietly with status 141,
the status of a process ended by SIGPIPE.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import __version__, balance, dist, lattice, maps, matrix, specfun
from .errors import DomainError, IllConditionedError, NotSpdError

SEED_ENV = "GIGKDV_SEED"


class ConfigError(Exception):
    pass


def load_config(path: str) -> dict:
    """Flat key=value file; '#' starts a comment.  Returns raw strings."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}:1: expected key=value, got {raw.rstrip()!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if not key or not value:
                raise ConfigError(f"{path}:{lineno}:1: empty key or value")
            out[key] = value
    return out


def _resolve(args, config: dict, name: str, cast, default):
    flag = getattr(args, name, None)
    if flag is not None:
        return flag
    if name in config:
        try:
            return cast(config[name])
        except ValueError as exc:
            raise ConfigError(f"config key {name!r}: {exc}") from None
    return default


def _resolve_r(args, config: dict) -> int:
    r = _resolve(args, config, "r", int, 2)
    if r < 1:
        raise DomainError(f"r must be >= 1, got {r}")
    return r


def _seed_value(value, source: str) -> int:
    """`value` as a seed, i.e. an integer in [0, 2**64)."""
    try:
        seed = int(value)
    except ValueError:
        raise ConfigError(f"{source} must be an integer, got {value!r}") from None
    if not 0 <= seed < 2**64:
        raise ConfigError(f"{source} must lie in [0, 2**64), got {seed}")
    return seed


def _resolve_seed(args, config: dict, default: int = 0) -> int:
    if getattr(args, "seed", None) is not None:
        return _seed_value(args.seed, "--seed")
    env = os.environ.get(SEED_ENV)
    if env is not None:
        return _seed_value(env, SEED_ENV)
    if "seed" in config:
        return _seed_value(config["seed"], "config key 'seed'")
    return default


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


def _battery_exit(rows) -> int:
    return 0 if all(bool(r[-1]) for r in rows) else 1


def _parse_matrix(text: str, r: int, what: str) -> np.ndarray:
    try:
        vals = [float(v) for v in text.replace(";", ",").split(",") if v.strip()]
    except ValueError:
        raise DomainError(f"{what} needs numbers, got {text!r}") from None
    if len(vals) != r * r:
        raise DomainError(f"{what} needs {r * r} row-major entries, got {len(vals)}")
    return np.asarray(vals).reshape(r, r)


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_specfun_check(args, config, out):
    rows = specfun.check_table()
    write_csv(out, "specfun-check", 0, {},
              ("test", "nu", "z", "statistic", "threshold", "pass"), rows)
    return _battery_exit(rows)


def _law_from_args(kind, lam, a, b):
    if kind == "gig":
        return dist.GigParams(lam, a, b)
    if kind == "gamma":
        return dist.GammaParams(lam, a)
    if kind == "invgamma":
        return dist.InvGammaParams(lam, b)
    raise DomainError(f"unknown law {kind!r}")


def _cmd_dist_sample(args, config, out):
    seed = _resolve_seed(args, config)
    lam = _resolve(args, config, "lam", float, 0.5)
    a = _resolve(args, config, "a", float, 1.0)
    b = _resolve(args, config, "b", float, 1.0)
    n = _resolve(args, config, "n", int, 1000)
    law = _law_from_args(args.law, lam, a, b)
    values = dist.sample(law, seed, n)
    params = {"law": args.law, "lambda": lam, "a": a, "b": b, "n": n}
    write_csv(out, "dist-sample", seed, params, ("value",),
              ((v,) for v in values))
    return 0


def _cmd_dist_check(args, config, out):
    seed = _resolve_seed(args, config, default=20260809)
    rows = dist.check_battery(seed)
    write_csv(out, "dist-check", seed, {},
              ("test", "statistic", "threshold", "pass"), rows)
    return _battery_exit(rows)


def _cmd_map_eval(args, config, out):
    p = maps.MapParams(args.alpha, args.beta)
    fn = maps.psi if args.psi else maps.f_dk
    u, v = fn(p, (args.x, args.y))
    params = {"alpha": args.alpha, "beta": args.beta, "x": args.x, "y": args.y,
              "psi": args.psi}
    out.write(_header("map-eval", 0, params) + "\n")
    out.write(f"{u!r},{v!r}\n")
    return 0


def _cmd_map_check(args, config, out):
    seed = _resolve_seed(args, config, default=20260809)
    rows = maps.check_battery(seed)
    write_csv(out, "map-check", seed, {},
              ("test", "statistic", "threshold", "pass"), rows)
    return _battery_exit(rows)


def _cmd_matrix_check(args, config, out):
    seed = _resolve_seed(args, config)
    r = _resolve_r(args, config)
    alpha = _resolve(args, config, "alpha", float, 1.0)
    beta = _resolve(args, config, "beta", float, 2.0)
    rows = matrix.prop51_battery(r, alpha, beta, seed)
    write_csv(out, "matrix-check", seed,
              {"r": r, "alpha": alpha, "beta": beta},
              ("test", "statistic", "threshold", "pass"), rows)
    return _battery_exit(rows)


def _cmd_matrix_sample(args, config, out):
    seed = _resolve_seed(args, config)
    r = _resolve_r(args, config)
    p = _resolve(args, config, "p", float, 1.5)
    n = _resolve(args, config, "n", int, 1000)
    burn_in = _resolve(args, config, "burn_in", int, 3000)
    thin = _resolve(args, config, "thin", int, 10)
    a = _parse_matrix(args.a, r, "--a") if args.a else np.eye(r)
    b = _parse_matrix(args.b, r, "--b") if args.b else np.eye(r)
    law = matrix.MgigParams(p, a, b)
    cfg = matrix.McmcConfig(burn_in=burn_in, thin=thin)
    run = matrix.mgig_sample(law, seed, n, mcmc=cfg)
    params = {"r": r, "p": p, "a": a, "b": b, "n": n,
              "burn_in": burn_in, "thin": thin,
              "acceptance_rate": run.acceptance_rate,
              "mcmc_ok": run.ok}
    write_csv(out, "matrix-sample", seed, params,
              tuple(f"m{i}{j}" for i in range(r) for j in range(r)),
              (tuple(m.ravel()) for m in run.draws))
    return 0 if run.ok else 1


def _balance_spec_from(args, config):
    alpha = _resolve(args, config, "alpha", float, 1.0)
    beta = _resolve(args, config, "beta", float, 2.0)
    lam = _resolve(args, config, "lam", float, 0.5)
    c1 = _resolve(args, config, "c1", float, 1.0)
    c2 = _resolve(args, config, "c2", float, 1.0)
    variant = getattr(args, "variant", "psi") or "psi"
    if variant == "matrix":
        r = _resolve_r(args, config)
        a = _parse_matrix(args.a, r, "--a") if getattr(args, "a", None) else np.eye(r)
        b = _parse_matrix(args.b, r, "--b") if getattr(args, "b", None) else np.eye(r)
        return balance.BalanceSpec(maps.MapParams(alpha, beta), lam=lam,
                                   variant="matrix", a=a, b=b)
    return balance.BalanceSpec(maps.MapParams(alpha, beta), lam=lam,
                               c1=c1, c2=c2, variant=variant)


def _parse_batch(path):
    # one spec per nonempty line, flat key=value tokens
    specs = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            entry = {}
            for token in line.split():
                if "=" not in token:
                    raise ConfigError(f"{path}:{lineno}: expected key=value tokens")
                key, _, value = token.partition("=")
                entry[key] = value
            specs.append(entry)
    return specs


def _cmd_balance_verify(args, config, out):
    seed = _resolve_seed(args, config, default=7)
    if args.batch:
        reports = []
        status = 0
        for entry in _parse_batch(args.batch):
            merged = dict(config)
            merged.update(entry)
            batch_args = argparse.Namespace(
                **{**vars(args),
                   "variant": entry.get("variant", args.variant),
                   "alpha": None, "beta": None, "c1": None, "c2": None,
                   "lam": None, "n": None, "r": None,
                   "a": entry.get("a"), "b": entry.get("b")})
            spec = _balance_spec_from(batch_args, merged)
            n = _resolve(batch_args, merged, "n", int, 100_000)
            entry_seed = (_seed_value(entry["seed"], "batch seed")
                          if "seed" in entry else seed)
            rep = balance.monte_carlo_balance(spec, entry_seed, n)
            reports.append(rep.to_dict())
            status = max(status, 0 if rep.passed else 1)
        write_json(out, "balance-verify-batch", seed,
                   {"batch": args.batch, "count": len(reports)},
                   {"reports": reports})
        return status
    n = _resolve(args, config, "n", int, 100_000)
    spec = _balance_spec_from(args, config)
    report = balance.monte_carlo_balance(spec, seed, n)
    write_json(out, "balance-verify", seed, spec_params(spec, n),
               report.to_dict())
    return 0 if report.passed else 1


def spec_params(spec, n):
    return {"variant": spec.variant, "n": n, **balance.spec_params(spec)}


def _cmd_balance_machinery(args, config, out):
    seed = _resolve_seed(args, config, default=7)
    n = _resolve(args, config, "n", int, 200_000)
    s = _resolve(args, config, "s", float, 0.7)
    sigma = _resolve(args, config, "sigma", float, -1.0)
    theta = _resolve(args, config, "theta", float, -0.5)
    spec = _balance_spec_from(args, config)
    if spec.variant != "psi":
        raise DomainError("balance machinery runs on the psi variant")
    res = balance.machinery_check(spec, s, sigma, theta, seed, n)
    params = spec_params(spec, n)
    params.update(s=s, sigma=sigma, theta=theta)
    write_csv(out, "balance-machinery", seed, params,
              ("test", "statistic", "threshold", "pass"), res.rows())
    return 0 if res.passed else 1


def _lattice_config_from(args, config, seed):
    n = _resolve(args, config, "n", int, 1000)
    t = _resolve(args, config, "t", int, 20)
    alpha = _resolve(args, config, "alpha", float, 1.0)
    beta = _resolve(args, config, "beta", float, 2.0)
    lam = _resolve(args, config, "lam", float, 0.5)
    c = _resolve(args, config, "c", float, 1.0)
    c2 = _resolve(args, config, "c2", float, c)
    boundary = lattice.Replay(args.replay) if args.replay else None
    cfg = lattice.stationary_config(maps.MapParams(alpha, beta), lam, c, c2,
                                    n_sites=n, horizon=t, seed=seed,
                                    boundary=boundary)
    params = {"n": n, "t": t, "alpha": alpha, "beta": beta, "lambda": lam,
              "c": c, "c2": c2}
    return cfg, params


def _cmd_lattice_run(args, config, out):
    seed = _resolve_seed(args, config)
    cfg, params = _lattice_config_from(args, config, seed)
    out.write(_header("lattice-run", seed, params) + "\n")
    out.write("t,n,x,y\n")
    for frame in lattice.evolve(cfg):
        for i in range(cfg.n_sites):
            out.write(f"{frame.t},{i + 1},"
                      f"{float(frame.x_row[i])!r},{float(frame.y_row[i])!r}\n")
    return 0


def _cmd_lattice_stationarity(args, config, out):
    seed = _resolve_seed(args, config)
    cfg, params = _lattice_config_from(args, config, seed)
    text = args.probes or "10,25,50"
    try:
        probes = [int(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(
            f"--probes must be comma-separated integers, got {text!r}") from None
    report = lattice.stationarity_report(cfg, probes)
    params["probes"] = ",".join(str(p) for p in probes)
    write_json(out, "lattice-stationarity", seed, params, report.to_dict())
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# argument tree
# ---------------------------------------------------------------------------

def _add_common(sp):
    sp.add_argument("--config", help="flat key=value parameter file")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--out", default="-", help="output path, '-' for stdout")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="gigkdv", description=__doc__)
    ap.add_argument("--version", action="version", version=f"gigkdv {__version__}")
    top = ap.add_subparsers(dest="module", required=True)

    g = top.add_parser("specfun").add_subparsers(dest="action", required=True)
    sp = g.add_parser("check", help="Bessel residual battery as CSV")
    _add_common(sp)
    sp.set_defaults(fn=_cmd_specfun_check)

    g = top.add_parser("dist").add_subparsers(dest="action", required=True)
    sp = g.add_parser("sample", help="draw i.i.d. variates")
    sp.add_argument("--law", choices=("gig", "gamma", "invgamma"), default="gig")
    sp.add_argument("--lambda", dest="lam", type=float)
    sp.add_argument("--a", type=float)
    sp.add_argument("--b", type=float)
    sp.add_argument("--n", type=int)
    _add_common(sp)
    sp.set_defaults(fn=_cmd_dist_sample)
    sp = g.add_parser("check", help="distribution invariant battery")
    _add_common(sp)
    sp.set_defaults(fn=_cmd_dist_check)

    g = top.add_parser("map").add_subparsers(dest="action", required=True)
    sp = g.add_parser("eval", help="apply the cell map to one point")
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--beta", type=float, required=True)
    sp.add_argument("--x", type=float, required=True)
    sp.add_argument("--y", type=float, required=True)
    sp.add_argument("--psi", action="store_true", help="use the conjugated map")
    _add_common(sp)
    sp.set_defaults(fn=_cmd_map_eval)
    sp = g.add_parser("check", help="identity/Jacobian battery")
    _add_common(sp)
    sp.set_defaults(fn=_cmd_map_check)

    g = top.add_parser("matrix").add_subparsers(dest="action", required=True)
    sp = g.add_parser("check", help="involution/Jacobian battery at dimension r")
    sp.add_argument("--r", type=int)
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--beta", type=float)
    _add_common(sp)
    sp.set_defaults(fn=_cmd_matrix_check)
    sp = g.add_parser("sample", help="MGIG MCMC draws, one row-major matrix per line")
    sp.add_argument("--r", type=int)
    sp.add_argument("--p", type=float)
    sp.add_argument("--a", help="row-major entries of a (comma separated)")
    sp.add_argument("--b", help="row-major entries of b")
    sp.add_argument("--n", type=int)
    sp.add_argument("--burn-in", dest="burn_in", type=int)
    sp.add_argument("--thin", type=int)
    _add_common(sp)
    sp.set_defaults(fn=_cmd_matrix_sample)

    g = top.add_parser("balance").add_subparsers(dest="action", required=True)
    sp = g.add_parser("verify", help="Monte-Carlo detailed-balance report (JSON)")
    sp.add_argument("--variant", choices=("fdk", "psi", "matrix"), default="fdk")
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--beta", type=float)
    sp.add_argument("--c1", type=float)
    sp.add_argument("--c2", type=float)
    sp.add_argument("--lambda", dest="lam", type=float)
    sp.add_argument("--n", type=int)
    sp.add_argument("--r", type=int)
    sp.add_argument("--a")
    sp.add_argument("--b")
    sp.add_argument("--batch", help="file with one spec per line (key=value tokens)")
    _add_common(sp)
    sp.set_defaults(fn=_cmd_balance_verify)
    sp = g.add_parser("machinery", help="tilted-transform identity residuals (CSV)")
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--beta", type=float)
    sp.add_argument("--c1", type=float)
    sp.add_argument("--c2", type=float)
    sp.add_argument("--lambda", dest="lam", type=float)
    sp.add_argument("--s", type=float)
    sp.add_argument("--sigma", type=float)
    sp.add_argument("--theta", type=float)
    sp.add_argument("--n", type=int)
    _add_common(sp)
    sp.set_defaults(fn=_cmd_balance_machinery, variant="psi")

    g = top.add_parser("lattice").add_subparsers(dest="action", required=True)
    sp = g.add_parser("run", help="evolve the lattice; CSV rows t,n,x,y")
    for flag, typ in (("--n", int), ("--t", int), ("--alpha", float),
                      ("--beta", float), ("--c", float), ("--c2", float)):
        sp.add_argument(flag, type=typ)
    sp.add_argument("--lambda", dest="lam", type=float)
    sp.add_argument("--replay", help="boundary file to replay")
    _add_common(sp)
    sp.set_defaults(fn=_cmd_lattice_run)
    sp = g.add_parser("stationarity", help="KS stationarity report (JSON)")
    for flag, typ in (("--n", int), ("--t", int), ("--alpha", float),
                      ("--beta", float), ("--c", float), ("--c2", float)):
        sp.add_argument(flag, type=typ)
    sp.add_argument("--lambda", dest="lam", type=float)
    sp.add_argument("--probes", help="comma-separated probe times")
    sp.add_argument("--replay")
    _add_common(sp)
    sp.set_defaults(fn=_cmd_lattice_stationarity)
    return ap


def dispatch(argv=None) -> int:
    """Run one subcommand; returns the process exit status."""
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        config = load_config(args.config) if args.config else {}
        # like a shell redirection, --out is created before the work starts
        if args.out == "-":
            return args.fn(args, config, sys.stdout)
        with open(args.out, "w") as out:
            return args.fn(args, config, out)
    except BrokenPipeError:
        raise  # `main` ends quietly when the reader of stdout goes away
    except (DomainError, NotSpdError, IllConditionedError, ConfigError,
            OverflowError, OSError, UnicodeDecodeError) as exc:
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

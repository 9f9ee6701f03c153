"""Span and counter recorder that wraps gigkdv's public functions from outside.

Each wrapped function gets a span name of the form ``<layer>.<what>``.  A span
records its call count, its total (inclusive) time and its self time: the
total minus the time of the spans nested inside it.  A call nested directly in
a span of the same name (``bessel_k`` calling ``bessel_k_log``, ``sample``
calling ``draw``) is merged into the outer span, so it is neither timed twice
nor counted twice.

Modules bind functions under their own names (``from .maps import f_dk`` in
``balance`` and ``lattice``), so `Tracer.install` replaces every binding of a
wrapped function across the given modules, matched by identity.  Patching only
``maps.f_dk`` would record no lattice cells at all.
"""

from collections import defaultdict
from time import perf_counter

import numpy as np


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


# ---------------------------------------------------------------------------
# counters, one function per wrapped function; each sees the call's
# arguments and result and adds to the tracer's counters
# ---------------------------------------------------------------------------

def _count_map_cells(c, args, kwargs, result):
    c["maps.map_cells"] += np.size(_arg(args, kwargs, 1, "xy")[0])


def _count_dcor(c, args, kwargs, result):
    c["balance.dcor_m"] = max(c["balance.dcor_m"], len(args[0]))
    c["balance.dcor_perms"] += _arg(args, kwargs, 2, "n_perm", 499)


def _count_cdf_points(c, args, kwargs, result):
    c["dist.cdf_points"] += np.size(result)


def _count_draws(c, args, kwargs, result):
    c["dist.draws"] += len(result)


def _count_frame(c, args, kwargs, frame):
    if frame.t > 0:
        c["lattice.cells"] += len(frame.x_row)


def _count_mcmc(matrix):
    def count(c, args, kwargs, run):
        n = _arg(args, kwargs, 2, "n")
        cfg = _arg(args, kwargs, 3, "mcmc") or matrix.McmcConfig()
        per_chain = -(-n // cfg.chains)
        c["matrix.mcmc_steps"] += (cfg.burn_in + per_chain * cfg.thin) * cfg.chains
        c["matrix.mcmc_accept_sum"] += run.acceptance_rate
        ess = min(run.ess.values()) / n
        c["matrix.mcmc_min_ess_per_draw"] = (
            ess if "matrix.mcmc_min_ess_per_draw" not in c
            else min(c["matrix.mcmc_min_ess_per_draw"], ess))
    return count


def _count_is(c, args, kwargs, result):
    params = args[0]
    if params.r > 1:
        c["matrix.is_draws"] += _arg(args, kwargs, 2, "n", 200_000)
    c["matrix.is_se_max"] = max(c["matrix.is_se_max"], result[1])


def targets(gigkdv, stats):
    """(namespace, attribute, span name, counter, is_generator) per wrapped
    function, for the gigkdv package and `scipy.stats`."""
    return [
        (gigkdv.cli, "write_json", "cli.write", None, False),
        (gigkdv.cli, "write_csv", "cli.write", None, False),
        (gigkdv.balance, "monte_carlo_balance", "balance.mc", None, False),
        (gigkdv.balance, "distance_correlation_test", "balance.dcor", _count_dcor, False),
        (gigkdv.balance, "transport_grid_max", "balance.transport", None, False),
        (gigkdv.dist, "cdf", "dist.cdf", _count_cdf_points, False),
        (gigkdv.dist, "sample", "dist.draw", _count_draws, False),
        (gigkdv.dist, "draw", "dist.draw", _count_draws, False),
        (stats, "kstest", "scipy.ks", None, False),
        (stats, "ks_2samp", "scipy.ks", None, False),
        (gigkdv.maps, "f_dk", "maps.map", _count_map_cells, False),
        (gigkdv.maps, "psi", "maps.map", _count_map_cells, False),
        (gigkdv.lattice, "evolve", "lattice.evolve", _count_frame, True),
        (gigkdv.matrix, "mgig_sample", "matrix.mcmc", _count_mcmc(gigkdv.matrix), False),
        (gigkdv.matrix, "mgig_log_norm", "matrix.is", _count_is, False),
        (gigkdv.matrix, "f_dk_matrix", "matrix.map", None, False),
        (gigkdv.specfun, "bessel_k_log", "specfun.bessel", None, False),
        (gigkdv.specfun, "bessel_k", "specfun.bessel", None, False),
        (gigkdv.specfun, "bessel_i_log", "specfun.bessel", None, False),
        (gigkdv.specfun, "bessel_i", "specfun.bessel", None, False),
    ]


class Tracer:
    def __init__(self):
        self.stack = []  # [span name, time spent in nested spans]
        self.spans = {}  # span name -> [calls, total seconds, self seconds]
        self.counters = defaultdict(int)
        self.bindings = {}  # "module.attr" -> number of bindings replaced

    def call(self, name, fn, args, kwargs):
        """Run fn inside span `name`; returns (result, recorded)."""
        stack = self.stack
        if stack and stack[-1][0] == name:
            return fn(*args, **kwargs), False
        frame = [name, 0.0]
        stack.append(frame)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            stack.pop()
            rec = self.spans.setdefault(name, [0, 0.0, 0.0])
            rec[0] += 1
            rec[1] += dt
            rec[2] += dt - frame[1]
            if stack:
                stack[-1][1] += dt
        return result, True

    def wrap(self, fn, name, count):
        def wrapper(*args, **kwargs):
            result, recorded = self.call(name, fn, args, kwargs)
            if count is not None and recorded:
                count(self.counters, args, kwargs, result)
            return result
        return wrapper

    def wrap_generator(self, fn, name, count):
        # one span per next(), so the consumer's work between items stays
        # outside the generator's self time
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    try:
                        item, _ = self.call(name, next, (inner,), {})
                    except StopIteration:
                        return
                    if count is not None:
                        count(self.counters, args, kwargs, item)
                    yield item
            finally:
                inner.close()
        return wrapper

    def install(self, modules, table):
        """Replace every binding in `modules` of each function in `table`."""
        for owner, attr, name, count, is_gen in table:
            original = getattr(owner, attr)
            wrapped = (self.wrap_generator if is_gen else self.wrap)(original, name, count)
            replaced = 0
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        replaced += 1
            self.bindings[f"{owner.__name__}.{attr}"] = replaced

    def summary(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters),
                "bindings": self.bindings}

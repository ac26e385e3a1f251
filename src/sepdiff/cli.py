"""Command-line front end: config-driven runs with deterministic CSV output.

Subcommands: exact, sweep, mc, diagnostics, arbitrate-sign. Every run reads
one YAML config file; the only flags are --config, --out, --seed and
--threads. CSV files are byte-identical for identical (config, seed)
regardless of thread count: floats are printed with 17 significant digits,
lines end with \\n, and timestamps live in a separate metadata file.

Exit codes: 0 success, 2 config/validation error, 3 numerical failure,
4 size-cap refusal.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys
import time

import numpy as np
import yaml

from . import __version__
from .diffusion import (
    DEFAULT_CORRECTION_SIGN,
    approximation_residual_diagnostic,
    choose_K,
    compute_D,
    compute_D_matrix,
    hminus1_convergence_diagnostic,
    multiscale_diagnostic,
    occupancy_difference_observable,
    occupancy_observable,
    sweep,
)
from .errors import (
    ConfigError,
    NotAProbabilityError,
    OriginMassError,
    OutOfRangeError,
    ReducibleError,
    SepdiffError,
    SizeCapError,
    TorusSizeError,
    WrongCountError,
)
from .generator import full_generator, symmetric_part
from .kernel import TorusGeometry, build_kernel
from .montecarlo import (
    RNG_STREAM,
    _arbitrate,
    estimate_diffusion,
    relaxation_gap,
)
from .sobolev import (
    resolvent_sweep,
    sector_constant,
    spectral_gap,
    verify_prop1,
)
from .statespace import StateSpace

_CONFIG_ERRORS = (ConfigError, NotAProbabilityError, OriginMassError,
                  ReducibleError, TorusSizeError, WrongCountError,
                  OutOfRangeError)


def _fmt(x):
    """17-significant-digit float formatting (round-trip exact)."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _number(value, kind, what, low=None, above=False):
    """``value`` as a finite number of type ``kind`` (int or float), at
    least ``low``, or above it when ``above``; a ConfigError otherwise.
    An int is not read from a float with a fractional part."""
    try:
        x = kind(value)
        ok = math.isfinite(x) and not (isinstance(value, float) and x != value)
    except (TypeError, ValueError, OverflowError):
        ok = False
    if ok and low is not None:
        ok = x > low if above else x >= low
    if not ok:
        bound = "" if low is None else f" {'>' if above else '>='} {low}"
        raise ConfigError(f"{what} must be a finite {kind.__name__}{bound}, "
                          f"got {value!r}")
    return x


def _numbers(value, kind, what, low=None, above=False):
    """A list of :func:`_number` values; a ConfigError if not a list."""
    if not isinstance(value, list):
        raise ConfigError(f"{what} must be a list, got {value!r}")
    return [_number(v, kind, what, low, above) for v in value]


def _section(raw, key, what, numbers=None, lists=None):
    """Copy of the mapping ``raw[key]`` ({} when absent or null) whose keys
    named in ``numbers`` or ``lists``, {name: (kind, low, above)}, are
    coerced by :func:`_number` or :func:`_numbers` where present."""
    block = raw.get(key)
    if block is None:
        return {}
    if not isinstance(block, dict):
        raise ConfigError(f"{what} must be a mapping, got {block!r}")
    block = dict(block)
    for coerce, spec in ((_number, numbers), (_numbers, lists)):
        for name, args in (spec or {}).items():
            if name in block:
                block[name] = coerce(block[name], args[0], f"{what}.{name}",
                                     *args[1:])
    return block


#: the diagnostics sections with options, and their numeric keys:
#: {name: (kind, low, above)} for numbers, then for lists of numbers
_DIAGNOSTIC_SECTIONS = {
    "prop1": ({"pairs": (int, 1), "seed": (int, 0)}, None),
    "resolvent": (None, {"lambdas": (float, 0.0)}),
    "multiscale": ({"l": (int,), "q": (int,), "n_max": (int,)}, None),
    "hminus1_sweep": (None, {"N_list": (int,)}),
    "approximation": ({"basis_scale": (int,)}, {"N_list": (int,)}),
}


class RunConfig:
    """Validated view of the YAML config plus the raw dict for echoing.

    Every value the commands read is coerced and range-checked here, so a
    malformed config raises ConfigError before any work starts.
    """

    def __init__(self, raw, seed_override=None, threads_override=None):
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a mapping")
        self.raw = raw
        kblock = raw.get("kernel")
        if not isinstance(kblock, dict):
            raise ConfigError("missing 'kernel' block")
        if "dimension" not in kblock or "entries" not in kblock:
            raise ConfigError("kernel block needs 'dimension' and 'entries'")
        if not isinstance(kblock["entries"], list):
            raise ConfigError(f"kernel entries must be a list, got "
                              f"{kblock['entries']!r}")
        entries = []
        for e in kblock["entries"]:
            if not isinstance(e, dict) or "z" not in e or "p" not in e:
                raise ConfigError(f"kernel entry {e!r} needs keys 'z' and 'p'")
            entries.append((e["z"], e["p"]))
        dimension = _number(kblock["dimension"], int, "kernel dimension", 1)
        try:
            self.kernel = build_kernel(dimension, entries)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            # z or p that does not parse as a displacement or probability
            raise ConfigError(f"kernel entries: {exc}") from None
        self.dimension = self.kernel.dimension

        self.N = raw.get("N")
        self.N_list = raw.get("N_list")
        if self.N is not None:
            self.N = _number(self.N, int, "N")
        if self.N_list is not None:
            self.N_list = _numbers(self.N_list, int, "N_list")

        if ("K" in raw) == ("alpha" in raw):
            raise ConfigError("give exactly one of 'K' and 'alpha'")
        self.K = _number(raw["K"], int, "K") if "K" in raw else None
        self.alpha = (_number(raw["alpha"], float, "alpha")
                      if "alpha" in raw else None)
        if self.alpha is not None and not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha = {self.alpha} outside [0, 1]")

        self.direction = raw.get("direction")
        if self.direction is not None:
            self.direction = _numbers(self.direction, float, "direction")
            if len(self.direction) != self.dimension:
                raise ConfigError(
                    f"direction has {len(self.direction)} components, "
                    f"kernel dimension is {self.dimension}"
                )
        # ignoring another value would hand back a convention the config
        # did not ask for
        if raw.get("sign", DEFAULT_CORRECTION_SIGN) != DEFAULT_CORRECTION_SIGN:
            raise ConfigError(f"sign is fixed at {DEFAULT_CORRECTION_SIGN:+d}, "
                              f"got {raw['sign']!r}")
        self.tolerance = _number(raw.get("tolerance", 1e-10), float,
                                 "tolerance", 0.0, above=True)
        self.method = raw.get("method", "auto")
        if self.method not in ("auto", "dense", "iterative"):
            raise ConfigError(f"unknown solver method {self.method!r}")
        self.threads = _number(
            raw.get("threads", 1) if threads_override is None
            else threads_override, int, "threads", 1)

        horizon = (float, 0.0, True)
        self.mc = _section(raw, "mc", "mc", {
            "T": horizon, "M": (int,), "seed": (int, 0)})
        # the run shape is fixed: each replica runs to 2T and records T on
        # the way, so any other value would ask for a run that cannot happen
        if self.mc.get("second_horizon", True) is not True:
            raise ConfigError(f"mc.second_horizon is fixed at true, got "
                              f"{self.mc['second_horizon']!r}")
        self.arbitrate = _section(raw, "arbitrate", "arbitrate", {
            "T": horizon, "M": (int,), "seed": (int, 0),
            "max_doublings": (int, 0)})
        self.sweep_opts = _section(raw, "sweep", "sweep",
                                   {"rtol": (float, 0.0)})
        self.diagnostics = _section(raw, "diagnostics", "diagnostics")
        for name, (numbers, lists) in _DIAGNOSTIC_SECTIONS.items():
            if name in self.diagnostics:
                self.diagnostics[name] = _section(
                    self.diagnostics, name, f"diagnostics.{name}", numbers,
                    lists)
        self.seed = self.mc.get("seed", 0)
        if seed_override is not None:
            self.seed = _number(seed_override, int, "--seed", 0)

    # -- derived objects ----------------------------------------------------

    def geometry(self, N=None):
        n = N if N is not None else self.N
        if n is None:
            raise ConfigError("this command needs 'N' in the config")
        geo = TorusGeometry(self.dimension, n)
        geo.require_kernel_fits(self.kernel)
        return geo

    def space(self, N=None):
        geo = self.geometry(N)
        K = self.K if self.K is not None else choose_K(self.alpha, geo)
        if not 1 <= K <= geo.n_sites:
            raise ConfigError(f"K = {K} outside [1, {geo.n_sites}]")
        return StateSpace(geo, K)

    def observable(self, space, block=None):
        obs = block if block is not None else self.diagnostics.get("observable")
        if not obs:
            raise ConfigError("diagnostics need an 'observable' block")
        if not isinstance(obs, dict):
            raise ConfigError(f"observable must be a mapping, got {obs!r}")
        typ = obs.get("type")

        def site(key):
            return tuple(_numbers(obs.get(key), int, f"observable {key}"))

        if typ == "occupancy":
            return occupancy_observable(space, site("site"))
        if typ == "difference":
            return occupancy_difference_observable(space, site("site"),
                                                   site("site2"))
        raise ConfigError(f"unknown observable type {typ!r}")

    def observable_recipe(self, block=None):
        return lambda space: self.observable(space, block).values

    def echo(self):
        return json.dumps(self.raw, sort_keys=True, separators=(",", ":"),
                          default=str)


def _header_lines(cfg, extra=None):
    lines = [
        f"# version: {__version__}",
        f"# seed: {cfg.seed}",
        f"# sign: {DEFAULT_CORRECTION_SIGN:+d}",
        f"# tolerance: {_fmt(cfg.tolerance)}",
    ]
    for k, v in (extra or {}).items():
        lines.append(f"# {k}: {v}")
    lines.append(f"# config: {cfg.echo()}")
    return lines


def _write_csv(path, cfg, columns, rows, extra=None):
    with open(path, "w", newline="") as fh:
        for line in _header_lines(cfg, extra):
            fh.write(line + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _write_report(path, lines):
    with open(path, "w", newline="") as fh:
        for line in lines:
            fh.write(line + "\n")


def _write_metadata(out_dir, command, t0, t1):
    path = os.path.join(out_dir, "run_metadata.txt")
    with open(path, "w", newline="") as fh:
        fh.write(f"command: {command}\n")
        fh.write(f"version: {__version__}\n")
        fh.write(f"started: {datetime.datetime.fromtimestamp(t0).isoformat()}\n")
        fh.write(f"finished: {datetime.datetime.fromtimestamp(t1).isoformat()}\n")
        fh.write(f"wall_seconds: {t1 - t0:.3f}\n")


def _direction_rows(report):
    rows = []
    for i, res in enumerate(report.directions):
        rows.append([
            str(report.N), str(report.K), _fmt(report.alpha), str(i),
            _fmt(res.free_term), _fmt(res.correction), _fmt(res.D),
            _fmt(res.residual), f"{DEFAULT_CORRECTION_SIGN:+d}",
        ])
    return rows


_CSV_COLUMNS = ["N", "K", "alpha", "a_index", "free_term", "correction",
                "D", "residual", "sign"]


def _report_lines_for(report):
    lines = [
        f"dimension: {report.dimension}",
        f"N: {report.N}",
        f"K: {report.K}",
        f"alpha: {_fmt(report.alpha)}",
        f"sign: {DEFAULT_CORRECTION_SIGN:+d}",
        f"solver_tolerance: {_fmt(report.solver_tolerance)}",
    ]
    for i, res in enumerate(report.directions):
        lines.append(f"direction {i}: a = {[_fmt(c) for c in res.a]}")
        lines.append(f"  free_term: {_fmt(res.free_term)}")
        lines.append(f"  correction: {_fmt(res.correction)}")
        lines.append(f"  D: {_fmt(res.D)}")
        lines.append(f"  D_plus_convention: {_fmt(res.D_plus)}")
        lines.append(f"  D_minus_convention: {_fmt(res.D_minus)}")
        lines.append(f"  residual: {_fmt(res.residual)}")
        lines.append(f"  iterations: {res.iterations}")
        lines.append(f"  method: {res.method}")
        lines.append(f"  states_solved: {res.rows} of {report.states} "
                     f"(|H| = {res.group_order})")
    if report.matrix is not None:
        lines.append("matrix_D:")
        for row in report.matrix:
            lines.append("  " + " ".join(_fmt(v) for v in row))
        lines.append(f"min_eigenvalue: {_fmt(report.min_eigenvalue)}")
    lines.append(f"wall_time_s: {report.wall_time_s:.6f}")
    return lines


def cmd_exact(cfg, out_dir):
    space = cfg.space()
    if cfg.direction is not None:
        report = compute_D(space, cfg.kernel, cfg.direction,
                           tol=cfg.tolerance, method=cfg.method)
    else:
        report = compute_D_matrix(space, cfg.kernel, tol=cfg.tolerance,
                                  method=cfg.method)
    _write_csv(os.path.join(out_dir, "exact.csv"), cfg, _CSV_COLUMNS,
               _direction_rows(report))
    _write_report(os.path.join(out_dir, "exact_report.txt"),
                  _report_lines_for(report) + [f"config: {cfg.echo()}"])
    return 0


def cmd_sweep(cfg, out_dir):
    if cfg.alpha is None:
        raise ConfigError("sweep runs at fixed density: give 'alpha', not 'K'")
    if not cfg.N_list:
        raise ConfigError("sweep needs 'N_list'")
    rtol = cfg.sweep_opts.get("rtol", 0.05)
    rep = sweep(cfg.kernel, cfg.alpha, cfg.N_list, rtol=rtol,
                tol=cfg.tolerance, method=cfg.method)
    rows = []
    for r in rep.reports:
        rows.extend(_direction_rows(r))
    _write_csv(os.path.join(out_dir, "sweep.csv"), cfg, _CSV_COLUMNS, rows,
               extra={"alpha_target": _fmt(cfg.alpha), "rtol": _fmt(rtol)})
    lines = [f"alpha_target: {_fmt(cfg.alpha)}", f"rtol: {_fmt(rtol)}",
             f"verdict: {rep.verdict}"]
    for n, d in zip(rep.N_list[1:], rep.diffs):
        lines.append(f"max_abs_diff_at_N={n}: {_fmt(d)}")
    for r in rep.reports:
        lines.append("")
        lines.extend(_report_lines_for(r))
    _write_report(os.path.join(out_dir, "sweep_report.txt"), lines)
    return 0


def cmd_mc(cfg, out_dir):
    space = cfg.space()
    mc = cfg.mc
    if "T" not in mc:
        raise ConfigError("mc block needs a horizon 'T'")
    T = mc["T"]
    M = mc.get("M", 10000)
    gap = relaxation_gap(space, cfg.kernel)
    est = estimate_diffusion(space, cfg.kernel, T, M, cfg.seed,
                             threads=cfg.threads, relax_gap=gap)
    d = space.geometry.dimension
    columns = ["replica", "T"] + [f"X_{i + 1}" for i in range(d)] + ["njumps"]
    rows = []
    for h in est.horizons:
        for r in range(est.M):
            rows.append([str(r), _fmt(h.T)]
                        + [str(int(x)) for x in h.X[r]]
                        + [str(int(h.njumps[r]))])
    for h in est.horizons:
        rows.append(["summary", _fmt(h.T)]
                    + [_fmt(v) for v in h.drift]
                    + [_fmt(float(h.njumps.mean()))])
    _write_csv(os.path.join(out_dir, "mc.csv"), cfg, columns, rows,
               extra={"M": str(est.M), "alpha": _fmt(space.alpha),
                      "rng_stream": str(RNG_STREAM)})
    lines = [
        f"M: {est.M}",
        f"seed: {est.seed}",
        f"alpha: {_fmt(est.alpha)}",
        f"expected_drift: {[_fmt(v) for v in est.expected_drift]}",
        f"relaxation_gap: {'unknown' if gap is None else _fmt(gap)}",
        f"t_relax_ok: {est.t_relax_ok}",
    ]
    for h in est.horizons:
        lines.append(f"horizon T = {_fmt(h.T)}:")
        lines.append(f"  drift: {[_fmt(v) for v in h.drift]}")
        lines.append(f"  drift_se: {[_fmt(v) for v in h.drift_se]}")
        for i in range(d):
            lines.append(f"  covariance[{i}]: "
                         f"{[_fmt(v) for v in h.covariance[i]]}")
        for i in range(d):
            lines.append(f"  covariance_se[{i}]: "
                         f"{[_fmt(v) for v in h.covariance_se[i]]}")
    _write_report(os.path.join(out_dir, "mc_report.txt"), lines)
    return 0


def cmd_diagnostics(cfg, out_dir):
    diag = cfg.diagnostics
    space = cfg.space()
    rows = []

    def add(section, name, value):
        rows.append([section, name, _fmt(value) if not isinstance(value, str)
                     else value])

    def along_N(section):
        """The section's block and its N_list, for a sweep at fixed density."""
        block = diag[section]
        n_list = block.get("N_list", [])
        if not n_list:
            raise ConfigError(f"{section} needs N_list")
        if cfg.alpha is None:
            raise ConfigError(f"{section} runs at fixed density: give "
                              "'alpha', not 'K'")
        return block, n_list

    op = None
    if space.size > 1:
        op = full_generator(space, cfg.kernel)

    if diag.get("spectral_gap") and op is not None:
        add("spectral_gap", "gap", spectral_gap(symmetric_part(op),
                                                method=cfg.method))
    if diag.get("sector_constant") and op is not None:
        add("sector_constant", "C", sector_constant(op, method=cfg.method))
    if "prop1" in diag and op is not None:
        block = diag["prop1"]
        rep = verify_prop1(op, n_pairs=block.get("pairs", 100),
                           seed=block.get("seed", 0))
        add("prop1", "pairs", rep.n_pairs)
        add("prop1", "max_duality_ratio", rep.max_duality_ratio)
        add("prop1", "max_equality_gap_i", rep.max_equality_gap_i)
        add("prop1", "max_cauchy_ratio", rep.max_cauchy_ratio)
        add("prop1", "min_bound_ratio_iii", rep.min_bound_ratio_iii)
        add("prop1", "max_equality_gap_iii", rep.max_equality_gap_iii)
    if "resolvent" in diag and op is not None:
        block = diag["resolvent"]
        lambdas = block.get("lambdas", [1.0, 0.1, 0.01])
        h = cfg.observable(space).values
        for entry in resolvent_sweep(op, h, lambdas, tol=cfg.tolerance):
            add("resolvent", f"u_h1@lam={_fmt(entry['lam'])}", entry["u_h1"])
            add("resolvent", f"dist_to_limit@lam={_fmt(entry['lam'])}",
                entry["dist_to_limit_h1"])
    if "multiscale" in diag:
        block = diag["multiscale"]
        v = cfg.observable(space)
        rep = multiscale_diagnostic(space, v, block.get("l", 1),
                                    block.get("q", 2), block.get("n_max", 2))
        for s, m2 in zip(rep.scales, rep.second_moments):
            add("multiscale", f"second_moment@l={s}", m2)
        for n, var in enumerate(rep.increment_variances, start=1):
            add("multiscale", f"increment_variance@n={n}", var)
        if rep.fitted_exponent is not None:
            add("multiscale", "fitted_exponent", rep.fitted_exponent)
    if "hminus1_sweep" in diag:
        block, n_list = along_N("hminus1_sweep")
        rep = hminus1_convergence_diagnostic(
            cfg.kernel, cfg.alpha, cfg.observable_recipe(), n_list,
            tol=cfg.tolerance,
        )
        for n, kk, v in zip(rep.N_list, rep.K_list, rep.values):
            add("hminus1_sweep", f"norm@N={n},K={kk}", v)
        for n, dv in zip(rep.N_list[1:], rep.diffs):
            add("hminus1_sweep", f"diff@N={n}", dv)
    if "approximation" in diag:
        block, n_list = along_N("approximation")
        rep = approximation_residual_diagnostic(
            cfg.kernel, cfg.alpha, cfg.observable_recipe(), n_list,
            basis_scale=block.get("basis_scale", 1), tol=cfg.tolerance,
        )
        for n, kk, v in zip(rep.N_list, rep.K_list, rep.values):
            add("approximation", f"residual@N={n},K={kk}", v)
    _write_csv(os.path.join(out_dir, "diagnostics.csv"), cfg,
               ["section", "name", "value"], rows)
    _write_report(os.path.join(out_dir, "diagnostics_report.txt"),
                  [f"{r[0]}.{r[1]}: {r[2]}" for r in rows])
    return 0


def cmd_arbitrate_sign(cfg, out_dir):
    space = cfg.space()
    arb = cfg.arbitrate
    directions = None
    if cfg.direction is not None:
        directions = [np.asarray(cfg.direction, dtype=float)]
    sign, exact = _arbitrate(
        space, cfg.kernel, directions, arb.get("T"), arb.get("M", 4000),
        arb.get("seed", cfg.seed), arb.get("max_doublings", 3),
        cfg.tolerance,
    )
    rows = [[f"{sign:+d}", _fmt(r.D_plus), _fmt(r.D_minus)] for r in exact]
    _write_csv(os.path.join(out_dir, "arbitrate.csv"), cfg,
               ["chosen_sign", "D_plus", "D_minus"], rows)
    _write_report(os.path.join(out_dir, "arbitrate_report.txt"),
                  [f"chosen_sign: {sign:+d}",
                   f"default_sign: {DEFAULT_CORRECTION_SIGN:+d}",
                   f"config: {cfg.echo()}"])
    return 0


_COMMANDS = {
    "exact": cmd_exact,
    "sweep": cmd_sweep,
    "mc": cmd_mc,
    "diagnostics": cmd_diagnostics,
    "arbitrate-sign": cmd_arbitrate_sign,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sepdiff",
        description="Tagged-particle self-diffusion in finite exclusion "
                    "processes: exact linear algebra and kinetic Monte Carlo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="YAML config file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--threads", type=int, default=None,
                       help="cap on internal parallelism (results identical)")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    t0 = time.time()
    try:
        try:
            with open(args.config) as fh:
                raw = yaml.safe_load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except yaml.YAMLError as exc:
            raise ConfigError(f"config is not valid YAML: {exc}") from exc
        cfg = RunConfig(raw, seed_override=args.seed,
                        threads_override=args.threads)
        os.makedirs(args.out, exist_ok=True)
        code = _COMMANDS[args.command](cfg, args.out)
        _write_metadata(args.out, args.command, t0, time.time())
        return code
    except _CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SizeCapError as exc:
        print(f"size cap: {exc}", file=sys.stderr)
        return 4
    except SepdiffError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

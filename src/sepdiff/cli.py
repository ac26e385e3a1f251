"""Command-line front end: config-driven runs with deterministic CSV output.

Subcommands: exact, sweep, mc, diagnostics, arbitrate-sign. Every run reads
one YAML config file, whose every key, at every level, is checked against
the one schema table ``_SCHEMA``: a key it does not list, or a value not of
its key's kind, is a config error. The only flags are --config, --out,
--seed and --threads, which is checked (>= 1) but changes nothing: Monte
Carlo runs on one thread. CSV files are byte-identical for identical
(config, seed): floats are printed with 17 significant digits,
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
    block_env_indices,
    compute_D,
    compute_D_matrix,
    hminus1_convergence_diagnostic,
    multiscale_diagnostic,
    multiscale_scales,
    occupancy_difference_observable,
    occupancy_observable,
    sweep,
    torus_space,
)
from .errors import (
    ConfigError,
    NotAProbabilityError,
    OriginMassError,
    OutOfRangeError,
    ReducibleError,
    SepdiffError,
    SizeCapError,
    SupportTooLargeError,
    TorusSizeError,
    WrongCountError,
)
from .generator import full_generator, symmetric_part
from .kernel import build_kernel
from .montecarlo import (
    RNG_STREAM,
    _arbitrate,
    check_arbitration_horizon,
    check_replica_run,
    estimate_diffusion,
    relaxation_gap,
)
from .sobolev import (
    resolvent_sweep,
    sector_constant,
    spectral_gap,
    verify_prop1,
)

_CONFIG_ERRORS = (ConfigError, NotAProbabilityError, OriginMassError,
                  ReducibleError, TorusSizeError, WrongCountError,
                  OutOfRangeError, SupportTooLargeError)


def _fmt(x):
    """17-significant-digit float formatting (round-trip exact)."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


#: the observable types, with the site keys each one reads
_OBSERVABLE_SITES = {"occupancy": ("site",), "difference": ("site", "site2")}
#: The config schema: each mapping of the config as {key: (kind, bound,
#: default)}. A kind is int or float (a finite number, which a boolean is
#: not), bool (a switch: true or false), a tuple (one of its values; a
#: single value fixes the key), None (a number or a rational string such
#: as "1/3", read by build_kernel), a dict (a mapping checked by that
#: table, where null is an empty mapping) or a one-item list (a list of
#: that kind). A bound ">= b" or "> b" holds for every number of the key.
#: An absent key, or a null one that is not a mapping, takes its default;
#: a default of ... makes the key required, and None leaves it out.
_SCHEMA = {
    "kernel": ({"dimension": (int, ">= 1", ...),
                "entries": ([{"z": ([int], None, ...),
                              "p": (None, None, ...)}], None, ...)},
               None, ...),
    "N": (int, None, None),
    "N_list": ([int], None, None),
    "K": (int, None, None),
    "alpha": (float, None, None),
    "direction": ([float], None, None),
    # another sign would hand back a convention the config did not ask for
    "sign": ((DEFAULT_CORRECTION_SIGN,), None, DEFAULT_CORRECTION_SIGN),
    "tolerance": (float, "> 0", 1e-10),
    "method": (("auto", "dense", "iterative"), None, "auto"),
    # checked, but Monte Carlo runs on one thread whatever its value
    "threads": (int, ">= 1", 1),
    "mc": ({"T": (float, None, None), "M": (int, None, 10000),
            "seed": (int, None, 0),
            # each replica runs to 2T and records T on the way, so any
            # other value would ask for a run that cannot happen
            "second_horizon": ((True,), None, True)}, None, {}),
    "arbitrate": ({"T": (float, None, None), "M": (int, None, 4000),
                   "seed": (int, None, None),  # default: the mc seed
                   "max_doublings": (int, ">= 0", 3)}, None, {}),
    "sweep": ({"rtol": (float, ">= 0", 0.05)}, None, {}),
    # each section present runs; the switches run theirs when true
    "diagnostics": ({
        "observable": ({"type": (tuple(_OBSERVABLE_SITES), None, None),
                        "site": ([int], None, None),
                        "site2": ([int], None, None)}, None, None),
        "spectral_gap": (bool, None, False),
        "sector_constant": (bool, None, False),
        "prop1": ({"pairs": (int, ">= 1", 100),
                   "seed": (int, ">= 0", 0)}, None, None),
        "resolvent": ({"lambdas": ([float], ">= 0", [1.0, 0.1, 0.01])},
                      None, None),
        "multiscale": ({"l": (int, None, 1), "q": (int, None, 2),
                        "n_max": (int, None, 2)}, None, None),
        "hminus1_sweep": ({"N_list": ([int], None, None)}, None, None),
        "approximation": ({"N_list": ([int], None, None),
                           "basis_scale": (int, None, 1)}, None, None),
    }, None, {}),
}
#: the diagnostics sections that run along N_list at fixed density
_ALONG_N = ("hminus1_sweep", "approximation")
#: the diagnostics sections that read the observable on the torus of N
_OBSERVED_AT_N = ("resolvent", "multiscale")


def _walk(value, kind, bound, where):
    """``value`` checked against the :data:`_SCHEMA` ``kind`` and ``bound``
    and coerced to it, with every mapping's defaults filled in; a
    ConfigError that names the key path ``where`` otherwise. An int is not
    read from a float with a fractional part."""
    name = where or "the config"
    if isinstance(kind, dict):
        value = {} if value is None else value
        if not isinstance(value, dict):
            raise ConfigError(f"{name} must be a mapping, got {value!r}")
        for key in value:
            if key not in kind:
                place = f"in {where}" if where else "at the top level"
                raise ConfigError(f"unknown key {key!r} {place}; allowed "
                                  f"there: {', '.join(kind)}")
        out = {}
        for key, (k, b, default) in kind.items():
            v = value.get(key)
            if v is None and (key not in value or not isinstance(k, dict)):
                if default is ...:
                    raise ConfigError(f"{name} needs {key!r}")
                if default is None:
                    continue
                v = default
            out[key] = _walk(v, k, b, f"{where}.{key}" if where else key)
        return out
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ConfigError(f"{name} must be a list, got {value!r}")
        return [_walk(v, kind[0], bound, f"{where}[{i}]")
                for i, v in enumerate(value)]
    if kind is bool:
        ok, need = isinstance(value, bool), "true or false"
    elif isinstance(kind, tuple):
        ok = any(value == c and isinstance(value, bool) == isinstance(c, bool)
                 for c in kind)
        need = " or ".join(map(repr, kind))
    elif kind is None:
        ok, need = not isinstance(value, bool), "a number or a rational string"
    else:
        try:
            x = kind(value)
            ok = (not isinstance(value, bool) and math.isfinite(x)
                  and not (isinstance(value, float) and x != value))
        except (TypeError, ValueError, OverflowError):
            ok = False
        if ok and bound:
            op, low = bound.split()
            ok = x > float(low) if op == ">" else x >= float(low)
        if ok:
            return x
        need = f"a finite {kind.__name__}" + (f" {bound}" if bound else "")
    if ok:
        return value
    raise ConfigError(f"{name} must be {need}, got {value!r}")


class RunConfig:
    """Validated view of the YAML config plus the raw dict for echoing.

    :func:`_walk` checks every key against :data:`_SCHEMA` and coerces
    every value here, the rules that tie keys together follow, and
    :meth:`require` builds the inputs of every torus a command runs on, so
    a malformed config raises one of the library's typed errors before any
    work starts.
    """

    def __init__(self, raw, seed_override=None, threads_override=None):
        self.raw = raw
        cfg = _walk(raw, _SCHEMA, None, "")
        kernel = cfg["kernel"]
        self.kernel = build_kernel(
            kernel["dimension"], [(e["z"], e["p"]) for e in kernel["entries"]])

        self.N, self.N_list, self.K, self.alpha, self.direction = (
            cfg.get(key) for key in ("N", "N_list", "K", "alpha", "direction"))
        if (self.K is None) == (self.alpha is None):
            raise ConfigError("give exactly one of 'K' and 'alpha'")
        d = self.kernel.dimension
        if self.direction is not None and len(self.direction) != d:
            raise ConfigError(f"direction has {len(self.direction)} "
                              f"components, kernel dimension is {d}")
        self.tolerance = cfg["tolerance"]
        self.method = cfg["method"]
        self.threads = cfg["threads"]
        if threads_override is not None:
            self.threads = _walk(threads_override, *_SCHEMA["threads"][:2],
                                 "--threads")

        self.mc = cfg["mc"]
        self.seed = self.mc["seed"]
        if seed_override is not None:
            self.seed = _walk(seed_override, int, None, "--seed")
        check_replica_run(self.mc.get("T"), self.mc["M"], self.seed)
        self.arbitrate = cfg["arbitrate"]
        self.arbitrate.setdefault("seed", self.seed)
        check_replica_run(self.arbitrate.get("T"), self.arbitrate["M"],
                          self.arbitrate["seed"])
        self.rtol = cfg["sweep"]["rtol"]
        self.diagnostics = cfg["diagnostics"]

    def require(self, command):
        """Refuse what the subcommand ``command`` needs and the config
        lacks, before its output directory is made or any work starts.

        Builds the geometry and state space of every torus the command runs
        on, and the observable sites and blocks read there, by the library
        calls the command makes; their typed errors are config errors. The
        size caps are read from the counts, before any site is listed or
        any state count formed. They hold on every torus whose states the
        command enumerates: all of them for ``mc``, whose transition table
        holds bitmasks even of a lone state, and those with more than one
        state otherwise (the exact route answers a one-state torus without
        them).
        """
        if command == "mc" and "T" not in self.mc:
            raise ConfigError("mc block needs a horizon 'T'")
        diag = self.diagnostics if command == "diagnostics" else {}
        if command == "sweep":
            along = {"sweep": self.N_list}
            spaces = []
        else:
            along = {name: diag[name].get("N_list") for name in _ALONG_N
                     if name in diag}
            # the torus of N, and the sections that read it
            spaces = [(self.space(), _OBSERVED_AT_N)]
            if "multiscale" in diag:
                block = diag["multiscale"]
                multiscale_scales(spaces[0][0].geometry, block["l"],
                                  block["q"], block["n_max"])
        for name, n_list in along.items():
            if not n_list:
                raise ConfigError(f"{name} needs 'N_list'")
            if self.alpha is None:
                raise ConfigError(f"{name} runs at fixed density: give "
                                  "'alpha', not 'K'")
            spaces += [(self.space(N), (name,)) for N in n_list]
        for space, _ in spaces:
            # more than one state, read without forming the count
            if 0 < space.k < space.M or command == "mc":
                space.require_tables()
        if command == "arbitrate-sign":
            check_arbitration_horizon(spaces[0][0], self.arbitrate.get("T"))
        for space, sections in spaces:
            if any(name in diag for name in sections):
                self._check_sites(space.geometry)
            if "approximation" in sections:
                block_env_indices(space.geometry,
                                  diag["approximation"]["basis_scale"])

    # -- derived objects ----------------------------------------------------

    def space(self, N=None):
        """The ``torus_space`` of N (default: the config's) and K or alpha."""
        N = self.N if N is None else N
        if N is None:
            raise ConfigError("this command needs 'N' in the config")
        return torus_space(self.kernel, N, self.K, self.alpha)

    def _check_sites(self, geo):
        """Refuse an observable site that is not an environment site of
        ``geo``, as the observable itself would."""
        for site in self._observable_sites()[1]:
            geo.env_index(site)

    def _observable_sites(self):
        """(type, sites) of the diagnostics observable block."""
        obs = self.diagnostics.get("observable")
        if not obs:
            raise ConfigError("diagnostics need an 'observable' block")
        if "type" not in obs:
            raise ConfigError("observable needs a 'type'")
        keys = _OBSERVABLE_SITES[obs["type"]]
        if sorted(obs) != sorted(("type",) + keys):
            raise ConfigError(f"the {obs['type']} observable takes the keys "
                              f"type, {', '.join(keys)}; got "
                              f"{', '.join(obs)}")
        return obs["type"], [tuple(obs[key]) for key in keys]

    def observable(self, space):
        typ, sites = self._observable_sites()
        if typ == "occupancy":
            return occupancy_observable(space, *sites)
        return occupancy_difference_observable(space, *sites)

    def echo(self):
        return json.dumps(self.raw, sort_keys=True, separators=(",", ":"),
                          default=str)


def _write_report(path, lines):
    with open(path, "w", newline="") as fh:
        for line in lines:
            fh.write(line + "\n")


def _write_csv(path, cfg, columns, rows, extra=None):
    """A CSV whose header lines record the version, seed, sign, tolerance,
    the entries of ``extra`` and the config."""
    _write_report(path, [
        f"# version: {__version__}",
        f"# seed: {cfg.seed}",
        f"# sign: {DEFAULT_CORRECTION_SIGN:+d}",
        f"# tolerance: {_fmt(cfg.tolerance)}",
        *(f"# {k}: {v}" for k, v in (extra or {}).items()),
        f"# config: {cfg.echo()}",
        ",".join(columns),
        *(",".join(row) for row in rows),
    ])


def _write_metadata(out_dir, command, t0, t1):
    stamp = datetime.datetime.fromtimestamp
    _write_report(os.path.join(out_dir, "run_metadata.txt"), [
        f"command: {command}",
        f"version: {__version__}",
        f"started: {stamp(t0).isoformat()}",
        f"finished: {stamp(t1).isoformat()}",
        f"wall_seconds: {t1 - t0:.3f}",
    ])


def _direction_rows(report):
    return [[str(report.N), str(report.K), _fmt(report.alpha), str(i),
             _fmt(res.free_term), _fmt(res.correction), _fmt(res.D),
             _fmt(res.residual), f"{DEFAULT_CORRECTION_SIGN:+d}"]
            for i, res in enumerate(report.directions)]


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
    rep = sweep(cfg.kernel, cfg.alpha, cfg.N_list, rtol=cfg.rtol,
                tol=cfg.tolerance, method=cfg.method)
    rows = [row for r in rep.reports for row in _direction_rows(r)]
    _write_csv(os.path.join(out_dir, "sweep.csv"), cfg, _CSV_COLUMNS, rows,
               extra={"alpha_target": _fmt(cfg.alpha), "rtol": _fmt(cfg.rtol)})
    lines = [f"alpha_target: {_fmt(cfg.alpha)}", f"rtol: {_fmt(cfg.rtol)}",
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
    gap = relaxation_gap(space, cfg.kernel)
    est = estimate_diffusion(space, cfg.kernel, cfg.mc["T"], cfg.mc["M"],
                             cfg.seed, threads=cfg.threads, relax_gap=gap)
    d = space.geometry.dimension
    columns = ["replica", "T"] + [f"X_{i + 1}" for i in range(d)] + ["njumps"]
    rows = []
    for h in est.horizons:
        horizon = _fmt(h.T)
        for r, (x, n) in enumerate(zip(h.X.tolist(), h.njumps.tolist())):
            rows.append([str(r), horizon] + [str(v) for v in x] + [str(n)])
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
        for name in ("covariance", "covariance_se"):
            lines.extend(f"  {name}[{i}]: "
                         f"{[_fmt(v) for v in getattr(h, name)[i]]}"
                         for i in range(d))
    _write_report(os.path.join(out_dir, "mc_report.txt"), lines)
    return 0


def cmd_diagnostics(cfg, out_dir):
    diag = cfg.diagnostics
    space = cfg.space()
    rows = []

    def add(section, name, value):
        rows.append([section, name, _fmt(value) if not isinstance(value, str)
                     else value])

    op = None
    # built only for the sections below that read it
    if space.size > 1 and (diag["spectral_gap"] or diag["sector_constant"]
                           or "prop1" in diag or "resolvent" in diag):
        op = full_generator(space, cfg.kernel)

    if diag["spectral_gap"] and op is not None:
        add("spectral_gap", "gap", spectral_gap(symmetric_part(op),
                                                method=cfg.method))
    if diag["sector_constant"] and op is not None:
        add("sector_constant", "C", sector_constant(op, method=cfg.method))
    if "prop1" in diag and op is not None:
        block = diag["prop1"]
        rep = verify_prop1(op, n_pairs=block["pairs"], seed=block["seed"])
        add("prop1", "pairs", rep.n_pairs)
        for name in ("max_duality_ratio", "max_equality_gap_i",
                     "max_cauchy_ratio", "min_bound_ratio_iii",
                     "max_equality_gap_iii"):
            add("prop1", name, getattr(rep, name))
    if "resolvent" in diag and op is not None:
        h = cfg.observable(space)
        for entry in resolvent_sweep(op, h, diag["resolvent"]["lambdas"],
                                     tol=cfg.tolerance):
            add("resolvent", f"u_h1@lam={_fmt(entry['lam'])}", entry["u_h1"])
            add("resolvent", f"dist_to_limit@lam={_fmt(entry['lam'])}",
                entry["dist_to_limit_h1"])
    if "multiscale" in diag:
        block = diag["multiscale"]
        v = cfg.observable(space)
        rep = multiscale_diagnostic(space, v, block["l"], block["q"],
                                    block["n_max"])
        for s, m2 in zip(rep.scales, rep.second_moments):
            add("multiscale", f"second_moment@l={s}", m2)
        for n, var in enumerate(rep.increment_variances, start=1):
            add("multiscale", f"increment_variance@n={n}", var)
        if rep.fitted_exponent is not None:
            add("multiscale", "fitted_exponent", rep.fitted_exponent)
    if "hminus1_sweep" in diag:
        rep = hminus1_convergence_diagnostic(
            cfg.kernel, cfg.alpha, cfg.observable,
            diag["hminus1_sweep"]["N_list"], tol=cfg.tolerance,
        )
        for n, kk, v in zip(rep.N_list, rep.K_list, rep.values):
            add("hminus1_sweep", f"norm@N={n},K={kk}", v)
        for n, dv in zip(rep.N_list[1:], rep.diffs):
            add("hminus1_sweep", f"diff@N={n}", dv)
    if "approximation" in diag:
        block = diag["approximation"]
        rep = approximation_residual_diagnostic(
            cfg.kernel, cfg.alpha, cfg.observable, block["N_list"],
            basis_scale=block["basis_scale"], tol=cfg.tolerance,
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
        space, cfg.kernel, directions, arb.get("T"), arb["M"], arb["seed"],
        arb["max_doublings"], cfg.tolerance,
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
                       help="accepted for compatibility (>= 1): Monte Carlo "
                            "runs on one thread, so output and speed are the "
                            "same for every value")
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
        cfg.require(args.command)
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

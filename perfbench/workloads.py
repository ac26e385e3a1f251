"""The four workloads: their CLI commands and the checks on every output.

Frozen reference values were computed at the commit that added this
benchmark, with the configs under ``configs/``. Every check returns an
error message, or None when the output is right.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

#: tolerance the configs give the solver
SOLVER_TOL = 1e-10
#: exact D against frozen values: the dense-versus-iterative acceptance bound
EXACT_RTOL = 1e-8
#: diagnostics against frozen values: 1e4 x the solver tolerance, an
#: allowance for the conditioning of the singular solves behind each value
DIAG_TOL = 1e4 * SOLVER_TOL
#: Monte Carlo against exact: standard errors of the extrapolated estimate
MC_Z = 5.0

EXACT_2D_D11 = 0.39636922430948529       # = D22; D12 = 0 by symmetry
MC_1D_D = 0.83245756956646777            # 1d mean-zero, N=6, K=6
XVAL_1D_D = 0.95035214393381806          # 1d mean-zero, N=10, K=8
DIAG_1D = {
    ("spectral_gap", "gap"): 0.18713414450577542,
    ("sector_constant", "C"): 0.45808332270264285,
    ("resolvent", "u_h1@lam=1"): 0.22119183087903233,
    ("resolvent", "dist_to_limit@lam=1"): 0.35531305047040029,
    ("resolvent", "u_h1@lam=0.10000000000000001"): 0.44067737056261985,
    ("resolvent", "dist_to_limit@lam=0.10000000000000001"): 0.11609812333034135,
    ("resolvent", "u_h1@lam=0.01"): 0.52530988734464756,
    ("resolvent", "dist_to_limit@lam=0.01"): 0.015540885870389744,
    ("multiscale", "second_moment@l=1"): 0.22222222222222185,
    ("multiscale", "second_moment@l=2"): 0.06349206349206353,
    ("multiscale", "second_moment@l=4"): 0.018140589569160984,
    ("multiscale", "increment_variance@n=1"): 0.15873015873015858,
    ("multiscale", "increment_variance@n=2"): 0.045351473922902515,
    ("multiscale", "fitted_exponent"): -1.8073549220576024,
    ("hminus1_sweep", "norm@N=5,K=4"): 0.63958603391926927,
    ("hminus1_sweep", "norm@N=6,K=5"): 0.69213431654051227,
    ("hminus1_sweep", "norm@N=7,K=6"): 0.73561987452483746,
    ("hminus1_sweep", "norm@N=8,K=6"): 0.7443072042492932,
    ("hminus1_sweep", "norm@N=9,K=7"): 0.78417606407840901,
    ("hminus1_sweep", "diff@N=6"): 0.052548282621243003,
    ("hminus1_sweep", "diff@N=7"): 0.043485557984325185,
    ("hminus1_sweep", "diff@N=8"): 0.008687329724455739,
    ("hminus1_sweep", "diff@N=9"): 0.03986885982911581,
    ("approximation", "residual@N=5,K=4"): 0.24483960928590581,
    ("approximation", "residual@N=6,K=5"): 0.30646080322852337,
    ("approximation", "residual@N=7,K=6"): 0.36070954503284053,
    ("approximation", "residual@N=8,K=6"): 0.3958332747904556,
}


# -- output parsing -------------------------------------------------------------

def read_csv(path):
    """(header dict from '# key: value' lines, column names, rows)."""
    header, rows, columns = {}, [], None
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, val = line[2:].partition(": ")
                header[key] = val
            elif columns is None:
                columns = line.split(",")
            else:
                rows.append(line.split(","))
    return header, columns, rows


def report_matrix(path):
    """The ``matrix_D:`` block of an exact report."""
    mat, inside = [], False
    with open(path) as fh:
        for line in fh:
            if line.startswith("matrix_D:"):
                inside = True
            elif inside and line.startswith("  "):
                mat.append([float(v) for v in line.split()])
            elif inside:
                break
    return np.array(mat)


def extrapolated_mc(path, a):
    """Bias-corrected (T, 2T) estimate of a^t D a and its standard error,
    recomputed from the per-replica rows of mc.csv, plus the seed and the
    replica count per horizon. The workloads' kernels have mean zero, so
    the displacement needs no drift correction."""
    header, _, rows = read_csv(path)
    d = len(a)
    by_T = {}
    for row in rows:
        if row[0] == "summary":
            continue
        by_T.setdefault(float(row[1]), []).append([int(x) for x in row[2:2 + d]])
    stats = []
    for T in sorted(by_T):
        x = np.array(by_T[T], dtype=float)
        s = (x / math.sqrt(T)) @ np.asarray(a, dtype=float)
        p = (s - s.mean()) ** 2
        stats.append((float(p.sum()) / (p.size - 1),
                      float(p.std(ddof=1)) / math.sqrt(p.size), p.size))
    if len(stats) != 2:
        raise ValueError(f"{path}: expected two horizons, found {len(stats)}")
    (v1, se1, m1), (v2, se2, m2) = stats
    return (2.0 * v2 - v1, math.hypot(2.0 * se2, se1), int(header["seed"]),
            (m1, m2))


# -- checks ---------------------------------------------------------------------

def check_exact(out, want_matrix):
    """D against frozen values to EXACT_RTOL, a symmetric matrix and
    every replayed residual within 2 x the solver tolerance."""
    got = report_matrix(os.path.join(out, "exact_report.txt"))
    want = np.asarray(want_matrix, dtype=float)
    if got.shape != want.shape:
        return f"D matrix shape {got.shape}, want {want.shape}"
    scale = float(np.max(np.abs(np.diag(want))))
    err = float(np.max(np.abs(got - want))) / scale
    if err > EXACT_RTOL:
        return f"D matrix off frozen values by {err:.3e} relative"
    if float(np.max(np.abs(got - got.T))) > EXACT_RTOL * scale:
        return "D matrix not symmetric"
    _, columns, rows = read_csv(os.path.join(out, "exact.csv"))
    ri = columns.index("residual")
    if not rows:
        return "exact.csv has no rows"
    worst = max(float(r[ri]) for r in rows)
    if worst > 2.0 * SOLVER_TOL:
        return f"replayed residual {worst:.3e} above 2 x tol"
    return None


def check_mc(out, exact_D, seed, M):
    """The extrapolated Monte Carlo value lies within MC_Z standard errors
    of the exact D, from the requested seed and replica count."""
    val, se, got_seed, counts = extrapolated_mc(os.path.join(out, "mc.csv"),
                                                [1.0])
    if got_seed != seed:
        return f"mc.csv records seed {got_seed}, asked {seed}"
    if counts != (M, M):
        return f"replicas per horizon {counts}, want {M}"
    if abs(val - exact_D) > MC_Z * se:
        return (f"MC {val:.5f} +- {se:.5f} is {abs(val - exact_D) / se:.1f} "
                f"SE from exact {exact_D:.5f}")
    return None


def check_2d(outs, seed):
    d11 = EXACT_2D_D11
    return [check_exact(outs[0], [[d11, 0.0], [0.0, d11]])]


def check_mc_1d(outs, seed):
    errs = [check_mc(o, MC_1D_D, seed, 4000) for o in outs]
    with open(os.path.join(outs[0], "mc.csv"), "rb") as f1, \
            open(os.path.join(outs[1], "mc.csv"), "rb") as f2:
        if f1.read() != f2.read():
            errs[1] = errs[1] or "mc.csv differs between 1 and 2 threads"
    return errs


def check_xval(outs, seed):
    err = check_exact(outs[0], [[XVAL_1D_D]])
    exact_D = float(report_matrix(os.path.join(outs[0], "exact_report.txt"))[0, 0]) \
        if err is None else XVAL_1D_D
    return [err, check_mc(outs[1], exact_D, seed, 2000)]


def check_diag(outs, seed):
    _, _, rows = read_csv(os.path.join(outs[0], "diagnostics.csv"))
    # names such as "norm@N=5,K=4" hold unquoted commas
    got = {(r[0], ",".join(r[1:-1])): float(r[-1]) for r in rows}
    if set(got) != set(DIAG_1D) or len(rows) != len(DIAG_1D):
        return [f"diagnostics rows {sorted(set(got) ^ set(DIAG_1D))} differ"]
    for key, want in DIAG_1D.items():
        if abs(got[key] - want) > DIAG_TOL * max(1.0, abs(want)):
            return [f"{key[0]}.{key[1]} = {got[key]!r}, frozen {want!r}"]
    return [None]


@dataclass(frozen=True)
class Workload:
    config: str               # file under configs/
    commands: tuple           # (subcommand, MC workers or None) per command
    check: object             # check(out_dirs, seed) -> error or None per command


# why each workload was chosen: README.md in this directory
WORKLOADS = {
    "exact-2d": Workload("exact-2d.yaml", (("exact", None),), check_2d),
    "mc-1d": Workload("mc-1d.yaml", (("mc", 1), ("mc", 2)), check_mc_1d),
    "xval-1d": Workload("xval-1d.yaml", (("exact", None), ("mc", 1)),
                        check_xval),
    "diag-1d": Workload("diag-1d.yaml", (("diagnostics", None),), check_diag),
}

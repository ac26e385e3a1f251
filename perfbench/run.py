"""Closed-loop benchmark of the sepdiff CLI, end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src``.
One client runs the workload's CLI commands one after another, each in a
fresh interpreter, for about S seconds, and checks every output. Times are
in seconds at a fixed reference core speed (``speed.py``): single-threaded
commands run pinned to one core, and a probe on each core a command may use
turns its wall time into reference seconds. The last
line of standard output is one JSON object with ``correct``, ``attempted``
(commands run), ``failed`` (commands that failed or whose output was
wrong) and ``metrics``: the end-to-end metrics with ``--trace 0``, and the
per-layer metrics of a traced run with ``--trace 1``. The seed is the
Monte Carlo master seed. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import yaml

import events
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: fresh-interpreter set-ups per run; setup_s is their median
SETUP_REPEATS = 5
#: a single CLI command is killed after this many seconds
COMMAND_TIMEOUT_S = 150
#: Monte Carlo workers of the parallel mc command, capped at nproc
MC_WORKERS = 2


def child_env(cpus):
    """The caller's environment with the checkout's src first on the path
    and BLAS/OpenMP threads capped at ``cpus``, the cores a command gets."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            cur = int(env.get(var, cpus))
        except ValueError:
            cur = cpus
        env[var] = str(max(1, min(cur, cpus)))
    return env


def environment(cpus, envs):
    """What the numbers were measured on."""
    import numpy
    import scipy

    def blas(show_config):
        dep = show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": cpus, "cpu": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config),
        "scipy_blas": blas(scipy.show_config),
        "blas_threads": [e["OPENBLAS_NUM_THREADS"] for e in envs],
        "omp_threads": [e["OMP_NUM_THREADS"] for e in envs],
        "mc_workers": min(MC_WORKERS, cpus), "commit": commit,
        "probe_ref_sample_s": speed.REF_SAMPLE_S,
    }


class Cores:
    """The cores a command runs on, and its environment. Single-threaded
    commands get one core, so the probe watches the core they run on."""

    def __init__(self):
        allowed = sorted(os.sched_getaffinity(0))
        self.n = len(allowed)
        # the last core: the first one usually takes more interrupts
        self.single = ({allowed[-1]}, child_env(1))
        self.workers = min(MC_WORKERS, self.n)
        self.parallel = (set(allowed[:self.workers]), child_env(self.workers))

    def envs(self):
        return [self.single[1], self.parallel[1]]


def timed(cmd, cores):
    """Run one child interpreter to completion on ``cores`` (a pair of
    core set and environment); (wall seconds, reference seconds, result)."""
    cpus, env = cores
    # a child inherits the cores of the thread that starts it
    os.sched_setaffinity(0, cpus)
    with speed.Probe(cpus) as probe:
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=COMMAND_TIMEOUT_S)
        wall = time.perf_counter() - t0
    return wall, wall * probe.factor(), proc


def setup_once(config, cores):
    """One fresh-interpreter set-up; (wall, reference) seconds."""
    wall, ref, proc = timed([sys.executable, str(HERE / "child.py"), "setup",
                             str(config)], cores.single)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-500:]}")
    return wall, ref


class Runner:
    """Runs operations of one workload: an operation is the workload's CLI
    commands in order, each followed by its output check."""

    def __init__(self, name, seed, work, cores):
        self.wl = workloads.WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.cores = cores
        self.config = HERE / "configs" / self.wl.config
        with open(self.config) as fh:
            self.raw = yaml.safe_load(fh)
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.n_ops = 0

    def threads(self, workers):
        return 1 if workers == 1 else self.cores.workers

    def mc_events(self):
        """Computed events of one ``sepdiff mc`` command of this config."""
        r = self.raw
        n_env = (2 * int(r["N"])) ** int(r["kernel"]["dimension"]) - 1
        return events.expected_events(int(r["K"]), n_env, float(r["mc"]["T"]),
                                      int(r["mc"]["M"]))

    def op(self, traced=False):
        """One operation; returns per-command (wall, reference) seconds,
        peak RSS and, when traced, the spans of each command."""
        self.n_ops += 1
        outs, walls, rss, traces, errs = [], [], 0, [], []
        for i, (kind, workers) in enumerate(self.wl.commands):
            out = self.work / f"op{self.n_ops}-cmd{i}"
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir(parents=True)
            argv = [kind, "--config", str(self.config), "--out", str(out)]
            if kind == "mc":
                argv += ["--seed", str(self.seed),
                         "--threads", str(self.threads(workers))]
            cmd = [sys.executable, str(HERE / "child.py"), "cli",
                   str(out / "status.json")]
            if traced:
                cmd += ["--trace", str(out / "spans.json"),
                        f"op{self.n_ops}-cmd{i}"]
            cores = (self.cores.single if self.threads(workers) == 1
                     else self.cores.parallel)
            wall, ref, proc = timed(cmd + ["--"] + argv, cores)
            outs.append(str(out))
            walls.append((wall, ref))
            if proc.returncode != 0:
                errs.append(f"{kind} exited {proc.returncode}: "
                            f"{proc.stderr.strip()[-300:]}")
                continue
            errs.append(None)
            with open(out / "status.json") as fh:
                rss = max(rss, json.load(fh)["maxrss_kb"])
            if traced:
                with open(out / "spans.json") as fh:
                    traces.append(json.load(fh))
        if not any(errs):
            try:
                errs = self.wl.check(outs, self.seed)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                errs = [f"output unreadable: {exc!r}"] * len(outs)
        else:
            errs = [e or "not checked: another command of the operation failed"
                    for e in errs]
        self.attempted += len(errs)
        self.failed += sum(1 for e in errs if e)
        self.errors += [e for e in errs if e]
        for out in outs:
            shutil.rmtree(out, ignore_errors=True)
        return walls, rss, traces


def closed_loop(step, seconds):
    """Repeat ``step`` while the next repetition, judged by the last one,
    still ends within ``seconds``; at least once."""
    results = []
    t0 = time.perf_counter()
    while True:
        t1 = time.perf_counter()
        results.append(step())
        now = time.perf_counter()
        if now - t0 + (now - t1) > seconds:
            return results


def op_seconds(walls, which):
    """An operation's wall (which=0) or reference (which=1) seconds."""
    return sum(w[which] for w in walls)


def end_to_end(runner, seconds, setup):
    ops = closed_loop(runner.op, seconds)
    op_refs = [op_seconds(w, 1) for w, _, _ in ops]
    op_walls = [op_seconds(w, 0) for w, _, _ in ops]
    metrics = {
        "setup_s": (statistics.median(r for _, r in setup), "s"),
        "op_s": (statistics.median(op_refs), "s"),
        "peak_rss_mb": (max(r for _, r, _ in ops) / 1024.0, "MB"),
    }
    # printed for reading, the gate uses the metrics above: the medians of
    # the raw wall times, and per-command figures in reference seconds
    commands = {
        "setup_wall_s": (statistics.median(w for w, _ in setup), "s"),
        "op_wall_s": (statistics.median(op_walls), "s"),
    }
    for i, (kind, workers) in enumerate(runner.wl.commands):
        ref = statistics.median(w[i][1] for w, _, _ in ops)
        if kind == "mc":
            name = "mc_events_per_s" + ("" if workers == 1 else "_2w")
            commands[name] = (runner.mc_events() / ref, "1/s")
        else:
            commands[{"exact": "exact_s", "diagnostics": "diag_s"}[kind]] = \
                (ref, "s")
    return metrics, commands, {"setup_walls": [w for w, _ in setup],
                               "setup_refs": [r for _, r in setup],
                               "op_walls": op_walls, "op_refs": op_refs,
                               "command_seconds": [w for w, _, _ in ops]}


def traced(runner, seconds):
    import tracing

    pairs = closed_loop(lambda: (runner.op(), runner.op(traced=True)),
                        seconds)
    plain = [op_seconds(p[0][0], 1) for p in pairs]
    with_trace = [op_seconds(p[1][0], 1) for p in pairs]
    # spans are in wall time, so the share they account for is too
    with_trace_wall = [op_seconds(p[1][0], 0) for p in pairs]
    commands = [c for p in pairs for c in p[1][2]]
    layer, absent, not_called = tracing.layer_metrics(commands, len(pairs))
    units = per_layer_units()
    metrics = {k: (v, units[k]) for k, v in layer.items()}
    self_sum = sum(layer[f"{ly}.self_s"] for ly in tracing.LAYERS)
    mean_traced = statistics.fmean(with_trace_wall)
    metrics["trace.overhead_share"] = (
        statistics.median(with_trace) / statistics.median(plain) - 1.0, "share")
    metrics["trace.accounted_share"] = (self_sum / mean_traced, "share")
    metrics["trace.spans"] = (
        sum(len(c["spans"]) for c in commands) / len(pairs), "count")
    extra = {"untraced_op_refs": plain, "traced_op_refs": with_trace,
             "traced_op_walls": with_trace_wall,
             "absent": absent, "not_called": not_called}
    return metrics, {}, extra


def per_layer_units():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "sepdiff" / "cli.py").is_file():
        print(f"no sepdiff sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    cores = Cores()
    work = HERE / "_out" / f"work-{os.getpid()}"
    runner = Runner(args.workload, args.seed, work, cores)
    try:
        # the first import in a fresh checkout compiles bytecode, and an
        # idle CPU runs the first second or so slower: neither is measured
        setup_once(runner.config, cores)
        setup = [setup_once(runner.config, cores)
                 for _ in range(SETUP_REPEATS)]
        if args.trace:
            metrics, commands, extra = traced(runner, args.seconds)
        else:
            metrics, commands, extra = end_to_end(runner, args.seconds, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info = environment(cores.n, cores.envs())
    print("env: " + json.dumps(info, sort_keys=True))
    for name, (value, unit) in {**metrics, **commands}.items():
        print(f"{name} = {value:.6g} {unit}")
    for key in ("absent", "not_called"):
        if key in extra:
            print(f"{key} (reported as 0): {', '.join(extra[key]) or '-'}")
    for err in runner.errors:
        print(f"check failed: {err}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, env=info,
                  commands={k: v for k, (v, _) in commands.items()},
                  errors=runner.errors, **extra)
    out_file = HERE / "_out" / (f"{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}.json")
    with open(out_file, "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

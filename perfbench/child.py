"""One fresh interpreter per measured step, so imports cost what a user pays.

    python3 child.py setup CONFIG
        import sepdiff, parse CONFIG as the CLI does (kernel validation
        included) and build its StateSpace.
    python3 child.py cli STATUS [--trace SPANS RUN_ID] -- ARGV...
        run ``sepdiff.cli.main(ARGV)`` like the ``sepdiff`` console script,
        then write the exit code and peak RSS to STATUS. With --trace the
        layer hooks are installed first and the spans go to SPANS.

The caller sets PYTHONPATH so that ``sepdiff`` is imported from the
checkout's ``src``.
"""

import json
import sys


def setup(config):
    import yaml
    from sepdiff.cli import RunConfig

    with open(config) as fh:
        RunConfig(yaml.safe_load(fh)).space()


def peak_rss_kb():
    """Peak resident set of this interpreter. VmHWM starts afresh at exec,
    where getrusage's ru_maxrss keeps the peak of the forking benchmark
    process."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def cli(status, argv):
    tracer = None
    if argv[0] == "--trace":
        import tracing

        spans_path, run_id, argv = argv[1], argv[2], argv[3:]
        tracer = tracing.Tracer(run_id)
        tracing.install(tracer)
    if argv[0] != "--":
        raise SystemExit(f"expected '--' before the sepdiff arguments: {argv}")
    from sepdiff.cli import main

    code = main(argv[1:])
    if tracer is not None:
        tracer.dump(spans_path)
    with open(status, "w") as fh:
        json.dump({"exit_code": code, "maxrss_kb": peak_rss_kb()}, fh)
    return code


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2])
        sys.exit(0)
    sys.exit(cli(sys.argv[2], sys.argv[3:]))

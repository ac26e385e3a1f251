"""Self-test of the benchmark's own helpers.

    python3 perfbench/selftest.py

Checks the computed Monte Carlo event count against the transition table,
the hook installer (re-exported names, absent targets, span parents) and
the self-time arithmetic. Exits non-zero on the first failure.
"""

import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import events  # noqa: E402
import tracing  # noqa: E402


def check(cond, what):
    if not cond:
        raise SystemExit(f"FAIL: {what}")
    print(f"ok: {what}")


def test_event_rate():
    from sepdiff import StateSpace, TorusGeometry, TransitionTable, build_kernel

    kernel = build_kernel(1, [((2,), "1/3"), ((-1,), "2/3")])
    for N, K, want in ((6, 6, 3.2727), (10, 8, 5.0526), (8, 7, 4.2)):
        space = StateSpace(TorusGeometry(1, N), K)
        table_mean = float(np.mean(TransitionTable(space, kernel).total))
        rate = events.mean_total_rate(K, space.M)
        check(abs(rate - table_mean) <= 1e-12 * rate
              and abs(rate - want) < 1e-4,
              f"mean total rate N={N} K={K}: formula {rate:.6f}, "
              f"table {table_mean:.6f}")
    check(math.isclose(events.expected_events(6, 11, 50.0, 4000),
                       4000 * 150.0 * 36 / 11),
          "events over the horizons T and 2T")


def test_hooks():
    import sepdiff
    import sepdiff.cli
    import sepdiff.diffusion
    import sepdiff.sobolev

    originals = {
        "sobolev.solve_general": sepdiff.sobolev.solve_general,
        "cli.compute_D_matrix": sepdiff.cli.compute_D_matrix,
        "package.compute_D": sepdiff.compute_D,
    }
    table = tracing.targets() + [
        ("sepdiff.sobolev", "no_such_solver", "sobolev.no_such_solver", None),
        ("sepdiff.no_such_module", "f", "gone.f", None),
        ("sepdiff.generator", "NoSuchClass.matvec", "generator.gone", None),
    ]
    tracer = tracing.Tracer("selftest")
    absent = tracing.install(tracer, table)
    check(absent == ["sobolev.no_such_solver", "gone.f", "generator.gone"],
          f"absent targets reported, not raised: {absent}")
    check(sepdiff.diffusion.solve_general is sepdiff.sobolev.solve_general
          and sepdiff.sobolev.solve_general
          is not originals["sobolev.solve_general"],
          "re-exported solve_general in diffusion is wrapped too")
    check(sepdiff.cli.compute_D_matrix is not originals["cli.compute_D_matrix"]
          and sepdiff.compute_D is not originals["package.compute_D"],
          "cli and package bindings are wrapped")

    space = sepdiff.StateSpace(sepdiff.TorusGeometry(1, 3), 3)
    kernel = sepdiff.build_kernel(1, [((2,), "1/3"), ((-1,), "2/3")])
    sepdiff.compute_D(space, kernel, [1.0])
    by_id = {s[0]: s for s in tracer.spans}
    solve = [s for s in tracer.spans if s[2] == "sobolev.solve_general"]
    check(len(solve) == 1, "one solve span per direction")
    chain, p = [], solve[0][1]
    while p is not None:
        chain.append(by_id[p][2])
        p = by_id[p][1]
    check(chain == ["diffusion.compute_D"],
          f"solve span's parent chain {chain}")
    check(all(s[6] == "selftest" for s in tracer.spans), "spans carry run id")
    metrics, absent_m, _ = tracing.layer_metrics(
        [{"spans": tracer.spans, "absent": tracer.absent}], 1)
    check(metrics["sobolev.solves"] == 1 and metrics["diffusion.directions"] == 1
          and metrics["statespace.states"] == space.size,
          "layer counts from spans")
    check(absent_m == [], "no metric absent when only extra targets are gone")

    def fails():
        raise ValueError("boom")

    try:
        tracer.wrap("x.fails", fails, None)()
    except ValueError:
        pass
    else:
        check(False, "a traced call re-raises")
    check(tracer.spans[-1][2] == "x.fails" and tracer.spans[-1][7] == {"raised": 1},
          "a call that raised is re-raised and recorded")


def test_self_times():
    # parent [0, 10] with children [1, 4] and [3, 6] overlapping (two
    # threads), and [8, 9]; grandchild [1, 2] inside the first child
    spans = [
        [1, None, "a.p", 0.0, 10.0, 0, "r", {}],
        [2, 1, "a.c", 1.0, 4.0, 0, "r", {}],
        [3, 1, "a.c", 3.0, 6.0, 1, "r", {}],
        [4, 1, "a.c", 8.0, 9.0, 0, "r", {}],
        [5, 2, "a.g", 1.0, 2.0, 0, "r", {}],
    ]
    st = tracing.self_times(spans)
    check(st == {1: 4.0, 2: 2.0, 3: 3.0, 4: 1.0, 5: 1.0},
          f"self time subtracts the union of child intervals: {st}")


if __name__ == "__main__":
    test_self_times()
    test_event_rate()
    test_hooks()
    print("selftest passed")

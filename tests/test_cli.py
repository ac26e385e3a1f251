import csv
import io
import json
import math
import pathlib
import re
import subprocess
import sys

import pytest
import yaml

from sepdiff import StateSpace, TorusGeometry, build_kernel, compute_D, sobolev
from sepdiff.cli import _SCHEMA, RunConfig, main

NN = {"dimension": 1,
      "entries": [{"z": [1], "p": 0.5}, {"z": [-1], "p": 0.5}]}
MZ = {"dimension": 1,
      "entries": [{"z": [2], "p": "1/3"}, {"z": [-1], "p": "2/3"}]}


def write_cfg(tmp_path, name="cfg.yaml", **body):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(body))
    return str(path)


def read_rows(path):
    with open(path) as fh:
        lines = [l for l in fh if not l.startswith("#")]
    return list(csv.DictReader(io.StringIO("".join(lines))))


def test_exact_golden_value(tmp_path):
    cfg = write_cfg(tmp_path, kernel=NN, N=3, K=3, direction=[1.0])
    out = tmp_path / "run"
    assert main(["exact", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / "exact.csv")
    assert len(rows) == 1
    row = rows[0]
    assert list(row) == ["N", "K", "alpha", "a_index", "free_term",
                         "correction", "D", "residual", "sign"]
    assert row["N"] == "3" and row["K"] == "3" and row["sign"] == "-1"
    got = float(row["D"])
    sp = StateSpace(TorusGeometry(1, 3), 3)
    kernel = build_kernel(1, [((1,), 0.5), ((-1,), 0.5)])
    want = compute_D(sp, kernel, [1.0]).directions[0].D
    assert got == pytest.approx(want, abs=1e-14)
    assert got == pytest.approx(0.2, abs=1e-12)
    assert float(row["free_term"]) == pytest.approx(0.6, abs=1e-15)
    assert (out / "exact_report.txt").exists()
    assert (out / "run_metadata.txt").exists()
    meta = (out / "run_metadata.txt").read_text()
    assert "started:" in meta and "finished:" in meta


def test_exact_matrix_mode_rows(tmp_path):
    kernel2d = {"dimension": 2, "entries": [
        {"z": [1, 0], "p": 0.25}, {"z": [-1, 0], "p": 0.25},
        {"z": [0, 1], "p": 0.25}, {"z": [0, -1], "p": 0.25}]}
    cfg = write_cfg(tmp_path, kernel=kernel2d, N=2, K=2)
    out = tmp_path / "m"
    assert main(["exact", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / "exact.csv")
    # one row per basis direction: e1, e2
    assert len(rows) == 2
    assert [r["a_index"] for r in rows] == ["0", "1"]
    report = (out / "exact_report.txt").read_text()
    assert "matrix_D:" in report and "min_eigenvalue:" in report


def test_rerun_is_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, kernel=MZ, N=3, K=3,
                    mc={"T": 6.0, "M": 40, "seed": 9})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for cmd in ("exact", "mc"):
        assert main([cmd, "--config", cfg, "--out", str(out1)]) == 0
        assert main([cmd, "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "exact.csv").read_bytes() == (out2 / "exact.csv").read_bytes()
    assert (out1 / "mc.csv").read_bytes() == (out2 / "mc.csv").read_bytes()


def test_threads_do_not_change_bytes(tmp_path):
    cfg = write_cfg(tmp_path, kernel=NN, N=2, K=2,
                    mc={"T": 5.0, "M": 60, "seed": 4})
    out1, out4 = tmp_path / "t1", tmp_path / "t4"
    assert main(["mc", "--config", cfg, "--out", str(out1),
                 "--threads", "1"]) == 0
    assert main(["mc", "--config", cfg, "--out", str(out4),
                 "--threads", "4"]) == 0
    assert (out1 / "mc.csv").read_bytes() == (out4 / "mc.csv").read_bytes()


def test_seed_override_recorded_and_effective(tmp_path):
    cfg = write_cfg(tmp_path, kernel=NN, N=2, K=2,
                    mc={"T": 5.0, "M": 30, "seed": 4})
    outa, outb = tmp_path / "sa", tmp_path / "sb"
    assert main(["mc", "--config", cfg, "--out", str(outa)]) == 0
    assert main(["mc", "--config", cfg, "--out", str(outb),
                 "--seed", "99"]) == 0
    a = (outa / "mc.csv").read_text()
    b = (outb / "mc.csv").read_text()
    assert "# rng_stream: 3" in a
    assert "# seed: 4" in a
    assert "# seed: 99" in b
    assert a != b


def test_mc_csv_shape(tmp_path):
    cfg = write_cfg(tmp_path, kernel=NN, N=2, K=2,
                    mc={"T": 4.0, "M": 25, "seed": 1})
    out = tmp_path / "mc"
    assert main(["mc", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / "mc.csv")
    # two horizons (T, 2T), one row per replica, plus two summary rows
    assert len(rows) == 2 * 25 + 2
    assert list(rows[0]) == ["replica", "T", "X_1", "njumps"]
    body = [r for r in rows if r["replica"] != "summary"]
    summaries = [r for r in rows if r["replica"] == "summary"]
    assert len(summaries) == 2
    assert {r["T"] for r in summaries} == {"4", "8"}
    for r in body:
        int(r["X_1"])
        assert int(r["njumps"]) >= 0


def test_sweep_outputs(tmp_path):
    cfg = write_cfg(tmp_path, kernel=NN, N_list=[2, 3], alpha=0.5)
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / "sweep.csv")
    assert [r["N"] for r in rows] == ["2", "3"]
    assert float(rows[0]["D"]) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert float(rows[1]["D"]) == pytest.approx(0.2, abs=1e-12)
    head = (out / "sweep.csv").read_text()
    assert "# alpha_target: 0.5" in head
    assert "verdict:" in (out / "sweep_report.txt").read_text()


def test_diagnostics_sections(tmp_path):
    cfg = write_cfg(
        tmp_path, kernel=MZ, N=3, K=3,
        diagnostics={
            "observable": {"type": "occupancy", "site": [1]},
            "spectral_gap": True,
            "sector_constant": True,
            "prop1": {"pairs": 10, "seed": 0},
            "resolvent": {"lambdas": [1.0, 0.1]},
            "multiscale": {"l": 1, "q": 2, "n_max": 1},
            "hminus1_sweep": None,
        },
    )
    # hminus1_sweep without N_list is a config error
    assert main(["diagnostics", "--config", cfg, "--out",
                 str(tmp_path / "x")]) == 2
    cfg = write_cfg(
        tmp_path, kernel=MZ, N=3, K=3,
        diagnostics={
            "observable": {"type": "occupancy", "site": [1]},
            "spectral_gap": True,
            "sector_constant": True,
            "prop1": {"pairs": 10, "seed": 0},
            "resolvent": {"lambdas": [1.0, 0.1]},
            "multiscale": {"l": 1, "q": 2, "n_max": 1},
        },
    )
    out = tmp_path / "diag"
    assert main(["diagnostics", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / "diagnostics.csv")
    sections = {r["section"] for r in rows}
    assert sections == {"spectral_gap", "sector_constant", "prop1",
                        "resolvent", "multiscale"}
    gap = [r for r in rows if r["section"] == "spectral_gap"][0]
    assert float(gap["value"]) > 0.0
    sector = [r for r in rows if r["section"] == "sector_constant"][0]
    assert float(sector["value"]) == pytest.approx(1.0 / 3.0, rel=1e-8)


def test_arbitrate_sign_cli(tmp_path):
    cfg = write_cfg(tmp_path, kernel=NN, N=2, K=2,
                    arbitrate={"M": 1200, "seed": 11})
    out = tmp_path / "arb"
    assert main(["arbitrate-sign", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / "arbitrate.csv")
    assert rows[0]["chosen_sign"] == "-1"
    assert float(rows[0]["D_minus"]) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert float(rows[0]["D_plus"]) == pytest.approx(1.0, abs=1e-12)


def test_arbitrate_sign_cli_rows_follow_direction(tmp_path):
    # a configured direction is the one arbitrated and reported: a = 2
    # scales both conventions of a^t D a by 4
    cfg = write_cfg(tmp_path, kernel=NN, N=2, K=2, direction=[2.0],
                    arbitrate={"M": 1200, "seed": 11})
    out = tmp_path / "arb2"
    assert main(["arbitrate-sign", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / "arbitrate.csv")
    assert len(rows) == 1
    assert rows[0]["chosen_sign"] == "-1"
    assert float(rows[0]["D_minus"]) == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert float(rows[0]["D_plus"]) == pytest.approx(4.0, abs=1e-12)


def test_config_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "broken.yaml"
    bad.write_text("kernel: [unbalanced\n")
    assert main(["exact", "--config", str(bad), "--out",
                 str(tmp_path / "o1")]) == 2
    assert main(["exact", "--config", str(tmp_path / "missing.yaml"),
                 "--out", str(tmp_path / "o2")]) == 2
    # missing kernel block
    cfg = write_cfg(tmp_path, "nok.yaml", N=3, K=3)
    assert main(["exact", "--config", cfg, "--out", str(tmp_path / "o3")]) == 2
    # both K and alpha
    cfg = write_cfg(tmp_path, "both.yaml", kernel=NN, N=3, K=3, alpha=0.5)
    assert main(["exact", "--config", cfg, "--out", str(tmp_path / "o4")]) == 2
    # neither K nor alpha
    cfg = write_cfg(tmp_path, "none.yaml", kernel=NN, N=3)
    assert main(["exact", "--config", cfg, "--out", str(tmp_path / "o5")]) == 2
    # direction has the wrong dimension
    cfg = write_cfg(tmp_path, "dir.yaml", kernel=NN, N=3, K=3,
                    direction=[1.0, 0.0])
    assert main(["exact", "--config", cfg, "--out", str(tmp_path / "o6")]) == 2
    # kernel does not sum to one
    badk = {"dimension": 1, "entries": [{"z": [1], "p": 0.7}]}
    cfg = write_cfg(tmp_path, "badk.yaml", kernel=badk, N=3, K=3)
    assert main(["exact", "--config", cfg, "--out", str(tmp_path / "o7")]) == 2
    # the correction sign is fixed at -1
    cfg = write_cfg(tmp_path, "sign.yaml", kernel=NN, N=3, K=3, sign=1)
    assert main(["exact", "--config", cfg, "--out", str(tmp_path / "oS")]) == 2
    # every mc run records both horizons; the string "false" is not true
    for i, value in enumerate((False, "false")):
        cfg = write_cfg(tmp_path, f"second{i}.yaml", kernel=NN, N=2, K=2,
                        mc={"T": 5.0, "M": 10, "second_horizon": value})
        assert main(["mc", "--config", cfg,
                     "--out", str(tmp_path / f"oH{i}")]) == 2
    # values that do not parse, lie out of range, or are missing, in any
    # block
    obs = {"type": "occupancy", "site": [1]}
    res = {"observable": obs, "resolvent": {"lambdas": [-1]}}
    capsys.readouterr()
    for i, (command, body) in enumerate([
            ("exact", dict(kernel=NN, K=3)),
            ("exact", dict(kernel=NN, N=3, K=7)),
            # torus too small for the kernel range
            ("exact", dict(kernel=MZ, N=2, K=2)),
            ("mc", dict(kernel=NN, N=2, K=2, mc={"M": 10})),
            # sweep needs N_list and alpha, not K
            ("sweep", dict(kernel=NN, alpha=0.5)),
            ("sweep", dict(kernel=NN, N_list=[2, 3], K=3)),
            # so do the per-N diagnostics; the gap is not computed first
            ("diagnostics", dict(kernel=NN, N=3, alpha=0.5, diagnostics=dict(
                observable=obs, approximation=None))),
            ("diagnostics", dict(kernel=NN, N=3, K=3, diagnostics=dict(
                observable=obs, spectral_gap=True,
                approximation={"N_list": [2, 3]}))),
            ("diagnostics", dict(kernel=NN, N=3, K=3, diagnostics=dict(
                observable=obs, hminus1_sweep={"N_list": [2, 3]}))),
            ("diagnostics", dict(kernel=NN, N=3, K=3, diagnostics=dict(
                spectral_gap=True, multiscale={}))),
            ("diagnostics", dict(kernel=NN, N=3, K=3, diagnostics=dict(
                observable={"type": "flux"}, resolvent={}))),
            ("exact", dict(kernel=dict(NN, dimension="abc"), N=3, K=3)),
            ("exact", dict(kernel=dict(NN, entries=5), N=3, K=3)),
            ("exact", dict(kernel=NN, N=[3], K=3)),
            ("exact", dict(kernel=NN, N=3, K="x")),
            ("exact", dict(kernel=NN, N=3, K=3.7)),
            ("exact", dict(kernel=NN, N=3, K=3, tolerance="abc")),
            ("exact", dict(kernel=NN, N=3, alpha="abc")),
            ("exact", dict(kernel=dict(NN, entries=[
                {"z": [1], "p": "abc"}, {"z": [-1], "p": 0.5}]), N=3, K=3)),
            ("exact", dict(kernel=dict(NN, entries=[
                {"z": [1], "p": "1/0"}, {"z": [-1], "p": 0.5}]), N=3, K=3)),
            ("exact", dict(kernel=dict(NN, entries=[
                {"z": "abc", "p": 0.5}, {"z": [-1], "p": 0.5}]), N=3, K=3)),
            # a displacement that is not a whole number is not truncated
            ("exact", dict(kernel=dict(NN, entries=[
                {"z": [1.5], "p": 0.5}, {"z": [-1], "p": 0.5}]), N=3, K=3)),
            ("exact", dict(kernel=NN, N=3, K=3, direction=[float("nan")])),
            ("mc", dict(kernel=NN, N=2, K=2, mc={"T": -1})),
            ("mc", dict(kernel=NN, N=2, K=2, mc={"T": "abc"})),
            ("mc", dict(kernel=NN, N=2, K=2, mc=[1, 2])),
            ("mc", dict(kernel=NN, N=2, K=2, mc={"T": 1, "seed": -5})),
            ("mc", dict(kernel=NN, N=2, K=2, mc={"T": 1, "M": 2**32})),
            ("mc", dict(kernel=NN, N=2, K=2, mc={"T": 1, "M": 1})),
            ("arbitrate-sign", dict(kernel=NN, N=2, K=2,
                                    arbitrate={"M": "abc"})),
            # no horizon, and 3,003 states: above RELAX_GAP_MAX, no gap
            # sets one
            ("arbitrate-sign", dict(kernel=MZ, N=8, K=6,
                                    arbitrate={"M": 50, "seed": 1})),
            ("sweep", dict(kernel=NN, N_list=5, alpha=0.5)),
            ("diagnostics", dict(kernel=NN, N=3, K=3, diagnostics=res)),
            # a diagnostics key that names no section, and a section option
            # the section does not read
            ("diagnostics", dict(kernel=NN, N=3, K=3, diagnostics=dict(
                observable=obs, spectral_gaps=True))),
            ("diagnostics", dict(kernel=NN, N=3, K=3, diagnostics=dict(
                observable=obs, multiscale={"n": 1}))),
            # block scales that do not fit the torus
            ("diagnostics", dict(kernel=NN, N=3, K=3, diagnostics=dict(
                observable=res["observable"],
                multiscale={"l": 1, "q": 2, "n_max": 5}))),
            ("diagnostics", dict(kernel=NN, N=3, K=3, diagnostics=dict(
                observable=res["observable"], multiscale={"q": 1}))),
            ("diagnostics", dict(kernel=NN, N=3, alpha=0.5, diagnostics=dict(
                observable=res["observable"],
                approximation={"basis_scale": 9, "N_list": [2, 3]}))),
            # an N_list entry that makes no torus, or one too small for the
            # kernel range, after rungs that would run
            ("sweep", dict(kernel=MZ, N_list=[3, 1], alpha=0.4)),
            ("sweep", dict(kernel=NN, N_list=[3, 0], alpha=0.4)),
            ("diagnostics", dict(kernel=NN, N=3, alpha=0.5, diagnostics=dict(
                observable=obs, spectral_gap=True,
                hminus1_sweep={"N_list": [3, 0]}))),
            ("diagnostics", dict(kernel=MZ, N=3, alpha=0.4, diagnostics=dict(
                observable=obs, approximation={"N_list": [3, 1]}))),
            # an observable site that is the origin, or has the wrong
            # length
            ("diagnostics", dict(kernel=NN, N=3, K=3, diagnostics=dict(
                spectral_gap=True, resolvent={},
                observable={"type": "occupancy", "site": [0]}))),
            ("diagnostics", dict(kernel=NN, N=3, K=3, diagnostics=dict(
                spectral_gap=True, resolvent={},
                observable={"type": "occupancy", "site": [1, 2]}))),
            # a key the schema does not list, at every level
            ("exact", dict(kernel=NN, N=3, K=3, tolerence=1e-3)),
            ("mc", dict(kernel=NN, N=2, K=2, mc={"T": 1, "Mm": 3})),
            ("sweep", dict(kernel=NN, N_list=[2, 3], alpha=0.5,
                           sweep={"rtoll": 0.01})),
            ("arbitrate-sign", dict(kernel=NN, N=2, K=2, arbitrate={
                "M": 100, "max_doubling": 9})),
            ("exact", dict(kernel=dict(NN, dimenson=2), N=3, K=3)),
            ("exact", dict(kernel=dict(NN, entries=[
                {"z": [1], "p": 0.5, "q": 3}, {"z": [-1], "p": 0.5}]),
                N=3, K=3)),
            ("diagnostics", dict(kernel=NN, N=3, K=3, diagnostics=dict(
                resolvent={}, observable=dict(obs, sitee=[2])))),
            # and a site key the observable's type does not read
            ("diagnostics", dict(kernel=NN, N=3, K=3, diagnostics=dict(
                resolvent={}, observable=dict(obs, site2=[2])))),
            # a boolean is not a number, and a switch is only true or false
            ("exact", dict(kernel=NN, N=3, K=True)),
            ("exact", dict(kernel=NN, N=3, K=3, tolerance=True)),
            ("diagnostics", dict(kernel=NN, N=3, K=3, diagnostics=dict(
                sector_constant="no")))]):
        cfg = write_cfg(tmp_path, f"bad{i}.yaml", **body)
        out = tmp_path / f"oB{i}"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2, body
        err = capsys.readouterr().err
        assert err.startswith("config error: "), body
        assert len(err.splitlines()) == 1 and "Traceback" not in err, body
        # refused before the output directory is made
        assert not out.exists(), body


def _schema_keys(table):
    for key, (kind, _, _) in table.items():
        yield key
        while isinstance(kind, list):
            kind = kind[0]
        if isinstance(kind, dict):
            yield from _schema_keys(kind)


def test_shipped_configs_parse_and_readme_lists_every_key():
    root = pathlib.Path(__file__).resolve().parents[1]
    for path in sorted((root / "perfbench" / "configs").glob("*.yaml")):
        with open(path) as fh:
            assert RunConfig(yaml.safe_load(fh)).space().size > 1, path
    readme = (root / "README.md").read_text()
    start = readme.index("```yaml", readme.index("### Config reference"))
    block = readme[start:readme.index("```\n", start + 1)]
    missing = [key for key in _schema_keys(_SCHEMA)
               if not re.search(rf"\b{key}:", block)]
    assert not missing


def test_multiscale_alone_builds_no_generator(tmp_path, monkeypatch):
    # the largest block, of scale 26, has 51 sites; no section here reads
    # the generator, so it is never assembled
    def no_generator(*args, **kwargs):
        raise AssertionError("generator assembled")

    monkeypatch.setattr("sepdiff.cli.full_generator", no_generator)
    cfg = write_cfg(tmp_path, kernel=NN, N=26, K=2, diagnostics=dict(
        observable={"type": "occupancy", "site": [1]},
        multiscale={"l": 13, "q": 2, "n_max": 1}))
    out = tmp_path / "ms"
    assert main(["diagnostics", "--config", cfg, "--out", str(out)]) == 0
    names = [r["name"] for r in read_rows(out / "diagnostics.csv")]
    assert names[:2] == ["second_moment@l=13", "second_moment@l=26"]


def test_size_cap_exit_4(tmp_path, capsys):
    rows = [
        ("exact", "big", dict(N=40, K=40)),
        # 65 environment sites: only 65 states, but wider than one word
        ("exact", "wide", dict(N=33, K=2)),
        # C(799, 399) states: refused from the counts, no table is built
        ("exact", "huge", dict(N=400, alpha=0.5)),
        # C(19999, 9999) states, 6,019 digits: past str()'s 4,300
        ("exact", "huger", dict(N=10000, alpha=0.5)),
        # C(399999, 199999) states: refused without forming the count,
        # which alone takes seconds
        ("exact", "hugest", dict(N=200_000, alpha=0.5)),
        # the same torus, refused before the horizon check counts it
        ("arbitrate-sign", "arb-hugest", dict(N=200_000, alpha=0.5)),
        # 2 * 10**30 sites: C(M, k) is past what math.comb takes
        ("arbitrate-sign", "arb-wider", dict(N=10**30, alpha=0.4)),
        # an approximation rung whose sites could not be listed
        ("diagnostics", "rung-wider", dict(
            N=3, alpha=0.5, diagnostics={
                "observable": {"type": "occupancy", "site": [1]},
                "approximation": {"N_list": [10**30]}})),
        # a site count past the float range: K is chosen exactly
        ("exact", "float-edge", dict(N=1.0e308, alpha=0.5)),
        # the last rung of a sweep is refused before the first one runs
        ("sweep", "rungs", dict(N_list=[3, 40], alpha=0.5)),
        # one state, but the Monte Carlo table holds its 79-site bitmask
        ("mc", "lone-mc", dict(N=40, K=1, mc={"T": 1.0, "M": 10})),
    ]
    for command, name, keys in rows:
        cfg = write_cfg(tmp_path, f"{name}.yaml", kernel=NN, **keys)
        out = tmp_path / name
        assert main([command, "--config", cfg, "--out", str(out)]) == 4, name
        err = capsys.readouterr().err
        assert err.startswith("size cap:") and "Traceback" not in err, name
        # one short line, however many digits the state count has
        assert err.count("\n") == 1 and len(err) < 100, (name, err)
        # refused before the output directory is made
        assert not out.exists(), name
        if name == "huge":
            assert "9.4e238 states exceed cap 500000" in err
    # a one-state torus past the bitmask width: the exact route needs no
    # table there
    cfg = write_cfg(tmp_path, "lone.yaml", kernel=NN, N=40, K=1)
    assert main(["exact", "--config", cfg, "--out",
                 str(tmp_path / "lone")]) == 0


def test_wide_torus_refused_without_listing_its_sites(tmp_path, capsys):
    # 399,999 environment sites: refused by their count, before any site
    # is listed (listing them would hold about 80 MB); diagnostics check
    # the observable's site only after the caps
    import tracemalloc

    observed = {"observable": {"type": "occupancy", "site": [1]},
                "resolvent": {"lambdas": [1.0]}}
    for command, extra in (("exact", {}),
                           ("diagnostics", {"diagnostics": observed})):
        cfg = write_cfg(tmp_path, kernel=NN, N=200_000, K=2, **extra)
        out = tmp_path / command
        tracemalloc.start()
        try:
            code = main([command, "--config", cfg, "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 4, command
        assert capsys.readouterr().err.startswith(
            "size cap: 399999 environment"), command
        assert peak < 10e6, command
        assert not out.exists(), command


def test_numerical_failure_exit_3(tmp_path):
    # a lone walker makes sign arbitration structurally impossible
    cfg = write_cfg(tmp_path, kernel=NN, N=2, K=1,
                    arbitrate={"M": 50, "seed": 0})
    assert main(["arbitrate-sign", "--config", cfg, "--out",
                 str(tmp_path / "arb")]) == 3


def test_lanczos_failure_exit_3(tmp_path, monkeypatch, capsys):
    # a Ritz residual that never falls runs Lanczos into its step cap
    monkeypatch.setattr(sobolev, "_top_ritz", lambda *a: (1.0, math.inf))
    # 1d mean-zero N=4 K=4: 35 states, enough for the Lanczos path
    cfg = write_cfg(tmp_path, kernel=MZ, N=4, K=4, method="iterative",
                    diagnostics={"sector_constant": True})
    assert main(["diagnostics", "--config", cfg, "--out",
                 str(tmp_path / "lz")]) == 3
    assert "Traceback" not in capsys.readouterr().err


def test_console_script_runs(tmp_path):
    cfg = write_cfg(tmp_path, kernel=NN, N=2, K=2)
    proc = subprocess.run(
        [sys.executable, "-m", "sepdiff.cli", "exact", "--config", cfg,
         "--out", str(tmp_path / "sub")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "sub" / "exact.csv").exists()


_SCIPY_AFTER = """
import json
import sys
from sepdiff.cli import RunConfig, main
RunConfig({"kernel": %r, "N": 8, "K": 6}).space()
for argv in %r:
    assert main(argv) == 0, argv
print(json.dumps(sorted(m for m in sys.modules
                       if m.split(".")[0] == "scipy")))
"""


def _scipy_after(*argvs):
    """The scipy modules loaded in a fresh interpreter after parsing a
    config, building its state space and running ``main`` on each argv."""
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_AFTER % (MZ, list(argvs))],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_mc_runs_without_scipy(tmp_path):
    # 1d mean-zero N=6 K=6: 462 states, gap computed; N=8 K=6: 3003 states,
    # above RELAX_GAP_MAX, gap unknown
    small = write_cfg(tmp_path, "small.yaml", kernel=MZ, N=6, K=6,
                      mc={"T": 2.0, "M": 20, "seed": 1})
    big = write_cfg(tmp_path, "big.yaml", kernel=MZ, N=8, K=6,
                    mc={"T": 2.0, "M": 20, "seed": 1})
    loaded = _scipy_after(["mc", "--config", small, "--out",
                           str(tmp_path / "small")],
                          ["mc", "--config", big, "--out",
                           str(tmp_path / "big")])
    assert loaded == []
    small_report = (tmp_path / "small" / "mc_report.txt").read_text()
    big_report = (tmp_path / "big" / "mc_report.txt").read_text()
    assert "relaxation_gap: 0." in small_report
    assert "relaxation_gap: unknown" in big_report
    # the control: a command that solves does load scipy
    assert "scipy.sparse" in _scipy_after(
        ["exact", "--config", small, "--out", str(tmp_path / "exact")])


def _skip_if_scipy_sparse_loads_linalg():
    probe = subprocess.run(
        [sys.executable, "-c", "import sys, scipy.sparse; "
         "print('scipy.sparse.linalg' in sys.modules)"],
        capture_output=True, text=True, check=True)
    if probe.stdout.strip() == "True":
        pytest.skip("this scipy loads scipy.sparse.linalg with scipy.sparse")


def test_exact_solves_without_scipy_sparse_linalg(tmp_path):
    # CG and BiCGSTAB are numpy loops; scipy.sparse.linalg loads only for
    # a GMRES fallback, as on 1d TASEP N=3 K=5, where BiCGSTAB breaks down
    _skip_if_scipy_sparse_loads_linalg()
    nn2d = write_cfg(tmp_path, "nn2d.yaml", N=2, K=5, kernel={
        "dimension": 2,
        "entries": [{"z": z, "p": 0.25}
                    for z in ([1, 0], [-1, 0], [0, 1], [0, -1])]})
    tasep = write_cfg(tmp_path, "tasep.yaml", N=3, K=5, method="iterative",
                      kernel={"dimension": 1, "entries": [{"z": [1], "p": 1}]})
    loaded = _scipy_after(["exact", "--config", nn2d, "--out",
                           str(tmp_path / "nn2d")])
    assert "scipy.sparse" in loaded
    assert "scipy.sparse.linalg" not in loaded
    assert "scipy.sparse.linalg" in _scipy_after(
        ["exact", "--config", tasep, "--out", str(tmp_path / "tasep")])
    report = (tmp_path / "tasep" / "exact_report.txt").read_text()
    assert "  method: iterative-gmres" in report.splitlines()


def test_diagnostics_without_scipy_sparse_linalg(tmp_path):
    # 1d mean-zero N=7 at density 0.4: 1,287 states, above DENSE_EIG_MAX, so
    # the gap and the sector constant run Lanczos, a numpy loop, and the
    # sweep's ergodicity check counts components without csgraph, which
    # would load scipy.sparse.linalg
    _skip_if_scipy_sparse_loads_linalg()
    cfg = write_cfg(tmp_path, kernel=MZ, N=7, alpha=0.4, diagnostics={
        "spectral_gap": True, "sector_constant": True,
        "hminus1_sweep": {"N_list": [4, 5]},
        "observable": {"type": "occupancy", "site": [1]}})
    loaded = _scipy_after(["diagnostics", "--config", cfg, "--out",
                           str(tmp_path / "diag")])
    assert "scipy.sparse" in loaded
    assert not [m for m in loaded if m.startswith(("scipy.sparse.linalg",
                                                   "scipy.sparse.csgraph"))]
    rows = read_rows(tmp_path / "diag" / "diagnostics.csv")
    assert [r["name"] for r in rows[:2]] == ["gap", "C"]

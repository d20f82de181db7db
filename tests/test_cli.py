"""CLI layer: census files and caching, the verify suite, crossovers,
conjecture scans, ratio/saddle tables, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hooklab
from hooklab.classes import ClassId
from hooklab.cli import (
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    _census_payload,
    asym_table,
    cached_census,
    census_csv_text,
    conjecture_scan,
    crossover_report,
    main,
    ratio_table,
    run_census,
    verify_report,
)
from hooklab.hooks import CENSUS_CEILING, census


# --------------------------------------------------------------------------
# census files and cache
# --------------------------------------------------------------------------


def test_census_csv_contents(tmp_path):
    out = tmp_path / "r1.csv"
    run_census(ClassId.R1, 10, 2, str(out))
    text = out.read_text()
    lines = text.splitlines()
    assert lines[0] == "n,t,count"
    assert "4,1,3" in lines
    assert text.endswith("\n") and "\r" not in text
    assert len(lines) == 1 + 11 * 2
    sidecar = json.loads(out.with_suffix(".json").read_text())
    assert sidecar["class"] == "r1"
    assert sidecar["cardinality"][4] == 2
    assert sidecar["total_hooks"][10] == 10 * sidecar["cardinality"][10]
    assert sidecar["generated_by"].startswith("hooklab ")


def test_census_g2_two_hooks(tmp_path):
    out = tmp_path / "g2.csv"
    run_census(ClassId.G2, 2, 2, str(out))
    assert "2,2,1" in out.read_text().splitlines()  # (1,1) carries one 2-hook


def test_census_degenerate(tmp_path):
    out = tmp_path / "zero.csv"
    run_census(ClassId.R1, 0, 1, str(out))
    assert out.read_text() == "n,t,count\n0,1,0\n"


def test_cache_roundtrip_extension(tmp_path):
    cache = tmp_path / "cache"
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    out_fresh = tmp_path / "fresh.csv"
    run_census(ClassId.G1, 20, 2, str(out_a), str(cache))
    assert (cache / "census-g1.json").is_file()
    run_census(ClassId.G1, 30, 2, str(out_b), str(cache))   # extend by 10
    run_census(ClassId.G1, 30, 2, str(out_fresh))           # no cache
    assert out_b.read_bytes() == out_fresh.read_bytes()
    # a smaller request is computed at the stored shape, which the file keeps
    stored = (cache / "census-g1.json").read_text()
    again = cached_census(ClassId.G1, 12, 1, str(cache))
    fresh = cached_census(ClassId.G1, 12, 1)
    assert again.counts == fresh.counts
    assert again.cardinality == fresh.cardinality
    assert (cache / "census-g1.json").read_text() == stored


def test_cache_handles_t_max_increase(tmp_path):
    cache = tmp_path / "cache"
    first = cached_census(ClassId.R2, 15, 1, str(cache))
    wider = cached_census(ClassId.R2, 15, 3, str(cache))
    assert wider.t_max == 3
    assert [row[0] for row in wider.counts] == [row[0] for row in first.counts]
    assert wider.counts == cached_census(ClassId.R2, 15, 3).counts


def test_cache_hit_leaves_the_file_alone(tmp_path):
    cache = tmp_path / "cache"
    cached_census(ClassId.R1, 20, 2, str(cache))
    path = cache / "census-r1.json"
    before = path.stat()
    again = cached_census(ClassId.R1, 20, 2, str(cache))
    after = path.stat()
    assert (after.st_mtime_ns, after.st_ino) == (before.st_mtime_ns, before.st_ino)
    assert again == cached_census(ClassId.R1, 20, 2)
    assert [p.name for p in cache.iterdir()] == ["census-r1.json"]  # no temporary file left


def test_cache_with_a_wrong_count_is_recomputed(tmp_path, capsys):
    cache = tmp_path / "cache"
    run_census(ClassId.R1, 30, 3, str(tmp_path / "a.csv"), str(cache))
    path = cache / "census-r1.json"
    payload = json.loads(path.read_text())
    payload["counts"][30][0] += 1000
    path.write_text(json.dumps(payload))
    out = tmp_path / "b.csv"
    code = main(["census", "--class", "r1", "--n-max", "30", "--t-max", "3",
                 "--out", str(out), "--cache", str(cache)])
    assert code == EXIT_OK
    assert "30,1,396" in out.read_text().splitlines()
    assert json.loads(path.read_text())["counts"][30][0] == 396  # overwritten
    capsys.readouterr()


def test_cache_with_truncated_counts_is_recomputed(tmp_path):
    cache = tmp_path / "cache"
    first = conjecture_scan([3], 30, str(cache))
    path = cache / "census-g1.json"
    payload = json.loads(path.read_text())
    payload["counts"] = payload["counts"][:20]
    path.write_text(json.dumps(payload))
    assert conjecture_scan([3], 30, str(cache)) == first
    assert len(json.loads(path.read_text())["counts"]) == 31


@pytest.mark.parametrize(
    "where,change",
    [
        (("class",), lambda v: "r2"),
        (("n_max",), lambda v: v + 1),
        (("t_max",), lambda v: v + 1),
        (("counts", 12, 0), lambda v: v + 1),      # a t = 1 count
        (("counts", 12, 1), lambda v: v - 1),      # a t = 2 count
        (("counts", 12, 2), lambda v: -1),         # a t = 3 count below zero
        (("counts", 12, 2), float),                # a t = 3 count that is no int
        (("counts", 12), lambda row: row[:2]),     # a short row
        (("cardinality", 12), lambda v: v + 1),
        (("cardinality", 0), lambda v: v + 1),    # 0 * cardinality hides it from total_hooks
        (("total_hooks", 12), lambda v: v + 12),
        (("counts", 12, 2), lambda v: v + 1),      # a t = 3 count, off by one
    ],
)
def test_cache_check_rejects_a_tampered_table(tmp_path, where, change):
    cache = tmp_path / "cache"
    good = cached_census(ClassId.R1, 20, 3, str(cache))
    path = cache / "census-r1.json"
    payload = json.loads(path.read_text())
    *outer, last = where
    node = payload
    for key in outer:
        node = node[key]
    node[last] = change(node[last])
    path.write_text(json.dumps(payload))
    assert cached_census(ClassId.R1, 20, 3, str(cache)) == good
    # rewritten as the engine's table, at a shape covering the request
    stored = json.loads(path.read_text())
    assert stored["n_max"] >= 20 and stored["t_max"] >= 3
    assert stored == _census_payload(census(ClassId.R1, stored["n_max"], stored["t_max"]))


@pytest.mark.parametrize("text", ["{", "[]", '{"class": "zz"}', '{"class": "r1"}'])
def test_cache_check_rejects_an_unreadable_file(tmp_path, text):
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "census-r1.json").write_text(text)
    fresh = cached_census(ClassId.R1, 12, 2)
    assert cached_census(ClassId.R1, 12, 2, str(cache)) == fresh
    assert json.loads((cache / "census-r1.json").read_text()) == _census_payload(fresh)


def test_cache_above_the_ceiling_is_rewritten_at_the_request(tmp_path, monkeypatch):
    import hooklab.cli as cli

    cache = tmp_path / "cache"
    cached_census(ClassId.G1, 15, 2, str(cache))
    path = cache / "census-g1.json"
    payload = json.loads(path.read_text())
    payload["n_max"] = CENSUS_CEILING + 1
    path.write_text(json.dumps(payload))
    asked = []
    real = cli.census_rows

    def recorded(cid, ns, t_max, **kw):
        asked.append((max(ns), t_max))
        return real(cid, ns, t_max, **kw)

    monkeypatch.setattr(cli, "census_rows", recorded)
    served = cached_census(ClassId.G1, 10, 2, str(cache))
    assert asked == [(10, 2)]
    assert served == census(ClassId.G1, 10, 2)
    assert json.loads(path.read_text()) == _census_payload(served)


def test_census_csv_text_shape():
    c = cached_census(ClassId.R1, 3, 2)
    text = census_csv_text(c)
    assert text.splitlines()[1] == "0,1,0"
    assert text.count("\n") == 1 + 4 * 2


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------


def test_verify_passes():
    results = verify_report(25)
    assert results and all(r.ok for r in results)
    names = [r.name for r in results]
    assert any("S11" in n for n in names)
    assert any("identity RR1" in n for n in names)
    assert any("identity LG1" in n for n in names)


def test_verify_degenerate():
    assert all(r.ok for r in verify_report(0))


def test_verify_reports_corruption():
    results = verify_report(20, _corrupt=("S11", 7, 1))
    bad = [r for r in results if not r.ok]
    assert len(bad) == 1
    assert "S11" in bad[0].name
    assert "n=7" in bad[0].detail  # names the exponent and both values
    assert "6" in bad[0].detail and "5" in bad[0].detail


def test_verify_cross_checks_the_hook_table(monkeypatch):
    import hooklab.cli as cli
    from hooklab.hooks import hook_lengths

    # relabel 2-hooks as 3-hooks from n = 3 on: n cells, all in [1, n], the
    # 1-hooks intact, so only the count of 2s betrays the table
    monkeypatch.setattr(cli, "hook_lengths", lambda p: [
        [3 if h == 2 and sum(p) >= 3 else h for h in row] for row in hook_lengths(p)
    ])
    bad = [r.name for r in verify_report(6) if not r.ok]
    assert bad == ["hook-sum conservation per partition (n <= 6)"]


def test_verify_reports_an_engine_fault(monkeypatch):
    import hooklab.cli as cli

    real = cli.census_rows

    def planted(cid, ns, t_max, **kw):  # one t = 3 count of g1 off by one at n = 7
        rows = real(cid, ns, t_max, **kw)
        if cid is ClassId.G1 and 7 in rows:
            rows[7][0][2] += 1
        return rows

    monkeypatch.setattr(cli, "census_rows", planted)
    bad = [r for r in verify_report(12) if not r.ok]
    assert [r.name for r in bad] == ["census engine == enumeration for g1 (t <= 4, n <= 12)"]
    assert bad[0].detail.startswith("n=7: ")


def test_verify_checks_cardinality_against_the_counting_series(monkeypatch):
    from hooklab import classes

    # the engine and enumeration both read this table, so they agree with
    # each other; only the counting series (the identity's sum side) shows
    # the change
    monkeypatch.setitem(classes.RESIDUE_CLASSES, ClassId.R2, (frozenset({1, 2}), 5))
    results = {r.name: r for r in verify_report(12)}
    assert results["census engine == enumeration for r2 (t <= 4, n <= 12)"].ok
    bad = results["census cardinality == counting series for r2"]
    assert not bad.ok and bad.detail.startswith("n=2: ")
    assert all(results[f"census cardinality == counting series for {c}"].ok for c in ("r1", "g1", "g2"))
    assert len(results) == 24


def test_verify_ceiling():
    with pytest.raises(ValueError):
        verify_report(81)


# --------------------------------------------------------------------------
# crossovers
# --------------------------------------------------------------------------


def test_crossover_example_point():
    # by n = 4 the gap class already leads for 1-hooks: 3 > 2
    report = crossover_report("r-t1", 10)
    assert 4 not in report.violations


@pytest.mark.parametrize("pair", ["r-t1", "r-t2", "g-t1", "g-t2"])
def test_crossover_internal_consistency(pair):
    report = crossover_report(pair, 300)
    assert report.first_hold is not None
    assert all(v < report.first_hold for v in report.violations)
    # independent honesty pass over the emitted data
    from hooklab.cli import _CROSSOVER_PAIRS, _SERIES

    lkey, rkey, direction = _CROSSOVER_PAIRS[pair]
    lhs, rhs = _SERIES[lkey].build(300), _SERIES[rkey].build(300)
    for n in range(report.first_hold, 301):
        if direction == "gt":
            assert lhs[n] > rhs[n]
        else:
            assert lhs[n] < rhs[n]


def test_crossover_discovered_points():
    # discovered on the first verified run and frozen as regression anchors
    assert crossover_report("r-t1", 200).first_hold == 8
    assert crossover_report("r-t2", 200).first_hold == 10
    assert crossover_report("g-t1", 200).first_hold == 9
    assert crossover_report("g-t2", 200).first_hold == 16


def test_crossover_guards():
    with pytest.raises(ValueError):
        crossover_report("r-t3", 100)
    with pytest.raises(ValueError):
        crossover_report("r-t1", 5001)


# --------------------------------------------------------------------------
# conjecture scan
# --------------------------------------------------------------------------


def test_conjecture_shared_pass():
    scans = conjecture_scan([3, 4], 40)
    assert len(scans) == 4  # two pairs per t
    for scan in scans:
        assert scan.holds_from is not None
        assert scan.counterexamples_above == []


def test_conjecture_absence_is_legal():
    # ties at tiny sizes keep the strict inequality from settling
    scans = conjecture_scan([3], 5)
    assert any(s.holds_from is None for s in scans)


def test_conjecture_guards():
    with pytest.raises(ValueError):
        conjecture_scan([2], 40)
    with pytest.raises(ValueError):
        conjecture_scan([], 40)
    with pytest.raises(ValueError):
        conjecture_scan([3], 201)


def test_conjecture_scan_at_the_census_ceiling(tmp_path):
    # conjecture is bounded by the census ceiling alone
    scans = conjecture_scan([3, 4], CENSUS_CEILING)
    assert len(scans) == 4
    tables = {cid: census(cid, CENSUS_CEILING, 4) for cid in ClassId}
    pairs = {"r": (ClassId.R1, ClassId.R2), "g": (ClassId.G1, ClassId.G2)}
    for scan in scans:
        gap, cong = (tables[cid].series(scan.t) for cid in pairs[scan.pair])
        fails = [n for n in range(CENSUS_CEILING + 1) if not gap[n] < cong[n]]
        if fails and fails[-1] == CENSUS_CEILING:
            assert scan.holds_from is None
        else:
            assert scan.holds_from == (fails[-1] + 1 if fails else 0)
        assert scan.counterexamples_above == []
    cache = tmp_path / "cdir"
    for t_list, n_max in (([3], CENSUS_CEILING + 1), ([3, CENSUS_CEILING + 1], 10)):
        with pytest.raises(ValueError, match="census ceiling"):
            conjecture_scan(t_list, n_max, str(cache))
    assert not cache.exists()


# --------------------------------------------------------------------------
# ratio and saddle tables
# --------------------------------------------------------------------------


def test_ratio_table_cross():
    table = ratio_table("r2-cross", [100, 200])
    assert table["limit"] == 1.5
    r100, r200 = (row["ratio"] for row in table["rows"])
    assert abs(r200 - 1.5) < abs(r100 - 1.5)


def test_ratio_table_model():
    table = ratio_table("r11-model", [50])
    row = table["rows"][0]
    assert row["ratio"] > 0
    assert abs(row["coefficient"] / row["model"] - row["ratio"]) < 1e-12


def test_ratio_table_guards():
    with pytest.raises(ValueError):
        ratio_table("bogus", [100])
    with pytest.raises(ValueError):
        ratio_table("r2-cross", [])
    with pytest.raises(ValueError):
        ratio_table("r2-cross", [9000])


def test_asym_table_monotone():
    table = asym_table("S11", [0.05, 0.02])
    assert table["monotone"] is True
    assert [row["epsilon"] for row in table["rows"]] == [0.05, 0.02]
    with pytest.raises(ValueError):
        asym_table("S11", [])


# --------------------------------------------------------------------------
# entry point and exit codes
# --------------------------------------------------------------------------


def test_main_census(tmp_path, capsys):
    out = tmp_path / "c.csv"
    code = main(["census", "--class", "r1", "--n-max", "6", "--t-max", "1",
                 "--out", str(out), "--json"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["class"] == "r1" and out.is_file()


def test_main_census_env_cache(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HOOKLAB_CACHE", str(tmp_path / "envcache"))
    code = main(["census", "--class", "g2", "--n-max", "5", "--t-max", "1",
                 "--out", str(tmp_path / "g2.csv")])
    assert code == EXIT_OK
    assert (tmp_path / "envcache" / "census-g2.json").is_file()


def test_main_verify_ok(capsys):
    assert main(["verify", "--n-max", "15"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "verify: PASS" in out
    assert "[ok]" in out


def test_main_verify_json(capsys):
    assert main(["verify", "--n-max", "10", "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert all(chk["ok"] for chk in payload["checks"])


def test_main_usage_errors(tmp_path, capsys):
    assert main(["verify", "--n-max", "500"]) == EXIT_USAGE
    assert main(["crossover", "--pair", "nope", "--n-max", "10"]) == EXIT_USAGE
    assert main(["asym", "--target", "S11", "--eps", ""]) == EXIT_USAGE
    assert main(["conjecture", "--t", "2", "--n-max", "10"]) == EXIT_USAGE
    assert main(["conjecture", "--t", "3", "--n-max", "-1"]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE
    assert "census ceiling" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_main_rejects_worker_counts_below_one(tmp_path, capsys, workers):
    # refused while parsing: neither the --out directory nor the cache is made
    census_argv = ["census", "--class", "r1", "--n-max", "10", "--t-max", "2", "--out",
                   str(tmp_path / "newdir" / "x.csv"), "--cache", str(tmp_path / "cdir")]
    for argv in (census_argv, ["verify", "--n-max", "5"], ["conjecture", "--t", "3", "--n-max", "10"]):
        assert main(argv + ["--workers", workers]) == EXIT_USAGE
        assert "workers must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "newdir").exists() and not (tmp_path / "cdir").exists()
    assert main(census_argv) == EXIT_OK
    assert main(census_argv + ["--workers", workers]) == EXIT_USAGE  # cache hit too
    assert "workers must be >= 1" in capsys.readouterr().err


def test_main_rejects_empty_census_shapes(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    assert main(["census", "--class", "r1", "--n-max", "5", "--t-max", "2", "--out",
                 str(tmp_path / "a.csv"), "--cache", cache]) == EXIT_OK
    for n_max, t_max in (("-1", "2"), ("5", "0")):
        for extra in ([], ["--cache", cache]):  # a cache hit included
            argv = ["census", "--class", "r1", "--n-max", n_max, "--t-max", t_max,
                    "--out", str(tmp_path / "b.csv")] + extra
            assert main(argv) == EXIT_USAGE
    assert not (tmp_path / "b.csv").exists()
    capsys.readouterr()


@pytest.mark.parametrize("n_max,t_max", [(CENSUS_CEILING + 1, 2), (10, CENSUS_CEILING + 1)])
def test_main_census_above_the_ceiling(tmp_path, capsys, n_max, t_max):
    out = tmp_path / "big.csv"
    code = main(["census", "--class", "r2", "--n-max", str(n_max), "--t-max", str(t_max),
                 "--out", str(out), "--cache", str(tmp_path / "cache")])
    assert code == EXIT_USAGE
    assert "ceiling" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "cache").exists()


@pytest.mark.parametrize("flag", ["--out", "--cache"])
@pytest.mark.parametrize("below", ["", "sub"])
def test_main_census_path_under_a_file(tmp_path, capsys, monkeypatch, flag, below):
    import hooklab.cli as cli

    calls = []
    monkeypatch.setattr(cli, "census_rows", lambda *a, **kw: calls.append(a))
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory\n")
    under = blocker / below
    out = under / "x.csv" if flag == "--out" else tmp_path / "ok.csv"
    argv = ["census", "--class", "r1", "--n-max", "5", "--t-max", "2", "--out", str(out)]
    if flag == "--cache":
        argv += ["--cache", str(under)]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")
    assert blocker.read_text() == "a file, not a directory\n"
    assert calls == []  # refused before the census, not after it
    assert not (tmp_path / "ok.csv").exists()


@pytest.mark.parametrize("flag", ["--out", "--cache", "sidecar"])
def test_main_census_path_is_a_directory(tmp_path, capsys, monkeypatch, flag):
    import hooklab.cli as cli

    calls = []
    monkeypatch.setattr(cli, "census_rows", lambda *a, **kw: calls.append(a))
    out, cache = tmp_path / "out" / "r1.csv", tmp_path / "cache"
    blocked = {"--out": out, "--cache": cache / "census-r1.json", "sidecar": out.with_suffix(".json")}
    blocked[flag].mkdir(parents=True)
    argv = ["census", "--class", "r1", "--n-max", "5", "--t-max", "2",
            "--out", str(out), "--cache", str(cache)]
    assert main(argv) == EXIT_USAGE
    assert "is a directory" in capsys.readouterr().err
    assert calls == [] and not out.is_file()


def test_main_census_refuses_an_out_path_that_is_its_own_sidecar(tmp_path, capsys, monkeypatch):
    # x.json's sidecar would be x.json itself, overwriting the CSV
    import hooklab.cli as cli

    calls = []
    monkeypatch.setattr(cli, "census_rows", lambda *a, **kw: calls.append(a))
    out = tmp_path / "newdir" / "x.json"
    argv = ["census", "--class", "r1", "--n-max", "5", "--t-max", "2", "--out", str(out)]
    assert main(argv) == EXIT_USAGE
    assert "ends in .json" in capsys.readouterr().err
    assert calls == [] and not (tmp_path / "newdir").exists()


def test_main_ratios_with_a_zero_denominator(capsys):
    # the one g2 partition of 1 has no 2-hook, so H22 vanishes at n = 1
    assert main(["ratios", "--pair", "g2-cross", "--checkpoints", "1,50"]) == EXIT_USAGE
    assert "checkpoint n=1" in capsys.readouterr().err


def _child_env() -> dict:
    """The environment for a child interpreter that imports this hooklab,
    whether it is installed or only on the test session's path."""
    src = str(Path(hooklab.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "hooklab", "crossover", "--pair", "r-t1", "--n-max", "30"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == EXIT_OK
    assert "first_hold" in proc.stdout


def test_cli_import_loads_no_scipy():
    code = "import sys, hooklab.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_main_crossover_and_tables(capsys):
    assert main(["crossover", "--pair", "g-t1", "--n-max", "60", "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["pair"] == "g-t1" and payload["first_hold"] is not None

    assert main(["ratios", "--pair", "g2-cross", "--checkpoints", "50,100"]) == EXIT_OK
    assert "limit" in capsys.readouterr().out

    assert main(["asym", "--target", "H11", "--eps", "0.05,0.02"]) == EXIT_OK
    assert "monotone approach to 1: yes" in capsys.readouterr().out

    assert main(["conjecture", "--t", "3", "--n-max", "25", "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert {s["pair"] for s in payload["scans"]} == {"r", "g"}

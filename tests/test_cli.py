"""CLI layer: census and cache files, the verify suite, crossovers,
conjecture scans, ratio/saddle tables, exit codes."""

import argparse
import builtins
import errno
import hashlib
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hooklab
from hooklab import asym
from hooklab.classes import ClassId
from hooklab.cli import (
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    SERIES_CEILING,
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
from hooklab.qseries import _HOOK_SERIES, series_H, series_S


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


def _tampered(where: tuple, change) -> bytes:
    """The (20, 3) r2 table's cache file with the entry at ``where`` changed."""
    payload = _census_payload(census(ClassId.R2, 20, 3))
    *outer, last = where
    node = payload
    for key in outer:
        node = node[key]
    node[last] = change(node[last])
    return json.dumps(payload).encode()


# what census-r2.json held before the call -> a function giving its bytes,
# or None for no file
_CACHE_BEFORE = {
    "missing": lambda: None,
    "larger": lambda: json.dumps(_census_payload(census(ClassId.R2, CENSUS_CEILING, CENSUS_CEILING))).encode(),
    "not-text": lambda: b"\xff\xfe{",
    **{f"unreadable-{text}": (lambda text=text: text.encode())
       for text in ("{", "[]", '{"class": "zz"}', '{"class": "r2"}')},
    **{f"tampered-{name}": (lambda where=where, change=change: _tampered(where, change))
       for name, where, change in (
           ("class", ("class",), lambda v: "r1"),
           ("n_max", ("n_max",), lambda v: v + 1),
           ("n_max-above-the-ceiling", ("n_max",), lambda v: CENSUS_CEILING + 1),
           ("t_max", ("t_max",), lambda v: v + 1),
           ("t1-count", ("counts", 12, 0), lambda v: v + 1),
           ("t2-count", ("counts", 12, 1), lambda v: v - 1),
           ("t3-count-below-zero", ("counts", 12, 2), lambda v: -1),
           ("t3-count-no-int", ("counts", 12, 2), float),
           ("t3-count-off-by-one", ("counts", 12, 2), lambda v: v + 1),
           ("short-row", ("counts", 12), lambda row: row[:2]),
           ("truncated-counts", ("counts",), lambda rows: rows[:5]),
           ("cardinality", ("cardinality", 12), lambda v: v + 1),
           ("cardinality-at-0", ("cardinality", 0), lambda v: v + 1),
           ("total_hooks", ("total_hooks", 12), lambda v: v + 12),
       )},
}


@pytest.mark.parametrize("before", sorted(_CACHE_BEFORE))
def test_cache_file_is_written_through(tmp_path, monkeypatch, before):
    import hooklab.cli as cli

    # whatever the file held, the census is computed once at the requested
    # shape and the file is replaced by that table
    cache = tmp_path / "cache"
    path = cache / "census-r2.json"
    held = _CACHE_BEFORE[before]()
    if held is not None:
        cache.mkdir()
        path.write_bytes(held)
    asked = []
    real = cli.census_rows

    def recorded(cid, ns, t_max, **kw):
        asked.append((cid, ns, t_max))
        return real(cid, ns, t_max, **kw)

    monkeypatch.setattr(cli, "census_rows", recorded)
    served = cached_census(ClassId.R2, 10, 2, str(cache))
    assert asked == [(ClassId.R2, range(11), 2)]
    assert served == census(ClassId.R2, 10, 2)
    assert path.read_text() == json.dumps(_census_payload(served))
    assert [p.name for p in cache.iterdir()] == ["census-r2.json"]  # no temporary file left


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


@pytest.mark.parametrize("command", ["census", "conjecture"])
def test_cached_commands_call_the_traced_census_names(tmp_path, capsys, monkeypatch, command):
    import hooklab.cli as cli

    # the benchmark's tracer wraps cli.cached_census, reading cache_dir as
    # its fourth argument, and cli.census_rows by name
    cache = str(tmp_path / "cache")
    argv = {
        "census": ["census", "--class", "g1", "--n-max", "12", "--t-max", "3",
                   "--out", str(tmp_path / "g1.csv")],
        "conjecture": ["conjecture", "--t", "3", "--n-max", "12"],
    }[command]
    cache_dirs, classes = [], []
    real_cached, real_rows = cli.cached_census, cli.census_rows

    def cached(*args, **kw):
        cache_dirs.append(args[3] if len(args) > 3 else kw.get("cache_dir"))
        return real_cached(*args, **kw)

    def rows(*args, **kw):
        classes.append(args[0])
        return real_rows(*args, **kw)

    monkeypatch.setattr(cli, "cached_census", cached)
    monkeypatch.setattr(cli, "census_rows", rows)
    assert main(argv + ["--cache", cache]) == EXIT_OK
    capsys.readouterr()
    assert cache_dirs and set(cache_dirs) == {cache}
    assert sorted(c.value for c in classes) == (["g1"] if command == "census" else ["g1", "g2", "r1", "r2"])


# what runs with and without --cache; {out} is the CSV path
_CACHED_RUNS = {
    "census": ["census", "--class", "g2", "--n-max", "20", "--t-max", "4", "--out", "{out}"],
    "conjecture": ["conjecture", "--t", "4,3", "--n-max", "20"],
}
# what fills the cache directory first: nothing, tables larger than the run's
# in n and t, or tables larger in n and narrower in t
_CACHE_PRIMES = {
    "empty": [],
    "larger": [["conjecture", "--t", "3,6", "--n-max", "40"]],
    "longer-narrower": [
        ["census", "--class", c, "--n-max", "40", "--t-max", "1", "--out", "{prime}/" + c + ".csv"]
        for c in ("r1", "r2", "g1", "g2")
    ],
}


@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["human", "json"])
@pytest.mark.parametrize("prime", sorted(_CACHE_PRIMES))
@pytest.mark.parametrize("command", sorted(_CACHED_RUNS))
def test_cache_changes_no_output(tmp_path, capsys, command, prime, fmt):
    out = tmp_path / "out" / "table.csv"
    argv = [a.replace("{out}", str(out)) for a in _CACHED_RUNS[command]] + fmt

    def run(extra: list) -> tuple:
        """stdout, stderr and the bytes of the CSV and sidecar, which are
        then removed so the next run writes its own"""
        assert main(argv + extra) == EXIT_OK
        files = []
        for path in (out, out.with_suffix(".json")):
            files.append(path.read_bytes() if path.is_file() else None)
            path.unlink(missing_ok=True)
        return capsys.readouterr(), files

    plain = run([])
    cache = tmp_path / "cache"
    for prime_argv in _CACHE_PRIMES[prime]:
        prime_argv = [a.replace("{prime}", str(tmp_path / "prime")) for a in prime_argv]
        assert main(prime_argv + ["--cache", str(cache)]) == EXIT_OK
    capsys.readouterr()
    assert run(["--cache", str(cache)]) == plain


# sha256 of what census and conjecture write for g1 at n <= 84, t <= 4
_WRITTEN_DIGESTS = {
    "csv": "2c9d2eb23e221901f0ccd57e3db248c0568a7d9a14559759520224a95c922b5a",
    "sidecar": "ccd46f05fd2797de0e030ca0a5103c6fe6d51203210665d465aea17a29217bfe",
    "cache": "8df1c28e2f1b556787faf4e5bd3406b2b7127deda0259fd38c5d358c878a7886",
    "conjecture --json": "9ec9a91705ee55917e84752e31c1b0dad536a2b40e8dfdc741d90ea3f9b44473",
}


def test_written_bytes_are_pinned(tmp_path, capsys):
    out, cache = tmp_path / "out" / "g1.csv", tmp_path / "cache"
    assert main(["census", "--class", "g1", "--n-max", "84", "--t-max", "4",
                 "--out", str(out), "--cache", str(cache)]) == EXIT_OK
    assert capsys.readouterr() == (f"wrote {out} and {out.with_suffix('.json')}\n", "")
    written = {"csv": out.read_bytes(), "sidecar": out.with_suffix(".json").read_bytes(),
               "cache": (cache / "census-g1.json").read_bytes()}
    assert main(["conjecture", "--t", "4,3", "--n-max", "84", "--json"]) == EXIT_OK
    stdout, stderr = capsys.readouterr()
    assert stderr == ""
    written["conjecture --json"] = stdout.encode()
    assert {k: hashlib.sha256(v).hexdigest() for k, v in written.items()} == _WRITTEN_DIGESTS


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


@pytest.mark.parametrize("exponent, delta", [(1, -2), (16, 2)])
@pytest.mark.parametrize("key", sorted(_HOOK_SERIES))
def test_verify_corrupt_fails_only_its_series_check(key, exponent, delta):
    # what the benchmark's verify-suite check requires of a planted error:
    # exactly one failing check, the planted series' own, naming the exponent
    bad = [r for r in verify_report(16, _corrupt=(key, exponent, delta)) if not r.ok]
    assert len(bad) == 1, bad
    assert bad[0].name.startswith(f"series {key} ")
    assert f"n={exponent}:" in bad[0].detail


def test_verify_cross_checks_the_hook_table(monkeypatch):
    import hooklab.cli as cli
    from hooklab.hooks import _hook_cells

    # relabel 2-hooks as 3-hooks from n = 3 on: n cells, all in [1, n], the
    # 1-hooks intact, so only the count of 2s betrays the table
    monkeypatch.setattr(cli, "_hook_cells", lambda p, conj: [
        3 if h == 2 and sum(p) >= 3 else h for h in _hook_cells(p, conj)
    ])
    bad = [r.name for r in verify_report(6) if not r.ok]
    assert bad == ["hook-sum conservation per partition (n <= 6)"]


@pytest.mark.parametrize(
    "planted, failures",
    [
        # a partition of another size: not in the map of the partitions of 3
        ({(2, 1): (2, 2)}, {"conjugation involution": "(2, 1)", "hook-sum conservation per partition": "(2, 1)"}),
        # non-partitions of the right size; the first leaves the hook table whole
        ({(4,): (1, 1, 1, 1, 0)}, {"conjugation involution": "(4,)"}),
        ({(3, 1): (1, 1, 2)}, {"conjugation involution": "(3, 1)", "hook-sum conservation per partition": "(3, 1)"}),
        # (4,)'s conjugate (1, 1, 1, 1) now maps to (3, 1): the first break in
        # walk order is at (4,), before either planted partition
        (
            {(2, 2): (2, 2, 1), (1, 1, 1, 1): (3, 1)},
            {"conjugation involution": "(4,)", "hook-sum conservation per partition": "(1, 1, 1, 1)"},
        ),
    ],
)
def test_verify_reports_a_conjugate_outside_the_partitions(monkeypatch, planted, failures):
    import hooklab.cli as cli

    real = cli.conjugate
    monkeypatch.setattr(cli, "conjugate", lambda p: planted.get(p, real(p)))
    bad = {r.name: r.detail for r in verify_report(6) if not r.ok}
    assert bad == {f"{title} (n <= 6)": witness for title, witness in failures.items()}


def test_verify_calls_the_traced_geometry_names(monkeypatch):
    import hooklab.cli as cli

    # the benchmark's tracer wraps these three by name in cli, and reports
    # its geometry layer group only when t_hook_count was called
    calls = dict.fromkeys(("t_hook_count", "conjugate", "shortcut_stats"), 0)

    def counted(name):
        real = getattr(cli, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(cli, name, counted(name))
    assert all(r.ok for r in verify_report(8))
    assert all(calls.values()), calls


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


# sha256 of the JSON list of (name, ok, detail) of every check, per run; the
# run at the ceiling, n = 80, is checked by the replay test, which makes it
# anyway, against _VERIFY_CEILING_DIGEST
_VERIFY_DIGESTS = {
    (0, None): "c9feb961bed59d99e19e1a61ac3b5ba184b37396f59f1c730ca6ffbb50909ed6",
    (6, None): "43b71ab26eddb79c82042b265a0b048098fc0278649da87ad832a6c2ccaf42bd",
    (30, None): "85c2dbdc0d76d94b576bc486ee5888093f1fd90655b87eb9fe10cb558498087c",
    (40, None): "45600daa0e31e899a44ee498c2b359e3ba180bb3170041ec787898d3225b4ddf",
    (16, ("H22", 9, -1)): "0ffa6e18168ab7fb32a8e5a6c3169944c18800246d3a51630d99b03acc9897fd",
}


@pytest.mark.parametrize("n_max, corrupt", sorted(_VERIFY_DIGESTS, key=str))
def test_verify_report_digest(n_max, corrupt):
    rows = [(r.name, r.ok, r.detail) for r in verify_report(n_max, _corrupt=corrupt)]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == _VERIFY_DIGESTS[n_max, corrupt]


# --------------------------------------------------------------------------
# crossovers
# --------------------------------------------------------------------------


def test_crossover_example_point():
    # by n = 4 the gap class already leads for 1-hooks: 3 > 2
    report = crossover_report("r-t1", 10)
    assert 4 not in report.violations


# pair -> (lhs series, rhs series, direction), each series (builder, j, t):
# direction "gt" means lhs > rhs is required, "lt" lhs < rhs
_CROSSOVER_SERIES = {
    "r-t1": ((series_S, 1, 1), (series_S, 2, 1), "gt"),
    "r-t2": ((series_S, 1, 2), (series_S, 2, 2), "lt"),
    "g-t1": ((series_H, 1, 1), (series_H, 2, 1), "gt"),
    "g-t2": ((series_H, 1, 2), (series_H, 2, 2), "lt"),
}


@pytest.mark.parametrize(
    "pair, n_max",
    [pytest.param(pair, 300, id=pair) for pair in sorted(_CROSSOVER_SERIES)]
    + [pytest.param(pair, SERIES_CEILING, id=f"{pair}-at-the-ceiling")
       for pair in sorted(_CROSSOVER_SERIES)],
)
def test_crossover_internal_consistency(capsys, pair, n_max):
    report = crossover_report(pair, n_max)
    assert report.first_hold is not None
    assert all(v < report.first_hold for v in report.violations)
    # independent honesty pass over the emitted data, from the series named
    # by their indices, not through the table the report reads
    (lbuild, lj, lt), (rbuild, rj, rt), direction = _CROSSOVER_SERIES[pair]
    lhs, rhs = lbuild(lj, lt, n_max), rbuild(rj, rt, n_max)
    for n in range(report.first_hold, n_max + 1):
        if direction == "gt":
            assert lhs[n] > rhs[n]
        else:
            assert lhs[n] < rhs[n]
    assert main(["crossover", "--pair", pair, "--n-max", str(n_max)]) == EXIT_OK
    capsys.readouterr()


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


# sha256 of what each run writes at the census ceiling: the CSV of census
# --class C --n-max 200 --t-max 200, and json.dumps of the "scans" of
# conjecture --t 3,4,5,6,7,8 --n-max 200 --json
_CEILING_OUTPUT_DIGESTS = {
    "r1": "2dcdbb0a7516280b1e62c210c304c4acf4a279505e508dd32d820051a38975cd",
    "r2": "c3807a0eb640a4fa61d9189115ce24038c4c21dc04fb1805acda99ef0b5b4703",
    "g1": "8ec66e0ad89eec9aae9f289946f19face984fe7e44b9769c3a6e6cb052aa3621",
    "g2": "6f207d3b6bce29e82453c57e7836a5a74ebcadb934cbc1f75d8c1e41a4ee82b0",
    "conjecture": "adc20bc870c1de8ef828c567ea07bec3587b40401136371bd24f52106f6201d5",
}


@pytest.mark.parametrize("name", list(_CEILING_OUTPUT_DIGESTS))
def test_census_and_conjecture_digests_at_the_ceiling(tmp_path, capsys, name):
    # every count at t <= 200, where the engine digests stop at t = 8 and
    # take t = 200 for r1 alone
    top = str(CENSUS_CEILING)
    if name == "conjecture":
        assert main(["conjecture", "--t", "3,4,5,6,7,8", "--n-max", top, "--json"]) == EXIT_OK
        output = json.dumps(json.loads(capsys.readouterr().out)["scans"]).encode()
    else:
        out = tmp_path / f"{name}.csv"
        assert main(["census", "--class", name, "--n-max", top, "--t-max", top,
                     "--out", str(out)]) == EXIT_OK
        output = out.read_bytes()
    assert hashlib.sha256(output).hexdigest() == _CEILING_OUTPUT_DIGESTS[name]


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


# pair -> the series it reads, each (builder, j, t), and its growth-model
# key (a *-model pair) or its limit (a *-cross pair, numerator first)
_RATIO_PAIRS = {
    "r11-model": ([(series_S, 1, 1)], "r11"),
    "r12-model": ([(series_S, 1, 2)], "r12"),
    "r21-model": ([(series_S, 2, 1)], "r21"),
    "r22-model": ([(series_S, 2, 2)], "r22"),
    "g11-model": ([(series_H, 1, 1)], "g11"),
    "g12-model": ([(series_H, 1, 2)], "g12"),
    "g21-model": ([(series_H, 2, 1)], "g21"),
    "g22-model": ([(series_H, 2, 2)], "g22"),
    "r1-cross": ([(series_S, 1, 1), (series_S, 2, 1)], 2.5 * asym.LOG_PHI),
    "r2-cross": ([(series_S, 2, 2), (series_S, 2, 1)], 1.5),
    "g1-cross": ([(series_H, 1, 1), (series_H, 2, 1)], 4.0 / 3.0 * asym.LOG_SILVER),
    "g2-cross": ([(series_H, 2, 1), (series_H, 2, 2)], 0.75),
}


@pytest.mark.parametrize(
    "pair, checkpoints",
    [pytest.param(pair, [3000, 100], id=pair) for pair in sorted(_RATIO_PAIRS)]
    + [pytest.param(pair, [1000, SERIES_CEILING], id=f"{pair}-at-the-ceiling")
       for pair in sorted(_RATIO_PAIRS)],
)
def test_ratio_table_every_pair(capsys, pair, checkpoints):
    # every row of every pair, rebuilt from the series named by their
    # indices and from the growth model named by its key
    ns = sorted(checkpoints)
    series, model_or_limit = _RATIO_PAIRS[pair]
    coeffs = [build(j, t, ns[-1]) for build, j, t in series]
    if pair.endswith("-model"):
        model = asym.growth_model(model_or_limit)
        rows = [{"n": n, "coefficient": float(coeffs[0][n]), "model": model.value(n),
                 "ratio": coeffs[0][n] / model.value(n)} for n in ns]
        expected = {"pair": pair, "kind": "model", "limit": None, "rows": rows}
    else:
        (num, den), limit = coeffs, model_or_limit
        rows = [{"n": n, "ratio": num[n] / den[n], "limit": limit,
                 "abs_error": abs(num[n] / den[n] - limit)} for n in ns]
        expected = {"pair": pair, "kind": "cross", "limit": limit, "rows": rows}
    assert ratio_table(pair, checkpoints) == expected
    assert main(["ratios", "--pair", pair, "--checkpoints", ",".join(map(str, checkpoints))]) == EXIT_OK
    capsys.readouterr()


def test_series_reach_the_traced_names_positionally(monkeypatch):
    import hooklab.cli as cli

    # the benchmark's tracer wraps series_S and series_H by name in cli and
    # reads the key of each call from its first three positional arguments
    calls = []

    def recorded(family, real):
        def wrapper(*args, **kwargs):
            assert len(args) == 3 and not kwargs, (family, args, kwargs)
            calls.append((family, *args[:2]))
            return real(*args)

        return wrapper

    monkeypatch.setattr(cli, "series_S", recorded("S", series_S))
    monkeypatch.setattr(cli, "series_H", recorded("H", series_H))
    assert all(r.ok for r in verify_report(8))
    assert sorted(calls) == sorted((f, j, t) for f in "SH" for j in (1, 2) for t in (1, 2))
    for pair, (lhs, rhs, direction) in _CROSSOVER_SERIES.items():
        calls.clear()
        crossover_report(pair, 30)
        # the smaller series of the inequality is read first
        smaller, larger = (rhs, lhs) if direction == "gt" else (lhs, rhs)
        assert calls == [("S" if b is series_S else "H", j, t) for b, j, t in (smaller, larger)], pair
    for pair, (series, _) in _RATIO_PAIRS.items():
        calls.clear()
        ratio_table(pair, [40])
        assert calls == [("S" if b is series_S else "H", j, t) for b, j, t in series], pair


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
    assert main(census_argv + ["--workers", workers]) == EXIT_USAGE  # a cache file present too
    assert "workers must be >= 1" in capsys.readouterr().err


def test_main_rejects_empty_census_shapes(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    assert main(["census", "--class", "r1", "--n-max", "5", "--t-max", "2", "--out",
                 str(tmp_path / "a.csv"), "--cache", cache]) == EXIT_OK
    for n_max, t_max in (("-1", "2"), ("5", "0")):
        for extra in ([], ["--cache", cache]):  # a cache file present included
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


@pytest.mark.parametrize("name", ["census-r1.csv", "census-r2.csv"])
def test_main_census_refuses_an_out_path_onto_the_cache_file(tmp_path, capsys, monkeypatch, name):
    # with --out D/census-r1.csv the sidecar would be D/census-r1.json, the
    # r1 cache file; with D/census-r2.csv it would be the r2 cache file
    import hooklab.cli as cli

    calls = []
    monkeypatch.setattr(cli, "census_rows", lambda *a, **kw: calls.append(a))
    out = tmp_path / "d" / name
    argv = ["census", "--class", "r1", "--n-max", "6", "--t-max", "2",
            "--out", str(out), "--cache", str(tmp_path / "d")]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")
    assert calls == [] and not (tmp_path / "d").exists()


class _FailsOnClose:
    """A file open for writing whose close fails after its text is written,
    as a full disk may first show at the flush."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, text):
        return self.fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self):
        self.fh.close()
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("failing", ["csv", "sidecar", "cache"])
def test_a_failed_write_leaves_the_old_file_whole(tmp_path, capsys, monkeypatch, failing):
    out, cache = tmp_path / "out" / "r1.csv", tmp_path / "cache"
    files = {"csv": out, "sidecar": out.with_suffix(".json"), "cache": cache / "census-r1.json"}

    def census_argv(n_max: int) -> list:
        return ["census", "--class", "r1", "--n-max", str(n_max), "--t-max", "2",
                "--out", str(out), "--cache", str(cache)]

    assert main(census_argv(10)) == EXIT_OK
    old = {name: path.read_bytes() for name, path in files.items()}
    assert main(census_argv(12)) == EXIT_OK
    new = {name: path.read_bytes() for name, path in files.items()}
    assert main(census_argv(10)) == EXIT_OK

    # every write of the failing file, or of a temporary file named after
    # it, fails once its text is written
    real_open = builtins.open

    def failing_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        if "w" in mode and Path(file).name.startswith(files[failing].name):
            return _FailsOnClose(fh)
        return fh

    monkeypatch.setattr(builtins, "open", failing_open)
    assert main(census_argv(12)) == EXIT_USAGE
    monkeypatch.undo()
    assert "No space left on device" in capsys.readouterr().err
    after = {name: path.read_bytes() for name, path in files.items()}
    assert after[failing] == old[failing]
    assert all(after[name] in (old[name], new[name]) for name in files)
    assert sorted(p.name for p in tmp_path.rglob("*.tmp")) == []


def test_main_ratios_with_a_zero_denominator(capsys):
    # the one g2 partition of 1 has no 2-hook, so H22 vanishes at n = 1
    assert main(["ratios", "--pair", "g2-cross", "--checkpoints", "1,50"]) == EXIT_USAGE
    assert "checkpoint n=1" in capsys.readouterr().err


@pytest.mark.parametrize("pair", ["r2-cross", "g11-model"])
def test_main_ratios_prints_a_repeated_checkpoint_once(capsys, pair):
    # as conjecture's t list and asym's eps list, the checkpoints are a set
    argv = ["ratios", "--pair", pair, "--checkpoints"]
    assert main([*argv, "100,10,100", "--json"]) == EXIT_OK
    assert [row["n"] for row in json.loads(capsys.readouterr().out)["rows"]] == [10, 100]
    assert main([*argv, "100,10,100"]) == EXIT_OK
    repeated = capsys.readouterr().out
    assert main([*argv, "10,100"]) == EXIT_OK
    assert repeated == capsys.readouterr().out and repeated.count("\n") == 2


_VERIFY_6 = [
    "series H11 == census g1 (t=1, n <= 6)",
    "series H12 == census g1 (t=2, n <= 6)",
    "series H21 == census g2 (t=1, n <= 6)",
    "series H22 == census g2 (t=2, n <= 6)",
    "series S11 == census r1 (t=1, n <= 6)",
    "series S12 == census r1 (t=2, n <= 6)",
    "series S21 == census r2 (t=1, n <= 6)",
    "series S22 == census r2 (t=2, n <= 6)",
    "census cardinality == counting series for r1",
    "census cardinality == counting series for r2",
    "census cardinality == counting series for g1",
    "census cardinality == counting series for g2",
    "census engine == enumeration for r1 (t <= 4, n <= 6)",
    "census engine == enumeration for r2 (t <= 4, n <= 6)",
    "census engine == enumeration for g1 (t <= 4, n <= 6)",
    "census engine == enumeration for g2 (t <= 4, n <= 6)",
    "sum-product identity RR1 (n <= 6)",
    "sum-product identity LG1 (n <= 6)",
]
_PROPERTIES_6 = [
    "conjugation involution (n <= 6)",
    "hook-sum conservation per partition (n <= 6)",
    "1-hooks == distinct parts (n <= 6)",
    "2-hooks == gap_gt1 + mult_gt1 (n <= 6)",
    "gap classes: 1-hooks == parts, 2-hooks == parts > 1 (n <= 6)",
    "congruence classes: 2-hooks == distinct_gt1 + mult_gt1 - adjacent pairs (n <= 6)",
]
# the first partition each planted fault below breaks, per property
_WITNESSES_6 = ["(2,)", "(1, 1)", "(3, 1)", "(1, 1)", "('r1', (3, 1))", "('r2', (1, 1))"]

# argv -> (exit code, stdout); {tmp} is the test's temporary directory
_GOLDEN = {
    "census": (
        ["census", "--class", "g2", "--n-max", "6", "--t-max", "2", "--out", "{tmp}/g2.csv"], EXIT_OK,
        ["wrote {tmp}/g2.csv and {tmp}/g2.json"],
    ),
    "verify": (
        ["verify", "--n-max", "6"], EXIT_OK,
        [f"[ok] {name}" for name in _VERIFY_6 + _PROPERTIES_6] + ["verify: PASS"],
    ),
    "crossover": (
        ["crossover", "--pair", "g-t2", "--n-max", "40"], EXIT_OK,
        ["pair g-t2: first_hold=16 (n_max=40, 15 violations below)"],
    ),
    "crossover-absent": (
        ["crossover", "--pair", "r-t1", "--n-max", "0"], EXIT_OK,
        ["pair r-t1: first_hold=absent (n_max=0, 1 violations below)"],
    ),
    "conjecture": (
        ["conjecture", "--t", "4,3", "--n-max", "30"], EXIT_OK,
        [
            "t=3 pair=r: holds_from=6 counterexamples_above=[]",
            "t=3 pair=g: holds_from=8 counterexamples_above=[]",
            "t=4 pair=r: holds_from=12 counterexamples_above=[]",
            "t=4 pair=g: holds_from=9 counterexamples_above=[]",
        ],
    ),
    "conjecture-absent": (
        ["conjecture", "--t", "3", "--n-max", "5"], EXIT_OK,
        [
            "t=3 pair=r: holds_from=absent counterexamples_above=[]",
            "t=3 pair=g: holds_from=absent counterexamples_above=[]",
        ],
    ),
    "ratios-model": (
        ["ratios", "--pair", "r11-model", "--checkpoints", "50,10"], EXIT_OK,
        ["n=10: coefficient/model = 0.984540", "n=50: coefficient/model = 0.996154"],
    ),
    "ratios-cross": (
        ["ratios", "--pair", "r1-cross", "--checkpoints", "100,200"], EXIT_OK,
        [
            "n=100: ratio = 1.190289 (limit 1.203030, off by 0.012741)",
            "n=200: ratio = 1.193974 (limit 1.203030, off by 0.009055)",
        ],
    ),
    "asym": (
        ["asym", "--target", "S11", "--eps", "0.02,0.05"], EXIT_OK,
        [
            "eps=0.05: ratio = 0.9926849395 (|ratio-1| = 7.315e-03)",
            "eps=0.02: ratio = 0.9970884546 (|ratio-1| = 2.912e-03)",
            "monotone approach to 1: yes",
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_main_human_output_is_golden(tmp_path, capsys, name):
    argv, code, lines = _GOLDEN[name]
    assert main([a.replace("{tmp}", str(tmp_path)) for a in argv]) == code
    expected = "".join(line.replace("{tmp}", str(tmp_path)) + "\n" for line in lines)
    assert capsys.readouterr() == (expected, "")


def test_main_verify_failure_output_is_golden(monkeypatch, capsys):
    import hooklab.cli as cli

    # a 1-hook too many at (3, 1) and a 2-hook too many at (1, 1), in the
    # words of the unrestricted sweep and in the classes' t_hook_count, and
    # a conjugation that fixes (1, 1), break every property check once
    real_words, real_count, real_conjugate = cli.boundary_words, cli.t_hook_count, cli.conjugate
    planted = {((3, 1), 1), ((1, 1), 2)}

    def planted_words(pairs):
        # the words are read from the largest part down, so a hook is an N
        # step with an E step t letters after it: an N step past the end of
        # the word and such an E step make one more t-hook, and the others
        # they make are longer than 2
        norths, easts = real_words(pairs)
        for i, (p, _) in enumerate(pairs):
            far = easts[i].bit_length() + 3
            for t in range(1, 3):
                if (p, t) in planted:
                    norths[i], easts[i] = norths[i] | 1 << far, easts[i] | 1 << far + t
        return norths, easts

    monkeypatch.setattr(cli, "boundary_words", planted_words)
    monkeypatch.setattr(cli, "t_hook_count", lambda p, t: real_count(p, t) + ((p, t) in planted))
    monkeypatch.setattr(cli, "conjugate", lambda p: p if p == (1, 1) else real_conjugate(p))
    assert main(["verify", "--n-max", "6"]) == EXIT_CHECK_FAILED
    lines = [f"[ok] {name}" for name in _VERIFY_6]
    lines += [f"[FAIL] {name}: {w}" for name, w in zip(_PROPERTIES_6, _WITNESSES_6)]
    assert capsys.readouterr().out == "\n".join(lines + ["verify: FAIL"]) + "\n"


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


# (argv, exit code), in one process: a census that writes files, a usage
# error from a choice and one from a type check, --version, and a --json
# call before a human-readable one of another subcommand, so that a default
# one call left on the shared parser would show in a later one; then every
# subcommand but asym at its ceiling, with the series memo kept between
# calls, and a usage error each past the crossover and verify bounds; {tmp}
# is the test's temporary directory
_REPLAY = [
    (["census", "--class", "r2", "--n-max", "12", "--t-max", "3", "--out", "{tmp}/r2.csv"], EXIT_OK),
    (["crossover", "--pair", "r-t3", "--n-max", "30"], EXIT_USAGE),
    (["conjecture", "--t", "3", "--n-max", "20", "--json"], EXIT_OK),
    (["verify", "--n-max", "6", "--workers", "0"], EXIT_USAGE),
    (["--version"], EXIT_OK),
    (["verify", "--n-max", "6"], EXIT_OK),
    *((["crossover", "--pair", p, "--n-max", "5000"], EXIT_OK) for p in ("g-t1", "g-t2", "r-t1", "r-t2")),
    *((["ratios", "--pair", p, "--checkpoints", "1000,5000"], EXIT_OK) for p in ("r1-cross", "g22-model")),
    (["verify", "--n-max", "80", "--json"], EXIT_OK),
    (["census", "--class", "r2", "--n-max", "200", "--t-max", "200", "--out", "{tmp}/r2.csv"], EXIT_OK),
    (["conjecture", "--t", "3,4,5,6,7,8", "--n-max", "200", "--json"], EXIT_OK),
    # cut in n and t from the census the conjecture above scanned and held
    (["census", "--class", "g1", "--n-max", "150", "--t-max", "6", "--out", "{tmp}/g1.csv"], EXIT_OK),
    (["crossover", "--pair", "r-t3", "--n-max", "5000"], EXIT_USAGE),
    (["verify", "--n-max", "81"], EXIT_USAGE),
]


# the _VERIFY_DIGESTS digest of `verify --n-max 80 --json`, whose run the
# replay test checks
_VERIFY_CEILING_DIGEST = "231e0c4199549e3c80796d93c8047a4a3b90aeda53d2e2c3114f08fd08e54ad8"


def test_main_called_repeatedly_matches_fresh_processes_and_builds_one_parser(
    tmp_path, capsys, monkeypatch
):
    import hooklab.cli as cli

    # usage lines wrap at the terminal width, which a pipe and pytest's own
    # terminal need not share
    monkeypatch.setenv("COLUMNS", "80")
    built, init = [], argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **k: built.append(k.get("prog")) or init(self, *a, **k))

    def taken() -> dict:
        """The files a run wrote, by name; they are removed for the next run."""
        files = {f.name: f.read_bytes() for f in sorted(tmp_path.iterdir())}
        for f in files:
            (tmp_path / f).unlink()
        return files

    cli._build_parser.cache_clear()
    verified = False
    for argv, code in _REPLAY:
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        in_process = (main(argv), *capsys.readouterr(), taken())
        proc = subprocess.run([sys.executable, "-m", "hooklab", *argv], capture_output=True,
                              text=True, env=_child_env())
        assert in_process == (proc.returncode, proc.stdout, proc.stderr, taken()), argv
        assert in_process[0] == code, argv
        if argv == ["verify", "--n-max", "80", "--json"]:
            rows = [(c["name"], c["ok"], c["detail"]) for c in json.loads(in_process[1])["checks"]]
            assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == _VERIFY_CEILING_DIGEST
            verified = True
    assert verified
    assert built.count("hooklab") == 1


def test_cli_import_builds_no_parser():
    code = (
        "import argparse; built = []; init = argparse.ArgumentParser.__init__\n"
        "argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(k) or init(self, *a, **k)\n"
        "import hooklab.cli; print(len(built))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


def test_cli_import_loads_only_the_standard_library():
    # the modules the import adds, so that whatever the interpreter's site
    # set-up loaded before it does not count
    code = (
        "import sys; before = set(sys.modules); import hooklab.cli; "
        "print(sorted(m for m in set(sys.modules) - before "
        "if m.partition('.')[0] not in sys.stdlib_module_names | {'hooklab'}))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    # under -S no site set-up imports anything first, so the import itself
    # must load none of these heavy standard modules
    code = (
        "import sys; import hooklab.cli; print(sorted({'dataclasses', 'inspect', "
        "'typing', 'fractions', 'decimal'} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# --version and every subcommand, each at a small size, with --json; {tmp}
# is the test's temporary directory
_WITHOUT_MPMATH = {
    "version": ["--version"],
    "census": ["census", "--class", "g2", "--n-max", "6", "--t-max", "2", "--out", "{tmp}/g2.csv", "--json"],
    "verify": ["verify", "--n-max", "6", "--json"],
    "crossover": ["crossover", "--pair", "r-t1", "--n-max", "300", "--json"],
    "conjecture": ["conjecture", "--t", "3", "--n-max", "20", "--json"],
    "ratios": ["ratios", "--pair", "r2-cross", "--checkpoints", "100,1000", "--json"],
    "asym": ["asym", "--target", "S11", "--eps", "0.05,0.02", "--json"],
}


@pytest.mark.parametrize("name", sorted(_WITHOUT_MPMATH))
def test_subcommands_run_without_mpmath(tmp_path, name):
    # the same exit code, stdout and written files with mpmath's import
    # blocked as with it open: the runtime needs the standard library alone
    argv = [a.replace("{tmp}", str(tmp_path)) for a in _WITHOUT_MPMATH[name]]
    runs = []
    for block in ("", "sys.modules['mpmath'] = None; "):
        for f in tmp_path.iterdir():
            f.unlink()
        code = f"import sys; {block}from hooklab.cli import main; sys.exit(main(sys.argv[1:]))"
        proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                              env=_child_env())
        files = {f.name: f.read_bytes() for f in sorted(tmp_path.iterdir())}
        runs.append((proc.returncode, proc.stdout, files))
    assert runs[0][0] == EXIT_OK, runs[0]
    assert runs[1] == runs[0]


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


# --------------------------------------------------------------------------
# reachability
# --------------------------------------------------------------------------

# (argv, exit code): every subcommand at a small size, and a usage error each
# for verify and ratios; {tmp} is the test's temporary directory
_SUBCOMMAND_SCAN = [
    (["--version"], EXIT_OK),
    (["census", "--class", "g2", "--n-max", "6", "--t-max", "2", "--out", "{tmp}/g2.csv",
      "--cache", "{tmp}", "--workers", "1"], EXIT_OK),
    (["verify", "--n-max", "6", "--workers", "1", "--json"], EXIT_OK),
    (["verify", "--n-max", "81"], EXIT_USAGE),
    (["crossover", "--pair", "r-t1", "--n-max", "30"], EXIT_OK),
    (["conjecture", "--t", "3", "--n-max", "10", "--cache", "{tmp}"], EXIT_OK),
    (["ratios", "--pair", "r11-model", "--checkpoints", "10,20"], EXIT_OK),
    (["ratios", "--pair", "g2-cross", "--checkpoints", "1,50"], EXIT_USAGE),
    (["ratios", "--pair", "r2-cross", "--checkpoints", "10"], EXIT_OK),
    (["asym", "--target", "S11", "--eps", "0.05,0.02"], EXIT_OK),
]

# module.qualname of each src/hooklab function that no subcommand enters ->
# why it stays: api (its top-level name is in hooklab.__all__), oracle (a
# test compares against it, or against what it alone reaches) or bench
# (bench/ calls or wraps it, or it is reached only from what bench/ calls)
_UNREACHED = {
    "classes.contains": "api",
    "hooks.census": "api",
    "hooks.hook_lengths": "api",
    "qseries.TruncatedSeries.__eq__": "api",
    "qseries.BivariateSeries.__init__": "api",
    "qseries.BivariateSeries.at_x_one": "api",
    "qseries.BivariateSeries.x_derivative_at_one": "api",
    # verify's failure detail for a sum-product identity
    "qseries.IdentityCheck.__str__": "oracle",
    "classes.all_partitions": "oracle",
    "asym.dilog": "bench",
    "asym.ComplexParam.__new__": "bench",
    # the record's own _make, so that _replace checks as __new__ does
    "asym.ComplexParam._make": "bench",
    "asym.eta_asym_residual": "bench",
    "asym._fixed_pi": "bench",
    "asym._fixed_exp": "bench",
    "asym._fixed_log": "bench",
    "asym._fixed_to_double": "bench",
    "asym.saddle_functions": "bench",
    "qseries.bivariate_R": "bench",
    "qseries.bivariate_G": "bench",
    "qseries._build_bivariate": "bench",
    "qseries._degree_digit_width": "bench",
    "qseries._part_factors": "bench",
    "qseries._part_factor": "bench",
    "qseries._pair_factor": "bench",
}


def _package_functions() -> dict:
    """(file, first line, name) of each named function defined in a
    src/hooklab module -> its module.qualname.  Class bodies and module code,
    which run only at import, are left out, and so are lambdas and
    comprehensions."""
    found = {}

    def visit(code, module, qualname):
        for const in code.co_consts:
            if not inspect.iscode(const):
                continue
            inner = f"{qualname}.{const.co_name}".lstrip(".")
            function = const.co_flags & inspect.CO_OPTIMIZED
            if function and not const.co_name.startswith("<"):
                found[const.co_filename, const.co_firstlineno, const.co_name] = f"{module}.{inner}"
            visit(const, module, f"{inner}.<locals>" if function else inner)

    for path in sorted(Path(hooklab.__file__).parent.glob("*.py")):
        if path.stem != "__main__":
            module = importlib.import_module(f"hooklab.{path.stem}")
            visit(compile(path.read_text(), module.__file__, "exec"), path.stem, "")
    return found


def test_every_function_runs_in_a_subcommand_or_is_listed(tmp_path, capsys, monkeypatch):
    from hooklab import cli, qseries

    # the series memo, the lru caches and the parser cache would let a call
    # skip a builder that an earlier test ran
    monkeypatch.setattr(qseries, "_MEMO", {})
    for module in (asym, qseries, cli):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    entered = set()

    def record(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno, code.co_name))

    codes = []
    sys.setprofile(record)
    try:
        for argv, _ in _SUBCOMMAND_SCAN:
            codes.append(main([a.replace("{tmp}", str(tmp_path)) for a in argv]))
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [code for _, code in _SUBCOMMAND_SCAN]
    functions = _package_functions()
    unreached = {name for key, name in functions.items() if key not in entered}
    assert sorted(unreached) == sorted(_UNREACHED)
    assert set(_UNREACHED.values()) <= {"api", "oracle", "bench"}
    api = {name for name, why in _UNREACHED.items() if why == "api"}
    assert all(name.split(".")[1] in hooklab.__all__ for name in api)

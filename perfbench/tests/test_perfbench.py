"""Tests of the benchmark's own parts.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import statistics
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hilbseries import catalog, cli
from perfbench import checks, measure, run, spans, workloads

ROOT = Path(__file__).resolve().parents[2]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestSpans:
    def test_self_time_under_nested_spans(self):
        clock = FakeClock()
        tracer = spans.Tracer(clock)

        def leaf():
            clock.now += 2.0

        mul = tracer.wrap("series.mul", leaf)

        def middle():
            clock.now += 1.0
            mul()
            mul()
            clock.now += 0.5

        inner = tracer.wrap("localization.segre_integral", middle)

        def outer():
            clock.now += 3.0
            inner()
            clock.now += 0.25

        tracer.wrap("cli.main", outer)()
        assert tracer.calls["series.mul"] == 2
        assert tracer.total_s["series.mul"] == tracer.self_s["series.mul"] == 4.0
        assert tracer.total_s["localization.segre_integral"] == 5.5
        assert tracer.self_s["localization.segre_integral"] == 1.5
        assert tracer.total_s["cli.main"] == 8.75
        assert tracer.self_s["cli.main"] == 3.25
        # series spans inside the Segre oracle are its kernel
        assert tracer.calls["kernel.segre"] == 2
        assert tracer.self_s["kernel.segre"] == 4.0
        assert tracer.calls["kernel.euler"] == 0

    def test_span_closes_when_the_call_raises(self):
        clock = FakeClock()
        tracer = spans.Tracer(clock)

        def boom():
            clock.now += 1.0
            raise ValueError

        failing = tracer.wrap("series.inverse", boom)

        def caller():
            with pytest.raises(ValueError):
                failing()
            clock.now += 1.0

        tracer.wrap("series.log", caller)()
        assert tracer.calls["series.inverse"] == 1
        assert tracer.self_s["series.log"] == 1.0
        assert tracer.total_s["series.log"] == 2.0

    def test_installed_wraps_every_binding_and_restores_it(self):
        from hilbseries import extraction, localization, series
        original = localization.segre_integral
        mul = series.Series.__mul__
        with spans.installed(spans.Tracer()):
            assert localization.segre_integral is not original
            assert extraction.segre_integral is localization.segre_integral
            assert cli.segre_integral is localization.segre_integral
            assert series.Series.__rmul__ is series.Series.__mul__ is not mul
            assert catalog.solve_algebraic is series.solve_algebraic
        assert localization.segre_integral is original
        assert extraction.segre_integral is original and cli.segre_integral is original
        assert series.Series.__mul__ is mul and series.Series.__rmul__ is mul


class TestQuantiles:
    def test_tail_leaves_ten_samples_beyond_the_least_job_count(self):
        assert measure.tail_fraction(21) == 11 / 21
        assert measure.tail_fraction(38) * 38 == 28
        assert measure.tail_fraction(101) * 101 == pytest.approx(91)
        with pytest.raises(ValueError):
            measure.tail_fraction(20)

    def test_harrell_davis_matches_known_values(self):
        assert measure.quantile([3.0] * 12, 0.9) == pytest.approx(3.0)
        assert measure.quantile(list(range(1, 21)), 0.5) == pytest.approx(10.5)
        # on the ranks 1..n the estimate is about n f + 1/2
        assert measure.quantile(list(range(1, 41)), 0.75) == pytest.approx(30.5, abs=0.1)

    def test_tail_lies_above_the_median(self):
        samples = [float(x) for x in range(1, 39)]
        tail = measure.quantile(samples, measure.tail_fraction(38))
        assert statistics.median(samples) < tail < 30.0

    def test_quantile_is_steady_where_a_single_order_statistic_jumps(self):
        # two job sizes meeting at the median: one job crossing over moves
        # the middle order statistic from 1 to 10, the estimate only a little
        cheap, dear = [1.0] * 18, [10.0] * 18
        before = measure.quantile(cheap + dear, 0.5)
        after = measure.quantile(cheap[:-1] + dear + [10.0], 0.5)
        assert 4.0 < before < after < 7.0


class TestSpeed:
    def test_factors_follow_the_probes_near_each_job(self):
        ref = measure.PROBE_REF_S
        factors = measure.speed_factors([ref] * 20 + [2 * ref] * 20)
        assert factors[0] == pytest.approx(1.0) and factors[10] == pytest.approx(1.0)
        assert factors[-1] == pytest.approx(0.5) and factors[30] == pytest.approx(0.5)
        # beside the change the window mixes both speeds
        assert 0.5 < factors[20] < factors[19] < 1.0


class TestWorkloads:
    @pytest.mark.parametrize("workload", workloads.WORKLOADS)
    def test_same_seed_same_jobs(self, workload):
        first, second = workloads.blocks(workload, 7), workloads.blocks(workload, 7)
        other = workloads.blocks(workload, 8)
        a = [next(first) for _ in range(2)]
        assert a == [next(second) for _ in range(2)]
        assert a != [next(other) for _ in range(2)]
        assert a[0] != a[1]

    def test_every_block_covers_every_stratum(self):
        stream = workloads.blocks("extract", 3)
        for _ in range(3):
            block = next(stream)
            strata = sorted((argv[1], argv[2]) for argv in block)
            assert strata == sorted(
                [("--kind=segre", "--rank=%d" % r) for r in range(4)] * 3
                + [("--kind=verlinde", "--rank=%d" % r) for r in range(-3, 4)])
        catalog_jobs = next(workloads.blocks("catalog_verify", 3))
        assert len(catalog_jobs) == len({tuple(argv) for argv in catalog_jobs}) == 60
        oracle_jobs = next(workloads.blocks("oracle_points", 3))
        strata = sorted((argv[1], argv[3], argv[4]) for argv in oracle_jobs)
        assert strata == sorted(
            ("--surface=" + s, "--n=%d" % n, "--kind=" + kind)
            for s in workloads.SURFACES for n in workloads.ORACLE_NS
            for kind in ("segre", "verlinde") for _ in range(2))

    def test_oracle_queries_never_share_a_character_draw(self):
        stream = workloads.blocks("oracle_points", 5)
        seeds = [item for _ in range(3) for argv in next(stream)
                 for item in argv if item.startswith("--seed=")]
        assert len(seeds) == len(set(seeds)) == 3 * 36

    def test_least_job_count_leaves_a_tail_above_the_median(self):
        for workload in workloads.WORKLOADS:
            block = next(workloads.blocks(workload, 1))
            assert len(block) * workloads.MIN_BLOCKS[workload] > 2 * measure.TAIL_BEYOND

    def test_no_argv_value_reads_as_an_option(self):
        for workload in workloads.WORKLOADS:
            block = next(workloads.blocks(workload, 11))
            assert all(item.startswith("--") and "=" in item
                       for argv in block for item in argv[1:])


def _stdout(argv):
    result = measure.run_job(cli, argv, 60)
    assert result.error is None, result.error
    return result.stdout


def _replace_json(stdout, edit):
    doc = json.loads(stdout)
    edit(doc)
    return json.dumps(doc)


class TestChecks:
    """Each reference checker accepts a real output and flags a corrupted one."""

    def test_extract(self):
        argv = ["extract", "--kind=segre", "--rank=1", "--order=2", "--seed=5", "--json=-"]
        out = _stdout(argv)
        assert checks.check(argv, out, catalog) is None

        def corrupt(doc):
            doc["series"][1]["extracted"][2] = "12345/1"

        assert "differs" in checks.check(argv, _replace_json(out, corrupt), catalog)

        def lower(doc):
            doc["series"][0]["agreement_order"] = 1

        assert checks.check(argv, _replace_json(out, lower), catalog) is not None

    def test_verify(self):
        argv = ["verify", "--suite=theta", "--order=10"]
        out = _stdout(argv)
        assert checks.check(argv, out, catalog) is None
        assert checks.check(argv, out.replace("PASS", "FAIL"), catalog) is not None

    @pytest.mark.parametrize("family", ["y", "Y"])
    def test_branch_series(self, family):
        argv = ["series", "--family=" + family, "--order=20"]
        out = _stdout(argv)
        assert checks.check(argv, out, catalog) is None
        head, values = out.splitlines()
        values = values.split(", ")
        values[9] = str(Fraction(values[9]) + 1)
        corrupted = head + "\n" + ", ".join(values) + "\n"
        assert "t^10" in checks.check(argv, corrupted, catalog)

    @pytest.mark.parametrize("kind", ["segre", "verlinde"])
    def test_oracle(self, kind):
        if kind == "segre":
            argv = ["oracle", "--surface=f1", "--class=O(1,0)+O(0,1)-O(1,1)", "--n=3",
                    "--kind=segre", "--seed=5", "--json=-"]
        else:
            argv = ["oracle", "--surface=p1xp1", "--class=O(1,2)", "--n=3",
                    "--kind=verlinde", "--r=-3", "--seed=5", "--json=-"]
        out = _stdout(argv)
        assert checks.check(argv, out, catalog) is None

        def corrupt(doc):
            doc["value"] = str(Fraction(doc["value"]) + 1)

        assert "closed form" in checks.check(argv, _replace_json(out, corrupt), catalog)

    def test_factor_series_against_its_recorded_output(self):
        argv = ["series", "--family=segreA", "--rank=-4", "--index=4", "--order=20"]
        assert argv in workloads.catalog_jobs()
        out = _stdout(argv)
        assert checks.check(argv, out, catalog) is None
        head, values = out.splitlines()
        values = values.split(", ")
        values[17] = str(Fraction(values[17]) * 2 + 1)
        corrupted = head + "\n" + ", ".join(values) + "\n"
        assert "recorded" in checks.check(argv, corrupted, catalog)
        short = argv[:-1] + ["--order=6"]
        assert "no recorded" in checks.check(short, _stdout(short), catalog)

    def test_every_series_job_of_the_workload_has_a_recorded_output(self):
        series_jobs = [argv for argv in workloads.catalog_jobs() if argv[0] == "series"]
        assert set(checks._series_digests()) == {checks.argv_key(a) for a in series_jobs}


def test_traced_pass_is_deterministic_and_prints_the_same_bytes():
    jobs = [
        ["extract", "--kind=segre", "--rank=2", "--order=2", "--seed=9", "--json=-"],
        ["extract", "--kind=verlinde", "--rank=2", "--order=2", "--seed=9", "--json=-"],
        ["oracle", "--surface=p2", "--class=O(2)-O(1)", "--n=2", "--kind=segre",
         "--seed=4", "--json=-"],
        ["series", "--family=verlindeB", "--rank=3", "--index=4", "--order=8"],
        ["verify", "--suite=fgh", "--order=10"],
    ]
    plain = [_stdout(argv) for argv in jobs]
    counts = []
    for _ in range(2):
        tracer = spans.Tracer()
        with spans.installed(tracer):
            traced = [_stdout(argv) for argv in jobs]
        assert traced == plain
        metrics = spans.layer_metrics(tracer)
        counts.append({name: value for name, (value, unit) in metrics.items()
                       if unit == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["localization.fixed_points"] > 0
    assert counts[0]["extraction.panel_rows"] == 6 + 7
    assert counts[0]["verify.checks"] == 15
    assert counts[0]["kernel.segre.calls"] > 0 and counts[0]["kernel.euler.calls"] > 0


def test_benchmark_json_names_every_metric_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    quick = [["verify", "--suite=theta", "--order=10"]] * 11

    def stream():
        while True:
            yield quick

    timed, detail = run.timed_run(run.Run(cli, catalog), stream(), 1e-9, min_blocks=2)
    assert detail["blocks"] == 2 and detail["failed_ratio"] == 0
    assert detail["job_tail_samples"] == 22
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s"} | set(timed)
    traced, _ = run.traced_run(run.Run(cli, catalog), stream())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, (value, unit) in traced.items()]
    for name, (value, unit) in {**timed, **traced}.items():
        assert isinstance(value, (int, float)), name


def test_a_job_that_fails_its_check_counts_as_failed():
    wrong = ["series", "--family=segreA", "--rank=0", "--index=0", "--order=5"]
    good = ["verify", "--suite=theta", "--order=10"]

    def stream():
        while True:
            yield [good] * 20 + [wrong] * 2

    this = run.Run(cli, catalog)
    timed, detail = run.timed_run(this, stream(), 1e-9, min_blocks=1)
    assert detail["failed_ratio"] == 2 / 22
    assert detail["job_seconds"].count(run.JOB_LIMIT_S) == 2
    assert timed["jobs_per_s"][0] == 20 / detail["busy_s"]
    assert {tuple(item["argv"]) for item in this.failures} == {tuple(wrong)}


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "extract",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout == ""

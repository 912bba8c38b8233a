"""Tests of the benchmark harness itself: span arithmetic, wrapper lifetime,
and the correctness gate.

    python3 -m pytest bench/tests -q
"""

import shutil
import subprocess
import sys
import time
from collections import defaultdict
from fractions import Fraction

import pytest

import run
import tracing
from workloads import WORKLOADS


# --- span self time ----------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["root", 0.0, 10.0, None],
        ["a", 1.0, 4.0, 0],
        ["a.inner", 2.0, 3.0, 1],   # grandchild: not subtracted from root
        ["b", 5.0, 6.5, 0],
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx([10.0 - 3.0 - 1.5, 3.0 - 1.0, 1.0, 1.5])


def test_self_time_merges_overlapping_children_and_clips_to_parent():
    spans = [
        ["p", 0.0, 10.0, None],
        ["c1", 2.0, 5.0, 0],
        ["c2", 4.0, 7.0, 0],    # overlaps c1: covered 2..7 once
        ["c3", 9.0, 12.0, 0],   # overhangs the parent: only 9..10 counts
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_self_time_with_child_filter():
    spans = [["v", 0.0, 10.0, None], ["hull", 1.0, 3.0, 0], ["other", 4.0, 8.0, 0]]
    own = tracing.self_times(spans, lambda name: name == "hull")
    assert own[0] == pytest.approx(8.0)


def test_tracer_records_parents_with_injected_clock():
    ticks = iter(range(100))
    tr = tracing.Tracer(clock=lambda: float(next(ticks)))
    outer = tr.begin("outer")
    tr.end(tr.begin("inner"))
    tr.end(outer)
    assert tr.spans == [["outer", 0.0, 3.0, None], ["inner", 1.0, 2.0, 0]]
    assert tracing.self_times(tr.spans) == [2.0, 1.0]


# --- wrapper lifetime --------------------------------------------------------


def _bindings():
    return [(owner, attr, owner.__dict__[attr]) for owner, attr, *_ in tracing.targets()]


def test_wrappers_installed_only_inside_the_block():
    before = _bindings()
    with tracing.installed(tracing.Tracer()):
        for owner, attr, original in before:
            current = owner.__dict__[attr]
            assert current is not original, f"{owner.__name__}.{attr} not wrapped"
            assert current.__bench_original__ is original
    for owner, attr, original in before:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} not restored"


def test_wrappers_restored_after_an_exception():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer()):
            raise RuntimeError("boom")
    assert all(owner.__dict__[attr] is orig for owner, attr, orig in before)


def test_traced_cli_run_records_layers_and_restores(tmp_path):
    before = _bindings()
    cert = tmp_path / "m6.cert"
    code, tracer = tracing.run_traced(
        ["solve", "lower", "--m", "6", "--v0", "0.60", "--seed", "2",
         "--restarts", "100", "--out", str(cert)]
    )
    assert code == 0 and cert.exists()
    names = {s[0] for s in tracer.spans}
    assert {"cli.solve", "fw.solve", "lmo.heuristic", "polyhedra.hull",
            "certify.rationalize", "certify.verify"} <= names
    assert all(s[2] >= s[1] for s in tracer.spans)
    assert all(owner.__dict__[attr] is orig for owner, attr, orig in before)
    metrics = run.layer_metrics([tracer.to_json()])
    assert set(metrics) == set(run.PER_LAYER_UNITS) - {"trace.overhead_s"}
    steps = sum(metrics[f"fw.steps.{k}"] for k in ("pairwise", "drop", "fw", "null"))
    assert steps == metrics["fw.iterations"]


# --- correctness gate --------------------------------------------------------


def _child(code, out):
    return run.Child(argv=["x"], code=code, wall_s=1.0, rss_mb=1.0,
                     out=out, err="")


@pytest.fixture(scope="module")
def lower_cert(tmp_path_factory):
    d = tmp_path_factory.mktemp("gate")
    cert = d / "m6.cert"
    child = run.spawn(
        run.CLI + ["solve", "lower", "--m", "6", "--v0", "0.60", "--seed", "2",
                   "--restarts", "100", "--out", str(cert)],
        d, time.monotonic() + 120,
    )
    assert child.code == 0, child.err
    return d, cert


def test_corrupted_certificate_copy_counts_as_failure(lower_cert):
    d, cert = lower_cert
    gate = run.Gate()
    deadline = time.monotonic() + 120

    ok = run.spawn(run.CLI + ["certify", "verify", "--in", str(cert)], d, deadline)
    gate.record(ok, run.check_verify(ok))
    assert gate.check_repeat("m6", cert) is None

    bad = d / "corrupt.cert"
    lines = cert.read_text().splitlines()
    i = lines.index(next(ln for ln in lines if ln.startswith("WEIGHTS"))) + 1
    num, den = lines[i].split("/")
    lines[i] = f"{int(num) + 1}/{den}"
    bad.write_text("\n".join(lines) + "\n")

    child = run.spawn(run.CLI + ["certify", "verify", "--in", str(bad)], d, deadline)
    gate.record(child, run.check_verify(child))
    assert gate.attempted == 2 and gate.failed == 1
    assert gate.check_repeat("m6", bad) is not None


def test_certificate_without_bound_is_a_failure(lower_cert, tmp_path):
    _, cert = lower_cert
    stripped = tmp_path / "nobound.cert"
    stripped.write_text(
        "".join(ln for ln in cert.read_text().splitlines(True) if not ln.startswith("V_LOW"))
    )
    problem, bound = run.check_solve(run.Gate(), _child(0, ""), stripped, "lower")
    assert problem == "certificate has no bound" and bound is None


def test_exit_code_verdict_and_eta_are_each_checked():
    gate = run.Gate()
    gate.record(_child(1, ""), None)
    invalid = _child(0, "INVALID certificate: residual mismatch\n")
    gate.record(invalid, run.check_verify(invalid))
    wrong_eta = _child(0, "eta^2 = 1/2 = 0.5\n")
    gate.record(wrong_eta, run.check_eta(wrong_eta))
    valid = _child(0, "VALID lower certificate: v = 0.5\n")
    gate.record(valid, run.check_verify(valid))
    assert gate.attempted == 4 and gate.failed == 3


# --- child environment -------------------------------------------------------


def test_child_environment_is_pinned(monkeypatch):
    monkeypatch.setenv("LOCALPOLYTOPE_THREADS", "7")
    env = run.child_env()
    assert "LOCALPOLYTOPE_THREADS" not in env
    assert env["PYTHONPATH"] == str(run.SRC)


def test_no_workload_uses_m91_or_threads():
    # --m 91 silently builds 81 settings (GEODESIC_SCHEDULES[91] = [4] gives
    # 162 vertices), so the benchmark must never ask for it
    for w in WORKLOADS.values():
        argv = w.main_argv(0, "c", "v")
        assert "--threads" not in argv
        assert not any(a == "--m" and b == "91" for a, b in zip(argv, argv[1:]))


def test_missing_package_exits_nonzero_without_result(tmp_path):
    bench = tmp_path / "bench"
    shutil.copytree(run.BENCH, bench, ignore=shutil.ignore_patterns("tests", "__pycache__"))
    res = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "ghz3-m6",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0
    assert res.stdout.strip() == ""


# --- run loop and host speed -------------------------------------------------


def _bare_run(seconds):
    r = object.__new__(run.Run)
    r.seconds, r.deadline, r.trace = seconds, float("inf"), 0
    r.samples = defaultdict(list)
    return r


def test_repeat_starts_no_pass_that_would_end_past_seconds(monkeypatch):
    clock = [100.0]
    monkeypatch.setattr(run.time, "monotonic", lambda: clock[0])
    passes = []

    def one_pass():
        passes.append(clock[0])
        clock[0] += 3.0

    _bare_run(10).repeat(one_pass)
    assert len(passes) == 3  # a fourth pass would end at 12 s
    _bare_run(1).repeat(one_pass)
    assert len(passes) == 4  # always at least one pass


def test_time_metrics_are_scaled_by_the_host_probe():
    r = _bare_run(10)
    r.w, r.certified = WORKLOADS["ghz3-m6"], Fraction(3, 5)
    r.samples["probe_s"] = [run.PROBE_REF_S * 2] * 3  # host twice as slow as the reference
    for name in ("run_s", "total_s", "setup_s"):
        r.samples[name] = [4.0, 5.0, 6.0]
    r.samples["peak_rss_mb"] = [40.0]
    m = r.metrics([])
    assert m["run_s"]["value"] == pytest.approx(2.5)
    assert m["setup_s"]["value"] == pytest.approx(2.5)
    assert m["peak_rss_mb"]["value"] == 40.0
    assert m["cert_loss"]["value"] == pytest.approx(0.6)

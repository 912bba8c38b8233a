"""Benchmark of the localpolytope CLI: end-to-end runs and a traced run.

    python3 bench/run.py --workload lower-m16 --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 40 --trace 0

With ``--trace 0`` every command runs untraced in a fresh process, one at a
time (a closed loop with one client), for ``--seconds`` seconds, and the run
reports the end-to-end metrics: medians over the passes, with the times
scaled by a host probe (see ``host_probe``).  With ``--trace 1`` the workload's commands
run once untraced for reference and then under ``bench/tracing.py``, which
wraps the package's layers from outside, and the run reports per-layer
metrics.  Every output is checked; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The benchmark measures the package in ``src/`` of the checkout it sits in
and writes only below ``.bench_run/`` there.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

# bench/ is sys.path[0] when this file runs as a script
from tracing import self_times
from workloads import ETA_SQ_M81, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"

SETUP_REPEATS = 3
# Untraced passes cycle through this many solve seeds derived from --seed, so
# one run's median does not hang on one seed's iteration count.
SUB_SEEDS = 4
# The host probe's median time on the reference host; time metrics are
# scaled to it (see host_probe).
PROBE_REF_S = 0.065
RUN_DEADLINE_S = 170.0  # a run must end within 180 s; children are killed past this
CLI = [sys.executable, "-m", "localpolytope.cli"]

END_TO_END_UNITS = {
    "run_s": "s",
    "total_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cert_loss": "1",
}


def child_env():
    """Environment of every child: the checkout's src, no ambient thread count."""
    env = dict(os.environ)
    # an ambient value would change how the oracle splits its restarts
    env.pop("LOCALPOLYTOPE_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


# --- child processes ---------------------------------------------------------


@dataclass
class Child:
    argv: list
    code: int
    wall_s: float
    rss_mb: float
    out: str
    err: str


def spawn(argv, workdir, deadline):
    """Run one child to completion; wall time and max RSS from its own rusage."""
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        argv=list(argv),
        code=proc.returncode,
        wall_s=wall,
        rss_mb=usage.ru_maxrss / 1024.0,  # kilobytes on Linux
        out=out_path.read_text(errors="replace"),
        err=err_path.read_text(errors="replace"),
    )


# --- correctness gate --------------------------------------------------------


class Gate:
    """Counts every invocation; any failed check counts it as failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.digests = {}  # certificate key -> sha256 of the first copy

    @property
    def failed(self):
        return len(self.failures)

    def record(self, child, problem):
        self.attempted += 1
        if problem is None and child.code != 0:
            problem = f"exit code {child.code}"
        if problem is not None:
            tail = child.err.strip().splitlines()[-1:] or [""]
            self.failures.append(f"{' '.join(child.argv[-6:])}: {problem} {tail[0]}".strip())
        return problem is None

    def check_repeat(self, key, path):
        """None if ``path`` is byte-identical to the first certificate for ``key``."""
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        first = self.digests.setdefault(key, digest)
        return None if digest == first else "certificate differs from an earlier repeat"


def read_bound(path, kind):
    """Certified bound (V_LOW or V_UP line) of a certificate file, or None."""
    tag = "V_LOW" if kind == "lower" else "V_UP"
    for line in path.read_text().splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] == tag:
            return Fraction(parts[1])
    return None


def check_solve(gate, child, cert, kind, key="solve"):
    """Problem with a solve run and its certificate, or None; also the bound.

    Certificates sharing ``key`` (the solve seed) must be byte-identical."""
    if child.code != 0:
        return f"exit code {child.code}", None
    if not cert.exists():
        return "no certificate written", None
    bound = read_bound(cert, kind)
    if bound is None:
        return "certificate has no bound", None
    return gate.check_repeat(key, cert), bound


def check_verify(child):
    if child.code != 0 or not child.out.startswith("VALID "):
        return "certify verify did not print VALID"
    return None


def check_eta(child):
    expected = f"eta^2 = {ETA_SQ_M81.numerator}/{ETA_SQ_M81.denominator} = "
    if child.code != 0 or not child.out.startswith(expected):
        return "eta^2 differs from the reference"
    return None


# --- statistics --------------------------------------------------------------


def summarize(samples):
    """Median, sample count, and the highest percentile with >= 10 samples
    beyond it, once that percentile is at least the median (n >= 20)."""
    s = sorted(samples)
    n = len(s)
    out = {"median": statistics.median(s) if s else None, "n": n}
    if n >= 20:
        out[f"p{100 * (n - 10) // n}"] = s[n - 11]
    return out


def cert_loss(kind, value):
    """The certified quantity, oriented so that lower means a tighter claim."""
    if kind == "lower":
        return float(1 - value)   # 1 - v_low
    if kind == "upper":
        return float(value)       # v_up
    return float(1 - value)       # 1 - eta^2


# --- host speed ------------------------------------------------------------


def host_probe():
    """Wall time of a fixed mix of interpreter, Fraction and small-numpy work.

    The mix is the kind of work the CLI does, in about equal thirds.  It runs
    in this process, which never imports the package, so no change to ``src/``
    can alter it.  A run probes twice before every untraced child; time
    metrics are multiplied by ``PROBE_REF_S / median(probe)``, which cancels
    most of the drift of this shared host's speed between runs.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += (i * i) % 7
    frac = Fraction(0)
    for i in range(1, 1200):
        frac += Fraction(1, i * i + 1)
    a = np.arange(36.0).reshape(6, 6)
    for _ in range(3000):
        np.einsum("ij,jk->ik", a, a).sum()
    return time.perf_counter() - t0


# --- environment record ------------------------------------------------------

_PROBE = """
import json, sys, numpy, localpolytope
blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
print(json.dumps({
    "localpolytope_file": localpolytope.__file__,
    "localpolytope_version": localpolytope.__version__,
    "python": sys.version.split()[0],
    "numpy": numpy.__version__,
    "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
}))
"""


def _git(*args):
    try:
        res = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def environment(gate, workdir, deadline):
    """Versions, cores, load and the package file the children import."""
    probe = spawn([sys.executable, "-c", _PROBE], workdir, deadline)
    info = {}
    problem = None
    if probe.code == 0:
        info = json.loads(probe.out.strip().splitlines()[-1])
        pkg = Path(info["localpolytope_file"]).resolve()
        if SRC.resolve() not in pkg.parents:
            problem = f"children import localpolytope from {pkg}, not from {SRC}"
    gate.record(probe, problem)
    in_repo = _git("rev-parse", "--show-toplevel")
    is_repo = in_repo is not None and Path(in_repo).resolve() == ROOT
    info.update(
        {
            "git_commit": _git("rev-parse", "HEAD") if is_repo else None,
            "git_dirty": bool(_git("status", "--porcelain", "--untracked-files=no"))
            if is_repo
            else None,
            "blas_threads_env": {
                k: os.environ.get(k)
                for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            },
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "loadavg_before": list(os.getloadavg()),
        }
    )
    return info


# --- one run -----------------------------------------------------------------


class Run:
    """State of one benchmark run of one workload."""

    def __init__(self, workload, seed, seconds, trace):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.dir = RUN_DIR / f"{workload.name}-seed{seed}-trace{trace}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.gate = Gate()
        self.vertex_file = str(self.dir / "vertices.txt")
        self.samples = defaultdict(list)
        self.certified = None  # v_low, v_up or eta^2 of the first passing pass
        self.passes = 0

    def spawn(self, argv):
        return spawn(argv, self.dir, self.deadline)

    def probed_spawn(self, argv):
        """Probe the host's speed twice, then run one untraced child."""
        self.samples["probe_s"] += [host_probe(), host_probe()]
        return self.spawn(argv)

    def out_of_time(self):
        return time.monotonic() >= self.deadline

    def setup_once(self):
        """Fresh-process import plus input construction; returns the wall time."""
        argv = self.w.setup_argv(self.vertex_file)
        if argv is None:
            child = self.probed_spawn([sys.executable, str(BENCH / "workloads.py"),
                                       "setup", self.w.name])
        else:
            child = self.probed_spawn(CLI + argv)
        self.gate.record(child, None)
        return child.wall_s

    def solve_seed(self, sub):
        return self.seed * SUB_SEEDS + sub

    def main_argv(self, tag, sub=0):
        """Arguments of the timed command and the certificate path it writes."""
        cert = self.dir / f"{tag}.cert"
        cert.unlink(missing_ok=True)  # a stale copy must not pass the gate
        return self.w.main_argv(self.solve_seed(sub), str(cert), self.vertex_file), cert

    def check_main(self, child, cert, sub=0):
        """Gate the timed command; remember the certified quantity."""
        if self.w.kind == "eta":
            problem, value = check_eta(child), ETA_SQ_M81
        else:
            problem, value = check_solve(self.gate, child, cert, self.w.kind,
                                         key=self.solve_seed(sub))
        if self.gate.record(child, problem) and self.certified is None:
            self.certified = value

    def iteration(self):
        """One untraced pass over the workload's commands."""
        sub = self.passes % SUB_SEEDS
        self.passes += 1
        argv, cert = self.main_argv("main", sub)
        main = self.probed_spawn(CLI + argv)
        self.check_main(main, cert, sub)
        self.samples["run_s"].append(main.wall_s)
        self.samples["peak_rss_mb"].append(main.rss_mb)
        total = main.wall_s
        if self.w.kind != "eta":
            ver = self.probed_spawn(CLI + ["certify", "verify", "--in", str(cert)])
            self.gate.record(ver, check_verify(ver))
            self.samples["verify_s"].append(ver.wall_s)
            total += ver.wall_s
        self.samples["total_s"].append(total)

    def traced_iteration(self):
        """One pass with every command under bench/tracing.py; returns traces."""
        traces = []

        def traced(argv, tag):
            spans = self.dir / f"spans-{tag}.json"
            spans.unlink(missing_ok=True)
            child = self.spawn([sys.executable, str(BENCH / "tracing.py"),
                                "--spans", str(spans), "--", *argv])
            if spans.exists():
                traces.append(json.loads(spans.read_text()))
            return child

        setup = self.w.setup_argv(str(self.dir / "vertices-traced.txt"))
        if setup is not None:
            self.gate.record(traced(setup, "setup"), None)
        argv, cert = self.main_argv("traced")
        main = traced(argv, "main")
        self.check_main(main, cert)
        self.samples["traced_run_s"].append(main.wall_s)
        if self.w.kind != "eta":
            ver = traced(["certify", "verify", "--in", str(cert)], "verify")
            self.gate.record(ver, check_verify(ver))
        return traces

    def repeat(self, one_pass):
        """Run passes, at least one, while the next would end within --seconds."""
        t0 = time.monotonic()
        while not self.out_of_time():
            start = time.monotonic()
            one_pass()
            end = time.monotonic()
            if end + (end - start) - t0 > self.seconds:
                break

    def execute(self):
        env = environment(self.gate, self.dir, self.deadline)
        layers = []
        if self.trace:
            self.setup_once()
            # untraced reference of the timed command, for the tracing overhead
            argv, cert = self.main_argv("main")
            ref = self.spawn(CLI + argv)
            self.check_main(ref, cert)
            self.samples["run_s"].append(ref.wall_s)
            self.repeat(lambda: layers.append(layer_metrics(self.traced_iteration())))
        else:
            # set-up precedes every pass, so its samples span the run as the
            # pass timings do; top up to SETUP_REPEATS for long passes
            def one_pass():
                self.samples["setup_s"].append(self.setup_once())
                self.iteration()
            self.repeat(one_pass)
            while len(self.samples["setup_s"]) < SETUP_REPEATS and not self.out_of_time():
                self.samples["setup_s"].append(self.setup_once())
        env["loadavg_after"] = list(os.getloadavg())
        return env, layers

    def metrics(self, layers):
        if self.trace:
            traced, ref = self.samples["traced_run_s"], self.samples["run_s"]
            out = {}
            for name, unit in PER_LAYER_UNITS.items():
                if name == "trace.overhead_s":
                    value = (statistics.median(traced) - statistics.median(ref)
                             if traced and ref else None)
                elif layers:
                    # counts repeat exactly for a seed; median_low keeps them whole
                    pick = statistics.median_low if unit == "count" else statistics.median
                    value = pick(m[name] for m in layers)
                else:
                    value = None
                out[name] = {"value": value, "unit": unit}
            return out
        out = {}
        speed = self.host_speed()
        for name, unit in END_TO_END_UNITS.items():
            if name == "cert_loss":
                v = cert_loss(self.w.kind, self.certified) if self.certified is not None else None
            elif unit == "s":
                v = summarize(self.samples[name])["median"] * speed
            else:
                v = summarize(self.samples[name])["median"]
            out[name] = {"value": v, "unit": unit}
        return out

    def host_speed(self):
        """Factor that scales this run's wall times to the reference host."""
        return PROBE_REF_S / statistics.median(self.samples["probe_s"])


# --- per-layer metrics -------------------------------------------------------

PER_LAYER_UNITS = {
    "cli.self.s": "s",
    "states.target.s": "s",
    "polyhedra.rationalize.s": "s",
    "polyhedra.hull.calls": "count",
    "polyhedra.hull.s": "s",
    "polyhedra.vertices": "count",
    "polyhedra.faces": "count",
    "polyhedra.audit_checks": "count",
    "lmo.heuristic.calls": "count",
    "lmo.heuristic.s": "s",
    "lmo.heuristic.ms_per_call": "ms",
    "lmo.exhaustive.s": "s",
    "lmo.local_bound.exact_frac": "1",
    "fw.solve.s": "s",
    "fw.step_self.s": "s",
    "fw.iterations": "count",
    "fw.steps.pairwise": "count",
    "fw.steps.drop": "count",
    "fw.steps.fw": "count",
    "fw.steps.null": "count",
    "fw.oracle_useful_frac": "1",
    "fw.atoms.peak": "count",
    "fw.gram.add_calls": "count",
    "fw.gram.add_s": "s",
    "fw.gram.rebuilds": "count",
    "fw.recompute.s": "s",
    "certify.rationalize.s": "s",
    "certify.verify_self.s": "s",
    "certify.integerize.calls": "count",
    "certify.write.s": "s",
    "certify.read.s": "s",
    "tensor.strategy_tensor.calls": "count",
    "tensor.strategy_inner.calls": "count",
    "tensor.tensor_strategy_inner.calls": "count",
    "trace.overhead_s": "s",
}

_STEP_CHILDREN = ("lmo.", "fw.gram.", "tensor.")
_VERIFY_CHILDREN = ("polyhedra.hull", "lmo.local_bound", "lmo.heuristic")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(traces):
    """Per-layer metrics of one traced pass (a list of trace.py outputs)."""
    total = defaultdict(float)
    counts = defaultdict(int)
    peaks = defaultdict(int)
    step_self = verify_self = cli_self = 0.0
    for tr in traces:
        spans = tr["spans"]
        own = self_times(spans)
        step = self_times(spans, lambda n: n.startswith(_STEP_CHILDREN))
        ver = self_times(spans, lambda n: n in _VERIFY_CHILDREN)
        for i, (name, start, end, _) in enumerate(spans):
            total[name] += end - start
            if name == "fw.solve":
                step_self += step[i]
            elif name == "certify.verify":
                verify_self += ver[i]
            elif name.startswith("cli."):
                cli_self += own[i]
        for k, v in tr["counts"].items():
            counts[k] += v
        for k, v in tr["peaks"].items():
            peaks[k] = max(peaks[k], v)

    pairwise_calls = counts["fw.steps.apply_pairwise"]
    drops = counts["fw.steps.remove_atom"]
    fw_steps = counts["fw.steps.apply_fw"]
    heur_calls = counts["lmo.heuristic.calls"]
    return {
        "cli.self.s": cli_self,
        "states.target.s": total["states.target"],
        "polyhedra.rationalize.s": total["polyhedra.rationalize"],
        "polyhedra.hull.calls": counts["polyhedra.hull.calls"],
        "polyhedra.hull.s": total["polyhedra.hull"],
        "polyhedra.vertices": peaks["polyhedra.vertices"],
        "polyhedra.faces": peaks["polyhedra.faces"],
        "polyhedra.audit_checks": counts["polyhedra.audit_checks"],
        "lmo.heuristic.calls": heur_calls,
        "lmo.heuristic.s": total["lmo.heuristic"],
        "lmo.heuristic.ms_per_call": 1000.0 * _ratio(total["lmo.heuristic"], heur_calls),
        "lmo.exhaustive.s": total["lmo.exhaustive"],
        "lmo.local_bound.exact_frac": _ratio(
            counts["lmo.local_bound.exact"], counts["lmo.local_bound.calls"]
        ),
        "fw.solve.s": total["fw.solve"],
        "fw.step_self.s": step_self,
        "fw.iterations": counts["fw.iterations"],
        "fw.steps.pairwise": pairwise_calls - drops,
        "fw.steps.drop": drops,
        "fw.steps.fw": fw_steps,
        "fw.steps.null": counts["fw.iterations"] - pairwise_calls - fw_steps,
        # the first oracle call of a solve only picks the initial vertex
        "fw.oracle_useful_frac": _ratio(
            fw_steps, counts["fw.lmo_calls"] - counts["fw.solves"]
        ),
        "fw.atoms.peak": peaks["fw.atoms"],
        "fw.gram.add_calls": counts["fw.gram.add.calls"],
        "fw.gram.add_s": total["fw.gram.add"],
        # every cache built after the first of a solve is a full Gram rebuild
        "fw.gram.rebuilds": counts["fw.gram.build.calls"] - counts["fw.solves"],
        "fw.recompute.s": total["fw.recompute"],
        "certify.rationalize.s": total["certify.rationalize"],
        "certify.verify_self.s": verify_self,
        "certify.integerize.calls": counts["certify.integerize.calls"],
        "certify.write.s": total["certify.write"],
        "certify.read.s": total["certify.read"],
        "tensor.strategy_tensor.calls": counts["tensor.strategy_tensor.calls"],
        "tensor.strategy_inner.calls": counts["tensor.strategy_inner.calls"],
        "tensor.tensor_strategy_inner.calls": counts["tensor.tensor_strategy_inner.calls"],
    }


# --- entry point -------------------------------------------------------------


def run_workload(workload, seed, seconds, trace):
    """Run one workload; returns its record (metrics, samples, gate, env)."""
    run = Run(workload, seed, seconds, trace)
    env, layers = run.execute()
    metrics = run.metrics(layers)
    certified = run.certified
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "env": env,
        "attempted": run.gate.attempted,
        "failed": run.gate.failed,
        "fail_frac": run.gate.failed / max(run.gate.attempted, 1),
        "failures": run.gate.failures,
        "certified": str(certified) if certified is not None else None,
        # per-layer times are raw, so a traced run reports no factor
        "host_speed": None if trace else run.host_speed(),
        "timings": {k: summarize(v) for k, v in run.samples.items()},
        "samples": run.samples,
        "layers": layers,
        "metrics": metrics,
    }
    (RUN_DIR / f"{run.dir.name}.json").write_text(json.dumps(record, indent=1))
    return record


def print_report(record):
    w = WORKLOADS[record["workload"]]
    print(f"== {w.name} (seed {record['seed']}, trace {record['trace']}): {w.why}")
    env = record["env"]
    print(f"   env: python {env.get('python')} numpy {env.get('numpy')} "
          f"blas {(env.get('blas') or {}).get('version')} "
          f"threads {env['blas_threads_env']} nproc {env['nproc']} "
          f"load {env['loadavg_before'][0]:.2f}->{env['loadavg_after'][0]:.2f} "
          f"commit {env['git_commit']} dirty {env['git_dirty']}")
    print(f"   package: {env.get('localpolytope_file')}")
    if record["host_speed"] is not None:
        print(f"   host speed factor {record['host_speed']:.4f}: the time metrics below are "
              f"the raw medians x this factor (reference probe {PROBE_REF_S} s)")
    for name, t in record["timings"].items():
        unit = "MB" if name.endswith("_mb") else "s"
        extra = "".join(f" {k}={v:.4f}" for k, v in t.items() if k.startswith("p"))
        print(f"   {name:<14} median={t['median']:.4f} {unit} n={t['n']}{extra}")
    for name, m in record["metrics"].items():
        value = m["value"]
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"   {name:<36} {shown:>14} {m['unit']}")
    if record["certified"] is not None:
        label = {"lower": "v_low", "upper": "v_up", "eta": "eta_sq"}[w.kind]
        print(f"   {label} = {float(Fraction(record['certified'])):.6f} ({record['certified']})")
    print(f"   fail_frac = {record['failed']}/{record['attempted']} "
          f"= {record['fail_frac']:.4f} (1)")
    for f in record["failures"]:
        print(f"   FAILED: {f}")


def main(argv=None):
    ap = argparse.ArgumentParser(description="localpolytope CLI benchmark")
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (SRC / "localpolytope" / "__init__.py").is_file():
        print(f"error: no localpolytope package under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        record = run_workload(WORKLOADS[name], args.seed, args.seconds, args.trace)
        print_report(record)
        records.append(record)

    metrics = {}
    for r in records:
        for k, v in r["metrics"].items():
            metrics[k if len(records) == 1 else f"{r['workload']}.{k}"] = v
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    complete = all(m["value"] is not None for m in metrics.values())
    result = {
        "correct": failed == 0 and complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

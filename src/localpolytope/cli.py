"""Command-line pipeline: polyhedron generation, solving, certification, reports.

Exit codes: 0 when a certificate was produced and verified (or a decide run
finished inside), 2 for an inconclusive run or an unproven certificate, 1 for
errors and invalid certificates.
"""

import argparse
import contextlib
import dataclasses
import json
import os
import resource
import sys
import time

import numpy as np

from . import __version__
from .certify import (
    CertificateError,
    TargetSpec,
    assemble_lower,
    assemble_upper,
    derived_bounds,
    integerize_functional,
    lower_refusal,
    rationalize_weights,
    read_certificate,
    verify,
    write_certificate,
)
# frank_wolfe_vanilla is not called here: bench/tracing.py wraps it in this namespace
from .fw import SolverConfig, bpcg, extract_hyperplane, frank_wolfe_vanilla
from .lmo import BellFunctional, enumerable, local_bound
from .polyhedra import (
    antipodal_representatives,
    faces_and_eta,
    geodesic_icosahedron,
    octahedron,
    pentakis_dodecahedron,
    rationalize_all,
    read_polyhedron_vertices,
    write_polyhedron_vertices,
)
from .states import build_quantum_tensor, chsh_vectors, ghz_polygon_tensor, singlet_tensor
from .tensor import Scenario, format_number, parse_exact, read_tensor

# schedules reproducing the named geodesic polyhedra by input count
GEODESIC_SCHEDULES = {6: [], 21: [2], 46: [3], 81: [4], 406: [3, 3]}


class CliError(Exception):
    pass


def _gen_vertices(args):
    if args.solid == "pentakisdodecahedron":
        return list(pentakis_dodecahedron())
    if args.solid == "octahedron":
        return list(octahedron()[0])
    schedule = []
    if args.schedule:
        schedule = [int(x) for x in args.schedule.replace(",", " ").split()]
    return geodesic_icosahedron(schedule)


def cmd_polyhedron(args):
    flag = "out" if args.action == "gen" else "in"
    if not getattr(args, flag):
        raise CliError(f"polyhedron {args.action} needs --{flag}")
    if args.action == "gen":
        floats = _gen_vertices(args)
        points = rationalize_all(floats, args.tol)
        with _atomic_open(args.out) as fp:
            write_polyhedron_vertices(points, fp)
        print(f"wrote {len(points)} vertices to {args.out}")
        return 0
    with open(getattr(args, "in"), "r") as fp:
        points = read_polyhedron_vertices(fp)
    poly = faces_and_eta(points)
    e = poly.eta_sq
    print(f"eta^2 = {format_number(e)} = {float(e)!r}")
    print(f"eta   = {poly.eta!r}")
    return 0


def _measurements_for(args):
    """Measurement layout for a solve run.

    Returns (alice, bob, polyhedron, scenario); the vectors are exact
    rational triples, or None for polygon measurements.
    """
    state = args.state
    N = args.N if state == "ghz" else (3 if state == "w" else 2)
    if args.polygon:
        if state != "ghz":
            raise CliError("--polygon is only meaningful for the GHZ state")
        sc = Scenario(N, args.m, marginals=False)
        return None, None, None, sc

    if args.polyhedron:
        with open(args.polyhedron) as fp:
            points = read_polyhedron_vertices(fp)
    elif args.m == 2 and state in ("werner", "singlet"):
        # CHSH layout; rationalized so that lower runs stay exact
        from .polyhedra import rationalize

        al, bo = chsh_vectors()
        alice = [rationalize(v, args.tol).as_tuple() for v in al]
        bob = [rationalize(v, args.tol).as_tuple() for v in bo]
        sc = Scenario(2, 2, marginals=False)
        return alice, bob, None, sc
    elif args.m in GEODESIC_SCHEDULES:
        points = rationalize_all(geodesic_icosahedron(GEODESIC_SCHEDULES[args.m]), args.tol)
    elif args.m == 16:
        points = rationalize_all(pentakis_dodecahedron(), args.tol)
    else:
        raise CliError(
            f"no built-in polyhedron with m = {args.m}; pass --polyhedron FILE "
            f"(built-ins: {sorted(GEODESIC_SCHEDULES)} and 16)"
        )
    reps = antipodal_representatives(points)
    if 2 * len(reps) != len(points):
        raise CliError("polyhedron vertex list is not closed under antipodes")
    vecs = [p.as_tuple() for p in reps]
    if state in ("werner", "singlet"):
        return vecs, vecs, points, Scenario(2, len(reps), marginals=False)
    return vecs, vecs, points, Scenario(N, len(reps), marginals=True)


def _build_problem(args):
    """Target tensor p (exact when possible), TargetSpec, polyhedron points."""
    if args.state == "custom":
        if not args.tensor:
            raise CliError("--state custom needs --tensor FILE")
        with open(args.tensor) as fp:
            p = read_tensor(fp)
        return p, TargetSpec("tensor", tensor=p), None

    alice, bob, poly_points, sc = _measurements_for(args)
    if args.polygon:
        p = ghz_polygon_tensor(sc.parties, sc.inputs)
        return p, TargetSpec("ghz-polygon"), None
    if args.state in ("werner", "singlet"):
        p = singlet_tensor(alice, bob, sc)
        return p, TargetSpec("singlet", tuple(alice), tuple(bob)), poly_points
    # GHZ / W with generic Bloch vectors: Born rule, marginal slots included
    bl = [np.array([[float(c) for c in v] for v in alice])] * sc.parties
    p = build_quantum_tensor(args.state, bl, sc)
    return p, TargetSpec("tensor", tensor=p), poly_points


def _write_run_metadata(path, args, stages, res=None):
    """The run record; without a solver result the run was refused."""
    meta = {"version": __version__, "command": " ".join(sys.argv[1:]),
            "seed": args.seed, "status": "refused"}
    if res is not None:
        meta.update(status=res.status, distance=res.distance, iterations=res.iterations,
                    lmo_calls=res.lmo_calls, elapsed_seconds=stages["solve"],
                    solver=dataclasses.asdict(res.stats))
    meta["stages"] = stages
    meta["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    with _atomic_open(path) as fp:
        json.dump(meta, fp, indent=2)


@contextlib.contextmanager
def _atomic_open(path):
    """A text file that appears at ``path`` whole or not at all: written beside
    it, renamed over it on success and removed on failure."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fp:
            yield fp
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


@contextlib.contextmanager
def _stage(stages, name):
    """Record the wall seconds of the block as ``stages[name]``."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        stages[name] = time.perf_counter() - t0


def _refusal(args, p):
    """Why no certificate can come out of this solve, or None; the scenario
    and the target decide it, so it is asked before the solver starts."""
    if args.mode == "upper" and not enumerable(p.scenario):
        return "exact local bound unavailable at this size"
    if args.mode == "lower":
        return lower_refusal(p.scenario, p.is_exact)
    return None


def cmd_solve(args):
    stages = {}
    with _stage(stages, "build"):
        p, target, poly_points = _build_problem(args)
        v0 = parse_exact(args.v0)
        if not 0 <= v0 <= 1:
            raise CliError("v0 must lie in [0, 1]")
        # decide runs only need the verdict, not a polished gradient
        cfg = SolverConfig(max_iterations=args.max_iter, eps=args.eps, restarts=args.restarts,
                           seed=args.seed, early_separation=args.mode == "decide")
        refusal = _refusal(args, p)
    if refusal:
        print(f"inconclusive: {refusal}")
        if args.out:
            _write_run_metadata(args.out + ".run.json", args, stages)
        return 2

    with _stage(stages, "solve"):
        res = bpcg(p, float(v0), cfg)
    print(
        f"status={res.status} distance={res.distance:.3e} iterations={res.iterations} "
        f"lmo_calls={res.lmo_calls} ({stages['solve']:.2f}s)"
    )
    try:
        return _finish_solve(args, res, p, target, poly_points, v0, stages)
    finally:
        if args.out:
            _write_run_metadata(args.out + ".run.json", args, stages, res)


def _finish_solve(args, res, p, target, poly_points, v0, stages):
    """Certificate stages after the solver run; returns the exit code."""
    if args.mode == "decide":
        return 0 if res.converged else 2

    if args.mode == "lower":
        if not res.converged:
            print("inconclusive: no convex decomposition within tolerance")
            return 2
        with _stage(stages, "rationalize"):
            model = rationalize_weights(res.active_set, p, v0)
        with _stage(stages, "hull"):
            poly = faces_and_eta(poly_points) if poly_points else None
        try:
            with _stage(stages, "assemble"):
                cert = assemble_lower(p.scenario, poly, v0, model, target)
        except CertificateError as e:
            print(f"certificate assembly failed: {e}")
            return 2
    else:
        if res.converged:
            print("inconclusive: the point lies inside; no separating hyperplane")
            return 2
        with _stage(stages, "assemble"):
            cert = _assemble_upper_cert(args, res, p, target, v0)
        if cert is None:
            return 2
    with _stage(stages, "verify"):
        ok, reason = verify(cert)
    if not ok:
        print(f"certificate failed self-verification: {reason}")
        return 1
    if cert.kind == "lower":
        print(f"certified lower bound v_low = {float(cert.v_low):.6f} for {cert.scope}")
    else:
        print(f"certified upper bound v_up = {float(cert.v_up):.6f} (ell = {cert.ell})")
    for ln in derived_bounds(cert)[1]:
        print("  " + ln)
    if args.out:
        with _stage(stages, "write"):
            with _atomic_open(args.out) as fp:
                write_certificate(cert, fp)
        print(f"certificate written to {args.out}")
    return 0


def _assemble_upper_cert(args, res, p, target, v0):
    """Integerize the separating hyperplane until it certifies; None if it never does."""
    G = extract_hyperplane(res, p, float(v0))
    for scale in (10**4, 10**5, 10**6, 10**7, 10**8):
        M = integerize_functional(G, scale)
        try:
            return assemble_upper(M, local_bound(M).value, p, target)
        except CertificateError:
            pass
    print("inconclusive: no violation after integerization")
    return None


def cmd_bound(args):
    with open(args.functional) as fp:
        t = read_tensor(fp)
    M = BellFunctional(t)
    lb = local_bound(M)
    tag = "exact" if lb.exact else "inexact"
    if args.exact and not lb.exact:
        print("error: exact bound requested but functional is not integer")
        return 1
    print(f"local bound = {lb.value} ({tag})")
    print(f"maximizer   = {lb.strategy.to_string()}")
    return 0


def cmd_certify(args):
    with open(getattr(args, "in")) as fp:
        cert = read_certificate(fp)
    ok, reason = verify(cert)
    if ok:
        v = cert.v_low if cert.kind == "lower" else cert.v_up
        print(f"VALID {cert.kind} certificate: v = {float(v):.6f}")
        return 0
    if ok is None:
        print(f"UNPROVEN {cert.kind} certificate: {reason.removeprefix('unproven: ')}")
        return 2
    print(f"INVALID certificate: {reason}")
    return 1


def cmd_report(args):
    rows = []
    bad = 0
    for path in args.certificates:
        try:
            with open(path) as fp:
                cert = read_certificate(fp)
            ok, reason = verify(cert)
        except Exception as e:
            ok, reason, cert = False, str(e), None
        runtime = ""  # the run record is optional metadata: blank unless it holds a number
        with contextlib.suppress(OSError, ValueError, LookupError, TypeError):
            with open(path + ".run.json") as fp:
                t = json.load(fp)["elapsed_seconds"]
            runtime = f"{t:.2f}" if type(t) in (int, float) else ""
        if not ok:
            bad += 1
            verdict = "INVALID: " if ok is False else "UNPROVEN: "
            rows.append((path, verdict + reason.removeprefix("unproven: "),
                         "", "", "", "", "", runtime))
            continue
        state = cert.target.kind
        m = cert.scenario.inputs
        if cert.kind == "lower":
            eta = f"{float(cert.eta_sq):.6f}" if cert.eta_sq is not None else "-"
            rows.append((path, state, str(m), f"{float(cert.v_low):.6f}", "",
                         eta, f"{float(cert.nu):.6f}", runtime))
        else:
            rows.append((path, state, str(m), "", f"{float(cert.v_up):.6f}", "-", "-", runtime))

    header = ("file", "state", "m", "v_low", "v_up", "eta_sq", "nu", "runtime_s")
    widths = [max(len(r[i]) for r in rows + [header]) for i in range(len(header))]
    fmt = "  ".join("{:<%d}" % w for w in widths)
    print(fmt.format(*header))
    for r in rows:
        print(fmt.format(*r))
    if args.csv:
        with _atomic_open(args.csv) as fp:
            fp.write(",".join(header) + "\n")
            for r in rows:
                fp.write(",".join(r) + "\n")
    return 1 if bad else 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def build_parser():
    p = _Parser(prog="localpolytope", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    pp = sub.add_parser("polyhedron", help="generate polyhedra and compute eta")
    pp.add_argument("action", choices=["gen", "eta"])
    pp.add_argument("--schedule", default="", help="comma-separated subdivision factors")
    pp.add_argument(
        "--solid",
        default="icosahedron",
        choices=["icosahedron", "octahedron", "pentakisdodecahedron"],
    )
    pp.add_argument("--tol", type=float, default=1e-6)
    pp.add_argument("--out", help="output vertex file (gen)")
    pp.add_argument("--in", dest="in", help="input vertex file (eta)")
    pp.set_defaults(func=cmd_polyhedron)

    ps = sub.add_parser("solve", help="run the membership pipeline")
    ps.add_argument("mode", choices=["lower", "upper", "decide"])
    ps.add_argument("--state", default="werner",
                    choices=["werner", "singlet", "ghz", "w", "custom"])
    ps.add_argument("--tensor", help="tensor file for --state custom")
    ps.add_argument("--N", type=int, default=3, help="party count for ghz")
    ps.add_argument("--m", type=int, default=6, help="inputs per party")
    ps.add_argument("--polyhedron", help="vertex file defining the measurements")
    ps.add_argument("--polygon", action="store_true",
                    help="XY-plane polygon measurements (ghz)")
    ps.add_argument("--v0", required=True, help="initial visibility, exact decimal")
    ps.add_argument("--eps", type=float, default=1e-6)
    ps.add_argument("--max-iter", type=int, default=1_000_000)
    ps.add_argument("--restarts", type=int, default=3000)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--tol", type=float, default=1e-6, help="rationalization tolerance")
    ps.add_argument("--out", help="certificate output file")
    ps.set_defaults(func=cmd_solve)

    pb = sub.add_parser("bound", help="exact local bound of a Bell functional")
    pb.add_argument("--functional", required=True)
    pb.add_argument("--exact", action="store_true")
    pb.set_defaults(func=cmd_bound)

    pc = sub.add_parser("certify", help="verify a certificate file")
    pc.add_argument("action", choices=["verify"])
    pc.add_argument("--in", dest="in", required=True)
    pc.set_defaults(func=cmd_certify)

    pr = sub.add_parser("report", help="tabulate verified certificates")
    pr.add_argument("certificates", nargs="*")
    pr.add_argument("--csv")
    pr.set_defaults(func=cmd_report)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (CliError, OSError, CertificateError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

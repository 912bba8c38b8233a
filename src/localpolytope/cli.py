"""Command-line pipeline: polyhedron generation, solving, certification, reports.

Exit codes: 0 when a certificate was produced and verified (or a decide run
finished inside), 2 for an inconclusive run or an unproven certificate, 1 for
errors and invalid certificates.
"""

import argparse
import contextlib
import json
import os
import sys
import time
from fractions import Fraction

import numpy as np

from . import __version__
from .certify import (
    CertificateError,
    TargetSpec,
    assemble_lower,
    assemble_upper,
    derived_bounds,
    integerize_functional,
    rationalize_weights,
    read_certificate,
    verify,
    write_certificate,
)
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
from .tensor import Scenario, read_tensor

# schedules reproducing the named geodesic polyhedra by input count
GEODESIC_SCHEDULES = {6: [], 21: [2], 46: [3], 81: [4], 406: [3, 3]}


class CliError(Exception):
    pass


def _rationalize_fraction(text):
    try:
        return Fraction(text)
    except ValueError:
        raise CliError(f"cannot parse {text!r} as an exact number")


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
    if args.action == "gen":
        floats = _gen_vertices(args)
        points = rationalize_all(floats, args.tol)
        with open(args.out, "w") as fp:
            write_polyhedron_vertices(points, fp)
        print(f"wrote {len(points)} vertices to {args.out}")
        return 0
    with open(getattr(args, "in"), "r") as fp:
        points = read_polyhedron_vertices(fp)
    poly = faces_and_eta(points)
    e = poly.eta_sq
    print(f"eta^2 = {e.numerator}/{e.denominator} = {float(e)!r}")
    print(f"eta   = {poly.eta!r}")
    return 0


def _measurements_for(args):
    """Measurement layout for a solve run.

    Returns (alice, bob, polyhedron, scenario, exact_vectors); vectors are
    exact rational triples when the run needs exact certificates.
    """
    state = args.state
    N = args.N if state == "ghz" else (3 if state == "w" else 2)
    if args.polygon:
        if state != "ghz":
            raise CliError("--polygon is only meaningful for the GHZ state")
        sc = Scenario(N, args.m, marginals=False)
        return None, None, None, sc, None

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
        return alice, bob, None, sc, True
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
    poly = points
    if state in ("werner", "singlet"):
        sc = Scenario(2, len(reps), marginals=False)
        return vecs, vecs, poly, sc, True
    sc = Scenario(N, len(reps), marginals=True)
    return vecs, vecs, poly, sc, True


def _build_problem(args):
    """Target tensor p (exact when possible), TargetSpec, polyhedron points."""
    if args.state == "custom":
        if not args.tensor:
            raise CliError("--state custom needs --tensor FILE")
        with open(args.tensor) as fp:
            p = read_tensor(fp)
        return p, TargetSpec("tensor", tensor=p), None

    alice, bob, poly_points, sc, _ = _measurements_for(args)
    if args.polygon:
        p = ghz_polygon_tensor(sc.parties, sc.inputs, exact=(sc.inputs <= 3))
        return p, TargetSpec("ghz-polygon"), None
    if args.state in ("werner", "singlet"):
        p = singlet_tensor(alice, bob, sc)
        return p, TargetSpec("singlet", tuple(alice), tuple(bob)), poly_points
    # GHZ / W with generic Bloch vectors: Born rule, marginal slots included
    bl = [np.array([[float(c) for c in v] for v in alice])] * sc.parties
    p = build_quantum_tensor(args.state, bl, sc)
    return p, TargetSpec("tensor", tensor=p), poly_points


def _solver_config(args):
    return SolverConfig(
        lazy_tolerance=args.K,
        max_iterations=args.max_iter,
        eps=args.eps,
        restarts=args.restarts,
        seed=args.seed,
        # decide runs only need the verdict, not a polished gradient
        early_separation=(args.mode == "decide"),
    )


def _write_run_metadata(path, args, res, stages):
    meta = {
        "version": __version__,
        "command": " ".join(sys.argv[1:]),
        "seed": args.seed,
        "status": res.status,
        "distance": res.distance,
        "iterations": res.iterations,
        "lmo_calls": res.lmo_calls,
        "elapsed_seconds": stages["solve"],
        "stages": stages,
    }
    with open(path, "w") as fp:
        json.dump(meta, fp, indent=2)


@contextlib.contextmanager
def _stage(stages, name):
    """Record the wall seconds of the block as ``stages[name]``."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        stages[name] = time.perf_counter() - t0


def cmd_solve(args):
    stages = {}
    with _stage(stages, "build"):
        p, target, poly_points = _build_problem(args)
        v0 = _rationalize_fraction(args.v0)
        cfg = _solver_config(args)
    solver = bpcg if args.algo == "bpcg" else frank_wolfe_vanilla

    with _stage(stages, "solve"):
        res = solver(p, float(v0), cfg)
    print(
        f"status={res.status} distance={res.distance:.3e} iterations={res.iterations} "
        f"lmo_calls={res.lmo_calls} ({stages['solve']:.2f}s)"
    )
    try:
        return _finish_solve(args, res, p, target, poly_points, v0, stages)
    finally:
        if args.out:
            _write_run_metadata(args.out + ".run.json", args, res, stages)


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
    _print_derived(cert)
    if args.out:
        with _stage(stages, "write"):
            with open(args.out, "w") as fp:
                write_certificate(cert, fp)
        print(f"certificate written to {args.out}")
    return 0


def _assemble_upper_cert(args, res, p, target, v0):
    """Integerize the separating hyperplane until it certifies; None if it never does."""
    if not enumerable(p.scenario):
        print("inconclusive: exact local bound unavailable at this size")
        return None
    G = extract_hyperplane(res, p, float(v0))
    scale = args.scale
    while True:
        M = integerize_functional(G, scale)
        lb = local_bound(M)
        try:
            return assemble_upper(M, lb.value, p, target)
        except CertificateError:
            scale *= 10
            if scale > 10**8:
                print("inconclusive: no violation after integerization")
                return None


def _print_derived(cert):
    _, lines = derived_bounds(cert)
    for ln in lines:
        print("  " + ln)


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
        runtime = ""
        meta_path = path + ".run.json"
        if os.path.exists(meta_path):
            with open(meta_path) as fp:
                runtime = f"{json.load(fp).get('elapsed_seconds', 0):.2f}"
        if not ok:
            bad += 1
            verdict = "INVALID: " if ok is False else "UNPROVEN: "
            rows.append((path, verdict + reason.removeprefix("unproven: "),
                         "", "", "", "", "", runtime))
            continue
        state = cert.target.kind
        m = cert.scenario.inputs
        if cert.kind == "lower":
            rows.append(
                (
                    path,
                    state,
                    str(m),
                    f"{float(cert.v_low):.6f}",
                    "",
                    f"{float(cert.eta_sq):.6f}" if cert.eta_sq is not None else "-",
                    f"{float(cert.nu):.6f}",
                    runtime,
                )
            )
        else:
            rows.append(
                (path, state, str(m), "", f"{float(cert.v_up):.6f}", "-", "-", runtime)
            )

    header = ("file", "state", "m", "v_low", "v_up", "eta_sq", "nu", "runtime_s")
    widths = [max(len(r[i]) for r in rows + [header]) for i in range(len(header))]
    fmt = "  ".join("{:<%d}" % w for w in widths)
    print(fmt.format(*header))
    for r in rows:
        print(fmt.format(*r))
    if args.csv:
        with open(args.csv, "w") as fp:
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
    ps.add_argument("--algo", default="bpcg", choices=["bpcg", "fw"])
    ps.add_argument("--K", type=float, default=2.0, help="lazy tolerance")
    ps.add_argument("--eps", type=float, default=1e-6)
    ps.add_argument("--max-iter", type=int, default=100_000)
    ps.add_argument("--restarts", type=int, default=3000)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--tol", type=float, default=1e-6, help="rationalization tolerance")
    ps.add_argument("--scale", type=int, default=10**4, help="integerization scale")
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
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (OSError, CertificateError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Workload table of the localpolytope benchmark.

Each workload is a short sequence of CLI commands, run the way a user runs
them: one fresh ``python -m localpolytope.cli`` process per command, the next
command started only after the previous one exited.  Why each workload is in
the benchmark, and what it leaves out, is in ``bench/NOTES.md``.

Run as a script, this module builds one workload's inputs through the
package's public functions (the set-up the benchmark times):

    python3 bench/workloads.py setup lower-m21
"""

import sys
from dataclasses import dataclass
from fractions import Fraction

# Exact eta^2 of the 162-vertex geodesic polyhedron (schedule 4), m = 81.
ETA_SQ_M81 = Fraction(
    40034277769213987909685730632480490000,
    41494510086728036296210524490241387521,
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str              # "lower", "upper" or "eta"
    solve_args: tuple = () # CLI arguments of the solve, without --seed/--out
    state: str = ""        # "werner" or "ghz"; inputs built at set-up
    parties: int = 2
    inputs: int = 0        # measurements per party
    schedule: str = ""     # polyhedron gen schedule (eta workloads)

    def main_argv(self, seed, cert, vertex_file):
        """CLI arguments of the timed command."""
        if self.kind == "eta":
            return ["polyhedron", "eta", "--in", vertex_file]
        return [*self.solve_args, "--seed", str(seed), "--out", cert]

    def setup_argv(self, vertex_file):
        """CLI arguments of the set-up command, or None if set-up is in-process."""
        if self.kind == "eta":
            return ["polyhedron", "gen", "--schedule", self.schedule, "--out", vertex_file]
        return None


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="lower-m16",
            why="full inside pipeline: heuristic oracle, BPCG, Gram cache, "
            "Fraction rationalisation, exact hull and lower-certificate verify",
            kind="lower",
            solve_args=("solve", "lower", "--state", "werner", "--m", "16",
                        "--v0", "0.55", "--restarts", "100"),
            state="werner",
            inputs=16,
        ),
        Workload(
            name="ghz3-m6",
            why="three parties with marginal slots: the N>=3 einsum oracle, "
            "BPCG step cost and the exhaustive local bound; no QUBO, no hull",
            kind="upper",
            solve_args=("solve", "upper", "--state", "ghz", "--N", "3", "--m", "6",
                        "--v0", "0.80", "--restarts", "300"),
            state="ghz",
            parties=3,
            inputs=6,
        ),
        Workload(
            name="eta-m81",
            why="exact hull and eta^2 of a 162-vertex polyhedron: "
            "the Fraction audit in faces_and_eta; no solver",
            kind="eta",
            schedule="4",
        ),
    ]
}


def build_inputs(workload):
    """Measurement vertices and target tensor of a solve workload.

    Mirrors what ``solve`` builds from its flags, through public functions
    only.  Returns (vertex count, target tensor).
    """
    import numpy as np

    from localpolytope.cli import GEODESIC_SCHEDULES
    from localpolytope.polyhedra import (
        antipodal_representatives,
        geodesic_icosahedron,
        pentakis_dodecahedron,
        rationalize_all,
    )
    from localpolytope.states import build_quantum_tensor, singlet_tensor
    from localpolytope.tensor import Scenario

    if workload.inputs == 16:
        solid = pentakis_dodecahedron()
    else:
        solid = geodesic_icosahedron(GEODESIC_SCHEDULES[workload.inputs])
    points = rationalize_all(solid, 1e-6)
    vecs = [p.as_tuple() for p in antipodal_representatives(points)]
    if len(vecs) != workload.inputs:
        raise ValueError(f"{workload.name}: built {len(vecs)} settings, "
                         f"expected {workload.inputs}")
    if workload.state == "werner":
        return len(points), singlet_tensor(vecs, vecs)
    sc = Scenario(workload.parties, len(vecs), marginals=True)
    bloch = [np.array([[float(c) for c in v] for v in vecs])] * workload.parties
    return len(points), build_quantum_tensor(workload.state, bloch, sc)


def main(argv):
    if len(argv) != 2 or argv[0] != "setup" or argv[1] not in WORKLOADS:
        print(f"usage: workloads.py setup {{{','.join(WORKLOADS)}}}", file=sys.stderr)
        return 2
    nverts, p = build_inputs(WORKLOADS[argv[1]])
    print(f"built {nverts} vertices, target shape {p.entries.shape}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

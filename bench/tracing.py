"""Span tracing of the localpolytope layers, from outside the package.

Wrappers are installed into the namespace of each *consuming* module, because
``from .x import f`` binds ``f`` there: wrapping ``lmo.heuristic_lmo`` would not
touch the name ``fw.heuristic_lmo`` that the solver calls.  Every wrapper is
removed again when the traced block ends.

Run as a script, this module executes one CLI command under tracing and writes
its spans and counters as JSON:

    python3 bench/tracing.py --spans OUT.json -- solve lower --m 6 --v0 0.6

Spans stay in memory until the command returns.
"""

import argparse
import contextlib
import functools
import json
import sys
import time
from collections import defaultdict


class Tracer:
    """In-memory spans (name, start, end, parent) plus plain counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []          # [name, start, end, parent index or None]
        self.counts = defaultdict(int)
        self.peaks = defaultdict(int)
        self._stack = []

    def begin(self, name):
        """Open a span under the innermost open one; returns its record."""
        rec = [name, self.clock(), None, self._stack[-1] if self._stack else None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def end(self, rec):
        rec[2] = self.clock()
        self._stack.pop()

    def to_json(self):
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "peaks": dict(self.peaks),
        }


def self_times(spans, exclude_children=None):
    """Per-span time not covered by its direct children.

    ``spans`` is a list of (name, start, end, parent).  Child intervals are
    merged and clipped to the parent before they are subtracted, so
    overlapping or overhanging children are not counted twice.  With
    ``exclude_children`` (a predicate on the child name) only matching
    children are subtracted.
    """
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent is not None and (exclude_children is None or exclude_children(name)):
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


# --- wrapper installation ----------------------------------------------------


def _span_wrapper(tracer, name, fn, observe):
    calls = name + ".calls"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counts[calls] += 1
        rec = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(rec)
        if observe is not None:
            observe(tracer, args, result)
        return result

    wrapper.__bench_original__ = fn
    return wrapper


def _count_wrapper(tracer, name, fn, observe):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counts[name] += 1
        result = fn(*args, **kwargs)
        if observe is not None:
            observe(tracer, args, result)
        return result

    wrapper.__bench_original__ = fn
    return wrapper


def _observe_solve(tracer, args, res):
    tracer.counts["fw.iterations"] += res.iterations
    tracer.counts["fw.solves"] += 1
    tracer.counts["fw.lmo_calls"] += res.lmo_calls


def _observe_atoms(tracer, args, _):
    active = args[0]
    tracer.peaks["fw.atoms"] = max(tracer.peaks["fw.atoms"], len(active))


def _observe_hull(tracer, args, poly):
    nv, nf = len(poly.vertices), len(poly.faces)
    tracer.peaks["polyhedra.vertices"] = max(tracer.peaks["polyhedra.vertices"], nv)
    tracer.peaks["polyhedra.faces"] = max(tracer.peaks["polyhedra.faces"], nf)
    tracer.counts["polyhedra.audit_checks"] += nv * nf


def _observe_bound(tracer, args, lb):
    tracer.counts["lmo.local_bound.exact"] += int(bool(lb.exact))


def targets():
    """(owner, attribute, metric name, kind, observer) for every wrapped name.

    ``kind`` is "span" for a timed span or "count" for a counter only.  The
    step-update methods are counted, not timed, so that their cost stays in
    the solver's own step time; ``strategy_inner`` is counted, not timed,
    because it runs ~10^5 times per solve, only inside the Gram spans.
    """
    from localpolytope import certify, cli, fw, lmo

    ipc, aset = fw.InnerProductCache, fw.ActiveSet
    return [
        # cli stages
        (cli, "cmd_solve", "cli.solve", "span", None),
        (cli, "cmd_certify", "cli.certify", "span", None),
        (cli, "cmd_polyhedron", "cli.polyhedron", "span", None),
        (cli, "bpcg", "fw.solve", "span", _observe_solve),
        (cli, "frank_wolfe_vanilla", "fw.solve", "span", _observe_solve),
        (cli, "rationalize_weights", "certify.rationalize", "span", None),
        (cli, "assemble_lower", "certify.assemble", "span", None),
        (cli, "assemble_upper", "certify.assemble", "span", None),
        (cli, "integerize_functional", "certify.integerize", "span", None),
        (cli, "verify", "certify.verify", "span", None),
        (cli, "write_certificate", "certify.write", "span", None),
        (cli, "read_certificate", "certify.read", "span", None),
        (cli, "local_bound", "lmo.local_bound", "span", _observe_bound),
        (cli, "faces_and_eta", "polyhedra.hull", "span", _observe_hull),
        (cli, "rationalize_all", "polyhedra.rationalize", "span", None),
        (cli, "singlet_tensor", "states.target", "span", None),
        (cli, "build_quantum_tensor", "states.target", "span", None),
        (cli, "ghz_polygon_tensor", "states.target", "span", None),
        # solver internals
        (fw, "heuristic_lmo", "lmo.heuristic", "span", None),
        (fw, "strategy_tensor", "tensor.strategy_tensor", "span", None),
        (fw, "strategy_inner", "tensor.strategy_inner.calls", "count", None),
        (fw, "tensor_strategy_inner", "tensor.tensor_strategy_inner", "span", None),
        (ipc, "__init__", "fw.gram.build", "span", None),
        (ipc, "add_atom", "fw.gram.add", "span", None),
        (aset, "recompute_iterate", "fw.recompute", "span", None),
        (ipc, "apply_pairwise", "fw.steps.apply_pairwise", "count", None),
        (ipc, "apply_fw", "fw.steps.apply_fw", "count", None),
        (ipc, "remove_atom", "fw.steps.remove_atom", "count", None),
        (aset, "add_atom", "fw.atoms.add", "count", _observe_atoms),
        # verifier internals
        (certify, "faces_and_eta", "polyhedra.hull", "span", _observe_hull),
        (certify, "local_bound", "lmo.local_bound", "span", _observe_bound),
        (certify, "maximize_functional_heuristic", "lmo.heuristic", "span", None),
        (certify, "strategy_tensor", "tensor.strategy_tensor", "span", None),
        (certify, "tensor_strategy_inner", "tensor.tensor_strategy_inner", "span", None),
        # oracle behind local_bound
        (lmo, "exhaustive_lmo", "lmo.exhaustive", "span", None),
    ]


@contextlib.contextmanager
def installed(tracer):
    """Install every wrapper for the duration of the block, then restore."""
    saved = []
    try:
        for owner, attr, name, kind, observe in targets():
            original = owner.__dict__[attr]
            make = _span_wrapper if kind == "span" else _count_wrapper
            setattr(owner, attr, make(tracer, name, original, observe))
            saved.append((owner, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def run_traced(argv):
    """Run one CLI command under tracing; returns (exit code, tracer)."""
    from localpolytope import cli

    tracer = Tracer()
    with installed(tracer):
        code = cli.main(argv)
    return code, tracer


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spans", required=True, help="JSON file for spans and counters")
    ap.add_argument("argv", nargs=argparse.REMAINDER, help="-- followed by CLI arguments")
    args = ap.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    code, tracer = run_traced(argv)
    with open(args.spans, "w") as fp:
        json.dump(tracer.to_json(), fp)
    return code


if __name__ == "__main__":
    sys.exit(main())

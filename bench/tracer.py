"""Outside-in span tracer for the superflag CLI.

The tracer wraps the public functions named in ``TARGETS`` with timing
wrappers from outside the package: it replaces every binding of each
function by name in every loaded ``superflag`` module (``cli`` imports
``gr_ideal``, ``lift_relations`` and others by name; ``essential`` imports
``pbw_act`` by name), and the method itself on its class.  Spans
(name, start, end, parent) are kept in memory in flat arrays and turned
into per-layer metrics once the traced run is over.  A layer's self time is
its span time minus the time of its direct child spans, so the self times
of all layers plus ``cli.residual_s`` add up to the traced total.

Run as a script it is the traced child of ``bench/run.py``::

    python3 bench/tracer.py --commands '[["verify-example"]]' \\
        --reference-seconds 5 --out trace.json --spans spans.json

It first runs the commands untraced, in-process, as often as fits in
``--reference-seconds`` (at least once), then once traced, and
writes the reports, exit codes, timings and per-layer metrics as JSON.
The counters read from return values after a span ends, so their cost is
part of the tracing overhead, in the enclosing span or the residual.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import json
import statistics
import sys
import time
import traceback
from array import array

# Layer names: "<module>.<attribute path>" inside the superflag package.
TARGETS = (
    "liesuper.build_context",
    "liesuper.negative_basis",
    "modules.tensor_representations",
    "modules.Representation.apply",
    "modules.pbw_act",
    "modules.cyclic_span",
    "modules.CyclicModule.expand",
    "linalg.SpanAccumulator.insert",
    "linalg.SpanAccumulator.express",
    "linalg.nullspace",
    "linalg.smith_normal_form",
    "linalg.fourier_motzkin_bounds",
    "linalg.fourier_motzkin_solve",
    "superpoly.enumerate_monomials",
    "superpoly.multiply",
    "essential.essential_monomials",
    "essential.search_order_catalog",
    "essential.is_favourable",
    "essential.check_semigroup_property",
    "degeneration.structure_constants",
    "degeneration.gr_ideal",
    "degeneration.lift_relations",
    "degeneration.evaluate_in_tower",
    "degeneration.find_weight_vector",
    "degeneration.family_ideal",
    "degeneration.hilbert_check",
    "toric.certify",
    "toric.solve_action",
    "toric.verify_derivation_closure",
    "toric.check_even_laurent",
    "polytopes.enumerate_lattice_points",
)

# (metric name, unit) in the order the benchmark reports them.  Every metric
# is reported on every workload; a layer the workload never reaches reads 0.
LAYER_METRICS = (
    ("liesuper.build_context.self_s", "s"),
    ("liesuper.negative_basis.calls", "count"),
    ("liesuper.negative_basis.self_s", "s"),
    ("modules.tensor_representations.calls", "count"),
    ("modules.tensor_representations.self_s", "s"),
    ("modules.tensor_representations.out_dim", "count"),
    ("modules.tensor_representations.nnz", "count"),
    ("modules.Representation.apply.calls", "count"),
    ("modules.Representation.apply.self_s", "s"),
    ("modules.pbw_act.calls", "count"),
    ("modules.pbw_act.self_s", "s"),
    ("modules.pbw_act.zero_ratio", "ratio"),
    ("modules.cyclic_span.self_s", "s"),
    ("modules.CyclicModule.expand.calls", "count"),
    ("modules.CyclicModule.expand.self_s", "s"),
    ("linalg.SpanAccumulator.insert.calls", "count"),
    ("linalg.SpanAccumulator.insert.self_s", "s"),
    ("linalg.SpanAccumulator.insert.independent_ratio", "ratio"),
    ("linalg.SpanAccumulator.express.calls", "count"),
    ("linalg.SpanAccumulator.express.self_s", "s"),
    ("linalg.nullspace.calls", "count"),
    ("linalg.nullspace.self_s", "s"),
    ("linalg.smith_normal_form.self_s", "s"),
    ("linalg.fourier_motzkin_bounds.self_s", "s"),
    ("linalg.fourier_motzkin_solve.self_s", "s"),
    ("superpoly.enumerate_monomials.calls", "count"),
    ("superpoly.enumerate_monomials.self_s", "s"),
    ("superpoly.multiply.calls", "count"),
    ("superpoly.multiply.self_s", "s"),
    ("essential.essential_monomials.calls", "count"),
    ("essential.essential_monomials.self_s", "s"),
    ("essential.search_order_catalog.self_s", "s"),
    ("essential.is_favourable.self_s", "s"),
    ("essential.check_semigroup_property.self_s", "s"),
    ("degeneration.structure_constants.calls", "count"),
    ("degeneration.structure_constants.self_s", "s"),
    ("degeneration.gr_ideal.self_s", "s"),
    ("degeneration.lift_relations.self_s", "s"),
    ("degeneration.lift_relations.steps_per_relation", "steps"),
    ("degeneration.evaluate_in_tower.calls", "count"),
    ("degeneration.evaluate_in_tower.self_s", "s"),
    ("degeneration.find_weight_vector.self_s", "s"),
    ("degeneration.family_ideal.self_s", "s"),
    ("degeneration.hilbert_check.self_s", "s"),
    ("toric.certify.self_s", "s"),
    ("toric.solve_action.self_s", "s"),
    ("toric.verify_derivation_closure.self_s", "s"),
    ("toric.check_even_laurent.self_s", "s"),
    ("polytopes.enumerate_lattice_points.self_s", "s"),
    ("polytopes.enumerate_lattice_points.points", "count"),
    ("cli.residual_s", "s"),
    ("trace.overhead_s", "s"),
)


def resolve(target: str):
    """(owner, attribute, function) for a layer name such as
    ``modules.Representation.apply``."""
    module_name, *path = target.split(".")
    owner = importlib.import_module(f"superflag.{module_name}")
    for part in path[:-1]:
        owner = getattr(owner, part)
    return owner, path[-1], getattr(owner, path[-1])


class Tracer:
    """Span recorder; ``install`` wraps the targets, ``uninstall`` restores
    every binding it replaced."""

    def __init__(self):
        self.names = list(TARGETS)
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters = {
            "tensor_out_dim": 0,
            "tensor_nnz": 0,
            "pbw_zero": 0,
            "insert_independent": 0,
            "relations_lifted": 0,
            "lattice_points": 0,
        }
        # Size of every essential set the run computed, in call order.
        self.essential_sizes: list[int] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, idx: int, fn, after):
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(names)
            names.append(idx)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(span)
            starts[span] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _after_hooks(self):
        from superflag.linalg import Independent

        c = self.counters

        def tensor(args, kwargs, rep):
            c["tensor_out_dim"] += rep.dim
            c["tensor_nnz"] += sum(
                len(col) for cols in rep.action for col in cols.values()
            )

        def pbw(args, kwargs, vec):
            c["pbw_zero"] += vec.is_zero()

        def insert(args, kwargs, outcome):
            c["insert_independent"] += isinstance(outcome, Independent)

        def lift(args, kwargs, lifted):
            c["relations_lifted"] += len(lifted)

        def lattice(args, kwargs, points):
            c["lattice_points"] += points.size

        def essential(args, kwargs, result):
            self.essential_sizes.append(result[0].size)

        return {
            "modules.tensor_representations": tensor,
            "modules.pbw_act": pbw,
            "linalg.SpanAccumulator.insert": insert,
            "degeneration.lift_relations": lift,
            "polytopes.enumerate_lattice_points": lattice,
            "essential.essential_monomials": essential,
        }

    def install(self) -> None:
        hooks = self._after_hooks()
        packages = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "superflag" or name.startswith("superflag."))
        ]
        for idx, target in enumerate(self.names):
            owner, attr, original = resolve(target)
            wrapper = self._wrap(idx, original, hooks.get(target))
            self._patch(owner, attr, original, wrapper)
            for mod in packages:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        if getattr(owner, attr) is wrapper:
            return
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: span count, span time, self time; plus the time of
        all root spans under the key ``None``."""
        n = len(self.span_name)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        roots = 0.0
        for i, p in enumerate(self.span_parent):
            if p >= 0:
                child[p] += dur[i]
            else:
                roots += dur[i]
        out = {name: {"calls": 0, "span_s": 0.0, "self_s": 0.0} for name in self.names}
        for i, idx in enumerate(self.span_name):
            rec = out[self.names[idx]]
            rec["calls"] += 1
            rec["span_s"] += dur[i]
            rec["self_s"] += dur[i] - child[i]
        out[None] = {"span_s": roots}
        return out

    def child_calls(self, parent: str, child: str) -> int:
        """Number of ``child`` spans whose direct parent is a ``parent`` span."""
        pi, ci = self.names.index(parent), self.names.index(child)
        names = self.span_name
        return sum(
            1
            for i, p in enumerate(self.span_parent)
            if names[i] == ci and p >= 0 and names[p] == pi
        )

    def layer_metrics(self, traced_s: float, untraced_s: float) -> dict[str, float]:
        """Every metric of ``LAYER_METRICS`` from the recorded spans."""
        layers = self.layer_totals()
        c = self.counters
        values: dict[str, float] = {}
        for name in self.names:
            values[f"{name}.calls"] = layers[name]["calls"]
            values[f"{name}.self_s"] = layers[name]["self_s"]
        values["modules.tensor_representations.out_dim"] = c["tensor_out_dim"]
        values["modules.tensor_representations.nnz"] = c["tensor_nnz"]
        values["modules.pbw_act.zero_ratio"] = _ratio(
            c["pbw_zero"], layers["modules.pbw_act"]["calls"]
        )
        values["linalg.SpanAccumulator.insert.independent_ratio"] = _ratio(
            c["insert_independent"], layers["linalg.SpanAccumulator.insert"]["calls"]
        )
        values["degeneration.lift_relations.steps_per_relation"] = _ratio(
            self.child_calls("degeneration.lift_relations", "degeneration.evaluate_in_tower"),
            c["relations_lifted"],
        )
        values["polytopes.enumerate_lattice_points.points"] = c["lattice_points"]
        values["cli.residual_s"] = traced_s - layers[None]["span_s"]
        values["trace.overhead_s"] = traced_s - untraced_s
        return {name: values[name] for name, _ in LAYER_METRICS}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def run_commands(commands, main) -> tuple[float, list[dict]]:
    """Run each argv through ``main`` in-process; (seconds, outcomes)."""
    outcomes = []
    t0 = time.perf_counter()
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                traceback.print_exc()
                code = 2
        outcomes.append(
            {"argv": list(argv), "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
        )
    return time.perf_counter() - t0, outcomes


def traced_run(commands, reference_seconds: float) -> tuple[dict, Tracer]:
    """Untraced in-process reference runs, then one traced run."""
    from superflag.cli import main

    untraced: list[float] = []
    outcomes: list[list[dict]] = []
    t0 = time.perf_counter()
    while not untraced or (
        time.perf_counter() - t0 + statistics.mean(untraced) <= reference_seconds
    ):
        seconds, result = run_commands(commands, main)
        untraced.append(seconds)
        outcomes.append(result)

    tracer = Tracer()
    tracer.install()
    try:
        traced_s, result = run_commands(commands, main)
    finally:
        tracer.uninstall()
    outcomes.append(result)
    layers = tracer.layer_totals()
    record = {
        "untraced_s": untraced,
        "traced_s": traced_s,
        "outcomes": outcomes,
        "spans": len(tracer.span_name),
        "root_span_s": layers[None]["span_s"],
        "self_s_sum": sum(layers[name]["self_s"] for name in tracer.names),
        "essential_sizes": tracer.essential_sizes,
        "metrics": tracer.layer_metrics(traced_s, statistics.median(untraced)),
    }
    return record, tracer


def write_spans(tracer: Tracer, path: str) -> None:
    """Spans as JSON: layer names, then one [name, start, end, parent] row
    per span (times in seconds from the first span's start)."""
    base = tracer.span_start[0] if tracer.span_start else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"names": ' + json.dumps(tracer.names) + ', "spans": [')
        for i in range(len(tracer.span_name)):
            if i:
                fh.write(",")
            fh.write(
                f"[{tracer.span_name[i]},{tracer.span_start[i] - base:.9f},"
                f"{tracer.span_end[i] - base:.9f},{tracer.span_parent[i]}]"
            )
        fh.write("]}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commands", required=True, help="JSON list of CLI argv lists")
    parser.add_argument("--reference-seconds", type=float, default=0.0)
    parser.add_argument("--out", required=True, help="result JSON file")
    parser.add_argument("--spans", required=True, help="span JSON file")
    args = parser.parse_args(argv)
    record, tracer = traced_run(json.loads(args.commands), args.reference_seconds)
    write_spans(tracer, args.spans)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

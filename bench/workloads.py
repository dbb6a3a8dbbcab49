"""The four benchmark workloads: inputs made from a seed, the CLI commands
that run them, the set-up each pays, and the oracle for their reports.

Every workload runs the CLI as ``python -m superflag.cli <argv>``.  Seed 0
gives exactly the inputs named below; other seeds only reorder input text in
ways every report is invariant under (config sections, inequality rows,
generator lines), so one recorded digest checks every seed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import re
from dataclasses import dataclass, field

DATA = os.path.join("src", "superflag", "data")
OSP_CFG = os.path.join(DATA, "osp14_w1.cfg")
REGION = os.path.join(DATA, "osp14_w1_polytope.txt")

# Same job text as the sl3 adjoint job of the CLI tests.
SL3_CFG = """\
[algebra]
family = sl
m = 3
n = 0
functional = 3 2

[realization]
blocks = natural:0, dual-natural:2

[order]
kind = graded-lex
"""

# verify-example stages in report order.  The two OPEN ones fail today
# because of the criterion-02 gap (a 5-dimensional module against a
# 10-point region); a program fix may turn them to PASS, so either reading
# is accepted.  Every other stage must pass.
STAGES = (
    "polytope-count",
    "essential-computation",
    "polytope-match",
    "order-search",
    "semigroup",
    "favourable",
    "graded-kernel",
    "family-fibers",
    "toric-certificate",
)
OPEN_STAGES = ("polytope-match", "order-search")

ORACLE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "oracle.json")


@dataclass
class Prepared:
    """A workload's commands (CLI argv lists, run in order as one operation)
    and the arguments of its set-up probe."""

    commands: list[list[str]]
    probe: list[str]
    notes: dict = field(default_factory=dict)


def shuffled_sections(text: str, rng: random.Random) -> str:
    """Config text with its ``[section]`` blocks in a seed-chosen order."""
    blocks = re.split(r"(?m)^(?=\[)", text)
    head, sections = blocks[0], blocks[1:]
    rng.shuffle(sections)
    return head + "".join(s if s.endswith("\n\n") else s.rstrip("\n") + "\n\n" for s in sections)


def region_points(rows, odd, k: int) -> list[tuple[int, ...]]:
    """Integer points of the k-th dilation of a region ``sum(c*x) <= rhs``
    with nonnegative coefficients, in the nonnegative orthant, odd
    coordinates capped at 1.  Computed by brute force over a box,
    independently of the program."""
    nvars = len(odd)
    hi = [1 if odd[i] else max(k * rhs for coeffs, rhs in rows if coeffs[i] > 0) for i in range(nvars)]
    return [
        p
        for p in itertools.product(*(range(h + 1) for h in hi))
        if all(sum(c * x for c, x in zip(coeffs, p)) <= k * rhs for coeffs, rhs in rows)
    ]


def read_region(path: str):
    """(header lines, [(coeffs, rhs)], odd flags) of an inequality file."""
    header, rows, labels, odd_names = [], [], [], set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            text = line.strip()
            if not text or text.startswith("#"):
                header.append(line)
                continue
            if text.startswith("vars "):
                labels = text.split()[1:]
                header.append(line)
            elif text.startswith("odd "):
                odd_names = set(text.split()[1:])
                header.append(line)
            else:
                lhs, rhs = text.split("<=")
                rows.append(([int(t) for t in lhs.split()], int(rhs)))
    return header, rows, [name in odd_names for name in labels]


def union_of_dilations(rows, odd, dilations) -> list[str]:
    """Generator lines ``I=.. m=(..) k=..`` of the graded union of the
    region's dilations: the even coordinates come first in the region and
    are the ``m`` part, the odd ones are the ``I`` bits."""
    lines = []
    for k in dilations:
        for p in region_points(rows, odd, k):
            bits = "".join(str(x) for x, o in zip(p, odd) if o)
            evens = ",".join(str(x) for x, o in zip(p, odd) if not o)
            lines.append(f"I={bits} m=({evens}) k={k}")
    return lines


def prepare(name: str, work: str, seed: int, level: int | None = None) -> Prepared:
    """Write the inputs of workload ``name`` for ``seed`` under ``work``
    (paths relative to the checkout root).  ``level`` shrinks a workload
    for the benchmark's own tests; ``None`` is the benchmark size."""
    rng = random.Random(seed)
    if name == "osp_tower":
        k = level or 6
        cfg = OSP_CFG
        if seed:
            cfg = os.path.join(work, "osp14_w1.cfg")
            with open(OSP_CFG, encoding="utf-8") as fh:
                text = shuffled_sections(fh.read(), rng)
            with open(cfg, "w", encoding="utf-8") as fh:
                fh.write(text)
        argv = ["essential", "--config", cfg, "--level", str(k), "--favourable-k", str(k)]
        return Prepared([argv], ["job", cfg], {"level": k})
    if name == "sl3_degenerate":
        bound = level or 4
        cfg = os.path.join(work, "sl3.cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(shuffled_sections(SL3_CFG, rng) if seed else SL3_CFG)
        argv = ["degenerate", "--config", cfg, "--degree-bound", str(bound)]
        return Prepared([argv], ["job", cfg], {"bound": bound})
    if name == "verify_catalog":
        # No inputs: the command runs the bundled example.
        return Prepared([["verify-example"]], ["bundled"])
    if name == "region_toric":
        dilate, top = (10, 3) if level is None else (level, 2)
        header, rows, odd = read_region(REGION)
        region = REGION
        if seed:
            rows = list(rows)
            rng.shuffle(rows)
            region = os.path.join(work, "region.txt")
            with open(region, "w", encoding="utf-8") as fh:
                fh.writelines(header)
                for coeffs, rhs in rows:
                    fh.write(" ".join(map(str, coeffs)) + f" <= {rhs}\n")
        labels = _region_labels(header)
        gens = union_of_dilations(rows, odd, range(1, top + 1))
        if seed:
            rng.shuffle(gens)
        exponents = os.path.join(work, "union.txt")
        n_even = odd.count(False)
        with open(exponents, "w", encoding="utf-8") as fh:
            fh.write(f"# ambient n={n_even} q={len(odd) - n_even}\n")
            fh.write("# labels " + " ".join(labels) + "\n")
            fh.write("\n".join(gens) + "\n")
        commands = [
            ["polytope", "--system", region, "--dilate", str(dilate)],
            ["toric", "--exponents", exponents],
        ]
        expected = len(region_points(rows, odd, dilate))
        return Prepared(
            commands,
            ["region", region, exponents, str(dilate)],
            {"dilate": dilate, "generators": len(gens), "points": expected},
        )
    raise KeyError(name)


def _region_labels(header) -> list[str]:
    """``x1=<label> .. xi1=<label> ..`` names, even variables first."""
    labels, odd = [], set()
    for line in header:
        text = line.strip()
        if text.startswith("vars "):
            labels = text.split()[1:]
        elif text.startswith("odd "):
            odd = set(text.split()[1:])
    even = [l for l in labels if l not in odd]
    odds = [l for l in labels if l in odd]
    return [f"x{i}={l}" for i, l in enumerate(even, 1)] + [
        f"xi{i}={l}" for i, l in enumerate(odds, 1)
    ]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_oracle() -> dict:
    with open(ORACLE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def check(name: str, prepared: Prepared, outcomes: list[dict], oracle: dict | None) -> list[str]:
    """Problems with one operation's outcomes (empty when correct).

    Each outcome has ``code``, ``stdout``, ``stderr`` and ``timed_out``.  A
    wrong report, an unexpected exit code, ``error:`` or a traceback on
    stderr, and a timeout all count as a failed operation.
    """
    problems = []
    for out in outcomes:
        cmd = out["argv"][0]
        if out.get("timed_out"):
            problems.append(f"{cmd}: timed out")
            return problems
        if "error:" in out["stderr"] or "Traceback" in out["stderr"]:
            problems.append(f"{cmd}: stderr reads {out['stderr'].strip()[-200:]!r}")
    if name == "verify_catalog":
        problems += _check_stages(outcomes[0])
    else:
        for out in outcomes:
            if out["code"] != 0:
                problems.append(f"{out['argv'][0]}: exit code {out['code']}")
        if problems:
            return problems
        problems += _check_invariants(name, prepared, [o["stdout"] for o in outcomes])
    if oracle is not None and name in oracle.get("digests", {}):
        want = oracle["digests"][name]
        got = [digest(o["stdout"]) for o in outcomes]
        if got != want:
            problems.append(f"report digests {got} differ from the recorded {want}")
    return problems


def _check_stages(out: dict) -> list[str]:
    """verify-example: every stage present in order, every stage outside
    ``OPEN_STAGES`` passes, and the exit code says whether any failed."""
    lines = out["stdout"].splitlines()
    status = {}
    for line in lines:
        m = re.match(r"(PASS|FAIL) ([\w-]+): ", line)
        if m:
            status[m.group(2)] = m.group(1)
    problems = []
    if tuple(status) != STAGES:
        problems.append(f"stages {list(status)} differ from {list(STAGES)}")
        return problems
    failed = [s for s in STAGES if status[s] == "FAIL"]
    for stage in failed:
        if stage not in OPEN_STAGES:
            problems.append(f"stage {stage} failed")
    want_tail = "FAILED stages: " + ", ".join(failed) if failed else "all stages passed"
    if not lines or lines[-1] != want_tail:
        problems.append(f"last line {lines[-1:]!r}, expected {want_tail!r}")
    if out["code"] != (1 if failed else 0):
        problems.append(f"exit code {out['code']} with failed stages {failed}")
    return problems


def _check_invariants(name: str, prepared: Prepared, reports: list[str]) -> list[str]:
    problems = []

    def need(cond: bool, what: str) -> None:
        if not cond:
            problems.append(what)

    if name == "osp_tower":
        k = prepared.notes["level"]
        text = reports[0]
        size = sum(1 for line in text.splitlines() if line.startswith("I="))
        want = {1: 5, 2: 14, 3: 30, 4: 55, 5: 91, 6: 140}.get(k)
        need(want is None or size == want, f"level-{k} module size {size}, expected {want}")
        need(f"# favourable up to level {k}: yes" in text, "favourable line missing")
        for j in range(2, k + 1):
            need(f"# semigroup additivity at level {j}: ok" in text, f"semigroup level {j} not ok")
    elif name == "sl3_degenerate":
        text = reports[0]
        bound = prepared.notes["bound"]
        dims = {1: 8, 2: 27, 3: 64, 4: 125}
        gens = {4: 270}.get(bound)
        if gens is not None:
            need(f"graded kernel generators (degree <= {bound}): {gens}" in text, f"not {gens} generators")
        need("weight vector: (0, 0, -1)" in text, "weight vector is not (0, 0, -1)")
        need("hilbert comparison: PASS" in text, "hilbert comparison did not pass")
        row = " ".join(f"h={h}:{dims[h]}" for h in range(1, bound + 1))
        need(f"  expected:  {row}" in text, f"expected row is not {row}")
        fibers = [line for line in text.splitlines() if line.startswith("  fiber t=")]
        need(
            len(fibers) == 2 and all(line.endswith(f": {row}") for line in fibers),
            f"fiber rows {fibers} differ from {row} at t=0,1",
        )
    elif name == "region_toric":
        poly, toric = reports
        want = prepared.notes["points"]
        need(f"# points {want}\n" in poly, f"polytope point count is not {want}")
        need(sum(1 for line in poly.splitlines() if not line.startswith("#")) == want, "point rows")
        need(toric.rstrip("\n").endswith("verdict: toric"), "toric verdict is not toric")
    return problems


def check_trace(name: str, prepared: Prepared, essential_sizes: list[int]) -> list[str]:
    """Invariants only the traced run can see: the osp tower's essential
    sets, level by level, are 5/14/30/55/91/140 (the report prints only the
    top level)."""
    if name != "osp_tower":
        return []
    want = [5, 14, 30, 55, 91, 140][: prepared.notes["level"]]
    if essential_sizes != want:
        return [f"essential set sizes by level {essential_sizes}, expected {want}"]
    return []

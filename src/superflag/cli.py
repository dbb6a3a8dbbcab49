"""Command-line interface.

Subcommands:

* ``essential``       essential monomials of a highest-weight realization
* ``degenerate``      graded kernel, exact lifts, weight vector, t-family,
                      and fiberwise Hilbert comparison
* ``toric``           certify an exponent set as the generator set of a
                      torus-invariant supervariety
* ``polytope``        integer points of a labeled inequality system
* ``verify-example``  run the bundled rank-two orthosymplectic example
                      end to end, one pass/fail line per stage

All reports are byte-deterministic: no timestamps, sorted keys, exact
rational arithmetic rendered as strings.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .degeneration import (
    BOTTOM,
    DegenerationFamily,
    GradedRelation,
    LevelTower,
    LiftError,
    SRing,
    evaluate_in_tower,
    family_ideal,
    find_weight_vector,
    gr_ideal,
    hilbert_check,
    lift_relations,
)
from .essential import (
    check_semigroup_property,
    is_favourable,
    search_order_catalog,
    serialize_essential_set,
)
from .linalg import Rat
from .liesuper import AlgebraContext, build_context
from .modules import HighestWeightRealization, build_realization
from .polytopes import (
    compare_point_sets,
    dilate,
    enumerate_lattice_points,
    parse_system,
)
from .superpoly import MonomialOrder
from .toric import certify, parse_exponent_set

__all__ = ["main"]


# ---------------------------------------------------------------------------
# Configuration files
# ---------------------------------------------------------------------------


@dataclass
class Job:
    """A fully described computation: algebra, realization, order, caps."""

    family: str
    m: int
    n: int
    functional: tuple[Rat, ...]
    permutation: tuple[int, ...] | None
    blocks: list[tuple[str, int]]
    order: MonomialOrder
    degree_cap: int | None

    def context(self) -> AlgebraContext:
        return build_context(
            self.family, self.m, self.n, self.functional, self.permutation
        )

    def realization(self, context: AlgebraContext) -> HighestWeightRealization:
        return build_realization(context, self.blocks)


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.replace(",", " ").split())


def load_job(path: str) -> Job:
    def read(cfg: configparser.ConfigParser) -> None:
        if not cfg.read(path):
            raise FileNotFoundError(f"config file not found: {path}")

    return _load(read)


def load_job_from_text(text: str) -> Job:
    return _load(lambda cfg: cfg.read_string(text))


def _load(read) -> Job:
    """Read a config and build its job; config syntax errors (and bad
    interpolations, raised on access) become ValueError."""
    cfg = configparser.ConfigParser()
    try:
        read(cfg)
        return _job_from_config(cfg)
    except configparser.Error as exc:
        raise ValueError(f"malformed config: {exc}") from exc


_REQUIRED_KEYS = (
    ("algebra", "family"),
    ("algebra", "m"),
    ("algebra", "n"),
    ("algebra", "functional"),
    ("realization", "blocks"),
)


def _job_from_config(cfg: configparser.ConfigParser) -> Job:
    for section, key in _REQUIRED_KEYS:
        if not cfg.has_option(section, key):
            raise ValueError(f"config is missing '{key}' in [{section}]")
    alg = cfg["algebra"]
    family = alg["family"].strip()
    m = alg.getint("m")
    n = alg.getint("n")
    functional = tuple(
        Rat(Fraction(tok)) for tok in alg["functional"].replace(",", " ").split()
    )
    permutation = (
        _ints(alg["basis_perm"]) if alg.get("basis_perm") else None
    )

    blocks: list[tuple[str, int]] = []
    block_list = cfg["realization"]["blocks"]
    for entry in block_list.split(","):
        entry = entry.strip()
        if not entry:
            continue
        if ":" in entry:
            name, idx = entry.rsplit(":", 1)
            blocks.append((name.strip(), int(idx)))
        else:
            blocks.append((entry, 0))
    if not blocks:
        raise ValueError("realization.blocks must name at least one block")

    kind = "graded-lex"
    weights = priority = None
    if cfg.has_section("order"):
        section = cfg["order"]
        kind = section.get("kind", "graded-lex").strip()
        if section.get("weights"):
            weights = _ints(section["weights"])
        if section.get("priority"):
            priority = _ints(section["priority"])
    order = MonomialOrder(kind, weights=weights, priority=priority)

    degree_cap = None
    if cfg.has_section("bounds") and cfg["bounds"].get("degree_cap"):
        degree_cap = cfg["bounds"].getint("degree_cap")

    return Job(
        family=family,
        m=m,
        n=n,
        functional=functional,
        permutation=permutation,
        blocks=blocks,
        order=order,
        degree_cap=degree_cap,
    )


# ---------------------------------------------------------------------------
# Rendering helpers
# ---------------------------------------------------------------------------


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def component_text(comp) -> str:
    if comp is BOTTOM:
        return "bottom"
    exp, level = comp
    return f"{exp} level={level}"


def relation_text(rel: GradedRelation) -> str:
    head = (
        f"degree {rel.degree} @ {component_text(rel.component)}: "
        f"{rel.lead.to_text()}"
    )
    if not rel.corrections:
        return head
    tail = "; ".join(
        f"{poly.to_text()} @ {component_text(comp)}"
        for comp, poly in rel.corrections
    )
    return f"{head}  corrections: {tail}"


def relation_dict(rel: GradedRelation) -> dict:
    return {
        "degree": rel.degree,
        "component": component_text(rel.component),
        "lead": rel.lead.to_text(),
        "corrections": [
            {"component": component_text(comp), "polynomial": poly.to_text()}
            for comp, poly in rel.corrections
        ],
    }


def family_lines(family: DegenerationFamily) -> list[str]:
    lines = []
    for gen in family.generators:
        pieces = " + ".join(
            f"t^{p}*({poly.to_text()})" for p, poly in sorted(gen.pieces.items())
        )
        lines.append(
            f"degree {gen.degree} @ {component_text(gen.component)}: {pieces}"
        )
    for rel in family.exchange:
        lines.append(f"exchange {relation_text(rel)}")
    return lines


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _require_positive(*flags: tuple[str, int | None]) -> None:
    """Reject an integer option below 1 (None means the option is unset)."""
    for flag, value in flags:
        if value is not None and value < 1:
            raise ValueError(f"{flag} must be >= 1, got {value}")


def cmd_essential(args) -> int:
    _require_positive(("--level", args.level), ("--favourable-k", args.favourable_k))
    job = load_job(args.config)
    if args.order:
        job.order = MonomialOrder(args.order)
    if args.basis_perm:
        job.permutation = _ints(args.basis_perm)
    if args.degree_bound is not None:
        job.degree_cap = args.degree_bound
    context = job.context()
    real = job.realization(context)

    tower = LevelTower(context.basis, real, job.order, job.degree_cap)
    es = tower.essential(args.level)
    extra: list[str] = []
    if args.favourable_k is not None:
        max_level = max(args.level, args.favourable_k)
        levels = [tower.essential(k) for k in range(1, max_level + 1)]
        fav = is_favourable(levels)
        extra.append(
            f"# favourable up to level {max_level}: "
            f"{'yes' if fav.favourable else 'no'}"
        )
        for k in range(2, max_level + 1):
            rep = check_semigroup_property(
                tower.essential(1), tower.essential(k - 1), tower.essential(k)
            )
            extra.append(
                f"# semigroup additivity at level {k}: "
                f"{'ok' if rep.passed else 'FAIL'}"
            )

    if args.json:
        payload = {
            "level": es.level,
            "ambient": {"n": es.n, "q": es.q},
            "labels": es.labels,
            "order": es.order.kind,
            "size": es.size,
            "monomials": [str(e) for e in es.monomials],
        }
        _emit(_json_text(payload), args.out)
    else:
        text = serialize_essential_set(es)
        if extra:
            text += "\n".join(extra) + "\n"
        _emit(text, args.out)
    return 0


def cmd_degenerate(args) -> int:
    bound = args.degree_bound
    _require_positive(("--degree-bound", bound), ("--max-degree", args.max_degree))
    samples = [Rat(Fraction(tok)) for tok in args.samples.split()]
    if not samples:
        raise ValueError("--samples is empty; give at least one fiber parameter")
    max_degree = args.max_degree if args.max_degree is not None else bound
    job = load_job(args.config)
    if args.basis_perm:
        job.permutation = _ints(args.basis_perm)
    context = job.context()
    real = job.realization(context)

    tower = LevelTower(context.basis, real, job.order, job.degree_cap)
    ring = SRing(tower.essential(1))
    graded = gr_ideal(ring, bound)
    head = {
        "essential_level_1": tower.essential(1).size,
        "ring": {"even_variables": ring.nS, "odd_variables": ring.qS},
        "graded_generators": len(graded),
    }
    head_lines = [
        f"level-1 essential monomials: {tower.essential(1).size}",
        f"presentation ring: {ring.nS} even, {ring.qS} odd variables",
        f"graded kernel generators (degree <= {bound}): {len(graded)}",
    ]
    try:
        lifted = lift_relations(graded, tower, ring, job.order)
    except LiftError as exc:
        # a negative outcome for this order, not an input error
        if args.json:
            _emit(_json_text({**head, "lift_failure": str(exc)}), args.out)
        else:
            _emit("\n".join(head_lines + [f"lift failed: {exc}"]) + "\n", args.out)
        return 1
    weight = find_weight_vector(lifted)
    if weight is None:
        _emit(
            "no integer weight vector separates the correction components; "
            "the family construction is infeasible for this input\n",
            args.out,
        )
        return 1
    family = family_ideal(lifted, weight, tower, ring, bound, job.order)
    hilbert = hilbert_check(family, tower, samples, max_degree)

    if args.json:
        payload = {
            **head,
            "lifted": [relation_dict(rel) for rel in lifted],
            "weight_vector": list(weight),
            "family": {
                "generators": len(family.generators),
                "exchange": len(family.exchange),
                "lines": family_lines(family),
            },
            "hilbert": {
                "passed": hilbert.passed,
                "expected": {str(h): v for h, v in hilbert.expected.items()},
                "table": {
                    f"t={a}": {
                        str(h): hilbert.table[(a, h)] for h in hilbert.degrees
                    }
                    for a in hilbert.samples
                },
            },
        }
        _emit(_json_text(payload), args.out)
    else:
        lines = list(head_lines)
        for rel in lifted:
            lines.append("  " + relation_text(rel))
        lines.append("weight vector: (" + ", ".join(str(w) for w in weight) + ")")
        lines.append(
            f"family generators: {len(family.generators)} "
            f"(+{len(family.exchange)} exchange)"
        )
        for fl in family_lines(family):
            lines.append("  " + fl)
        lines.append(f"hilbert comparison: {'PASS' if hilbert.passed else 'FAIL'}")
        for a in hilbert.samples:
            row = " ".join(
                f"h={h}:{hilbert.table[(a, h)]}" for h in hilbert.degrees
            )
            lines.append(f"  fiber t={a}: {row}")
        row = " ".join(f"h={h}:{hilbert.expected[h]}" for h in hilbert.degrees)
        lines.append(f"  expected:  {row}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if hilbert.passed else 1


def cmd_toric(args) -> int:
    with open(args.exponents, encoding="utf-8") as fh:
        ks = parse_exponent_set(fh.read())
    cert = certify(ks, bound=args.bound)
    if args.json:
        _emit(_json_text(cert.to_dict()), args.out)
    else:
        _emit("\n".join(cert.summary_lines()) + "\n", args.out)
    return 0 if cert.verdict == "toric" else 1


def cmd_polytope(args) -> int:
    with open(args.system, encoding="utf-8") as fh:
        system = parse_system(fh.read())
    if args.dilate != 1:
        system = dilate(system, args.dilate)
    points = enumerate_lattice_points(system)
    ordered = sorted(points.points)
    if args.json:
        payload = {
            "labels": points.labels,
            "odd": points.odd,
            "count": points.size,
            "points": [list(p) for p in ordered],
        }
        _emit(_json_text(payload), args.out)
    else:
        lines = []
        if points.labels:
            lines.append("# vars " + " ".join(points.labels))
        odd_names = [l for l, o in zip(points.labels, points.odd) if o]
        if odd_names:
            lines.append("# odd " + " ".join(odd_names))
        lines.append(f"# points {points.size}")
        for p in ordered:
            lines.append(" ".join(str(x) for x in p))
        _emit("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# The bundled end-to-end example
# ---------------------------------------------------------------------------


def _data_text(name: str) -> str:
    return (resources.files("superflag") / "data" / name).read_text(
        encoding="utf-8"
    )


def cmd_verify_example(args) -> int:
    lines: list[str] = []
    failed: list[str] = []

    def stage(name: str, ok: bool, detail: str) -> None:
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        if not ok:
            failed.append(name)

    system = parse_system(_data_text("osp14_w1_polytope.txt"))
    points = enumerate_lattice_points(system)
    stage(
        "polytope-count",
        points.size == 10,
        f"{points.size} lattice points (expected 10)",
    )

    job = load_job_from_text(_data_text("osp14_w1.cfg"))
    context = job.context()
    real = job.realization(context)
    tower = LevelTower(context.basis, real, job.order, job.degree_cap)
    es1 = tower.essential(1)
    stage(
        "essential-computation",
        es1.size > 0,
        f"{es1.size} essential monomials at level 1",
    )

    es_labeled = {
        context.basis.exponent_as_labeled(e) for e in es1.monomials
    }
    comparison = compare_point_sets(points.labeled(), es_labeled)
    matched, poly_only, ess_only = comparison.counts()
    stage(
        "polytope-match",
        comparison.equal,
        f"{matched} shared, {poly_only} only-in-polytope, "
        f"{ess_only} only-in-module",
    )

    matches = search_order_catalog(context, real, points.labeled())
    stage(
        "order-search",
        bool(matches),
        f"{len(matches)} basis-order/monomial-order combinations realize "
        "the polytope points",
    )

    semi = check_semigroup_property(es1, es1, tower.essential(2))
    stage(
        "semigroup",
        semi.passed,
        f"level 1 + level 1 -> level 2 on {tower.essential(2).size} exponents",
    )

    fav = is_favourable([tower.essential(k) for k in (1, 2, 3)])
    stage(
        "favourable",
        fav.favourable,
        f"chains found for all exponents up to level {fav.max_level}"
        if fav.favourable
        else f"{len(fav.failures)} exponents admit no chain",
    )

    ring = SRing(es1)
    graded = gr_ideal(ring, 2)
    lifted = lift_relations(graded, tower, ring, job.order)
    exact = all(
        not evaluate_in_tower(tower, ring, rel.total()) for rel in lifted
    )
    stage(
        "graded-kernel",
        exact,
        f"{len(graded)} kernel generators at degree <= 2, "
        f"{'all lifted exactly' if exact else 'lift residuals remain'}",
    )

    weight = find_weight_vector(lifted)
    family_ok = weight is not None
    detail = "no feasible weight vector"
    hilbert = None
    if weight is not None:
        family = family_ideal(lifted, weight, tower, ring, 2, job.order)
        hilbert = hilbert_check(family, tower, [0, 1, 2, 5], 2)
        family_ok = hilbert.passed
        dims = " ".join(
            f"h={h}:{hilbert.expected[h]}" for h in hilbert.degrees
        )
        detail = (
            f"graded dimensions {dims} agree on fibers t=0,1,2,5"
            if hilbert.passed
            else "fiber dimensions disagree with the essential counts"
        )
    stage("family-fibers", family_ok, detail)

    ks = parse_exponent_set(_data_text("osp14_w1_points.txt"))
    cert = certify(ks)
    stage(
        "toric-certificate",
        cert.verdict == "toric" and cert.faithful,
        f"verdict {cert.verdict}, faithful {'yes' if cert.faithful else 'no'} "
        "on the 10-point generator set",
    )

    if failed:
        lines.append("FAILED stages: " + ", ".join(failed))
    else:
        lines.append("all stages passed")
    _emit("\n".join(lines) + "\n", args.out)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superflag",
        description=(
            "essential monomial bases, flat monomial degenerations, and "
            "toric certificates for highest-weight supermodules"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "essential", help="compute essential monomials of a realization"
    )
    p.add_argument("--config", required=True, help="job config file")
    p.add_argument("--level", type=int, default=1, help="tensor level")
    p.add_argument("--order", help="override monomial order kind")
    p.add_argument("--basis-perm", help="override basis permutation")
    p.add_argument(
        "--degree-bound", type=int, default=None, help="span degree cap"
    )
    p.add_argument(
        "--favourable-k",
        type=int,
        default=None,
        help="also verify chain decompositions up to this level",
    )
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", help="write the report to this file")
    p.set_defaults(func=cmd_essential)

    p = sub.add_parser(
        "degenerate",
        help="graded kernel, exact lifts, t-family, Hilbert comparison",
    )
    p.add_argument("--config", required=True)
    p.add_argument("--degree-bound", type=int, default=2)
    p.add_argument("--samples", default="0 1", help="fiber parameters")
    p.add_argument(
        "--max-degree", type=int, default=None, help="Hilbert check depth"
    )
    p.add_argument("--basis-perm", help="override basis permutation")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_degenerate)

    p = sub.add_parser("toric", help="certify an exponent set")
    p.add_argument("--exponents", required=True, help="exponent-set file")
    p.add_argument(
        "--bound", type=int, default=None, help="action coefficient bound"
    )
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_toric)

    p = sub.add_parser("polytope", help="integer points of a region")
    p.add_argument("--system", required=True, help="inequality system file")
    p.add_argument("--dilate", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_polytope)

    p = sub.add_parser(
        "verify-example", help="run the bundled example end to end"
    )
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify_example)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, RuntimeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

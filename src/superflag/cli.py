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
import sys
import warnings
from importlib import resources
from typing import NamedTuple

from .degeneration import (
    BOTTOM,
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
from .liesuper import (
    AlgebraContext,
    ParameterError,
    RootDecompositionError,
    build_context,
)
from .modules import HighestWeightRealization, build_realization
from .polytopes import (
    compare_point_sets,
    dilate,
    enumerate_lattice_points,
    parse_system,
)
from .superpoly import MonomialOrder, OrderMisfit
from .toric import certify, parse_exponent_set

__all__ = ["main"]


# ---------------------------------------------------------------------------
# Configuration files
# ---------------------------------------------------------------------------


class Job(NamedTuple):
    """A fully described computation: algebra, realization and order."""

    family: str
    m: int
    n: int
    functional: tuple[Rat, ...]
    permutation: tuple[int, ...] | None
    blocks: list[tuple[str, int]]
    order: MonomialOrder

    def context(self) -> AlgebraContext:
        """The algebra context; a setting that does not fit the algebra is
        an error that names it, and each warning is one ``warning:`` line."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                return build_context(
                    self.family, self.m, self.n, self.functional, self.permutation
                )
            except ParameterError as exc:
                key = {"permutation": "basis_perm"}.get(exc.parameter, exc.parameter)
                raise ValueError(f"[algebra] {key}: {exc}") from None
            except RootDecompositionError as exc:
                # the three settings together give an algebra without root data
                raise ValueError(f"[algebra] family, m, n: {exc}") from None
            finally:  # warnings go ahead of the error line
                for warning in caught:
                    sys.stderr.write(
                        f"warning: [algebra] family, m, n: {warning.message}\n"
                    )

    def realization(self, context: AlgebraContext) -> HighestWeightRealization:
        """The highest-weight realization; a block that does not give one
        is an error that names the setting."""
        try:
            return build_realization(context, self.blocks)
        except ValueError as exc:
            raise ValueError(f"[realization] blocks: {exc}") from None


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.replace(",", " ").split())


def _rats(text: str) -> tuple[Rat, ...]:
    return tuple(Rat(tok) for tok in text.replace(",", " ").split())


def _blocks(text: str) -> list[tuple[str, int]]:
    """``name:index`` entries separated by commas; a bare name means index 0.
    At least one entry is required."""
    blocks = []
    for entry in filter(None, map(str.strip, text.split(","))):
        if ":" in entry:
            name, idx = entry.rsplit(":", 1)
            blocks.append((name.strip(), int(idx)))
        else:
            blocks.append((entry, 0))
    if not blocks:
        raise ValueError("must name at least one block")
    return blocks


def load_job(path: str) -> Job:
    def read(cfg: configparser.ConfigParser) -> None:
        try:
            fh = open(path, encoding="utf-8")
        except FileNotFoundError:
            raise FileNotFoundError(f"config file not found: {path}") from None
        with fh:
            cfg.read_file(fh)

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


# every setting a config may give, by section; any other is an input error
SETTINGS = {
    "algebra": ("family", "m", "n", "functional", "basis_perm"),
    "realization": ("blocks",),
    "order": ("kind", "weights", "priority"),
}
_KNOWN = {(section, key) for section, keys in SETTINGS.items() for key in keys}

_REQUIRED_KEYS = (
    ("algebra", "family"),
    ("algebra", "m"),
    ("algebra", "n"),
    ("algebra", "functional"),
    ("realization", "blocks"),
)


def _job_from_config(cfg: configparser.ConfigParser) -> Job:
    unknown = {(s, key) for s, entries in cfg.items() for key in entries} - _KNOWN
    if unknown:
        section, key = min(unknown)
        raise ValueError(f"[{section}] {key}: unknown setting")
    for section in cfg.sections():
        if section not in SETTINGS:
            raise ValueError(f"[{section}]: unknown section")
    for section, key in _REQUIRED_KEYS:
        if not cfg.has_option(section, key):
            raise ValueError(f"config is missing '{key}' in [{section}]")

    def setting(section: str, key: str, parse):
        """``parse`` of the setting's text; an error names the setting."""
        try:
            return parse(cfg[section][key])
        except ValueError as exc:
            raise ValueError(f"[{section}] {key}: {exc}") from None

    alg = cfg["algebra"]
    family = alg["family"].strip()
    m = setting("algebra", "m", int)
    n = setting("algebra", "n", int)
    functional = setting("algebra", "functional", _rats)
    permutation = (
        setting("algebra", "basis_perm", _ints) if alg.get("basis_perm") else None
    )

    blocks = setting("realization", "blocks", _blocks)

    kind = "graded-lex"
    weights = priority = None
    if cfg.has_section("order"):
        section = cfg["order"]
        kind = section.get("kind", "graded-lex").strip()
        if section.get("weights"):
            weights = setting("order", "weights", _ints)
        if section.get("priority"):
            priority = setting("order", "priority", _ints)
    try:
        order = MonomialOrder(kind, weights=weights, priority=priority)
    except ValueError as exc:
        raise ValueError(f"[order] kind: {exc}") from None

    return Job(family, m, n, functional, permutation, blocks, order)


# ---------------------------------------------------------------------------
# Rendering helpers
# ---------------------------------------------------------------------------


def _emit(args, text: str, payload: dict | None = None) -> None:
    """Write the report to ``--out`` or stdout: ``payload`` as JSON under
    ``--json``, else ``text``."""
    if payload is not None and args.json:
        import json  # only a --json report pays for the import

        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)


def component_text(comp) -> str:
    if comp is BOTTOM:
        return "bottom"
    exp, level = comp
    return f"{exp} level={level}"


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


def relation_text(rel: dict) -> str:
    """One line for a ``relation_dict``."""
    head = f"degree {rel['degree']} @ {rel['component']}: {rel['lead']}"
    if not rel["corrections"]:
        return head
    tail = "; ".join(
        f"{corr['polynomial']} @ {corr['component']}"
        for corr in rel["corrections"]
    )
    return f"{head}  corrections: {tail}"


def dims_row(dims: dict) -> str:
    """``h=1:8 h=2:27`` for a degree -> dimension map."""
    return " ".join(f"h={h}:{n}" for h, n in dims.items())


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _require_positive(*flags: tuple[str, int | None]) -> None:
    """Reject an integer option below 1 (None means it is unset)."""
    for flag, value in flags:
        if value is not None and value < 1:
            raise ValueError(f"{flag} must be >= 1, got {value}")


def _tower(job: Job) -> tuple[AlgebraContext, LevelTower]:
    """The job's level tower; an order that does not fit the basis (its
    level-1 scan checks) is an error that names the setting."""
    context = job.context()
    real = job.realization(context)
    try:
        return context, LevelTower(context.basis, real, job.order)
    except OrderMisfit as exc:
        raise ValueError(f"[order] {exc.setting}: {exc}") from None


def cmd_essential(args) -> int:
    _require_positive(("--level", args.level), ("--favourable-k", args.favourable_k))
    _, tower = _tower(load_job(args.config))
    es = tower.essential(args.level)
    text = serialize_essential_set(es)
    payload = {
        "level": es.level,
        "ambient": {"n": es.n, "q": es.q},
        "labels": es.labels,
        "order": es.order.kind,
        "size": es.size,
        "monomials": [str(e) for e in es.monomials],
    }
    if args.favourable_k is not None:
        max_level = max(args.level, args.favourable_k)
        levels = [tower.essential(k) for k in range(1, max_level + 1)]
        favourable = is_favourable(levels).favourable
        # level k -> whether level 1 + level k-1 lands in level k
        semigroup = {
            k: check_semigroup_property(
                levels[0], levels[k - 2], levels[k - 1]
            ).passed
            for k in range(2, max_level + 1)
        }
        payload["favourable"] = {"up_to_level": max_level, "passed": favourable}
        payload["semigroup"] = {str(k): ok for k, ok in semigroup.items()}
        text += (
            f"# favourable up to level {max_level}: "
            f"{'yes' if favourable else 'no'}\n"
        )
        text += "".join(
            f"# semigroup additivity at level {k}: {'ok' if ok else 'FAIL'}\n"
            for k, ok in semigroup.items()
        )
    _emit(args, text, payload)
    return 0


def _degeneration(
    tower: LevelTower, bound: int, samples: list, max_degree: int
) -> tuple[dict, SRing, list[GradedRelation] | None]:
    """Graded kernel up to ``bound``, exact lifts, weight vector, t-family
    and fiber Hilbert check, on the tower's level-1 essential set.

    Returns the ``degenerate --json`` report, the presentation ring and the
    lifted relations (None after a lift failure).  A negative outcome is a
    ``lift_failure`` or ``weight_failure`` key of the report.
    """
    ring = SRing(tower.essential(1))
    graded = gr_ideal(ring, bound)
    report = {
        "essential_level_1": tower.essential(1).size,
        "ring": {"even_variables": ring.nS, "odd_variables": ring.qS},
        "graded_generators": len(graded),
    }
    try:
        lifted = lift_relations(graded, tower, ring)
    except LiftError as exc:
        # a negative outcome for this order, not an input error
        return {**report, "lift_failure": str(exc)}, ring, None
    try:
        weight = find_weight_vector(lifted)
    except LiftError as exc:
        # a bottom relation the weight vector cannot grade: a verdict too
        return {**report, "weight_failure": str(exc)}, ring, lifted
    if weight is None:
        failure = (
            "no integer weight vector separates the correction components; "
            "the family construction is infeasible for this input"
        )
        return {**report, "weight_failure": failure}, ring, lifted
    family = family_ideal(lifted, weight, ring)
    hilbert = hilbert_check(family, tower, samples, max_degree)
    report["lifted"] = [relation_dict(rel) for rel in lifted]
    report["weight_vector"] = list(weight)
    # one line per generator; its t^0 piece is its relation's rendered lead
    lines = [
        f"degree {rel['degree']} @ {rel['component']}: " + " + ".join(
            f"t^{p}*({poly.to_text() if p else rel['lead']})"
            for p, poly in sorted(pieces.items())
        )
        for pieces, rel in zip(family.generators, report["lifted"])
    ]
    report["family"] = {
        "generators": len(family.generators),
        "exchange": 0,  # kept in the report format; the family has no exchange part
        "lines": lines,
    }
    report["hilbert"] = {
        "passed": hilbert.passed,
        "expected": {str(h): v for h, v in hilbert.expected.items()},
        "table": {
            f"t={a}": {str(h): hilbert.table[(a, h)] for h in hilbert.degrees}
            for a in hilbert.samples
        },
    }
    return report, ring, lifted


def degenerate_text(report: dict, bound: int) -> str:
    """The text form of a ``_degeneration`` report."""
    lines = [
        f"level-1 essential monomials: {report['essential_level_1']}",
        "presentation ring: {even_variables} even, {odd_variables} odd "
        "variables".format(**report["ring"]),
        f"graded kernel generators (degree <= {bound}): "
        f"{report['graded_generators']}",
    ]
    if "lift_failure" in report:
        lines.append(f"lift failed: {report['lift_failure']}")
    elif "weight_failure" in report:
        lines.append(report["weight_failure"])
    else:
        family, hilbert = report["family"], report["hilbert"]
        weight = ", ".join(str(w) for w in report["weight_vector"])
        lines += [
            *("  " + relation_text(rel) for rel in report["lifted"]),
            f"weight vector: ({weight})",
            f"family generators: {family['generators']} "
            f"(+{family['exchange']} exchange)",
            *("  " + line for line in family["lines"]),
            f"hilbert comparison: {'PASS' if hilbert['passed'] else 'FAIL'}",
            *(f"  fiber {t}: {dims_row(row)}" for t, row in hilbert["table"].items()),
            f"  expected:  {dims_row(hilbert['expected'])}",
        ]
    return "\n".join(lines) + "\n"


def cmd_degenerate(args) -> int:
    bound = args.degree_bound
    _require_positive(("--degree-bound", bound), ("--max-degree", args.max_degree))
    try:
        samples = _rats(args.samples)
    except ValueError as exc:
        raise ValueError(f"--samples: {exc}") from None
    if not samples:
        raise ValueError("--samples is empty; give at least one fiber parameter")
    max_degree = args.max_degree if args.max_degree is not None else bound
    _, tower = _tower(load_job(args.config))
    report, _, _ = _degeneration(tower, bound, samples, max_degree)
    _emit(args, degenerate_text(report, bound), report)
    return 0 if "hilbert" in report and report["hilbert"]["passed"] else 1


def cmd_toric(args) -> int:
    with open(args.exponents, encoding="utf-8") as fh:
        ks = parse_exponent_set(fh.read())
    cert = certify(ks)
    _emit(args, "\n".join(cert.summary_lines()) + "\n", cert.to_dict())
    return 0 if cert.verdict == "toric" else 1


def cmd_polytope(args) -> int:
    with open(args.system, encoding="utf-8") as fh:
        system = parse_system(fh.read())
    if args.dilate != 1:
        system = dilate(system, args.dilate)
    points = enumerate_lattice_points(system)
    ordered = sorted(points.points)
    lines = []
    if points.labels:
        lines.append("# vars " + " ".join(points.labels))
    odd_names = [l for l, o in zip(points.labels, points.odd) if o]
    if odd_names:
        lines.append("# odd " + " ".join(odd_names))
    lines.append(f"# points {points.size}")
    for p in ordered:
        lines.append(" ".join(str(x) for x in p))
    payload = {
        "labels": points.labels,
        "odd": points.odd,
        "count": points.size,
        "points": [list(p) for p in ordered],
    }
    _emit(args, "\n".join(lines) + "\n", payload)
    return 0


# ---------------------------------------------------------------------------
# The bundled end-to-end example
# ---------------------------------------------------------------------------


def _data_text(name: str) -> str:
    data = resources.files("superflag").joinpath("data").joinpath(name)
    return data.read_text(encoding="utf-8")


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
    context, tower = _tower(job)
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

    matches = search_order_catalog(
        context, tower.module(1).realization, points.labeled()
    )
    stage(
        "order-search",
        bool(matches),
        f"{len(matches)} basis-order/monomial-order combinations realize "
        f"the polytope points (module dimension {es1.size}, "
        f"{points.size} region points)",
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

    report, ring, lifted = _degeneration(tower, 2, [0, 1, 2, 5], 2)
    # an independent check that every lift is exact; degenerate skips it
    exact = lifted is not None and all(
        not evaluate_in_tower(tower, ring, rel.total()) for rel in lifted
    )
    stage(
        "graded-kernel",
        exact,
        f"{report['graded_generators']} kernel generators at degree <= 2, "
        f"{'all lifted exactly' if exact else 'lift residuals remain'}",
    )

    hilbert = report.get("hilbert", {"passed": False})
    if hilbert["passed"]:
        dims = dims_row(hilbert["expected"])
        detail = f"graded dimensions {dims} agree on fibers t=0,1,2,5"
    else:
        detail = (
            report.get("weight_failure") or report.get("lift_failure")
            or "fiber dimensions disagree with the essential counts"
        )
    stage("family-fibers", hilbert["passed"], detail)

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
    _emit(args, "\n".join(lines) + "\n")
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

    # flags shared by several subcommands
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="write the report to this file")
    report = argparse.ArgumentParser(add_help=False, parents=[out])
    report.add_argument("--json", action="store_true")
    job = argparse.ArgumentParser(add_help=False)
    job.add_argument("--config", required=True, help="job config file")

    p = sub.add_parser(
        "essential",
        parents=[job, report],
        help="compute essential monomials of a realization",
    )
    p.add_argument("--level", type=int, default=1, help="tensor level")
    p.add_argument(
        "--favourable-k",
        type=int,
        help="also verify chain decompositions up to this level",
    )
    p.set_defaults(func=cmd_essential)

    p = sub.add_parser(
        "degenerate",
        parents=[job, report],
        help="graded kernel, exact lifts, t-family, Hilbert comparison",
    )
    p.add_argument("--degree-bound", type=int, default=2)
    p.add_argument("--samples", default="0 1", help="fiber parameters")
    p.add_argument("--max-degree", type=int, help="Hilbert check depth")
    p.set_defaults(func=cmd_degenerate)

    p = sub.add_parser("toric", parents=[report], help="certify an exponent set")
    p.add_argument("--exponents", required=True, help="exponent-set file")
    p.set_defaults(func=cmd_toric)

    p = sub.add_parser("polytope", parents=[report], help="integer points of a region")
    p.add_argument("--system", required=True, help="inequality system file")
    p.add_argument("--dilate", type=int, default=1)
    p.set_defaults(func=cmd_polytope)

    p = sub.add_parser(
        "verify-example", parents=[out], help="run the bundled example end to end"
    )
    p.set_defaults(func=cmd_verify_example)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # an input error, and only that
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:  # a bug, never a verdict: exit 1 means negative
        import traceback  # only a crash pays for the import

        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())

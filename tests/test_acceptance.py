"""Acceptance criteria for the package, one end-to-end check per test.

Every test here builds what it needs from scratch inside a timed block,
verifies one headline guarantee, and records a single PASS/FAIL line that is
echoed in the terminal summary.  Time limits are asserted, not aspirational.
"""

import itertools
import random
import time
from importlib import resources

from superflag.cli import load_job_from_text
from superflag.degeneration import (
    LevelTower,
    SRing,
    evaluate_in_tower,
    family_ideal,
    find_weight_vector,
    gr_ideal,
    hilbert_check,
    lift_relations,
    sort_key_component,
    structure_constants,
)
from superflag.essential import (
    check_semigroup_property,
    essential_monomials,
    search_order_catalog,
)
from superflag.linalg import Rat
from superflag.liesuper import build_context
from superflag.modules import (
    act_via_expansion,
    build_realization,
    pbw_act,
    tensor,
)
from superflag.polytopes import enumerate_lattice_points, parse_system
from superflag.superpoly import (
    MonomialOrder,
    MultiExponent,
    SuperPolynomial,
    enumerate_monomials,
    koszul_count,
    multiply,
)
from superflag.toric import certify, parse_exponent_set


def _data(name: str) -> str:
    return (resources.files("superflag") / "data" / name).read_text(
        encoding="utf-8"
    )


def _bundled_job():
    job = load_job_from_text(_data("osp14_w1.cfg"))
    context = job.context()
    real = job.realization(context)
    return job, context, real


def test_criterion_01_bundled_region_has_ten_lattice_points(acceptance):
    t0 = time.monotonic()
    system = parse_system(_data("osp14_w1_polytope.txt"))
    points = enumerate_lattice_points(system)
    elapsed = time.monotonic() - t0
    acceptance(
        "region-point-count",
        points.size == 10,
        f"the bundled inequality system holds {points.size} lattice points "
        "(want 10)",
        elapsed,
        5.0,
    )


def test_criterion_02_essential_set_fills_the_bundled_region(acceptance):
    """The level-1 essential monomials should coincide with the 10 region
    points under some cataloged basis-order/monomial-order combination.

    This is a known-open gap: the computed essential set has 5 of the 10
    points and no cataloged combination realizes the rest.  The criterion is
    asserted as stated and currently fails.
    """
    t0 = time.monotonic()
    system = parse_system(_data("osp14_w1_polytope.txt"))
    region = enumerate_lattice_points(system).labeled()
    job, context, real = _bundled_job()
    es, _ = essential_monomials(real, context.basis, job.order)
    labeled = {context.basis.exponent_as_labeled(e) for e in es.monomials}
    matches = search_order_catalog(context, real, region)
    elapsed = time.monotonic() - t0
    acceptance(
        "essential-set-fills-region",
        es.size == len(region) and bool(matches),
        f"default order yields {len(labeled & region)} of {len(region)} "
        f"region points; {len(matches)} cataloged order/permutation "
        "combinations realize the full region",
        elapsed,
        60.0,
    )


def test_criterion_03_essential_levels_add_as_a_semigroup(acceptance):
    t0 = time.monotonic()
    _, context, real = _bundled_job()
    tower = LevelTower(context.basis, real)
    one_one = check_semigroup_property(
        tower.essential(1), tower.essential(1), tower.essential(2)
    )
    one_two = check_semigroup_property(
        tower.essential(1), tower.essential(2), tower.essential(3)
    )
    elapsed = time.monotonic() - t0
    acceptance(
        "essential-semigroup",
        one_one.passed and one_two.passed,
        f"all {one_one.checked} level-(1+1) and {one_two.checked} "
        "level-(1+2) exponent sums are essential at the summed level",
        elapsed,
        120.0,
    )


def test_criterion_04_sign_bookkeeping_is_consistent(acceptance):
    t0 = time.monotonic()
    ok = True

    # crossing counts of disjoint odd supports sum to the degree product
    pairs = 0
    for q in range(1, 6):
        for a in itertools.product((0, 1), repeat=q):
            for b in itertools.product((0, 1), repeat=q):
                if any(x and y for x, y in zip(a, b)):
                    continue
                total = koszul_count(a, b) + koszul_count(b, a)
                ok = ok and total == sum(a) * sum(b)
                pairs += 1

    # random products: associativity and supercommutativity
    rng = random.Random(20260814)

    def random_poly(n, q):
        out = SuperPolynomial.zero(n, q)
        for _ in range(rng.randint(1, 3)):
            bits = tuple(rng.randint(0, 1) for _ in range(q))
            evens = tuple(rng.randint(0, 2) for _ in range(n))
            out = out + SuperPolynomial.monomial(
                n, q, MultiExponent(bits, evens), rng.randint(-3, 3)
            )
        return out

    trials = 1000
    for _ in range(trials):
        a, b, c = (random_poly(2, 2) for _ in range(3))
        ok = ok and multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
        for ea, ca in a.terms.items():
            for eb, cb in b.terms.items():
                fa = SuperPolynomial.monomial(2, 2, ea, ca)
                fb = SuperPolynomial.monomial(2, 2, eb, cb)
                sign = -1 if (ea.parity and eb.parity) else 1
                ok = ok and multiply(fa, fb) == multiply(fb, fa).scaled(
                    Rat(sign)
                )
    elapsed = time.monotonic() - t0
    acceptance(
        "sign-bookkeeping",
        ok,
        f"{pairs} disjoint crossing-count identities and {trials} random "
        "product checks hold exactly",
        elapsed,
        10.0,
    )


def test_criterion_05_leading_coefficients_are_koszul_signs(acceptance):
    t0 = time.monotonic()
    towers = []

    _, context, real = _bundled_job()
    towers.append(("orthosymplectic", LevelTower(context.basis, real)))

    sl12 = build_context("sl", 1, 2, (3, -1))
    sl12_real = build_realization(sl12, [("natural", 0)])
    towers.append(("special-linear", LevelTower(sl12.basis, sl12_real)))

    ok = True
    checked = 0
    for _, tower in towers:
        for k1, k2 in ((1, 1), (1, 2)):
            table = structure_constants(tower, k1, k2)
            for e1 in tower.essential(k1).monomials:
                for e2 in tower.essential(k2).monomials:
                    combined = e1.combine(e2)
                    if combined is None:
                        continue
                    product = table.product(e1, e2)
                    sign = -1 if koszul_count(e2.odd, e1.odd) % 2 else 1
                    ok = ok and product[combined] == Rat(sign)
                    lead_key = sort_key_component((combined, 2))
                    ok = ok and all(
                        sort_key_component((u, 2)) > lead_key
                        for u in product
                        if u != combined
                    )
                    checked += 1
    elapsed = time.monotonic() - t0
    acceptance(
        "leading-coefficient-law",
        ok and checked > 0,
        f"{checked} structure products across two algebras have the "
        "predicted sign on the exponent sum and only later terms otherwise",
        elapsed,
        120.0,
    )


def test_criterion_06_graded_kernel_lifts_exactly(acceptance):
    t0 = time.monotonic()
    context = build_context("sl", 3, 0, (3, 2))
    real = build_realization(context, [("natural", 0), ("dual-natural", 2)])
    tower = LevelTower(context.basis, real)
    ring = SRing(tower.essential(1))
    graded = gr_ideal(ring, 2)
    lifted = lift_relations(graded, tower, ring)
    residuals = [
        rel
        for rel in lifted
        if evaluate_in_tower(tower, ring, rel.total())
    ]
    elapsed = time.monotonic() - t0
    acceptance(
        "graded-kernel-lifts",
        len(graded) == 9 and not residuals,
        f"{len(graded)} degree-2 kernel generators, "
        f"{len(graded) - len(residuals)} lift to exact module relations",
        elapsed,
        120.0,
    )


def test_criterion_07_family_fibers_match_module_dimensions(acceptance):
    t0 = time.monotonic()
    reports = []

    context = build_context("sl", 3, 0, (3, 2))
    real = build_realization(context, [("natural", 0), ("dual-natural", 2)])
    tower = LevelTower(context.basis, real)
    ring = SRing(tower.essential(1))
    lifted = lift_relations(gr_ideal(ring, 2), tower, ring)
    weight = find_weight_vector(lifted)
    family = family_ideal(lifted, weight, ring)
    reports.append(hilbert_check(family, tower, [0, 1, 2, 5], 2))

    _, octx, oreal = _bundled_job()
    otower = LevelTower(octx.basis, oreal)
    oring = SRing(otower.essential(1))
    olifted = lift_relations(gr_ideal(oring, 2), otower, oring)
    oweight = find_weight_vector(olifted)
    ofamily = family_ideal(olifted, oweight, oring)
    reports.append(hilbert_check(ofamily, otower, [0, 1, 2, 5], 2))

    ok = all(r.passed for r in reports)
    sizes = "; ".join(
        " ".join(f"h={h}:{r.expected[h]}" for h in r.degrees) for r in reports
    )
    elapsed = time.monotonic() - t0
    acceptance(
        "family-fiber-dimensions",
        ok,
        "graded fiber dimensions at t=0,1,2,5 match the essential counts "
        f"({sizes}) for both worked algebras",
        elapsed,
        300.0,
    )


def test_criterion_08_toric_certificates_decide_both_ways(acceptance):
    t0 = time.monotonic()
    good = certify(parse_exponent_set(_data("osp14_w1_points.txt")))
    bad = certify(parse_exponent_set(_data("odd_removal_fail.txt")))
    ok = (
        good.verdict == "toric"
        and good.faithful
        and good.closure is not None
        and good.closure.passed
        and bad.verdict == "hypotheses-not-met"
        and not bad.faithful
    )
    elapsed = time.monotonic() - t0
    acceptance(
        "toric-certification",
        ok,
        f"10-point generator set: verdict {good.verdict}, faithful "
        f"{'yes' if good.faithful else 'no'}; counterexample set: verdict "
        f"{bad.verdict}",
        elapsed,
        30.0,
    )


def test_criterion_09_rank_one_square_degenerates_to_a_conic(acceptance):
    t0 = time.monotonic()
    context = build_context("sl", 2, 0, (1,))
    real = build_realization(context, [("natural", 0), ("natural", 0)])
    tower = LevelTower(context.basis, real)
    ring = SRing(tower.essential(1))
    lifted = lift_relations(gr_ideal(ring, 2), tower, ring)
    conic = SuperPolynomial.parse("x1*x3 - x2^2", 3, 0)
    exact = (
        len(lifted) == 1
        and lifted[0].lead == conic
        and not lifted[0].corrections
    )
    family = family_ideal(lifted, (0,), ring)
    report = hilbert_check(family, tower, [0, 1, 3], 3)
    elapsed = time.monotonic() - t0
    acceptance(
        "rank-one-conic",
        exact and report.passed and report.expected == {1: 3, 2: 5, 3: 7},
        "the unique degree-2 relation is the conic with no corrections and "
        f"fiber dimensions {report.expected}",
        elapsed,
        30.0,
    )


def test_criterion_10_tensor_action_matches_factorwise_expansion(acceptance):
    t0 = time.monotonic()
    cases = [
        build_context("gl", 1, 1, (1, 0)),
        build_context("osp", 1, 2, (2, 1)),
    ]
    blocks = [("natural", 0), ("flip-natural", 1)]
    ok = True
    checked = 0
    for context, block in zip(cases, blocks):
        real = build_realization(context, [block])
        basis = context.basis
        square = tensor(real, real)
        monomials = enumerate_monomials(
            MonomialOrder("graded-lex"), 3, basis.n, basis.q
        )
        for divided in (False, True):
            for e in monomials:
                via = act_via_expansion(real, real, basis, e, divided=divided)
                direct = pbw_act(square, basis, e, divided=divided)
                ok = ok and via == direct
                checked += 1
    elapsed = time.monotonic() - t0
    acceptance(
        "tensor-action-expansion",
        ok,
        f"{checked} monomial actions on tensor squares agree between the "
        "factorwise expansion and the direct computation",
        elapsed,
        120.0,
    )

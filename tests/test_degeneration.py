"""Structure constants, presentation ring, graded kernel, lifts, t-family."""

import itertools
import random
from types import SimpleNamespace

import pytest

import superflag.degeneration as degeneration
from superflag.degeneration import (
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
    sort_key_component,
    structure_constants,
)
from superflag.essential import EssentialSet
from superflag.linalg import RankAccumulator, Rat, nullspace
from superflag.modules import CyclicModule, ProgramFault, cartan_expand, tensor_power
from superflag.superpoly import (
    MonomialOrder,
    MultiExponent,
    SuperPolynomial,
    enumerate_monomials,
    koszul_count,
    multiply,
)


def me(odd, even):
    return MultiExponent(tuple(odd), tuple(even))


@pytest.fixture(scope="module")
def sl2_tower(sl2_context):
    from superflag.modules import build_realization

    real = build_realization(sl2_context, [("natural", 0), ("natural", 0)])
    return LevelTower(sl2_context.basis, real)


@pytest.fixture(scope="module")
def sl12_tower(sl12_context, sl12_real):
    return LevelTower(sl12_context.basis, sl12_real)


@pytest.fixture(scope="module")
def osp_square_tower(osp_context):
    """Tower of the orthosymplectic flip-natural square (the
    ``osp14_flip_flip.cfg`` job)."""
    from superflag.modules import build_realization

    real = build_realization(
        osp_context, [("flip-natural", 1), ("flip-natural", 1)]
    )
    return LevelTower(osp_context.basis, real)


@pytest.fixture(scope="module")
def osp_square_ring(osp_square_tower):
    """Presentation ring of the orthosymplectic flip-natural square: 10 even
    and 4 odd generators, so components mix signs and odd collisions."""
    return SRing(osp_square_tower.essential(1))


@pytest.fixture(scope="module")
def every_exponent_ring():
    """Presentation ring on every exponent of {0,1}^3 x {0,1}: its odd
    generators collide and reorder odd coordinates, so both the odd
    collision (BOTTOM) and the reordering sign -1 occur."""
    return SRing(EssentialSet(
        level=1, n=1, q=3, order=MonomialOrder("graded-lex"),
        monomials=[
            me(odd, (e,))
            for odd in itertools.product((0, 1), repeat=3) for e in (0, 1)
        ],
    ))


def eliminated_kernel(ring, items):
    """Kernel polynomials of one component's signed collapse row, found by
    elimination; the reference for the closed form."""
    row = {i: Rat(s) for i, (_, s) in enumerate(items)}
    return [
        SuperPolynomial(
            ring.nS, ring.qS, {items[i][0]: c for i, c in kvec.items()}
        )
        for kvec in nullspace([row], len(items))
    ]


def product_gamma_and_sign(ring, sexp):
    """(component, sign) by multiplying the generator images as
    polynomials, each new factor on the left (the tower's sign law); the
    reference for the closed form in SRing.gamma_and_sign."""
    n, q = ring.n_mod, ring.q_mod
    poly = SuperPolynomial.monomial(n, q, MultiExponent.zero(n, q))
    for f in ring.factors(sexp):
        poly = multiply(SuperPolynomial.monomial(n, q, f), poly)
        if poly.is_zero():
            break
    if poly.is_zero():
        return (BOTTOM, 0)
    [(exp, coeff)] = poly.terms.items()
    if coeff not in (1, -1):
        raise RuntimeError("reordering sign must be a unit")
    return ((exp, sexp.degree), int(coeff))


def left_to_right_value(tower, ring, sexp):
    """A ring monomial's value by multiplying its generator images left to
    right through the (k, 1) tables, with no memo: the reference for
    ``evaluate_in_tower``."""
    factors = ring.factors(sexp)
    current = {factors[0]: Rat(1)}
    for level, f in enumerate(factors[1:], start=1):
        table = tower.table(level, 1)
        nxt = {}
        for u, c in current.items():
            for u2, c2 in table.product(u, f).items():
                nxt[u2] = nxt.get(u2, 0) + c * c2
        current = {u: c for u, c in nxt.items() if c}
    return {(u, len(factors)): c for u, c in current.items()}


def _job_text(family, m, n, functional, blocks):
    """A graded-lex job config."""
    return (
        f"[algebra]\nfamily = {family}\nm = {m}\nn = {n}\n"
        f"functional = {functional}\n[realization]\nblocks = {blocks}\n"
    )


def _job_tower(job):
    """The tower of a job: config text, a file in ``tests/data``, or a
    ``package:`` file among the bundled data."""
    from importlib import resources
    from pathlib import Path

    from superflag.cli import load_job, load_job_from_text

    if job.startswith("["):
        job = load_job_from_text(job)
    elif job.startswith("package:"):
        name = job.removeprefix("package:")
        job = load_job(str(resources.files("superflag") / "data" / name))
    else:
        job = load_job(str(Path(__file__).parent / "data" / job))
    context = job.context()
    return LevelTower(context.basis, job.realization(context), job.order)


# (family, m, n, functional) of the small algebras the sign-law sweep covers
SWEEP_ALGEBRAS = [
    ("gl", 2, 1, "5 3 1"), ("gl", 1, 2, "5 3 1"), ("sl", 1, 2, "3 -1"),
    ("sl", 2, 1, "3 -1"), ("sl", 3, 0, "3 2"), ("osp", 1, 1, "1"),
    ("osp", 1, 2, "2 1"),
]


def _sweep_jobs():
    """(id, job text) of every sweep job: one block, or an unordered pair of
    blocks, from ``BLOCK_BUILDERS`` at indices that give a highest-weight
    realization of representation dimension at most 12."""
    from superflag.liesuper import build_context
    from superflag.modules import BLOCK_BUILDERS, build_realization

    jobs = []
    for family, m, n, functional in SWEEP_ALGEBRAS:
        context = build_context(family, m, n, [Rat(x) for x in functional.split()])

        def realization(blocks):
            try:
                return build_realization(context, blocks)
            except ValueError:  # not a highest-weight vector
                return None

        singles = [
            [(name, i)]
            for name, build in BLOCK_BUILDERS.items()
            for i in range(build(context.algebra).dim)
            if realization([(name, i)])
        ]
        pairs = [a + b for a, b in itertools.combinations_with_replacement(singles, 2)]
        for blocks in singles + pairs:
            real = realization(blocks)
            if real and real.rep.dim <= 12:
                text = ", ".join(f"{name}:{i}" for name, i in blocks)
                jobs.append((
                    f"sweep-{family}{m}{n}-{text.replace(', ', '+')}",
                    _job_text(family, m, n, functional, text),
                ))
    return jobs


SWEEP_JOBS = _sweep_jobs()


def max_degree(poly):
    return max((e.degree for e in poly.terms), default=0)


def lead_degree(pieces):
    """A family generator's degree: that of its t^0 piece, its relation's
    homogeneous lead."""
    return max_degree(pieces[0])


def all_multiples_table(family, samples, top):
    """The Hilbert table from every monomial multiple of every specialized
    generator, each fiber ranked from scratch: the reference for the
    degree-by-degree ``hilbert_check``."""
    ring = family.ring
    table = {}
    for a in map(Rat, samples):
        gens = family.all_specialized(a)
        for h in range(1, top + 1):
            index = {m: i for i, m in enumerate(ring.monomials_of_degree(h))}
            acc = RankAccumulator()
            for g in gens:
                dg = max_degree(g)
                if dg > h:
                    continue
                for m in ring.monomials_of_degree(h - dg):
                    shifted = multiply(
                        SuperPolynomial.monomial(ring.nS, ring.qS, m), g
                    )
                    acc.insert({index[e]: c for e, c in shifted.terms.items()})
            table[(a, h)] = len(index) - acc.rank
    return table


def pipeline_family(tower, bound):
    """Graded kernel, lifts, weight vector and t-family up to ``bound``."""
    ring = SRing(tower.essential(1))
    lifted = lift_relations(gr_ideal(ring, bound), tower, ring)
    weight = find_weight_vector(lifted)
    return family_ideal(lifted, weight, ring)


def perturbed_family(ring, bound, seed):
    """A t-family on a ring with no tower: a sample of its graded kernel
    generators, each plus t times a random polynomial of its degree."""
    rng = random.Random(seed)
    graded = gr_ideal(ring, bound)
    generators = []
    for rel in rng.sample(graded, min(12, len(graded))):
        monomials = ring.monomials_of_degree(rel.degree)
        noise = SuperPolynomial(ring.nS, ring.qS, {
            m: Rat(rng.randint(-3, 3), rng.randint(1, 4))
            for m in rng.sample(monomials, min(3, len(monomials)))
        })
        generators.append({0: rel.lead, 1: noise})
    return DegenerationFamily(ring=ring, generators=generators)


def split_and_expand_products(tower, k1, k2):
    """Products of levels (k1, k2) by splitting each level-(k1+k2) essential
    monomial across the two tensor factors (``cartan_expand``) and expanding
    both parts over their essential vectors: the reference for the read-off
    in ``structure_constants``."""
    mod1, mod2 = tower.module(k1), tower.module(k2)
    products = {}
    for u in tower.essential(k1 + k2).monomials:
        for (a, b), coeff in cartan_expand(u, divided=True):
            pa = mod1.expand(a)
            pb = mod2.expand(b) if pa else {}
            for e1, c1 in pa.items():
                for e2, c2 in pb.items():
                    sign = -1 if (e1.parity and e2.parity) else 1
                    entry = products.setdefault((e1, e2), {})
                    entry[u] = entry.get(u, 0) + sign * coeff * c1 * c2
    products = {
        key: {u: c for u, c in entry.items() if c}
        for key, entry in products.items()
    }
    return {key: entry for key, entry in products.items() if entry}


# expected sizes of a ring with no tower; only the table is compared.  No
# nonzero polynomial vanishes under its values, so no t = 1 fiber is capped.
NO_TOWER = SimpleNamespace(
    essential=lambda h: SimpleNamespace(size=0), value=lambda factors: {factors: 1}
)
SAMPLES = [0, Rat(1, 2), Rat(5, 3), 1, Rat(1, 2)]


class TensorPowerTower(LevelTower):
    """The tower built the old way, level K inside the K-th tensor power of
    the level-1 representation: the oracle for the submodule tower."""

    def _level_realization(self, k):
        return tensor_power(self.module(1).realization, k)


TOWER_CASES = {
    "sl3-adjoint": ("sl3_context", "sl3_adjoint", None),
    "osp-graded-lex": ("osp_context", "osp_real", None),
    "osp-weighted": (
        "osp_context",
        "osp_real",
        MonomialOrder("weighted", weights=(2, 1, 3, 1, 1, 2)),
    ),
    # two odd level-1 essentials with a nonzero product: the parity sign shows
    "sl12-natural": ("sl12_context", "sl12_real", None),
}


@pytest.fixture(scope="module", params=sorted(TOWER_CASES))
def tower_pair(request):
    """(submodule tower, tensor-power tower) of one job, levels 1..4."""
    ctx_name, real_name, order = TOWER_CASES[request.param]
    basis = request.getfixturevalue(ctx_name).basis
    real = request.getfixturevalue(real_name)
    return LevelTower(basis, real, order), TensorPowerTower(basis, real, order)


class TestLevelTower:
    @pytest.mark.parametrize("k", [0, -1])
    def test_levels_below_one_rejected(self, osp_tower, k):
        with pytest.raises(ProgramFault, match="tower level must be >= 1"):
            osp_tower.essential(k)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_level_is_the_product_of_the_modules_below(self, tower_pair, k):
        tower, _ = tower_pair
        assert tower.module(k).realization.rep.dim == (
            tower.module(k - 1).dimension * tower.module(1).dimension
        )

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_essentials_and_expansions_match_tensor_powers(self, tower_pair, k):
        tower, oracle = tower_pair
        new, old = tower.module(k), oracle.module(k)
        assert new.essential_exponents() == old.essential_exponents()
        assert tower.essential(k).monomials == oracle.essential(k).monomials
        scanned = enumerate_monomials(
            MonomialOrder("graded-lex"),
            old.stabilization_degree + 1,
            tower.basis.n,
            tower.basis.q,
        )
        for e in scanned:
            assert new.expand(e) == old.expand(e)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_structure_tables_match_tensor_powers(self, tower_pair, k):
        # the read-off needs level k inside M_{k-1} (x) M_1, so the oracle
        # tower's table comes from splitting and expanding
        tower, oracle = tower_pair
        assert structure_constants(tower, k - 1, 1).products == (
            split_and_expand_products(oracle, k - 1, 1)
        )

    @pytest.mark.parametrize(
        "k1, k2", [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (1, 3)]
    )
    def test_structure_tables_match_split_and_expand(self, tower_pair, k1, k2):
        tower, _ = tower_pair
        assert structure_constants(tower, k1, k2).products == (
            split_and_expand_products(tower, k1, k2)
        )

    def test_level_one_tables_read_the_scanned_vectors(
        self, sl3_context, sl3_adjoint, monkeypatch
    ):
        import superflag.modules as modules

        tower = LevelTower(sl3_context.basis, sl3_adjoint)
        tower.essential(4)

        def forbidden(*args, **kwargs):
            raise AssertionError("a (k, 1) table recomputed a tensor vector")

        monkeypatch.setattr(degeneration, "pbw_act", forbidden)
        monkeypatch.setattr(modules, "pbw_act", forbidden)
        monkeypatch.setattr(CyclicModule, "expand", forbidden)
        for k in (1, 2, 3):
            assert tower.table(k, 1).products


class TestStructureConstants:
    @pytest.mark.parametrize("tower_name", ["osp_tower", "sl12_tower"])
    def test_leading_coefficient_law(self, tower_name, request):
        from superflag.degeneration import sort_key_component

        tower = request.getfixturevalue(tower_name)
        table = structure_constants(tower, 1, 1)
        es1 = tower.essential(1).monomials
        checked = 0
        for e1 in es1:
            for e2 in es1:
                combined = e1.combine(e2)
                if combined is None:
                    continue
                expected_sign = (
                    -1 if koszul_count(e2.odd, e1.odd) % 2 else 1
                )
                product = table.product(e1, e2)
                # the coefficient on the sum is the reordering sign ...
                assert product[combined] == Rat(expected_sign), (
                    str(e1), str(e2),
                )
                # ... and every other contribution is strictly larger
                lead_key = sort_key_component((combined, 2))
                for u in product:
                    if u != combined:
                        assert sort_key_component((u, 2)) > lead_key
                checked += 1
        assert checked > 0

    def test_products_are_supercommutative(self, osp_tower):
        table = structure_constants(osp_tower, 1, 1)
        es1 = osp_tower.essential(1).monomials
        for e1 in es1:
            for e2 in es1:
                sign = -1 if (e1.parity and e2.parity) else 1
                lhs = table.product(e1, e2)
                rhs = {
                    u: sign * c for u, c in table.product(e2, e1).items()
                }
                assert lhs == rhs

    def test_odd_collisions_vanish(self, osp_tower):
        table = structure_constants(osp_tower, 1, 1)
        odd_gen = next(
            e for e in osp_tower.essential(1).monomials if e.parity
        )
        assert table.product(odd_gen, odd_gen) == {}


class TestPresentationRing:
    def test_orthosymplectic_generator_split(self, osp_tower):
        ring = SRing(osp_tower.essential(1))
        assert (ring.nS, ring.qS) == (4, 1)
        assert ring.even_gens[0] == me((0, 0), (0, 0, 0, 0))
        assert ring.odd_gens[0].parity == 1

    def test_monomial_counts(self, sl2_tower):
        ring = SRing(sl2_tower.essential(1))
        assert len(ring.monomials_of_degree(1)) == 3
        assert len(ring.monomials_of_degree(2)) == 6

    def test_gamma_adds_module_exponents_with_level(self, sl2_tower):
        ring = SRing(sl2_tower.essential(1))
        # x2 * x3 -> module exponent (1) + (2) = (3) at level 2
        sexp = me((), (0, 1, 1))
        comp, sign = ring.gamma_and_sign(sexp)
        assert comp == (me((), (3,)), 2)
        assert sign == 1

    def test_gamma_detects_bottom(self, sl12_tower):
        ring = SRing(sl12_tower.essential(1))
        if ring.qS < 2:
            pytest.skip("ring has fewer than two odd generators")
        # two odd ring generators sharing a module odd coordinate
        sexp = MultiExponent((1, 1), (0,) * ring.nS)
        comp, sign = ring.gamma_and_sign(sexp)
        if comp is BOTTOM:
            assert sign == 0
        else:
            assert sign in (1, -1)

    def test_gamma_closed_form_matches_product(
        self, osp_square_ring, every_exponent_ring
    ):
        # The flip-square ring collides odd coordinates but never reorders
        # them; the every-exponent ring does both.
        for ring, want in (
            (osp_square_ring, {0, 1}), (every_exponent_ring, {0, 1, -1})
        ):
            signs = set()
            for h in (1, 2, 3):
                for sexp in ring.monomials_of_degree(h):
                    got = ring.gamma_and_sign(sexp)
                    assert got == product_gamma_and_sign(ring, sexp)
                    signs.add(got[1])
            assert signs == want  # 0 is an odd collision (BOTTOM)

    @pytest.mark.parametrize("ring_name", ["every_exponent_ring", "sl3_tower"])
    def test_collapse_sends_monomials_to_signed_components(self, ring_name, request):
        """A monomial goes to {its component: its sign}, and to nothing at
        BOTTOM (the multiplication oracle decides both), so every graded
        kernel lead collapses to zero."""
        ring = request.getfixturevalue(ring_name)
        if isinstance(ring, LevelTower):
            ring = SRing(ring.essential(1))
        signs = set()
        for h in (1, 2, 3):
            for sexp in ring.monomials_of_degree(h):
                comp, sign = product_gamma_and_sign(ring, sexp)
                mono = SuperPolynomial.monomial(ring.nS, ring.qS, sexp)
                assert ring.collapse(mono) == ({} if comp is BOTTOM else {comp: sign})
                signs.add(sign)
        leads = [rel.lead for rel in gr_ideal(ring, 3)]
        assert leads and all(ring.collapse(lead) == {} for lead in leads)
        if ring_name == "every_exponent_ring":
            assert signs == {0, 1, -1}  # 0 is BOTTOM

    def test_factors_round_trip_through_exponent_of_chain(self, osp_tower):
        ring = SRing(osp_tower.essential(1))
        sexp = me((1,), (1, 0, 1, 0))
        factors = ring.factors(sexp)
        assert ring.exponent_of_chain(factors) == sexp

    def test_repeated_odd_generator_in_a_chain_is_a_fault(self, osp_tower):
        # chain summands have disjoint odd parts; a repeat is a bug
        ring = SRing(osp_tower.essential(1))
        with pytest.raises(ProgramFault, match="odd generator repeated"):
            ring.exponent_of_chain(ring.odd_gens * 2)

    @pytest.mark.parametrize("job", [
        "package:osp14_w1.cfg",
        "osp14_flip_flip.cfg",
        _job_text("sl", 3, 0, "3 2", "natural:0, dual-natural:2"),
        "sl3_adjoint_weighted.cfg",
        "osp14_w1_weighted.cfg",
        _job_text("gl", 2, 1, "5 3 1", "natural:0, natural:0"),
        "gl21_natural_flip_dual.cfg",
        _job_text("sl", 1, 2, "3 -1", "natural:0"),
        *(text for _, text in SWEEP_JOBS),
    ], ids=[
        "bundled-osp", "flip-square", "sl3-adjoint", "sl3-weighted",
        "osp-weighted", "gl21-natural-natural", "gl21-natural-flip-dual",
        "sl12-natural", *(name for name, _ in SWEEP_JOBS),
    ])
    def test_collapse_signs_are_the_towers_leading_coefficients(self, job):
        """The collapse sends a non-bottom ring monomial to its sign times its
        component; the tower's value of the monomial has that same
        coefficient at the component, and every other term strictly after
        it under the tower's order, at degrees 2 and 3.  That triangularity
        is what makes ``lift_relations`` one ascending pass.  The sweep jobs
        cover every small block choice: with the other sign law, 64 of
        their 1,064 such monomials, in 10 jobs, disagree."""
        tower = _job_tower(job)
        key = tower.order.key
        ring = SRing(tower.essential(1))
        disagree, earlier = [], []
        for h in (2, 3):
            for sexp in ring.monomials_of_degree(h):
                comp, sign = ring.gamma_and_sign(sexp)
                if comp is BOTTOM:
                    continue
                value = tower.value(tuple(ring.factors(sexp)))
                lead = value.get(comp[0], 0)
                if lead != sign:
                    disagree.append((sexp, sign, lead))
                earlier += [
                    (sexp, u) for u in value
                    if u != comp[0] and not key(comp[0]) < key(u)
                ]
        assert disagree == []
        assert earlier == []


class TestGradedKernel:
    def test_empty_for_multiplicity_free_towers(self, osp_tower, sl12_tower):
        for tower in (osp_tower, sl12_tower):
            ring = SRing(tower.essential(1))
            assert gr_ideal(ring, 2) == []

    def test_quadric_for_squared_classical_module(self, sl2_tower):
        ring = SRing(sl2_tower.essential(1))
        graded = gr_ideal(ring, 2)
        assert len(graded) == 1
        rel = graded[0]
        assert rel.degree == 2
        assert rel.component == (me((), (2,)), 2)
        assert rel.lead == SuperPolynomial.parse("x1*x3 - x2^2", 3, 0)
        assert rel.corrections == []

    def test_rank_three_kernel_size(self, sl3_tower):
        ring = SRing(sl3_tower.essential(1))
        graded = gr_ideal(ring, 2)
        assert len(graded) == 9

    def test_graded_leads_vanish_on_their_component(self, sl3_tower):
        ring = SRing(sl3_tower.essential(1))
        for rel in gr_ideal(ring, 2):
            residual = evaluate_in_tower(sl3_tower, ring, rel.lead)
            assert rel.component not in residual

    def test_closed_form_binomials_match_elimination(self, osp_square_ring):
        ring = osp_square_ring
        monomials = ring.monomials_of_degree(2)
        rng = random.Random(31)
        for _ in range(60):
            picked = rng.sample(monomials, rng.randint(1, 7))
            items = [(e, rng.choice((1, -1))) for e in picked]
            assert ring.kernel_binomials(items) == eliminated_kernel(ring, items)

    @pytest.mark.parametrize(
        "ring_name", ["osp_square_ring", "sl3_tower", "every_exponent_ring"]
    )
    def test_graded_kernel_matches_elimination(self, ring_name, request):
        ring = request.getfixturevalue(ring_name)
        if isinstance(ring, LevelTower):
            ring = SRing(ring.essential(1))
        want = []
        signs = set()
        for h in (2, 3):
            groups = {}
            for sexp in ring.monomials_of_degree(h):
                comp, sign = ring.gamma_and_sign(sexp)
                groups.setdefault(comp, []).append((sexp, sign))
                signs.add(sign)
            for comp in sorted(groups, key=sort_key_component):
                if comp is BOTTOM:
                    leads = [
                        SuperPolynomial.monomial(ring.nS, ring.qS, e)
                        for e, _ in groups[comp]
                    ]
                else:
                    leads = eliminated_kernel(ring, groups[comp])
                want.extend((h, comp, lead) for lead in leads)
        got = [(r.degree, r.component, r.lead) for r in gr_ideal(ring, 3)]
        assert got == want
        assert any(comp is BOTTOM for _, comp, _ in got) == (ring.qS > 0)
        if ring_name == "every_exponent_ring":
            assert -1 in signs  # the negative-sign branch is exercised


class TestLifting:
    def test_lifted_relations_evaluate_to_zero(self, sl3_tower):
        ring = SRing(sl3_tower.essential(1))
        lifted = lift_relations(gr_ideal(ring, 2), sl3_tower, ring)
        assert len(lifted) == 9
        for rel in lifted:
            assert evaluate_in_tower(sl3_tower, ring, rel.total()) == {}

    def test_frozen_correction_pattern(self, sl3_tower):
        ring = SRing(sl3_tower.essential(1))
        lifted = lift_relations(gr_ideal(ring, 2), sl3_tower, ring)
        with_corrections = [rel for rel in lifted if rel.corrections]
        assert len(with_corrections) == 5
        by_lead = {rel.lead.to_text(): rel for rel in lifted}
        rel = by_lead["x1*x5 - x2^2"]
        assert len(rel.corrections) == 1
        (comp, level), poly = rel.corrections[0]
        assert (comp, level) == (me((), (1, 1, 1)), 2)
        assert poly == SuperPolynomial.parse("x2*x8", 8, 0)
        rel = by_lead["x3*x7 - x4*x6"]
        assert rel.corrections[0][0] == (me((), (2, 2, 0)), 2)
        assert rel.corrections[0][1] == SuperPolynomial.parse("-x8^2", 8, 0)
        assert by_lead["x5*x8 - x6*x7"].corrections == []

    def test_correction_components_exceed_leads(self, sl3_tower):
        from superflag.degeneration import sort_key_component

        ring = SRing(sl3_tower.essential(1))
        for rel in lift_relations(gr_ideal(ring, 2), sl3_tower, ring):
            for (comp, _poly) in rel.corrections:
                assert sort_key_component(comp) > sort_key_component(
                    rel.component
                )

    def test_sweep_job_verdicts(self):
        """Every sweep job at bound 3 reaches a verdict without a fault: a
        lift whose smallest component failed to climb would raise."""
        from superflag.cli import _degeneration

        ungradable = (
            "bottom-component relation xi3*xi1 has corrections but no lead "
            "exponent for a weight vector to grade them"
        )
        verdicts = {}
        for name, text in SWEEP_JOBS:
            report, _, _ = _degeneration(_job_tower(text), 3, [Rat(0), Rat(1)], 3)
            verdicts[name] = (
                report["hilbert"]["passed"] if "hilbert" in report
                else report.get("lift_failure") or report["weight_failure"]
            )
        failed = {name: v for name, v in verdicts.items() if v is not True}
        assert failed == {
            "sweep-gl21-natural:0+flip-dual-natural:2": ungradable,
            "sweep-sl12-natural:0+flip-dual-natural:2": ungradable,
        }
        assert len(verdicts) == 32


def _atlas_line(name, text):
    """One atlas line: the job, |es(1..3)|, favourability through level 3
    and the ``degenerate`` bound-3 verdict (PASS, FAIL or the first failure
    reason)."""
    from superflag.cli import _degeneration
    from superflag.essential import is_favourable

    tower = _job_tower(text)
    levels = [tower.essential(k) for k in (1, 2, 3)]
    favourable = "yes" if is_favourable(levels).favourable else "no"
    report, _, _ = _degeneration(tower, 3, [Rat(0), Rat(1)], 3)
    if "hilbert" in report:
        verdict = "PASS" if report["hilbert"]["passed"] else "FAIL"
    else:
        verdict = report.get("lift_failure") or report["weight_failure"]
    sizes = "/".join(str(es.size) for es in levels)
    return f"{name}: es {sizes}; favourable {favourable}; degenerate-b3 {verdict}"


def test_atlas_matches_its_golden():
    """A byte oracle over the 32 sweep jobs, built in process: every line
    of ``tests/data/atlas.txt`` is one job's ``_atlas_line``."""
    from pathlib import Path

    lines = [_atlas_line(name, text) for name, text in SWEEP_JOBS]
    golden = Path(__file__).parent / "data" / "atlas.txt"
    assert "\n".join(lines) + "\n" == golden.read_text(encoding="utf-8")


class TestWeightVector:
    def test_rank_three_frozen_vector(self, sl3_tower):
        ring = SRing(sl3_tower.essential(1))
        lifted = lift_relations(gr_ideal(ring, 2), sl3_tower, ring)
        assert find_weight_vector(lifted) == (0, 0, -1)

    def test_no_corrections_gives_zero_vector(self, sl2_tower):
        ring = SRing(sl2_tower.essential(1))
        lifted = lift_relations(gr_ideal(ring, 2), sl2_tower, ring)
        assert find_weight_vector(lifted) == (0,)

    def test_infeasible_corrections_return_none(self):
        zero = SuperPolynomial.zero(2, 0)
        a = (me((), (1, 0)), 2)
        b = (me((), (0, 1)), 2)
        rels = [
            GradedRelation(degree=2, component=a, lead=zero,
                           corrections=[(b, zero)]),
            GradedRelation(degree=2, component=b, lead=zero,
                           corrections=[(a, zero)]),
        ]
        assert find_weight_vector(rels) is None

    def test_mixed_exponent_dimensions_are_a_fault(self):
        # every relation of one call comes from one tower
        zero = SuperPolynomial.zero(2, 0)
        rels = [
            GradedRelation(degree=2, component=(exp, 2), lead=zero, corrections=[])
            for exp in (me((), (1, 0)), me((), (1, 0, 0)))
        ]
        with pytest.raises(ProgramFault, match="mix module exponent dimensions"):
            find_weight_vector(rels)

    def test_bottom_relation_with_corrections_is_a_verdict(self):
        # xi1*xi2 collides in an odd coordinate, yet lifting corrected it:
        # its lead has no exponent to grade the corrections by
        lead = SuperPolynomial.parse("xi2*xi1", 0, 2)
        correction = ((me((1,), (2,)), 2), SuperPolynomial.parse("-xi2*xi1", 0, 2))
        rels = [
            GradedRelation(degree=2, component=BOTTOM, lead=lead, corrections=[]),
            GradedRelation(
                degree=2, component=BOTTOM, lead=lead, corrections=[correction]
            ),
        ]
        assert find_weight_vector(rels[:1]) == ()
        with pytest.raises(
            LiftError,
            match=r"^bottom-component relation xi2\*xi1 has corrections but no "
            "lead exponent",
        ):
            find_weight_vector(rels)


class TestFamily:
    def test_classical_quadric_family(self, sl2_tower):
        ring = SRing(sl2_tower.essential(1))
        lifted = lift_relations(gr_ideal(ring, 2), sl2_tower, ring)
        family = family_ideal(lifted, (0,), ring)
        assert len(family.generators) == 1
        assert set(family.generators[0]) == {0}
        conic = SuperPolynomial.parse("x1*x3 - x2^2", 3, 0)
        assert family.all_specialized(Rat(0)) == [conic]
        assert family.all_specialized(Rat(7)) == [conic]

    def test_rank_three_family_structure(self, sl3_tower):
        ring = SRing(sl3_tower.essential(1))
        lifted = lift_relations(gr_ideal(ring, 2), sl3_tower, ring)
        weight = find_weight_vector(lifted)
        family = family_ideal(lifted, weight, ring)
        assert len(family.generators) == 9
        for pieces in family.generators:
            for power in pieces:
                assert power == 0 or power >= 1
        # t = 1 recovers the exact lifted relations
        at_one = {p.to_text() for p in family.all_specialized(Rat(1))}
        assert at_one == {rel.total().to_text() for rel in lifted}
        # t = 0 recovers the pure graded leads
        at_zero = {p.to_text() for p in family.all_specialized(Rat(0))}
        assert at_zero == {rel.lead.to_text() for rel in lifted}

    def test_zero_weight_with_corrections_rejected(self, sl3_tower):
        # find_weight_vector never returns such a vector: a fault, not a verdict
        ring = SRing(sl3_tower.essential(1))
        lifted = lift_relations(gr_ideal(ring, 2), sl3_tower, ring)
        with pytest.raises(ProgramFault, match="non-positive power"):
            family_ideal(lifted, (0, 0, 0), ring)

    def test_specialize_sums_the_scaled_pieces(self, sl3_tower):
        family = pipeline_family(sl3_tower, 4)
        for a in (Rat(0), Rat(1), Rat(5, 3)):
            sums = []
            for pieces in family.generators:
                scaled = [poly.scaled(a ** p) for p, poly in sorted(pieces.items())]
                sums.append(sum(scaled[1:], scaled[0]))
            assert family.all_specialized(a) == [g for g in sums if not g.is_zero()]


class TestHilbert:
    def test_classical_quadric_dimensions(self, sl2_tower):
        ring = SRing(sl2_tower.essential(1))
        lifted = lift_relations(gr_ideal(ring, 2), sl2_tower, ring)
        family = family_ideal(lifted, (0,), ring)
        report = hilbert_check(family, sl2_tower, [0, 1, 3], 3)
        assert report.passed
        assert report.expected == {1: 3, 2: 5, 3: 7}

    def test_rank_three_fibers_agree(self, sl3_tower):
        ring = SRing(sl3_tower.essential(1))
        lifted = lift_relations(gr_ideal(ring, 2), sl3_tower, ring)
        weight = find_weight_vector(lifted)
        family = family_ideal(lifted, weight, ring)
        report = hilbert_check(family, sl3_tower, [0, 1, 2, 5], 2)
        assert report.passed
        assert report.expected == {1: 8, 2: 27}
        for a in report.samples:
            assert report.table[(a, 2)] == 27

    def test_orthosymplectic_fibers(self, osp_tower):
        ring = SRing(osp_tower.essential(1))
        lifted = lift_relations(gr_ideal(ring, 2), osp_tower, ring)
        family = family_ideal(lifted, (0,) * 6, ring)
        report = hilbert_check(family, osp_tower, [0, 1], 2)
        assert report.passed
        assert report.expected == {1: 5, 2: 14}


class TestDegreeByDegreeHilbert:
    """The degree-by-degree check against the all-multiples oracle, and the
    work it is allowed to do."""

    @pytest.mark.parametrize("bound", [2, 3, 4])
    def test_rank_three_tables_match_all_multiples(self, sl3_tower, bound):
        family = pipeline_family(sl3_tower, bound)
        report = hilbert_check(family, sl3_tower, SAMPLES, bound)
        assert report.passed
        assert report.table == all_multiples_table(family, SAMPLES, bound)

    def test_flip_square_tables_match_all_multiples(self, osp_square_tower):
        family = pipeline_family(osp_square_tower, 3)
        report = hilbert_check(family, osp_square_tower, SAMPLES, 3)
        assert report.passed
        assert report.expected == {1: 14, 2: 55, 3: 140}
        assert report.table == all_multiples_table(family, SAMPLES, 3)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_negative_sign_ring_matches_all_multiples(
        self, every_exponent_ring, seed
    ):
        ring = every_exponent_ring
        family = perturbed_family(ring, 3, seed)
        # the t = 0 leads lie in the collapse kernel, so that fiber is capped
        assert not any(map(ring.collapse, family.all_specialized(Rat(0))))
        report = hilbert_check(family, NO_TOWER, SAMPLES, 4)
        assert report.table == all_multiples_table(family, SAMPLES, 4)
        # shifts by an odd variable reorder odd coordinates
        assert any(
            sign == -1
            for h in (1, 2, 3) for shift in ring.shifts(h)
            for _, sign in shift.values()
        )

    def test_inhomogeneous_generator_rejected(self, sl2_tower):
        ring = SRing(sl2_tower.essential(1))
        mixed = SuperPolynomial.parse("x1*x3 - x2", ring.nS, ring.qS)
        family = DegenerationFamily(
            ring=ring,
            generators=[{0: mixed}],
        )
        with pytest.raises(ProgramFault, match="not homogeneous"):
            hilbert_check(family, sl2_tower, [0], 2)

    def test_rows_per_degree_are_bounded(self, sl3_tower, monkeypatch):
        """Degree h inserts at most rank(I_{h-1}) * (nS + qS) rows plus its
        generators, and a repeated fiber parameter is ranked once."""
        accumulators = count_inserts(monkeypatch)
        bound = 4
        family = pipeline_family(sl3_tower, bound)
        ring = family.ring
        distinct = list(dict.fromkeys(map(Rat, SAMPLES)))
        hilbert_check(family, sl3_tower, SAMPLES, bound)
        assert len(accumulators) == len(distinct) * bound
        for f, a in enumerate(distinct):
            gens = family.all_specialized(a)
            accs = accumulators[f * bound:(f + 1) * bound]
            previous_rank = 0
            for h, acc in enumerate(accs, start=1):
                gens_h = sum(1 for g in gens if max_degree(g) == h)
                assert acc.inserts <= previous_rank * (ring.nS + ring.qS) + gens_h
                previous_rank = acc.rank


def count_inserts(monkeypatch):
    """Make ``hilbert_check``'s accumulators count their inserts; returns
    the list they join as they are made, one per fiber and degree."""
    accumulators = []

    class Counting(RankAccumulator):
        inserts = 0

        def insert(self, v):
            self.inserts += 1
            return super().insert(v)

        def __init__(self):
            super().__init__()
            accumulators.append(self)

    monkeypatch.setattr(degeneration, "RankAccumulator", Counting)
    return accumulators


def uncapped_table(family, samples, top):
    """The Hilbert table by the degree-by-degree elimination with no
    ceiling: every generator and every shifted basis row is inserted.  The
    reference for the ceiling in ``hilbert_check``."""
    ring = family.ring
    table = {}
    for a in dict.fromkeys(map(Rat, samples)):
        gens = family.all_specialized(a)
        basis = []
        for h in range(1, top + 1):
            index = {m: i for i, m in enumerate(ring.monomials_of_degree(h))}
            rows = [
                {index[e]: c for e, c in g.terms.items()}
                for g in gens if max_degree(g) == h
            ]
            if basis:
                rows += [
                    {shift[i][0]: shift[i][1] * c for i, c in b.items() if i in shift}
                    for b in basis for shift in ring.shifts(h - 1)
                ]
            acc = RankAccumulator()
            basis = [row for row in rows if acc.insert(row)]
            table[(a, h)] = len(index) - acc.rank
    return table


CEILING_SAMPLES = [0, 1, 2, Rat(5, 3)]


@pytest.fixture(scope="module")
def sl3_weighted_tower():
    """Tower of the ``sl3_adjoint_weighted.cfg`` job (weights 2 1 3)."""
    from pathlib import Path

    from superflag.cli import load_job

    job = load_job(str(Path(__file__).parent / "data" / "sl3_adjoint_weighted.cfg"))
    context = job.context()
    return LevelTower(context.basis, job.realization(context), job.order)


def _drop_first_of_degree(family, degree):
    i = next(i for i, g in enumerate(family.generators) if lead_degree(g) == degree)
    return DegenerationFamily(
        ring=family.ring,
        generators=family.generators[:i] + family.generators[i + 1:],
    )


def _with_noise(family, seed, power=1):
    """The family with t^power times a random two-term polynomial of each
    generator's degree added: not a family of the tower's lifts."""
    rng = random.Random(seed)
    ring = family.ring
    generators = []
    for g in family.generators:
        noise = SuperPolynomial(ring.nS, ring.qS, {
            m: Rat(rng.randint(1, 3))
            for m in rng.sample(ring.monomials_of_degree(lead_degree(g)), 2)
        })
        pieces = dict(g)
        pieces[power] = pieces[power] + noise if power in pieces else noise
        generators.append(pieces)
    return DegenerationFamily(ring=ring, generators=generators)


class TestHilbertCeiling:
    """At t = 0 and t = 1 the elimination stops at a ceiling on the rank
    that the fiber proves from its own generators; the tables stay those of
    the uncapped elimination."""

    @pytest.mark.parametrize(
        "tower_name, bound",
        [("sl3_tower", 4), ("osp_square_tower", 3), ("sl3_weighted_tower", 3)],
    )
    def test_tables_match_the_uncapped_elimination(self, tower_name, bound, request):
        tower = request.getfixturevalue(tower_name)
        family = pipeline_family(tower, bound)
        report = hilbert_check(family, tower, CEILING_SAMPLES, bound)
        assert report.passed
        assert report.table == uncapped_table(family, CEILING_SAMPLES, bound)

    def test_no_shift_map_once_the_generators_reach_the_ceiling(
        self, sl3_tower, monkeypatch
    ):
        family = pipeline_family(sl3_tower, 4)

        def refuse(self, h):
            raise AssertionError(f"shifts({h}) was asked for")

        monkeypatch.setattr(SRing, "shifts", refuse)
        assert hilbert_check(family, sl3_tower, [0, 1], 4).passed

    def test_generators_short_of_the_ceiling_run_the_shifted_rows(
        self, sl3_tower, monkeypatch
    ):
        """Without one cubic generator the cubics fall short of the
        ceiling, so the shifted quadrics run and restore the rank."""
        family = _drop_first_of_degree(pipeline_family(sl3_tower, 4), 3)
        asked = []
        shifts = SRing.shifts
        monkeypatch.setattr(
            SRing, "shifts", lambda self, h: asked.append(h) or shifts(self, h)
        )
        report = hilbert_check(family, sl3_tower, CEILING_SAMPLES, 4)
        assert 2 in asked
        assert report.passed
        assert report.table == uncapped_table(family, CEILING_SAMPLES, 4)

    def test_any_other_family_runs_every_row(self, sl3_tower, monkeypatch):
        """With noise in the t^1 pieces only, the rule splits one family.  The
        t = 0 leads still collapse to zero, so that fiber stops at its
        ceiling before any shifted row.  The t = 1 generators do not vanish
        in the tower, so that fiber runs every row: its cubics pass the
        lifts' ceiling and the report shows the fiber that is too small
        (capped, it would read exactly |es(3)|)."""
        family = _with_noise(pipeline_family(sl3_tower, 3), seed=0)
        report = hilbert_check(family, sl3_tower, CEILING_SAMPLES, 3)
        assert report.table[(Rat(1), 3)] < report.expected[3]
        assert not report.passed
        assert report.table == uncapped_table(family, CEILING_SAMPLES, 3)

        accumulators = count_inserts(monkeypatch)
        hilbert_check(family, sl3_tower, [0, 1], 3)
        ring, width = family.ring, family.ring.nS + family.ring.qS
        for f, a in enumerate((Rat(0), Rat(1))):
            gens = family.all_specialized(a)
            previous_rank = 0
            for h, acc in enumerate(accumulators[3 * f:3 * f + 3], start=1):
                gens_h = sum(1 for g in gens if max_degree(g) == h)
                if a == 0:  # the generators alone reach the ceiling
                    components = ring.components(h).keys() - {BOTTOM}
                    assert acc.inserts <= gens_h
                    assert acc.rank == len(ring.monomials_of_degree(h)) - len(components)
                else:  # every generator and every shifted basis row
                    assert acc.inserts == gens_h + previous_rank * width
                previous_rank = acc.rank

    def test_leads_outside_the_collapse_kernel_run_every_row(self, sl3_tower):
        """With noise in the t^0 pieces the leads leave the collapse kernel,
        so the t = 0 fiber runs every row and shows its true dimension, below
        |es(3)| (capped, it would read the collapse ceiling)."""
        family = _with_noise(pipeline_family(sl3_tower, 3), seed=0, power=0)
        assert any(map(family.ring.collapse, family.all_specialized(Rat(0))))
        report = hilbert_check(family, sl3_tower, [0], 3)
        assert report.table[(Rat(0), 3)] < report.expected[3]
        assert report.table == uncapped_table(family, [0], 3)

    def test_a_fiber_that_falls_short_reports_its_true_dimension(self, sl3_tower):
        family = _drop_first_of_degree(pipeline_family(sl3_tower, 4), 2)
        report = hilbert_check(family, sl3_tower, CEILING_SAMPLES, 4)
        assert not report.passed
        assert {report.table[(Rat(a), 2)] for a in CEILING_SAMPLES} == {28}
        assert report.table == uncapped_table(family, CEILING_SAMPLES, 4)


class TestMemoizedEvaluation:
    @pytest.mark.parametrize(
        "tower_name, top", [("sl3_tower", 4), ("osp_square_tower", 3)]
    )
    def test_values_match_left_to_right(self, tower_name, top, request):
        tower = request.getfixturevalue(tower_name)
        ring = SRing(tower.essential(1))
        checked = 0
        for h in range(1, top + 1):
            for sexp in ring.monomials_of_degree(h):
                mono = SuperPolynomial.monomial(ring.nS, ring.qS, sexp)
                assert evaluate_in_tower(tower, ring, mono) == (
                    left_to_right_value(tower, ring, sexp)
                ), str(sexp)
                checked += 1
        assert checked == sum(
            len(ring.monomials_of_degree(h)) for h in range(1, top + 1)
        )

    def test_a_constant_term_is_a_fault(self, sl3_tower):
        # the graded kernel and its lifts have no degree-0 terms
        ring = SRing(sl3_tower.essential(1))
        one = SuperPolynomial.monomial(
            ring.nS, ring.qS, MultiExponent.zero(ring.nS, ring.qS)
        )
        with pytest.raises(ProgramFault, match="constant term"):
            evaluate_in_tower(sl3_tower, ring, one)

    def test_one_table_product_per_ring_monomial(
        self, sl3_context, sl3_adjoint
    ):
        tower = LevelTower(sl3_context.basis, sl3_adjoint)
        ring = SRing(tower.essential(1))
        products = []
        table = tower.table
        tower.table = lambda k1, k2: products.append((k1, k2)) or table(k1, k2)
        monomials = [
            sexp for h in (1, 2, 3) for sexp in ring.monomials_of_degree(h)
        ]
        for _ in range(2):
            for sexp in monomials:
                evaluate_in_tower(
                    tower, ring,
                    SuperPolynomial.monomial(ring.nS, ring.qS, sexp),
                )
        # every prefix of a canonical factor tuple is itself a ring
        # monomial, so each monomial of degree >= 2 is one product, once
        assert len(products) == sum(1 for sexp in monomials if sexp.degree > 1)

    def test_lifting_evaluates_leads_and_single_monomials(
        self, sl3_tower, monkeypatch
    ):
        ring = SRing(sl3_tower.essential(1))
        graded = gr_ideal(ring, 3)
        seen = []

        def spy(tower, ring, poly):
            seen.append(poly)
            return evaluate_in_tower(tower, ring, poly)

        monkeypatch.setattr(degeneration, "evaluate_in_tower", spy)
        lifted = lift_relations(graded, sl3_tower, ring)
        assert any(rel.corrections for rel in lifted)
        # the running polynomial is never evaluated again: apart from each
        # lead, once, every evaluation is of one subtracted monomial
        assert [poly for poly in seen if len(poly.terms) > 1] == [
            rel.lead for rel in graded if len(rel.lead.terms) > 1
        ]

"""Representations, highest-weight realizations, cyclic spans, expansions."""

from pathlib import Path

import pytest

from superflag.linalg import Rat, SpanAccumulator, add_scaled
from superflag.liesuper import build_context, negative_basis
from superflag.degeneration import LevelTower
from superflag.modules import (
    BLOCK_BUILDERS,
    CyclicModule,
    ProgramFault,
    Representation,
    Unbuilt,
    act_via_expansion,
    build_realization,
    cartan_expand,
    cyclic_span,
    dual_natural,
    exponent_weight,
    flip_parities,
    module_realization,
    natural,
    pbw_act,
    single_block_realization,
    tensor,
    tensor_power,
    tensor_representations,
)
from superflag.superpoly import MonomialOrder, MultiExponent, enumerate_monomials


def exp_of(basis, **labeled):
    """Build a MultiExponent from positive-root labels, e.g. exp_of(b, d1=1)."""
    labels = basis.labels()
    odd = [0] * basis.q
    even = [0] * basis.n
    for name, mult in labeled.items():
        target = name.replace("_", "-").replace("p", "+")
        for var, lab in labels.items():
            if lab == target:
                if var.startswith("xi"):
                    odd[int(var[2:]) - 1] = mult
                else:
                    even[int(var[1:]) - 1] = mult
                break
        else:
            raise KeyError(target)
    return MultiExponent(tuple(odd), tuple(even))


def weights(rep):
    """The weight of every basis vector, read off the Cartan action."""
    return tuple(rep.weight(j) for j in range(rep.dim))


def hw_weight(real):
    """The weight of a realization's highest-weight vector."""
    return real.rep.weight(real.hw_index)


class TestRepresentations:
    @pytest.mark.parametrize("maker", [natural, dual_natural])
    def test_axioms(self, maker, gl11_context, sl12_context, osp_context):
        for context in (gl11_context, sl12_context, osp_context):
            rep = maker(context.algebra)
            rep.validate()

    def test_flip_keeps_weights_and_flips_parities(self, osp_context):
        rep = natural(osp_context.algebra)
        flipped = flip_parities(rep)
        flipped.validate()
        assert weights(flipped) == weights(rep)
        assert tuple(flipped.parities) == tuple(1 - p for p in rep.parities)

    def test_dual_weights_are_negated(self, sl12_context):
        rep = natural(sl12_context.algebra)
        dual = dual_natural(sl12_context.algebra)
        assert sorted(weights(dual)) == sorted(
            tuple(-c for c in w) for w in weights(rep)
        )

    def test_factors_of_two_algebras_are_a_fault(self, gl11_context, sl12_context):
        # every tensor the program builds multiplies one algebra's modules
        with pytest.raises(ProgramFault, match="share the algebra object"):
            tensor_representations(
                natural(gl11_context.algebra), natural(sl12_context.algebra)
            )

    def test_tensor_axioms_and_weight_additivity(self, gl11_context):
        rep = natural(gl11_context.algebra)
        square = tensor_representations(rep, rep)
        square.validate()
        d = rep.dim
        for i1 in range(d):
            for i2 in range(d):
                w = square.weight(i1 * d + i2)
                assert w == tuple(
                    a + b for a, b in zip(rep.weight(i1), rep.weight(i2))
                )
                assert square.parities[i1 * d + i2] == (
                    rep.parities[i1] + rep.parities[i2]
                ) % 2


def _broken(rep, defect):
    """A copy of ``rep`` with one defect that ``validate`` must reject."""
    alg = rep.algebra
    action = [{j: dict(col) for j, col in cols.items()} for cols in rep.action]
    h = alg.cartan_indices[0]
    if defect == "parity":
        i, j = (next(k for k in range(rep.dim) if rep.parities[k] == p) for p in (0, 1))
        action[h].setdefault(j, {})[i] = 1
    elif defect == "off-diagonal-cartan":
        i, j = [k for k in range(rep.dim) if rep.parities[k] == 1][:2]
        action[h].setdefault(j, {})[i] = 1
    elif defect == "doubled-root-vector":
        g = next(g for g in range(alg.dim) if g not in alg.cartan_indices)
        action[g] = {
            j: {i: 2 * c for i, c in col.items()} for j, col in action[g].items()
        }
    return Representation(
        algebra=alg, dim=rep.dim, parities=rep.parities, action=action
    )


class TestValidate:
    """Each failure branch of ``Representation.validate``."""

    @pytest.mark.parametrize("defect, message", [
        ("parity", "action of generator 0 is not parity-homogeneous"),
        ("off-diagonal-cartan", "Cartan does not act diagonally"),
        ("doubled-root-vector", r"bracket axiom fails on generator pair \(\d+, \d+\)"),
    ])
    def test_broken_action_rejected(self, osp_context, defect, message):
        rep = natural(osp_context.algebra)
        rep.validate()
        with pytest.raises(ValueError, match=message):
            _broken(rep, defect).validate()


class TestRealizations:
    def test_flip_natural_highest_weight(self, osp_context, osp_real):
        assert osp_real.level == 1
        assert osp_real.rep.parities[osp_real.hw_index] == 0
        assert hw_weight(osp_real) == (1, 0)

    def test_odd_candidate_rejected(self, osp_context):
        # the natural (unflipped) block has odd vectors at the sp indices
        with pytest.raises(ValueError, match="even"):
            single_block_realization(osp_context, "natural", 1)

    def test_non_highest_candidate_rejected(self, sl3_context):
        with pytest.raises(ValueError, match="annihilated"):
            single_block_realization(sl3_context, "natural", 1)

    def test_tensor_adds_weights_and_levels(self, osp_real):
        square = tensor(osp_real, osp_real)
        assert hw_weight(square) == (2, 0)
        assert square.level == 2
        assert square.hw_index == osp_real.hw_index * osp_real.rep.dim + (
            osp_real.hw_index
        )
        cube = tensor_power(osp_real, 3)
        assert hw_weight(cube) == (3, 0)
        assert cube.level == 3

    def test_composite_base_realization_stays_level_one(self, sl3_adjoint):
        assert sl3_adjoint.level == 1
        assert hw_weight(sl3_adjoint) == (1, 1)


# (family, m, n, functional) of the small algebras whose blocks the weight
# tests read
WEIGHT_ALGEBRAS = [
    ("gl", 2, 1, (5, 3, 1)), ("gl", 1, 2, (5, 3, 1)), ("sl", 1, 2, (3, -1)),
    ("sl", 2, 1, (3, -1)), ("sl", 3, 0, (3, 2)), ("osp", 1, 1, (1,)),
    ("osp", 1, 2, (2, 1)),
]


class TestDerivedWeights:
    """Weights are read off the Cartan action: they add on tensor products,
    and a realization without its Cartan has none rather than zeros."""

    def test_an_n_minus_only_level_has_no_weight(self, sl3_context, sl3_adjoint):
        tower = LevelTower(sl3_context.basis, sl3_adjoint)
        h = sl3_context.algebra.cartan_indices[0]
        for real in (tower.module(1).on_essentials, tower.module(2).realization):
            assert isinstance(real.rep.action[h], Unbuilt)
            with pytest.raises(ProgramFault, match=f"generator {h} is not built"):
                hw_weight(real)

    @pytest.mark.parametrize(
        "family, m, n, functional", WEIGHT_ALGEBRAS,
        ids=[f"{f}{m}{n}" for f, m, n, _ in WEIGHT_ALGEBRAS],
    )
    def test_weights_add_on_tensor_squares(self, family, m, n, functional):
        """On the tensor square of every block, and on the square's cyclic
        module at each highest-weight vector written on its essential
        vectors, the weight of a basis vector is the sum of its factors'
        weights, and an essential's weight is the one its exponent gives."""
        context = build_context(family, m, n, functional)
        for name, build in BLOCK_BUILDERS.items():
            rep = build(context.algebra)
            d = rep.dim

            def added(i):
                w1, w2 = rep.weight(i // d), rep.weight(i % d)
                return tuple(a + b for a, b in zip(w1, w2))

            square = tensor_representations(rep, rep)
            assert weights(square) == tuple(added(i) for i in range(d * d)), name
            for hw in range(d):
                try:
                    single = single_block_realization(context, name, hw)
                except ValueError:  # not a highest-weight vector
                    continue
                real = tensor(single, single)
                module = cyclic_span(real, context.basis)
                sub = module_realization(module, full=True).rep
                for j, (e, vec) in enumerate(module.essentials):
                    w = sub.weight(j)
                    assert w == exponent_weight(context.basis, hw_weight(real), e)
                    assert all(w == added(i) for i in vec), (name, hw, e)


class TestPbwAct:
    def test_zero_exponent_returns_highest_weight_vector(
        self, osp_context, osp_real
    ):
        v = pbw_act(osp_real, osp_context.basis, MultiExponent.zero(4, 2))
        assert v == osp_real.hw_vector

    def test_single_lowering_in_smallest_superalgebra(
        self, gl11_context, gl11_real
    ):
        e = MultiExponent((1,), ())
        v = pbw_act(gl11_real, gl11_context.basis, e)
        assert list(sorted(v)) == [1]

    def test_divided_power_normalization(self, osp_context, osp_real):
        square = tensor(osp_real, osp_real)
        e = exp_of(osp_context.basis, **{"2d1": 2})
        plain = pbw_act(square, osp_context.basis, e, divided=False)
        divided = pbw_act(square, osp_context.basis, e, divided=True)
        assert divided == {i: Rat(1, 2) * x for i, x in plain.items()}

    def test_result_lies_in_predicted_weight_space(self, osp_context, osp_real):
        basis = osp_context.basis
        for e in (
            exp_of(basis, d1=1),
            exp_of(basis, **{"d1+d2": 1}),
            exp_of(basis, **{"2d1": 1, "d1": 1}),
        ):
            v = pbw_act(osp_real, basis, e)
            target = exponent_weight(basis, hw_weight(osp_real), e)
            for idx in v:
                assert osp_real.rep.weight(idx) == target

    def test_odd_square_is_zero(self, gl11_context, gl11_real):
        # an odd lowering applied twice kills every vector
        basis = gl11_context.basis
        e = MultiExponent((1,), ())
        op = gl11_real.rep.action[basis.elements[0].generator]
        v = pbw_act(gl11_real, basis, e)
        assert gl11_real.rep.apply(op, v) == {}


class TestCyclicSpan:
    def test_smallest_superalgebra_dimension_two(self, gl11_context, gl11_real):
        module = cyclic_span(gl11_real, gl11_context.basis)
        assert module.dimension == 2
        assert module.essential_exponents() == [
            MultiExponent((0,), ()),
            MultiExponent((1,), ()),
        ]

    def test_special_linear_natural_dimension_three(
        self, sl12_context, sl12_real
    ):
        module = cyclic_span(sl12_real, sl12_context.basis)
        assert module.dimension == 3

    def test_orthosymplectic_fundamental_frozen_set(
        self, osp_context, osp_real
    ):
        basis = osp_context.basis
        module = cyclic_span(osp_real, basis)
        assert module.dimension == 5
        assert module.stabilization_degree == 1
        expected = {
            MultiExponent.zero(4, 2),
            exp_of(basis, d1=1),
            exp_of(basis, **{"2d1": 1}),
            exp_of(basis, **{"d1+d2": 1}),
            exp_of(basis, **{"d1-d2": 1}),
        }
        assert set(module.essential_exponents()) == expected

    def test_level_two_and_three_dimensions(self, osp_context, osp_real):
        basis = osp_context.basis
        assert cyclic_span(tensor_power(osp_real, 2), basis).dimension == 14
        assert cyclic_span(tensor_power(osp_real, 3), basis).dimension == 30

    def test_scan_past_its_layer_bound_is_a_fault(
        self, monkeypatch, osp_context, osp_real
    ):
        # every layer before the stall adds a vector, so a graded scan
        # stalls by layer rep.dim; a scan that passes it is a bug
        monkeypatch.setattr(osp_real.rep, "dim", 1)
        with pytest.raises(ProgramFault, match="ran past layer 1"):
            cyclic_span(osp_real, osp_context.basis)

    def test_dimension_is_basis_order_independent(self, osp_context, osp_real):
        basis = negative_basis(osp_context.borel, (5, 4, 3, 2, 1, 0))
        module = cyclic_span(osp_real, basis)
        assert module.dimension == 5

    def test_revlex_scan_same_dimension(self, osp_context, osp_real):
        module = cyclic_span(
            osp_real, osp_context.basis, order=MonomialOrder("graded-revlex")
        )
        assert module.dimension == 5

    def test_expand_essential_is_identity(self, osp_context, osp_real):
        module = cyclic_span(osp_real, osp_context.basis)
        for e in module.essential_exponents():
            assert module.expand(e) == {e: Rat(1)}

    def test_expand_nonessential_monomial(self, osp_context, osp_real):
        basis = osp_context.basis
        square = tensor_power(osp_real, 2)
        module = cyclic_span(square, basis)
        ess = set(module.essential_exponents())
        # pick a degree-2 exponent outside the essential set with a
        # nonzero image: its expansion must reproduce pbw_act exactly
        checked = 0
        from superflag.superpoly import enumerate_monomials

        for e in enumerate_monomials(MonomialOrder("graded-lex"), 2, 4, 2):
            if e.degree != 2 or e in ess:
                continue
            vec = pbw_act(square, basis, e)
            if not vec:
                continue
            combo = module.expand(e)
            recon = {}
            for u, c in combo.items():
                recon = add_scaled(recon, pbw_act(square, basis, u), c)
            assert recon == vec
            checked += 1
        assert checked > 0


class FullActionTower(LevelTower):
    """The tower with every generator built at every level: the oracle for
    the restricted build."""

    def _level_realization(self, k):
        below, first = self.levels[k - 2][1], self.levels[0][1]
        return tensor(
            module_realization(below, full=True),
            module_realization(first, full=True),
        )


class TestModuleRealization:
    """The cyclic module written on its own essential vectors."""

    @pytest.mark.parametrize(
        "ctx_name, real_name, k",
        [
            ("sl3_context", "sl3_adjoint", 1),
            ("osp_context", "osp_real", 1),
            ("osp_context", "osp_real", 2),
        ],
    )
    def test_is_a_representation(self, ctx_name, real_name, k, request):
        basis = request.getfixturevalue(ctx_name).basis
        real = request.getfixturevalue(real_name)
        module = cyclic_span(tensor_power(real, k), basis)
        sub = module_realization(module, full=True)
        sub.rep.validate()
        assert sub.rep.dim == module.dimension
        assert (sub.hw_index, hw_weight(sub), sub.level) == (
            0, hw_weight(module.realization), k
        )
        for j, (_, vec) in enumerate(module.essentials):
            i = next(iter(vec))
            assert sub.rep.weight(j) == module.realization.rep.weight(i)
            assert sub.rep.parities[j] == module.realization.rep.parities[i]

    @pytest.mark.parametrize(
        "ctx_name, blocks, top",
        [
            ("sl3_context", [("natural", 0), ("dual-natural", 2)], 3),
            ("osp_context", [("flip-natural", 1)], 3),
            ("osp_context", [("flip-natural", 1), ("flip-natural", 1)], 2),
        ],
        ids=["sl3-adjoint", "osp-bundled", "osp-flip-square"],
    )
    def test_restricted_build_matches_the_full_build(
        self, ctx_name, blocks, top, request
    ):
        """The tower's levels build only the generators in the negative
        basis's support, and each of them equals its action in a tower that
        builds every generator at every level."""
        context = request.getfixturevalue(ctx_name)
        real = build_realization(context, blocks)
        tower = LevelTower(context.basis, real)
        full_tower = FullActionTower(context.basis, real)
        support = {el.generator for el in context.basis.elements}
        assert len(support) < context.algebra.dim
        for k in range(1, top + 1):
            assert tower.essential(k).monomials == full_tower.essential(k).monomials
            restricted = tower.module(k).on_essentials.rep
            full = module_realization(full_tower.module(k), full=True).rep
            assert (restricted.dim, restricted.parities) == (
                full.dim, full.parities
            )
            for g in range(context.algebra.dim):
                if g in support:
                    assert restricted.action[g] == full.action[g], (k, g)
                else:
                    assert isinstance(restricted.action[g], Unbuilt), (k, g)

    @pytest.mark.parametrize(
        "job",
        ["sl3-adjoint", "osp-graded-lex", "osp-flip-square",
         "osp14_w1_weighted.cfg", "gl21_natural_flip_dual.cfg"],
    )
    def test_columns_rebuild_the_ambient_action(self, request, job):
        """Column j of a built generator g, summed over the essential
        vectors, is g applied to essential vector j in the scan's own
        realization (the n- restricted one at levels >= 2)."""
        tower = _job_tower(request, job)
        support = {el.generator for el in tower.basis.elements}
        for k in (1, 2, 3):
            module = tower.module(k)
            rep = module.realization.rep
            action = module.on_essentials.rep.action
            vecs = [vec for _, vec in module.essentials]
            for g in support:
                for j, vec in enumerate(vecs):
                    rebuilt = {}
                    for i, c in action[g].get(j, {}).items():
                        rebuilt = add_scaled(rebuilt, vecs[i], c)
                    assert rebuilt == rep.apply(rep.action[g], vec), (k, g, j)

    def test_an_unbuilt_generator_raises(self, sl3_context, sl3_adjoint):
        module = cyclic_span(sl3_adjoint, sl3_context.basis)
        rep = module_realization(module).rep
        g = next(g for g, op in enumerate(rep.action) if isinstance(op, Unbuilt))
        v = {0: 1}
        message = f"generator {g} is not built in this realization"
        with pytest.raises(ProgramFault, match=message):
            rep.apply_element(((g, Rat(1)),), v)
        with pytest.raises(ProgramFault, match=message):
            rep.apply(rep.action[g], v)
        with pytest.raises(ProgramFault, match=message):
            rep.validate()
        square = tensor_representations(rep, rep)
        assert isinstance(square.action[g], Unbuilt)
        with pytest.raises(ProgramFault, match=message):
            square.apply(square.action[g], {0: 1})
        # a count of stored entries (the benchmark tracer's) sees none
        assert list(square.action[g].values()) == []

    def test_scan_of_the_realization_matches_the_ambient_scan(
        self, osp_context, osp_real
    ):
        basis = osp_context.basis
        square = cyclic_span(tensor_power(osp_real, 2), basis)
        sub = cyclic_span(module_realization(square), basis)
        assert sub.essential_exponents() == square.essential_exponents()
        for e in enumerate_monomials(MonomialOrder("graded-lex"), 3, 4, 2):
            assert sub.expand(e) == square.expand(e)

    def test_failed_expansion_names_generator_and_exponent(
        self, osp_context, osp_real
    ):
        module = cyclic_span(osp_real, osp_context.basis)
        # a span holding only the highest-weight vector: every lowering
        # leaves it
        hw_span = SpanAccumulator()
        hw_span.insert(osp_real.hw_vector)
        broken = CyclicModule(
            module.realization, module.basis, module.order, module.essentials,
            hw_span,
        )
        with pytest.raises(
            ProgramFault,
            match=r"generator \d+ maps essential vector I=\d+ m=\([\d,]+\) "
            "outside the recorded cyclic span",
        ):
            module_realization(broken)


def _expand_by_weight_block(module, exp):
    """Reference expansion: the monomial's vector in the scan's own
    realization, expressed over the essential vectors by the scan's span."""
    vec = pbw_act(module.realization, module.basis, exp)
    coeffs = module.span.express(vec)
    assert coeffs is not None, f"{exp} is outside the recorded cyclic span"
    return {module.essentials[p][0]: c for p, c in coeffs.items()}


# (context, blocks, order weights or None for graded-lex) per tower job
EXPANSION_JOBS = {
    "sl3-adjoint": ("sl3_context", [("natural", 0), ("dual-natural", 2)], None),
    "osp-graded-lex": ("osp_context", [("flip-natural", 1)], None),
    "osp-weighted": ("osp_context", [("flip-natural", 1)], (2, 1, 3, 1, 1, 2)),
    "osp-flip-square": (
        "osp_context", [("flip-natural", 1), ("flip-natural", 1)], None
    ),
}


def _job_tower(request, job):
    """The level tower of an ``EXPANSION_JOBS`` entry or of a config file
    in tests/data."""
    if job.endswith(".cfg"):
        from superflag.cli import load_job

        config = load_job(str(Path(__file__).parent / "data" / job))
        context = config.context()
        return LevelTower(context.basis, config.realization(context), config.order)
    context_name, blocks, weights = EXPANSION_JOBS[job]
    context = request.getfixturevalue(context_name)
    order = MonomialOrder("weighted", weights=weights) if weights else None
    return LevelTower(context.basis, build_realization(context, blocks), order)


class TestExpandOnEssentials:
    """``CyclicModule.expand`` is the monomial's action in the module's
    representation on its essential vectors."""

    @pytest.mark.parametrize("job", list(EXPANSION_JOBS))
    def test_expand_matches_the_weight_block_expression(self, request, job):
        tower = _job_tower(request, job)
        n, q = tower.basis.n, tower.basis.q
        graded = MonomialOrder("graded-lex")
        for k in (1, 2, 3):
            module = tower.module(k)
            exps = enumerate_monomials(graded, module.stabilization_degree + 1, n, q)
            for e in exps:
                assert module.expand(e) == _expand_by_weight_block(module, e), (k, e)
            essential = set(module.essential_exponents())
            assert any(module.expand(e) for e in exps if e not in essential)

    def test_built_once_per_module(self, sl3_context, sl3_adjoint, monkeypatch):
        import superflag.modules

        built = []
        original = superflag.modules.module_realization

        def counting(module):
            built.append(module)
            return original(module)

        monkeypatch.setattr(superflag.modules, "module_realization", counting)
        tower = LevelTower(sl3_context.basis, sl3_adjoint)
        tower.essential(4)  # levels 2..4 tensor M_{k-1} and M_1
        for k1, k2 in [(1, 1), (2, 1), (3, 1), (2, 2)]:
            tower.table(k1, k2)  # (2, 2) tensors M_2 with itself
        assert [id(m) for m in built] == [id(tower.module(k)) for k in (1, 2, 3)]


def _scanned_exponents(module):
    """Every exponent the scan visits, in visiting order (layer 0 first).

    A graded scan runs one degree past its last essential exponent; a
    weighted scan ends with the weighted-value layer of its last one.
    """
    from superflag.superpoly import enumerate_monomials

    order = module.order
    n, q = module.basis.n, module.basis.q
    if order.kind == "weighted":
        def value(e):
            return sum(w * x for w, x in zip(order.weights, e.as_vector()))

        last = max(value(e) for e in module.essential_exponents())
        return [
            e for e in enumerate_monomials(order, last, n, q)
            if value(e) <= last
        ]
    out = [MultiExponent.zero(n, q)]
    for d in range(1, module.stabilization_degree + 2):
        out.extend(
            e for e in enumerate_monomials(order, d, n, q)
            if e.degree == d
        )
    return out


def _parent(basis, exp):
    """The exponent with one copy fewer of its highest-position generator."""
    odd, even = list(exp.odd), list(exp.even)
    coords = [(pos, odd, s) for s, pos in enumerate(basis.odd_positions)]
    coords += [(pos, even, t) for t, pos in enumerate(basis.even_positions)]
    for _, block, k in sorted(coords, key=lambda c: c[0], reverse=True):
        if block[k]:
            block[k] -= 1
            return MultiExponent(tuple(odd), tuple(even))
    raise ValueError("the zero exponent has no parent")


SCANS = [
    ("sl3_context", "sl3_adjoint", 2),
    ("osp_context", "osp_real", 3),
]

# Orders by name, given the number m of variables.
SCAN_ORDERS = {
    "graded-lex": lambda m: MonomialOrder("graded-lex"),
    "graded-revlex": lambda m: MonomialOrder("graded-revlex"),
    "weighted": lambda m: MonomialOrder(
        "weighted", weights=(2, 1, 3, 1, 1, 2)[:m]
    ),
    "weighted-priority": lambda m: MonomialOrder(
        "weighted",
        weights=(1, 2, 1, 3, 1, 1)[:m],
        priority=tuple(reversed(range(m))),
    ),
}


class TestPrefixSharedScan:
    @pytest.mark.parametrize("context_name, real_name, level", SCANS)
    @pytest.mark.parametrize("kind", list(SCAN_ORDERS))
    def test_scanned_vectors_equal_pbw_act(
        self, request, monkeypatch, context_name, real_name, level, kind
    ):
        from superflag.linalg import SpanAccumulator

        basis = request.getfixturevalue(context_name).basis
        real = tensor_power(request.getfixturevalue(real_name), level)
        order = SCAN_ORDERS[kind](basis.n + basis.q)
        inserted = []
        original = SpanAccumulator.insert

        def recording(acc, v):
            inserted.append(v)
            return original(acc, v)

        monkeypatch.setattr(SpanAccumulator, "insert", recording)
        module = cyclic_span(real, basis, order=order)
        monkeypatch.undo()
        scans = [module]
        if order.kind == "weighted":
            # a weighted scan first finds the dimension by a graded-lex scan
            scans.insert(0, cyclic_span(real, basis))
        expected = []
        for scan in scans:
            for e in _scanned_exponents(scan):
                vec = pbw_act(real, basis, e)
                if vec:
                    expected.append(vec)
        assert inserted == expected
        for e, vec in module.essentials:
            assert vec == pbw_act(real, basis, e)

    @pytest.mark.parametrize("context_name, real_name, level", SCANS)
    def test_one_application_per_monomial_with_nonzero_parent(
        self, request, monkeypatch, context_name, real_name, level
    ):
        from superflag.modules import Representation

        basis = request.getfixturevalue(context_name).basis
        real = tensor_power(request.getfixturevalue(real_name), level)
        calls = []
        original = Representation.apply

        def counting(rep, op, v):
            calls.append(1)
            return original(rep, op, v)

        monkeypatch.setattr(Representation, "apply", counting)
        module = cyclic_span(real, basis)
        monkeypatch.undo()
        expected = sum(
            1
            for e in _scanned_exponents(module)[1:]
            if pbw_act(real, basis, _parent(basis, e))
        )
        assert len(calls) == expected
        assert expected > module.dimension


class TestCartanExpand:
    def test_even_square_binomials(self):
        e = MultiExponent((), (2,))
        undivided = dict(cartan_expand(e, divided=False))
        assert undivided == {
            (MultiExponent((), (0,)), MultiExponent((), (2,))): Rat(1),
            (MultiExponent((), (1,)), MultiExponent((), (1,))): Rat(2),
            (MultiExponent((), (2,)), MultiExponent((), (0,))): Rat(1),
        }
        divided = dict(cartan_expand(e, divided=True))
        assert set(divided.values()) == {Rat(1)}

    def test_two_odd_bits_sign_pattern(self):
        e = MultiExponent((1, 1), ())
        table = dict(cartan_expand(e))
        z = ()
        def me(bits):
            return MultiExponent(bits, z)
        assert table[(me((1, 1)), me((0, 0)))] == Rat(1)
        assert table[(me((0, 0)), me((1, 1)))] == Rat(1)
        assert table[(me((0, 1)), me((1, 0)))] == Rat(1)
        assert table[(me((1, 0)), me((0, 1)))] == Rat(-1)

    @pytest.mark.parametrize("divided", [False, True])
    def test_tensor_action_matches_direct_application(
        self, divided, gl11_context, gl11_real, osp_context, osp_real
    ):
        from superflag.superpoly import enumerate_monomials

        for context, real in (
            (gl11_context, gl11_real),
            (osp_context, osp_real),
        ):
            basis = context.basis
            square = tensor(real, real)
            for e in enumerate_monomials(
                MonomialOrder("graded-lex"), 2, basis.n, basis.q
            ):
                via = act_via_expansion(real, real, basis, e, divided=divided)
                direct = pbw_act(square, basis, e, divided=divided)
                assert via == direct, str(e)

"""End-to-end command-line behavior, exercised in process via main()."""

import argparse
import json
import re
from importlib import resources
from pathlib import Path

import pytest

from superflag.cli import SETTINGS, build_parser, load_job_from_text, main
from superflag.essential import parse_essential_set

DATA = resources.files("superflag") / "data"
GOLDEN = Path(__file__).parent / "data"

LEVEL_ONE_REPORT = """\
# ambient n=4 q=2
# labels x1=d1-d2 x2=2d2 x3=d1+d2 x4=2d1 xi1=d2 xi2=d1
# order graded-lex
I=00 m=(0,0,0,0) k=1
I=01 m=(0,0,0,0) k=1
I=00 m=(0,0,0,1) k=1
I=00 m=(0,0,1,0) k=1
I=00 m=(1,0,0,0) k=1
"""

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


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def bundled_cfg():
    return str(DATA / "osp14_w1.cfg")


@pytest.fixture()
def sl3_cfg(tmp_path):
    path = tmp_path / "sl3.cfg"
    path.write_text(SL3_CFG, encoding="utf-8")
    return str(path)


class TestEssentialCommand:
    def test_text_output_round_trips(self, bundled_cfg, capsys):
        code, out, err = run(["essential", "--config", bundled_cfg], capsys)
        assert code == 0
        assert err == ""
        es = parse_essential_set(out)
        assert es.size == 5
        assert es.level == 1

    def test_json_output(self, bundled_cfg, capsys):
        code, out, _ = run(
            ["essential", "--config", bundled_cfg, "--json"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["size"] == 5
        assert payload["level"] == 1
        assert payload["ambient"] == {"n": 4, "q": 2}
        assert len(payload["monomials"]) == 5

    def test_level_two(self, bundled_cfg, capsys):
        code, out, _ = run(
            ["essential", "--config", bundled_cfg, "--level", "2", "--json"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["size"] == 14

    def test_favourable_annotations(self, bundled_cfg, capsys):
        code, out, _ = run(
            ["essential", "--config", bundled_cfg, "--favourable-k", "3"],
            capsys,
        )
        assert code == 0
        assert "# favourable up to level 3: yes" in out
        assert "# semigroup additivity at level 2: ok" in out
        assert "# semigroup additivity at level 3: ok" in out

    def test_json_carries_favourable_results(self, capsys):
        argv = [
            "essential", "--config",
            str(GOLDEN / "osp14_w1_weighted_priority.cfg"),
            "--level", "2", "--favourable-k", "3",
        ]
        code, text, _ = run(argv, capsys)
        assert code == 0
        code, out, _ = run(argv + ["--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["favourable"] == {"up_to_level": 3, "passed": False}
        assert payload["semigroup"] == {"2": True, "3": True}
        assert "# favourable up to level 3: no\n" in text
        assert "# semigroup additivity at level 3: ok\n" in text

    def test_out_file_is_deterministic(self, bundled_cfg, tmp_path, capsys):
        first = tmp_path / "a.txt"
        second = tmp_path / "b.txt"
        for target in (first, second):
            code, out, _ = run(
                ["essential", "--config", bundled_cfg, "--out", str(target)],
                capsys,
            )
            assert code == 0
            assert out == ""
        assert first.read_bytes() == second.read_bytes()


    def test_uncapped_level_one_report(self, bundled_cfg, capsys):
        code, out, err = run(["essential", "--config", bundled_cfg], capsys)
        assert (code, out, err) == (0, LEVEL_ONE_REPORT, "")

    def test_deep_level_builds_without_recursion(self, tmp_path, capsys):
        # the tower fills its levels in a loop: level 1200 of the 1-dim gl(1)
        # module is one more line, not a recursion-depth error
        cfg = tmp_path / "gl1.cfg"
        cfg.write_text(
            "[algebra]\nfamily = gl\nm = 1\nn = 0\nfunctional = 1\n\n"
            "[realization]\nblocks = natural:0\n",
            encoding="utf-8",
        )
        code, out, err = run(
            ["essential", "--config", str(cfg), "--level", "1200"], capsys
        )
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == "I=- m=() k=1200"

    @pytest.mark.parametrize(
        "flag, value",
        [("--level", "0"), ("--level", "-1"), ("--favourable-k", "0"),
         ("--favourable-k", "-1")],
    )
    def test_levels_below_one_exit_two(self, bundled_cfg, flag, value, capsys):
        code, out, err = run(
            ["essential", "--config", bundled_cfg, flag, value], capsys
        )
        assert (code, out) == (2, "")
        assert err == f"error: {flag} must be >= 1, got {value}\n"

    @pytest.mark.parametrize(
        "priority", ["9 9 9 9 9 9", "0 0 0 0 0 0", "0 1 2", "0 1 2 3 4 5 6"],
        ids=["out-of-range", "repeated", "short", "long"],
    )
    def test_priority_must_permute_the_variables(
        self, tmp_path, priority, capsys
    ):
        cfg = tmp_path / "priority.cfg"
        cfg.write_text(
            (DATA / "osp14_w1.cfg").read_text(encoding="utf-8").replace(
                "[order]\n", f"[order]\npriority = {priority}\n"
            ),
            encoding="utf-8",
        )
        code, out, err = run(["essential", "--config", str(cfg)], capsys)
        assert (code, out) == (2, "")
        assert err == (
            "error: [order] priority: order priority must be a permutation "
            f"of 0..5, got {priority}\n"
        )


class TestDegenerateCommand:
    def test_text_report(self, sl3_cfg, capsys):
        code, out, _ = run(["degenerate", "--config", sl3_cfg], capsys)
        assert code == 0
        assert "hilbert comparison: PASS" in out
        assert "weight vector: (0, 0, -1)" in out
        assert "family generators: 9 (+0 exchange)" in out
        assert "level-1 essential monomials: 8" in out

    def test_json_report(self, sl3_cfg, capsys):
        code, out, _ = run(
            [
                "degenerate",
                "--config",
                sl3_cfg,
                "--json",
                "--samples",
                "0 1 2 5",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["graded_generators"] == 9
        assert payload["weight_vector"] == [0, 0, -1]
        assert payload["hilbert"]["passed"] is True
        assert payload["hilbert"]["expected"] == {"1": 8, "2": 27}
        assert payload["family"]["generators"] == 9
        assert payload["family"]["exchange"] == 0
        assert set(payload["hilbert"]["table"]) == {
            "t=0",
            "t=1",
            "t=2",
            "t=5",
        }

    def test_samples_take_commas_like_config_lists(self, sl3_cfg, capsys):
        argv = ["degenerate", "--config", sl3_cfg, "--samples"]
        spaced = run(argv + ["0 1 5/3"], capsys)
        assert run(argv + ["0,1, 5/3"], capsys) == spaced
        assert spaced[0] == 0 and "fiber t=5/3:" in spaced[1]

    LIFT_FAILURE = (
        "residual component I=00 m=(0,0,0,1) at level 2 admits no "
        "essential-chain decomposition; the essential sets are not "
        "favourable enough to lift this relation"
    )

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--max-degree", "0"], "--max-degree must be >= 1, got 0"),
            (["--max-degree", "-3"], "--max-degree must be >= 1, got -3"),
            (["--degree-bound", "0"], "--degree-bound must be >= 1, got 0"),
            (["--samples", ""],
             "--samples is empty; give at least one fiber parameter"),
        ],
        ids=["max-degree-0", "max-degree-neg", "degree-bound-0", "no-samples"],
    )
    def test_vacuous_hilbert_check_exits_two(self, sl3_cfg, extra, message,
                                             capsys):
        code, out, err = run(["degenerate", "--config", sl3_cfg] + extra, capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    def test_lift_failure_is_a_negative_report(self, capsys):
        cfg = str(GOLDEN / "osp14_w1_weighted_priority.cfg")
        argv = ["degenerate", "--config", cfg, "--degree-bound", "2"]
        code, out, err = run(argv, capsys)
        assert (code, err) == (1, "")
        assert out.splitlines() == [
            "level-1 essential monomials: 5",
            "presentation ring: 4 even, 1 odd variables",
            "graded kernel generators (degree <= 2): 1",
            f"lift failed: {self.LIFT_FAILURE}",
        ]
        code, out, err = run(argv + ["--json"], capsys)
        assert (code, err) == (1, "")
        payload = json.loads(out)
        assert payload["lift_failure"] == self.LIFT_FAILURE
        assert payload["graded_generators"] == 1

    WEIGHT_FAILURE = (
        "no integer weight vector separates the correction components; "
        "the family construction is infeasible for this input"
    )

    def test_infeasible_weight_is_a_negative_report(
        self, sl3_cfg, monkeypatch, capsys
    ):
        # no bundled job reaches this outcome, so force it
        monkeypatch.setattr(
            "superflag.cli.find_weight_vector", lambda lifted: None
        )
        argv = ["degenerate", "--config", sl3_cfg]
        code, out, err = run(argv, capsys)
        assert (code, err) == (1, "")
        assert out.splitlines() == [
            "level-1 essential monomials: 8",
            "presentation ring: 8 even, 0 odd variables",
            "graded kernel generators (degree <= 2): 9",
            self.WEIGHT_FAILURE,
        ]
        code, out, err = run(argv + ["--json"], capsys)
        assert (code, err) == (1, "")
        assert json.loads(out) == {
            "essential_level_1": 8,
            "ring": {"even_variables": 8, "odd_variables": 0},
            "graded_generators": 9,
            "weight_failure": self.WEIGHT_FAILURE,
        }

    def test_ungradable_bottom_relation_is_a_negative_report(
        self, sl3_cfg, monkeypatch, capsys
    ):
        # no bundled job lifts a bottom relation with corrections, so add one
        import superflag.cli as cli
        from superflag.degeneration import BOTTOM, GradedRelation
        from superflag.superpoly import SuperPolynomial

        real_lift = cli.lift_relations

        def lift_with_bottom(graded, tower, ring):
            lifted = real_lift(graded, tower, ring)
            poly = SuperPolynomial.parse("x1*x2", 8, 0)
            bottom = GradedRelation(
                degree=2, component=BOTTOM, lead=poly,
                corrections=[(lifted[0].component, poly)],
            )
            return lifted + [bottom]

        monkeypatch.setattr(cli, "lift_relations", lift_with_bottom)
        code, out, err = run(["degenerate", "--config", sl3_cfg], capsys)
        assert (code, err) == (1, "")
        assert out.splitlines()[-1] == (
            "bottom-component relation x1*x2 has corrections but no lead "
            "exponent for a weight vector to grade them"
        )

    def test_odd_product_that_survives_is_an_ungradable_bottom_relation(
        self, capsys
    ):
        # two odd factors on one odd coordinate collapse to BOTTOM, but their
        # product in the tower is not zero
        cfg = str(GOLDEN / "gl21_natural_flip_dual.cfg")
        argv = ["degenerate", "--config", cfg, "--degree-bound", "2"]
        code, out, err = run(argv, capsys)
        assert (code, err) == (1, "")
        assert out.splitlines() == [
            "level-1 essential monomials: 8",
            "presentation ring: 4 even, 4 odd variables",
            "graded kernel generators (degree <= 2): 20",
            "bottom-component relation xi3*xi1 has corrections but no lead "
            "exponent for a weight vector to grade them",
        ]


class TestToricCommand:
    def test_good_fixture(self, capsys):
        code, out, _ = run(
            ["toric", "--exponents", str(DATA / "osp14_w1_points.txt")], capsys
        )
        assert code == 0
        assert "verdict: toric" in out
        assert "faithful: yes" in out

    def test_bad_fixture(self, capsys):
        code, out, _ = run(
            ["toric", "--exponents", str(DATA / "odd_removal_fail.txt")],
            capsys,
        )
        assert code == 1
        assert "verdict: hypotheses-not-met" in out

    def test_json_form(self, capsys):
        code, out, _ = run(
            [
                "toric",
                "--exponents",
                str(DATA / "osp14_w1_points.txt"),
                "--json",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "toric"
        assert payload["even_laurent"]["invariant_factors"] == [1, 1, 1, 1, 1]
        assert payload["faithful_witness"]["v"] == 6

    @pytest.mark.parametrize(
        "text, message",
        [
            ("I=00 k=1\n", "generator line lacks m=: I=00 k=1"),
            ("# ambient n=1\nI=0 m=(0) k=1\n",
             "ambient header needs n= and q=: # ambient n=1"),
            ("# ambient n=2 q=1\nI=0 m=(0) k=1\n",
             "point has 1 odd and 1 even coordinates, expected q=1 and n=2: "
             "I=0 m=(0) k=1"),
            ("I=0 m=(0) k=1 junk\n",
             "field 'junk' is not key=value: I=0 m=(0) k=1 junk"),
            ("# ambient n=1 q\nI=0 m=(0) k=1\n",
             "field 'q' is not key=value: # ambient n=1 q"),
            ("I=2 m=(0) k=1\n",
             "odd exponents must be 0 or 1: (2,): I=2 m=(0) k=1"),
            ("I=0 m=(a) k=1\n",
             "invalid literal for int() with base 10: 'a': I=0 m=(a) k=1"),
            ("I=0 m=(0) k=x\n",
             "invalid literal for int() with base 10: 'x': I=0 m=(0) k=x"),
            ("I=0 m=(-1) k=1\n",
             "even exponents must be >= 0: (-1,): I=0 m=(-1) k=1"),
        ],
        ids=["no-m", "no-q", "short-point", "junk-field", "bare-q",
             "odd-two", "even-not-int", "k-not-int", "even-negative"],
    )
    def test_malformed_exponent_file_exits_two(
        self, tmp_path, text, message, capsys
    ):
        path = tmp_path / "bad.txt"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(["toric", "--exponents", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "job, code, verdict",
        [
            ("sl3", 0, ["faithful: yes", "verdict: toric"]),
            ("bundled", 1, [
                "faithful: no",
                "verdict: hypotheses-not-met",
                "  reason: even generators do not span the full lattice "
                "(invariant factors [1, 1, 1, 1], need 5 ones)",
                "  reason: odd coordinates [1] are not reachable",
            ]),
        ],
        ids=["sl3-adjoint", "bundled-osp"],
    )
    def test_essential_output_is_toric_input(
        self, job, code, verdict, sl3_cfg, bundled_cfg, tmp_path, capsys
    ):
        # the essential set file goes into the certificate unchanged
        cfg = sl3_cfg if job == "sl3" else bundled_cfg
        essential = tmp_path / "essential.txt"
        argv = ["essential", "--config", cfg, "--level", "1", "--out", str(essential)]
        assert run(argv, capsys) == (0, "", "")
        got, out, err = run(["toric", "--exponents", str(essential)], capsys)
        assert (got, err) == (code, "")
        assert out.splitlines()[-len(verdict):] == verdict


class TestPolytopeCommand:
    def test_point_listing(self, capsys):
        code, out, _ = run(
            ["polytope", "--system", str(DATA / "osp14_w1_polytope.txt")],
            capsys,
        )
        assert code == 0
        assert "# points 10" in out

    def test_dilated_json(self, capsys):
        code, out, _ = run(
            [
                "polytope",
                "--system",
                str(DATA / "osp14_w1_polytope.txt"),
                "--dilate",
                "2",
                "--json",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 42
        assert len(payload["points"]) == 42


class TestVerifyExample:
    def test_stage_lines_and_exit_code(self, capsys):
        code, out, _ = run(["verify-example"], capsys)
        assert code == 1
        for name in (
            "polytope-count",
            "essential-computation",
            "polytope-match",
            "order-search",
            "semigroup",
            "favourable",
            "graded-kernel",
            "family-fibers",
            "toric-certificate",
        ):
            assert f" {name}: " in out
        assert "PASS polytope-count: 10 lattice points (expected 10)" in out
        assert (
            "FAIL polytope-match: 5 shared, 5 only-in-polytope, "
            "0 only-in-module" in out
        )
        assert "FAILED stages: polytope-match, order-search" in out
        assert (
            "FAIL order-search: 0 basis-order/monomial-order combinations "
            "realize the polytope points (module dimension 5, 10 region "
            "points)" in out.splitlines()
        )

    def test_infeasible_weight_fails_the_family_stage(self, monkeypatch, capsys):
        monkeypatch.setattr(
            "superflag.cli.find_weight_vector", lambda lifted: None
        )
        code, out, _ = run(["verify-example"], capsys)
        assert code == 1
        failure = TestDegenerateCommand.WEIGHT_FAILURE
        assert f"FAIL family-fibers: {failure}" in out.splitlines()
        assert "PASS graded-kernel: 0 kernel generators" in out

    def test_byte_determinism(self, tmp_path, capsys):
        paths = [tmp_path / "r1.txt", tmp_path / "r2.txt"]
        for p in paths:
            code, _, _ = run(["verify-example", "--out", str(p)], capsys)
            assert code == 1
        assert paths[0].read_bytes() == paths[1].read_bytes()


WEIGHTED_GOLDENS = [
    ("osp14_w1_weighted.cfg", ["essential", "--level", "3", "--json"],
     "osp14_w1_weighted_l3.json"),
    ("osp14_w1_weighted.cfg",
     ["essential", "--level", "2", "--favourable-k", "3"],
     "osp14_w1_weighted_l2_f3.txt"),
    ("osp14_w1_weighted_priority.cfg",
     ["essential", "--level", "3", "--json"],
     "osp14_w1_weighted_priority_l3.json"),
    ("osp14_w1_weighted_priority.cfg",
     ["essential", "--level", "2", "--favourable-k", "3"],
     "osp14_w1_weighted_priority_l2_f3.txt"),
    ("sl3_adjoint_weighted.cfg", ["degenerate", "--degree-bound", "3"],
     "sl3_adjoint_weighted_degenerate_b3.txt"),
]


class TestGoldenReports:
    """Reports recorded before the code they exercise was refactored (the
    exact core; the monomial order and the weighted scan; the submodule
    tower); every byte must stay the same."""

    @pytest.mark.parametrize(
        "cfg, argv, golden",
        WEIGHTED_GOLDENS,
        ids=[golden for _, _, golden in WEIGHTED_GOLDENS],
    )
    def test_weighted_order_reports(self, cfg, argv, golden, capsys):
        code, out, err = run(argv + ["--config", str(GOLDEN / cfg)], capsys)
        assert (code, err) == (0, "")
        assert out == (GOLDEN / golden).read_text(encoding="utf-8")

    def test_orthosymplectic_flip_square_degeneration(self, capsys):
        code, out, err = run(
            [
                "degenerate",
                "--config",
                str(GOLDEN / "osp14_flip_flip.cfg"),
                "--degree-bound",
                "2",
                "--json",
            ],
            capsys,
        )
        assert (code, err) == (0, "")
        golden = GOLDEN / "osp14_flip_flip_degenerate_b2.json"
        assert out == golden.read_text(encoding="utf-8")
        assert json.loads(out)["family"]["generators"] == 46

    @pytest.mark.parametrize(
        "cfg, argv, golden",
        [
            (str(DATA / "osp14_w1.cfg"),
             ["essential", "--level", "6", "--favourable-k", "6", "--json"],
             "osp14_w1_l6_f6.json"),
            (str(DATA / "osp14_w1.cfg"),
             ["essential", "--level", "6", "--favourable-k", "6"],
             "osp14_w1_l6_f6.txt"),
            (str(GOLDEN / "osp14_flip_flip.cfg"),
             ["degenerate", "--degree-bound", "3"],
             "osp14_flip_flip_degenerate_b3.txt"),
        ],
        ids=["osp-l6-json", "osp-l6-text", "flip-square-b3"],
    )
    def test_submodule_tower_reports(self, cfg, argv, golden, capsys):
        code, out, err = run(argv + ["--config", cfg], capsys)
        assert (code, err) == (0, "")
        assert out == (GOLDEN / golden).read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "argv, want_code, golden",
        [
            (["verify-example"], 1, "verify_example.txt"),
            (["degenerate", "--degree-bound", "3"], 0,
             "sl3_adjoint_degenerate_b3.txt"),
            (["degenerate", "--degree-bound", "4"], 0,
             "sl3_adjoint_degenerate_b4.txt"),
            (["degenerate", "--degree-bound", "3", "--json",
              "--samples", "0 1 2 5"], 0,
             "sl3_adjoint_degenerate_b3_samples.json"),
            (["degenerate", "--degree-bound", "3", "--max-degree", "5",
              "--samples", "0 1 2 5/3"], 0,
             "sl3_adjoint_degenerate_b3_m5_samples.txt"),
            (["polytope", "--dilate", "3"], 0, "osp14_w1_polytope_d3.txt"),
            (["polytope", "--dilate", "3", "--json"], 0,
             "osp14_w1_polytope_d3.json"),
            # negated functional: osp negative root vectors carry scale -1
            (["degenerate", "--degree-bound", "2",
              "--config", str(GOLDEN / "osp14_neg_flip_flip.cfg")], 0,
             "osp14_neg_flip_flip_degenerate_b2.txt"),
        ],
        ids=["verify-example", "sl3-b3-text", "sl3-b4-text", "sl3-b3-json",
             "sl3-b3-m5-samples", "polytope-d3-text", "polytope-d3-json",
             "osp-neg-flip-square-b2"],
    )
    def test_whole_reports(self, argv, want_code, golden, sl3_cfg, capsys):
        inputs = {
            "degenerate": ["--config", sl3_cfg],
            "polytope": ["--system", str(DATA / "osp14_w1_polytope.txt")],
        }
        if "--config" not in argv:
            argv = argv + inputs.get(argv[0], [])
        code, out, err = run(argv, capsys)
        assert (code, err) == (want_code, "")
        assert out == (GOLDEN / golden).read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "union, form",
        [("1_2", ["--json"]), ("1_3", ["--json"]), ("1_2", []), ("1_3", [])],
        ids=["1_2", "1_3", "1_2-text", "1_3-text"],
    )
    def test_region_union_toric_certificate(self, union, form, capsys):
        code, out, err = run(
            ["toric", "--exponents", str(GOLDEN / f"region_union_{union}.txt")]
            + form,
            capsys,
        )
        assert (code, err) == (0, "")
        suffix = "json" if form else "txt"
        golden = GOLDEN / f"region_union_{union}_toric.{suffix}"
        assert out == golden.read_text(encoding="utf-8")


class TestErrorsAndConfig:
    def test_unknown_family_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(
            SL3_CFG.replace("family = sl", "family = e8"), encoding="utf-8"
        )
        code, out, err = run(["degenerate", "--config", str(bad)], capsys)
        assert code == 2
        assert err.startswith("error:")

    def test_missing_config_exits_two(self, capsys):
        code, _, err = run(
            ["essential", "--config", "/nonexistent.cfg"], capsys
        )
        assert code == 2
        assert "error:" in err

    def test_config_without_realization_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(SL3_CFG.split("[realization]")[0], encoding="utf-8")
        code, out, err = run(["essential", "--config", str(bad)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "[realization]" in err

    def test_zero_v_degree_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "zero.txt"
        bad.write_text("# ambient n=1 q=0\nI=- m=(1) k=0\n", encoding="utf-8")
        code, out, err = run(["toric", "--exponents", str(bad)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "k=0" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["toric", "--exponents", "DIR"],
            ["polytope", "--system", "DIR"],
            ["polytope", "--system", str(DATA / "osp14_w1_polytope.txt"),
             "--out", "DIR"],
        ],
        ids=["toric-exponents", "polytope-system", "polytope-out"],
    )
    def test_unreadable_path_exits_two(self, tmp_path, argv, capsys):
        argv = [str(tmp_path) if arg == "DIR" else arg for arg in argv]
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and str(tmp_path) in err

    def test_config_directory_reports_its_os_error(self, tmp_path, capsys):
        code, out, err = run(["essential", "--config", str(tmp_path)], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"

    def test_missing_config_reports_not_found(self, tmp_path, capsys):
        path = tmp_path / "absent.cfg"
        code, out, err = run(["essential", "--config", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: config file not found: {path}\n"

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("family = sl\n" + SL3_CFG, "no section headers"),
            (SL3_CFG.replace("m = 3\n", "m = 3\nm = 4\n"), "already exists"),
        ],
        ids=["missing-header", "duplicate-option"],
    )
    def test_config_syntax_error_exits_two(self, tmp_path, text, reason, capsys):
        with pytest.raises(ValueError, match=reason):
            load_job_from_text(text)
        bad = tmp_path / "bad.cfg"
        bad.write_text(text, encoding="utf-8")
        code, out, err = run(["essential", "--config", str(bad)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: malformed config:") and reason in err

    @pytest.mark.parametrize("index", [-1, 99])
    def test_block_index_out_of_range_exits_two(self, tmp_path, index, capsys):
        # -1 would wrap to the lowest-weight vector, 99 past the end
        bad = tmp_path / "bad.cfg"
        bad.write_text(
            SL3_CFG.replace("natural:0,", f"natural:{index},"), encoding="utf-8"
        )
        code, out, err = run(["degenerate", "--config", str(bad)], capsys)
        assert (code, out) == (2, "")
        assert err == (
            f"error: [realization] blocks: block natural:{index} has no basis "
            f"vector {index}; expected an index in 0..2\n"
        )

    @pytest.mark.parametrize(
        "command, path_text, message",
        [
            (
                ["degenerate", "--config", "CFG", "--samples", "0 1/0"],
                SL3_CFG,
                "--samples: zero denominator in '1/0'",
            ),
            (
                ["degenerate", "--config", "CFG"],
                SL3_CFG.replace("functional = 3 2", "functional = 3 1/0"),
                "[algebra] functional: zero denominator in '1/0'",
            ),
            (
                ["polytope", "--system", "CFG"],
                "vars a b\n1 1 <= 1/0\n",
                "zero denominator in '1/0': 1 1 <= 1/0",
            ),
        ],
        ids=["samples", "functional", "polytope-row"],
    )
    def test_zero_denominator_exits_two(
        self, tmp_path, command, path_text, message, capsys
    ):
        path = tmp_path / "input.txt"
        path.write_text(path_text, encoding="utf-8")
        argv = [str(path) if arg == "CFG" else arg for arg in command]
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("m = 3", "m = abc", "[algebra] m: invalid literal for int()"),
            ("functional = 3 2", "functional = 2 y",
             "[algebra] functional: Invalid literal for Fraction: 'y'"),
            ("natural:0,", "natural:x,", "[realization] blocks: invalid literal"),
            ("kind = graded-lex", "kind = weighted\nweights = 1/2 1 1",
             "[order] weights: invalid literal for int()"),
            ("kind = graded-lex", "priority = 0 one",
             "[order] priority: invalid literal for int()"),
            # a section or key outside cli.SETTINGS
            ("kind = graded-lex", "kind = graded-lex\npriorty = 2 1 0",
             "[order] priorty: unknown setting\n"),
            ("[order]", "[bounds]\ndegree_cap = 6\n\n[order]",
             "[bounds] degree_cap: unknown setting\n"),
            ("[order]", "[extra]\n\n[order]", "[extra]: unknown section\n"),
            # values that parse but that the algebra or the order rejects
            ("functional = 3 2", "functional = 3 2\nbasis_perm = 0 0 1",
             "[algebra] basis_perm: permutation must reorder all positions\n"),
            ("functional = 3 2", "functional = 3 2 1",
             "[algebra] functional: functional length 3 must equal the "
             "Cartan rank 2\n"),
            ("kind = graded-lex", "kind = lexx",
             "[order] kind: unknown order kind: lexx\n"),
            ("kind = graded-lex", "weights = 1 2 1",
             "[order] kind: graded-lex order takes no weight vector\n"),
            ("family = sl", "family = sp",
             "[algebra] family: family 'sp' has no bundled matrix realization"),
            ("m = 3", "m = -1", "[algebra] m: need m, n >= 0 with m + n > 0\n"),
            ("natural:0,", "natural:1,",
             "[realization] blocks: candidate vector is not annihilated by "
             "the raising operator of root e1-e2\n"),
            ("natural:0,", "flip-natural:0,",
             "[realization] blocks: highest-weight vector must be even\n"),
            ("blocks = natural:0, dual-natural:2", "blocks =",
             "[realization] blocks: must name at least one block\n"),
            # orders that parse but do not fit the job's 3 variables
            ("kind = graded-lex", "kind = weighted\nweights = 1 2",
             "[order] weights: weighted order needs one weight per variable\n"),
            ("kind = graded-lex", "kind = weighted\nweights = 0 1 3",
             "[order] weights: weighted scans require positive integer "
             "weights; otherwise ascending-value truncation is unsound\n"),
            ("kind = graded-lex", "priority = 0 1",
             "[order] priority: order priority must be a permutation of "
             "0..2, got 0 1\n"),
        ],
        ids=["m", "functional", "blocks", "weights", "priority",
             "unknown-key", "unknown-bounds-key", "unknown-section",
             "basis-perm-misfit", "functional-misfit", "order-kind",
             "weights-without-weighted-kind",
             "family-unsupported", "m-negative", "hw-not-annihilated",
             "hw-odd", "blocks-empty", "weights-misfit", "weights-not-positive",
             "priority-misfit"],
    )
    def test_malformed_setting_is_named(self, tmp_path, old, new, message, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(SL3_CFG.replace(old, new), encoding="utf-8")
        code, out, err = run(["essential", "--config", str(bad)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}")

    def test_a_bare_block_name_means_index_zero(self, tmp_path, sl3_cfg, capsys):
        bare = tmp_path / "bare.cfg"
        bare.write_text(
            SL3_CFG.replace("natural:0,", "natural,"), encoding="utf-8"
        )
        argv = ["degenerate", "--degree-bound", "3", "--config"]
        want = run(argv + [sl3_cfg], capsys)
        assert want[0] == 0
        assert run(argv + [str(bare)], capsys) == want

    def test_algebra_warning_is_one_line_before_the_error(self, tmp_path, capsys):
        # sl(1|1) warns that its center is not quotiented out, then has no
        # root data
        bad = tmp_path / "sl11.cfg"
        bad.write_text(
            SL3_CFG.replace("m = 3\nn = 0\nfunctional = 3 2",
                            "m = 1\nn = 1\nfunctional = 1"),
            encoding="utf-8",
        )
        code, out, err = run(["essential", "--config", str(bad)], capsys)
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            "warning: [algebra] family, m, n: sl(1|1) contains the identity in "
            "its center; the quotient is not taken and downstream weights may "
            "be degenerate",
            "error: [algebra] family, m, n: the zero-weight space is larger "
            "than the diagonal subalgebra (3 > 1); it is not a Cartan "
            "subalgebra in this realization",
        ]

    def test_internal_error_exits_three(self, monkeypatch, capsys):
        import superflag.cli as cli

        def broken(args):
            return [][0]

        monkeypatch.setattr(cli, "cmd_polytope", broken)
        code, out, err = run(
            ["polytope", "--system", str(DATA / "osp14_w1_polytope.txt")], capsys
        )
        assert (code, out) == (3, "")
        assert err.startswith("internal error: IndexError: list index out of range\n")
        assert "Traceback" in err

    def test_recursion_error_exits_three(self, monkeypatch, sl3_cfg, capsys):
        # an interpreter limit is a program fault, not an input error
        def deep(ring, bound):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr("superflag.cli.gr_ideal", deep)
        code, out, err = run(["degenerate", "--config", sl3_cfg], capsys)
        assert (code, out) == (3, "")
        assert err.startswith(
            "internal error: RecursionError: maximum recursion depth exceeded\n"
        )

    def test_wrong_chain_exits_three(self, monkeypatch, sl3_cfg, capsys):
        # a chain whose ring monomial misses the residual component breaks
        # the chain invariant; it is not a failed lift
        def wrong_chain(exp, level, es_by_level, memo):
            return [es_by_level[1].monomials[0]] * level

        monkeypatch.setattr(
            "superflag.degeneration.decompose_to_chain", wrong_chain
        )
        code, out, err = run(["degenerate", "--config", sl3_cfg], capsys)
        assert (code, out) == (3, "")
        assert err.startswith("internal error: ProgramFault: chain decomposition ")
        assert "hit the wrong component\n" in err

    def test_sign_law_bug_exits_three(self, monkeypatch, sl3_cfg, capsys):
        # a wrong collapse sign doubles the residual at its component instead
        # of clearing it, so the lift's smallest component fails to climb
        from superflag.degeneration import SRing

        real = SRing.gamma_and_sign

        def skewed(self, sexp):
            # the memo builds each sign from its prefix's through this method,
            # and x8 is peeled first: negating x8^2 negates every higher power
            comp, sign = real(self, sexp)
            return comp, (-sign if sexp.even[-1] == 2 else sign)

        monkeypatch.setattr(SRing, "gamma_and_sign", skewed)
        code, out, err = run(
            ["degenerate", "--config", sl3_cfg, "--degree-bound", "3"], capsys
        )
        assert (code, out) == (3, "")
        first = err.splitlines()[0]
        assert first.startswith("internal error: ProgramFault: ")
        assert "I=- m=(2,2,0)" in first

    def test_family_fault_exits_three(self, monkeypatch, sl3_cfg, capsys):
        # a weight vector that fails to separate the corrections is a bug:
        # find_weight_vector only returns separating ones
        monkeypatch.setattr(
            "superflag.cli.find_weight_vector", lambda lifted: (0,) * 8
        )
        code, out, err = run(["degenerate", "--config", sl3_cfg], capsys)
        assert (code, out) == (3, "")
        assert err.startswith(
            "internal error: ProgramFault: family_ideal: weight vector gives "
            "non-positive power 0 for correction component "
        )
        assert "Traceback" in err

    def test_module_outside_its_span_exits_three(
        self, monkeypatch, bundled_cfg, capsys
    ):
        import superflag.modules as modules

        class Blind(modules.SpanAccumulator):
            """A scan span whose scanned vectors express nothing."""

            def express(self, v):
                return None

        monkeypatch.setattr(modules, "SpanAccumulator", Blind)
        code, out, err = run(
            ["essential", "--config", bundled_cfg, "--level", "2"], capsys
        )
        assert (code, out) == (3, "")
        first = err.splitlines()[0]
        assert first.startswith("internal error: ProgramFault: generator ")
        assert first.endswith("outside the recorded cyclic span")
        assert "Traceback" in err

    def test_semigroup_level_mismatch_exits_three(
        self, monkeypatch, bundled_cfg, capsys
    ):
        # a sum landing at the wrong level is a bookkeeping bug, not an
        # input error
        import superflag.essential as essential

        real = essential.semigroup_add

        def off_by_one(a, b):
            s = real(a, b)
            return s if s is essential.BOTTOM else (s[0], s[1] + 1)

        monkeypatch.setattr(essential, "semigroup_add", off_by_one)
        code, out, err = run(
            ["essential", "--config", bundled_cfg, "--level", "2",
             "--favourable-k", "2"],
            capsys,
        )
        assert (code, out) == (3, "")
        assert err.startswith(
            "internal error: ProgramFault: level bookkeeping mismatch in "
            "semigroup check\n"
        )

    def test_readme_config_example_lists_every_setting(self):
        # the INI example under "Job configuration", commented keys included
        readme = (Path(__file__).parent.parent / "README.md").read_text(
            encoding="utf-8"
        )
        example = readme.split("### Job configuration (INI)")[1]
        example = example.split("```ini\n")[1].split("```")[0]
        listed, section = set(), None
        for line in example.splitlines():
            header = re.fullmatch(r"\[(\w+)\]", line)
            if header:
                section = header.group(1)
            key = re.match(r";?\s*(\w+)\s*=", line)
            if key:
                listed.add((section, key.group(1)))
        assert listed == {
            (section, key) for section, keys in SETTINGS.items() for key in keys
        }

    def test_readme_usage_lists_every_option(self):
        # each `superflag <cmd>` usage block, plus the prose's `--out` (every
        # subcommand) and `--json` (every one but verify-example)
        readme = (Path(__file__).parent.parent / "README.md").read_text(
            encoding="utf-8"
        )
        prose = " ".join(readme.split())
        assert "Every subcommand accepts `--out FILE`" in prose
        assert "every one but `verify-example` accepts `--json`" in prose
        usage = {
            block.split()[1]: set(re.findall(r"--[a-z][a-z-]*", block))
            for block in re.findall(r"```sh\n(superflag .*?)```", readme, re.S)
        }
        subparsers = next(
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        documented, accepted = {}, {}
        for cmd, parser in subparsers.choices.items():
            extra = {"--out"} if cmd == "verify-example" else {"--out", "--json"}
            documented[cmd] = usage.get(cmd, set()) | extra
            accepted[cmd] = {
                flag for action in parser._actions for flag in action.option_strings
            } - {"-h", "--help"}
        assert documented == accepted

    def test_config_parsing(self):
        job = load_job_from_text(SL3_CFG)
        assert job.family == "sl"
        assert (job.m, job.n) == (3, 0)
        assert job.blocks == [("natural", 0), ("dual-natural", 2)]
        assert job.order.kind == "graded-lex"
        assert job.permutation is None

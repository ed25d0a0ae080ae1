from fractions import Fraction

import pytest

from interdict.graph import Arc, Instance, max_flow
from interdict.instances import (
    GeneratorSpec,
    ParseError,
    SpecInvalid,
    fig1,
    fig2a,
    fig2b,
    generate,
    parse,
    random_instance,
    serialize,
    thm6,
)


class TestGenerators:
    def test_fig2a_layout(self):
        inst = fig2a(6, 2)
        assert inst.node_count == 3
        assert inst.arc_count == 9
        assert all(inst.arc(a).capacity == 1 for a in range(1, 7))
        assert all(inst.arc(a).capacity is None for a in range(7, 10))

    def test_fig1_layout(self):
        inst = fig1(12, 2)
        assert inst.arc_count == 16
        assert inst.arc(13).capacity == 18  # the 3K/2 arc follows the units
        assert all(inst.arc(a).capacity is None for a in range(14, 17))

    def test_fig2b_figure_layout(self):
        inst = fig2b(12, 2)
        assert inst.node_count == 4
        # units, then s->w, w->v, w->t, then the unbounded v->t arcs
        assert inst.arc(13) == type(inst.arc(13))(1, 3, Fraction(24))
        assert inst.arc(14).tail == 3 and inst.arc(14).head == 2
        assert inst.arc(15).capacity == 12
        assert inst.arc(16).capacity is None and inst.arc(17).capacity is None

    def test_fig2b_prose_layout(self):
        inst = fig2b(12, 2, prose=True)
        assert inst.arc(13).tail == 1 and inst.arc(13).head == 2
        assert inst.arc(15).capacity is None

    def test_thm6_layout(self):
        inst = thm6(k=10, gamma=5)
        assert inst.arc_count == 5 + 2 + 6
        assert inst.arc(6).capacity == 10

    def test_k_lower_bound_enforced(self):
        with pytest.raises(SpecInvalid):
            fig1(2, 2)
        with pytest.raises(SpecInvalid):
            GeneratorSpec(family="fig2a", gamma=3, k=3)

    def test_random_is_deterministic_and_connected(self):
        a = random_instance(nodes=6, arcs=10, cap_max=9, gamma=2, seed=7)
        b = random_instance(nodes=6, arcs=10, cap_max=9, gamma=2, seed=7)
        assert a == b
        assert a.arc_count == 10
        value, _ = max_flow(a)
        assert value > 0

    def test_random_seed_changes_instance(self):
        a = random_instance(nodes=6, arcs=10, cap_max=9, gamma=2, seed=7)
        b = random_instance(nodes=6, arcs=10, cap_max=9, gamma=2, seed=8)
        assert a != b

    @pytest.mark.parametrize("nodes", [2, 3, 4, 7])
    def test_random_small_node_counts(self, nodes):
        inst = random_instance(nodes=nodes, arcs=6, cap_max=4, gamma=1, seed=11)
        assert max_flow(inst)[0] > 0

    def test_generate_dispatch(self):
        spec = GeneratorSpec(family="fig2a", gamma=2, k=6)
        assert generate(spec) == fig2a(6, 2)

    @pytest.mark.parametrize(
        "spec, expected",
        [
            (GeneratorSpec(family="fig1", gamma=2, k=12), fig1(12, 2)),
            (GeneratorSpec(family="fig2b", gamma=2, k=12), fig2b(12, 2)),
            (
                GeneratorSpec(family="fig2b", gamma=2, k=12, fig2b_prose=True),
                fig2b(12, 2, prose=True),
            ),
            (GeneratorSpec(family="thm6", gamma=4, k=9), thm6(9, 4)),
        ],
        ids=["fig1", "fig2b", "fig2b-prose", "thm6"],
    )
    def test_generate_dispatches_every_family(self, spec, expected):
        assert generate(spec) == expected


def one_arc(capacity):
    return Instance(2, 1, 2, (Arc(1, 2, capacity),), 1)


def random_spec(**changes):
    fields = dict(family="random", gamma=1, seed=0, nodes=4, arcs=3, cap_max=2)
    return GeneratorSpec(**{**fields, **changes})


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: GeneratorSpec(family="fig3", gamma=1, k=3), SpecInvalid),
        (lambda: GeneratorSpec(family="fig1", gamma=0, k=3), SpecInvalid),
        (lambda: GeneratorSpec(family="thm6", gamma=1, k=0), SpecInvalid),
        (lambda: random_spec(nodes=1), SpecInvalid),
        (lambda: random_spec(arcs=0), SpecInvalid),
        (lambda: random_spec(cap_max=0), SpecInvalid),
        (lambda: random_spec(seed=None), SpecInvalid),
        (lambda: random_spec(gamma=4), SpecInvalid),
        (lambda: fig2a(2, 2), SpecInvalid),
        (lambda: fig2b(2, 2), SpecInvalid),
        (lambda: thm6(0, 1), SpecInvalid),
        (lambda: random_instance(6, 2, 5, 1, 0), SpecInvalid),  # 3 backbone arcs
        (lambda: serialize(one_arc(Fraction(1, 3))), ValueError),
    ],
    ids=[
        "unknown-family", "gamma-zero", "thm6-k-zero", "random-nodes", "random-arcs",
        "random-cap-max", "random-seed", "random-gamma-over-arcs", "fig2a-k",
        "fig2b-k", "thm6-k", "random-backbone", "capacity-without-decimal",
    ],
)
def test_invalid_generator_input_raises(build, error):
    with pytest.raises(error):
        build()


class TestVariantComparisons:
    """Recorded comparisons for the two families whose written and drawn
    layouts disagree; values are reported, only guaranteed facts are
    asserted."""

    def test_fig2b_prose_variant_is_degenerate(self, capsys):
        from interdict.solvers import solve_ni, solve_rni, solve_rni_path

        inst = fig2b(12, 2, prose=True)
        ni = float(solve_ni(inst).value)
        rni = solve_rni(inst).value
        path = solve_rni_path(inst).value
        print(
            f"fig2b prose variant (K=12, gamma=2): Z_NI={ni} Z_RNI={rni:.4f} "
            f"Z_RNI^Path={path:.4f}; stated closed forms 11 and 6 "
            f"(matched by the drawn layout, not this one)"
        )
        # the drawn layout is the default because the prose one leaves the
        # relief node without inflow: removing the gamma unbounded arcs
        # zeroes everything
        assert ni == pytest.approx(0.0)
        assert rni == pytest.approx(0.0, abs=1e-9)

    def test_thm6_construction_values_recorded(self, capsys):
        from interdict.lomodel import path_model_factor, solve_lo
        from interdict.solvers import solve_rni_path

        k, gamma = 10, 2
        inst = thm6(k=k, gamma=gamma)
        z_lo = float(solve_lo(inst).value)
        z_path = solve_rni_path(inst).value
        stated_lo = k / ((gamma + 1) // 2 + 1)
        stated_path = (gamma // 2 + 1) * k / (gamma + 1)
        print(
            f"thm6 construction (K={k}, gamma={gamma}): Z_LO={z_lo:.4f} "
            f"(stated {stated_lo:.4f}), Z_RNI^Path={z_path:.4f} "
            f"(stated {stated_path:.4f}); mismatches recorded, not asserted"
        )
        # only the guaranteed factor is asserted
        assert z_path <= path_model_factor(gamma) * z_lo + 1e-6


class TestSerialize:
    def test_fig2a_line_count(self):
        text = serialize(fig2a(2, 1))
        assert text.splitlines() == [
            "p interdict 3 4 1",
            "n 1 s",
            "n 3 t",
            "a 1 2 1",
            "a 1 2 1",
            "a 2 3 inf",
            "a 2 3 inf",
        ]

    def test_fractional_capacity_shortest_decimal(self):
        text = serialize(fig1(13, 2))  # 3K/2 = 19.5
        assert "a 1 2 19.5" in text

    def test_factor_five_capacity(self):
        inst = one_arc(Fraction(1, 5))
        assert serialize(inst).splitlines()[-1] == "a 1 2 0.2"
        assert parse(serialize(inst)) == inst

    @pytest.mark.parametrize(
        "inst",
        [
            fig2a(6, 2),
            fig1(12, 2),
            fig1(13, 2),
            fig2b(12, 2),
            fig2b(12, 2, prose=True),
            thm6(k=9, gamma=4),
            random_instance(nodes=7, arcs=12, cap_max=9, gamma=3, seed=21),
        ],
    )
    def test_round_trip_identity(self, inst):
        assert parse(serialize(inst)) == inst


class TestParse:
    def test_comments_and_blank_lines_ignored(self):
        text = "c hello\n\n" + serialize(fig2a(2, 1)) + "c bye\n"
        assert parse(text) == fig2a(2, 1)

    def test_arc_enters_source(self):
        text = (
            "p interdict 3 2 1\nn 1 s\nn 3 t\na 3 1 2.0\na 1 3 1\n"
        )
        with pytest.raises(ParseError, match="line 4: arc enters source"):
            parse(text)

    def test_arc_leaves_sink(self):
        text = "p interdict 3 2 1\nn 1 s\nn 3 t\na 3 2 1\na 1 3 1\n"
        with pytest.raises(ParseError, match="arc leaves sink"):
            parse(text)

    def test_gamma_out_of_range(self):
        text = "p interdict 2 1 0\nn 1 s\nn 2 t\na 1 2 1\n"
        with pytest.raises(ParseError, match="gamma out of range"):
            parse(text)

    def test_arc_count_mismatch(self):
        text = "p interdict 2 2 1\nn 1 s\nn 2 t\na 1 2 1\n"
        with pytest.raises(ParseError, match="expected 2 arcs"):
            parse(text)

    def test_bad_capacity(self):
        text = "p interdict 2 1 1\nn 1 s\nn 2 t\na 1 2 fast\n"
        with pytest.raises(ParseError, match="bad capacity"):
            parse(text)

    @pytest.mark.parametrize(
        "token", ["Infinity", "Inf", "-inf", "-Infinity", "NaN", "sNaN"]
    )
    def test_non_finite_capacity(self, token):
        text = f"p interdict 2 1 1\nn 1 s\nn 2 t\na 1 2 {token}\n"
        with pytest.raises(ParseError, match="bad capacity") as err:
            parse(text)
        assert err.value.line == 4

    def test_negative_capacity(self):
        text = "p interdict 2 1 1\nn 1 s\nn 2 t\na 1 2 -1\n"
        with pytest.raises(ParseError, match="nonnegative"):
            parse(text)

    def test_missing_header(self):
        with pytest.raises(ParseError, match="problem line"):
            parse("n 1 s\n")

    def test_duplicate_source(self):
        text = "p interdict 3 1 1\nn 1 s\nn 2 s\nn 3 t\na 1 3 1\n"
        with pytest.raises(ParseError, match="duplicate source"):
            parse(text)

    @pytest.mark.parametrize(
        "text, line",
        [
            ("p interdict 2 1 1\np interdict 2 1 1\n", 2),  # duplicate problem line
            ("p interdict 2 1\n", 1),  # malformed problem line
            ("p interdict 2 x 1\n", 1),
            ("p interdict 2 1 1\nn 1 q\n", 2),  # malformed node line
            ("p interdict 2 1 1\nn x s\n", 2),
            ("p interdict 2 1 1\nn 3 s\n", 2),  # node id out of range
            ("p interdict 2 1 1\nn 1 s\nn 2 t\nn 2 t\n", 4),  # duplicate sink
            ("p interdict 2 1 1\nn 1 s\na 1 2 1\n", 3),  # arc before the sink
            ("p interdict 2 1 1\nn 1 s\nn 2 t\na 1 2\n", 4),  # malformed arc line
            ("p interdict 2 1 1\nn 1 s\nn 2 t\na 1 x 1\n", 4),
            ("p interdict 2 1 1\nn 1 s\nn 2 t\na 1 3 1\n", 4),  # endpoint range
            ("p interdict 2 1 1\nq 1\n", 2),  # unknown line tag
            ("", 1),  # missing problem line
            ("p interdict 2 1 1\nn 2 t\n", 2),  # missing source
            ("p interdict 2 1 1\nn 1 s\n", 2),  # missing sink
            ("p interdict 2 1 1\nn 1 s\nn 1 t\n", 3),  # source equals sink
            ("p interdict 2 2 1\nn 1 s\nn 2 t\na 1 2 inf\na 1 2 inf\n", 5),  # unbounded
        ],
    )
    def test_malformed_input_names_its_line(self, text, line):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.line == line

    def test_decimal_capacities_exact(self):
        text = "p interdict 2 1 1\nn 1 s\nn 2 t\na 1 2 0.3\n"
        inst = parse(text)
        assert inst.arc(1).capacity == Fraction(3, 10)

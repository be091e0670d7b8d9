"""Channel construction, serialization, and canonical families."""

import io
import math

import numpy as np
import pytest

from chancap import (
    AbsoluteContinuityViolation,
    Channel,
    DimensionMismatch,
    Distribution,
    DroppedOutputColumnWarning,
    InvalidDistribution,
    NegativeEntry,
    ParameterOutOfRange,
    ParseError,
    RowNotStochastic,
    bec,
    bsc,
    canonical,
    identity_channel,
    joint,
    load_channel,
    marginals,
    noisy_typewriter,
    output_marginal,
    per_input_divergences,
    save_channel,
    uniform_rows,
    z_channel,
)
from chancap.channel import CANONICAL_KINDS
from support import CANONICAL_EXAMPLES, random_channel, random_interior


class TestConstruction:
    def test_rows_are_validated(self):
        with pytest.raises(RowNotStochastic) as exc:
            Channel(np.array([[0.5, 0.3], [0.5, 0.5]]))
        assert exc.value.row == 0
        assert exc.value.deviation == pytest.approx(0.2)

    def test_negative_entry(self):
        with pytest.raises(NegativeEntry):
            Channel(np.array([[1.1, -0.1], [0.5, 0.5]]))

    @pytest.mark.parametrize(
        "matrix",
        [
            [0.5, 0.5],
            [[float("nan"), 1.0], [0.5, 0.5]],
            [[float("inf"), 0.0], [0.5, 0.5]],
            [["a", "b"]],
            [["0.5", "0.5"]],
            [[1 + 0j, 0]],
            [[{"a": 1}, 0]],
        ],
        ids=["1-d", "nan", "inf", "strings", "numeric-strings", "complex", "dict"],
    )
    def test_matrix_entries_must_be_finite_reals(self, matrix):
        with pytest.raises(InvalidDistribution):
            Channel(matrix)

    def test_matrix_is_immutable(self):
        ch = bsc(0.2)
        with pytest.raises(ValueError):
            ch.matrix[0, 0] = 0.0

    def test_zero_column_dropped_with_warning(self):
        with pytest.warns(DroppedOutputColumnWarning):
            ch = Channel(np.array([[0.5, 0.5, 0.0], [0.2, 0.8, 0.0]]))
        assert ch.num_outputs == 2

    def test_zero_column_drop_adjusts_labels(self):
        with pytest.warns(DroppedOutputColumnWarning):
            ch = Channel(
                np.array([[0.5, 0.0, 0.5], [0.2, 0.0, 0.8]]),
                output_labels=("a", "b", "c"),
            )
        assert ch.output_labels == ("a", "c")

    def test_label_count_must_match(self):
        with pytest.raises(DimensionMismatch):
            Channel(np.eye(2), input_labels=("only",))
        with pytest.raises(DimensionMismatch):
            Channel(np.eye(2), output_labels=("a", "b", "c"))
        # The count is checked against the matrix as given, so a dropped
        # all-zero column does not hide a wrong count.
        for labels in (("a", "b"), ("a", "b", "c", "d"), ("a", "b", "c", "d", "e")):
            with pytest.raises(DimensionMismatch):
                Channel(np.array([[0.5, 0.5, 0.0], [1.0, 0.0, 0.0]]), output_labels=labels)

    @pytest.mark.parametrize("labels", [5, "ab", np.array(["a", "b"])], ids=["int", "str", "array"])
    def test_labels_must_be_a_list_or_tuple(self, labels):
        # An int used to raise a bare TypeError, and "ab" to be split into
        # ("a", "b").
        for field in ("input_labels", "output_labels"):
            with pytest.raises(InvalidDistribution):
                Channel(np.eye(2), **{field: labels})
        assert Channel(np.eye(2), input_labels=["a", "b"]).input_labels == ("a", "b")

    def test_row_accessor(self):
        ch = bec(0.3)
        assert isinstance(ch.row(0), Distribution)
        assert np.array_equal(ch.row(0).weights, [0.7, 0.3, 0.0])


class TestSerialization:
    def test_json_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            ch = random_channel(rng, int(rng.integers(2, 9)), int(rng.integers(2, 9)))
            again = load_channel(save_channel(ch), "json")
            assert np.array_equal(again.matrix, ch.matrix)

    def test_json_round_trip_keeps_labels(self):
        ch = Channel(np.eye(2), input_labels=("x0", "x1"), output_labels=("y0", "y1"))
        again = load_channel(save_channel(ch), "json")
        assert again.input_labels == ("x0", "x1")
        assert again.output_labels == ("y0", "y1")

    def test_csv_parsing(self):
        ch = load_channel(b"0.9,0.1\n0.1,0.9\n", "csv")
        assert np.array_equal(ch.matrix, bsc(0.1).matrix)

    def test_csv_row_not_stochastic(self):
        with pytest.raises(RowNotStochastic):
            load_channel(b"0.5,0.3\n0.5,0.5\n", "csv")

    def test_json_zero_column_load_warns(self):
        doc = b'{"matrix": [[0.5, 0.5, 0.0], [0.3, 0.7, 0.0]]}'
        with pytest.warns(DroppedOutputColumnWarning):
            ch = load_channel(doc, "json")
        assert ch.num_outputs == 2

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            load_channel(b"{not json", "json")

    def test_json_missing_matrix(self):
        with pytest.raises(ParseError):
            load_channel(b'{"rows": []}', "json")

    def test_ragged_rows(self):
        with pytest.raises(ParseError):
            load_channel(b'{"matrix": [[0.5, 0.5], [1.0]]}', "json")
        with pytest.raises(ParseError):
            load_channel(b"0.5,0.5\n1.0\n", "csv")

    @pytest.mark.parametrize(
        "doc",
        [
            b'{"matrix": [["a", "b"]]}',
            b'{"matrix": [[0.5, [0.5]]]}',
            b'{"matrix": [[{"a": 1}, 0.5]]}',
            b'{"matrix": [[true, false], [false, true]]}',
            b'{"matrix": [[0.5, 0.5], [1, false]]}',
            b'{"matrix": [["0.5", "0.5"], ["1e-1", "0.9"]]}',
            b'{"matrix": [[0.5, 0.5], [0.1, "0.9"]]}',
            b'{"input_labels": ["a", "b"], "matrix": [["0.5", 0.5], [0.1, 0.9]]}',
            # float() of this integer raises OverflowError, which used to
            # escape as it was.
            pytest.param(b'{"matrix": [[' + b"1" * 400 + b", 0.5], [0.5, 0.5]]}", id="huge-integer"),
        ],
    )
    def test_non_numeric_entries(self, doc):
        with pytest.raises(ParseError):
            load_channel(doc, "json")

    @pytest.mark.parametrize("labels", [b"5", b'"ab"', b'{"a": 1}'])
    def test_labels_must_be_lists(self, labels):
        for key in (b"input_labels", b"output_labels"):
            doc = b'{"matrix": [[0.5, 0.5], [0.1, 0.9]], "' + key + b'": ' + labels + b"}"
            with pytest.raises(ParseError):
                load_channel(doc, "json")

    def test_true_false_outside_the_matrix_are_fine(self):
        doc = b'{"matrix": [[1, 0], [0, 1]], "input_labels": ["true", "false"]}'
        ch = load_channel(doc, "json")
        assert np.array_equal(ch.matrix, np.eye(2))
        assert ch.input_labels == ("true", "false")

    def test_csv_bad_number(self):
        with pytest.raises(ParseError):
            load_channel(b"0.5,abc\n", "csv")

    @pytest.mark.parametrize(
        "doc, fmt",
        [
            (b'{"matrix": [[1.0]], "input_labels": ["\xff"]}', "json"),
            (b'{"matrix": 3}', "json"),
            (b"", "csv"),
            (b"\n\n", "csv"),
            (b"0.5,0.5\n0.5,0.5\n", "xml"),
        ],
        ids=["invalid-utf8", "matrix-not-a-list", "empty-csv", "blank-csv", "unknown-format"],
    )
    def test_unreadable_documents(self, doc, fmt):
        with pytest.raises(ParseError):
            load_channel(doc, fmt)

    @pytest.mark.parametrize("source", [None, 3, [b"0.5,0.5"]], ids=["none", "int", "list"])
    def test_a_source_that_is_not_text_is_a_parse_error(self, source):
        with pytest.raises(ParseError):
            load_channel(source, "csv")

    @pytest.mark.parametrize(
        "text, fmt",
        [('{"matrix": [[0.75, 0.25], [0.0, 1.0]]}', "json"), ("0.75,0.25\n0,1\n", "csv")],
        ids=["json", "csv"],
    )
    @pytest.mark.parametrize("source", [str, io.StringIO], ids=["str", "text-stream"])
    def test_text_input(self, text, fmt, source):
        ch = load_channel(source(text), fmt)
        assert np.array_equal(ch.matrix, [[0.75, 0.25], [0.0, 1.0]])

    def test_stream_input(self, tmp_path):
        path = tmp_path / "ch.json"
        path.write_bytes(save_channel(z_channel(0.25)))
        with open(path, "rb") as fh:
            ch = load_channel(fh, "json")
        assert np.array_equal(ch.matrix, z_channel(0.25).matrix)


class TestOperations:
    def test_joint_marginals_recover_inputs(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            n, m = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            ch = random_channel(rng, n, m)
            q = random_interior(rng, n)
            p = joint(q, ch)
            back_q, back_r = marginals(p)
            r = output_marginal(q, ch)
            assert np.max(np.abs(back_q.weights - q.weights)) <= 1e-12
            assert np.max(np.abs(back_r.weights - r.weights)) <= 1e-12

    def test_output_marginal_of_uniform_on_bsc(self):
        r = output_marginal(Distribution.uniform(2), bsc(0.1))
        assert np.array_equal(r.weights, [0.5, 0.5])

    def test_dimension_checks(self):
        with pytest.raises(DimensionMismatch):
            joint(Distribution.uniform(3), bsc(0.1))
        with pytest.raises(DimensionMismatch):
            output_marginal(Distribution.uniform(3), bsc(0.1))

    def test_per_input_divergences_on_bsc(self):
        d = per_input_divergences(bsc(0.1), np.array([0.5, 0.5]))
        expected = math.log(2.0) - (-0.9 * math.log(0.9) - 0.1 * math.log(0.1))
        assert d == pytest.approx([expected, expected], abs=1e-14)

    def test_per_input_divergences_raises_on_support_violation(self):
        with pytest.raises(AbsoluteContinuityViolation):
            per_input_divergences(identity_channel(2), np.array([1.0, 0.0]))

    def test_per_input_divergences_inf_mode(self):
        d = per_input_divergences(identity_channel(2), np.array([1.0, 0.0]), infinite="inf")
        assert d[0] == 0.0
        assert np.isinf(d[1])

    @pytest.mark.parametrize(
        "reference",
        [[float("nan"), 1.0], [-0.5, 1.5], [float("inf"), 1.0], [1.0, 1.0], [0.25, 0.25], ["0.5", "0.5"]],
        ids=["nan", "negative", "inf", "sum-2", "sum-half", "strings"],
    )
    def test_per_input_divergences_rejects_a_broken_reference(self, reference):
        # Each of these used to give silent zeros, or divergences against an
        # unnormalized reference, or a bare ValueError.
        for infinite in ("raise", "inf"):
            with pytest.raises(InvalidDistribution):
                per_input_divergences(z_channel(0.5), reference, infinite=infinite)


class TestCanonical:
    def test_bsc_zero_is_identity(self):
        assert np.array_equal(bsc(0.0).matrix, np.eye(2))

    def test_bsc_matrix(self):
        assert np.array_equal(bsc(0.3).matrix, [[0.7, 0.3], [0.3, 0.7]])

    def test_bec_matrix(self):
        assert np.array_equal(bec(0.5).matrix, [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]])

    def test_z_matrix(self):
        assert np.array_equal(z_channel(0.5).matrix, [[1.0, 0.0], [0.5, 0.5]])

    def test_typewriter_rows(self):
        ch = noisy_typewriter(4)
        assert np.array_equal(
            ch.matrix,
            [
                [0.5, 0.5, 0.0, 0.0],
                [0.0, 0.5, 0.5, 0.0],
                [0.0, 0.0, 0.5, 0.5],
                [0.5, 0.0, 0.0, 0.5],
            ],
        )

    def test_uniform_rows(self):
        assert np.array_equal(uniform_rows(2, 3).matrix, np.full((2, 3), 1.0 / 3.0))

    def test_degenerate_bec_collapses(self):
        with pytest.warns(DroppedOutputColumnWarning):
            ch = bec(1.0)
        assert ch.num_outputs == 1

    def test_parameter_ranges(self):
        # Strings and None used to reach a comparison and raise a bare
        # TypeError; non-integer sizes used to be truncated by int().
        for bad in (-0.1, 1.5, float("nan"), "0.1", None):
            with pytest.raises(ParameterOutOfRange):
                bsc(bad)
            with pytest.raises(ParameterOutOfRange):
                bec(bad)
            with pytest.raises(ParameterOutOfRange):
                z_channel(bad)
        with pytest.raises(ParameterOutOfRange):
            noisy_typewriter(1)
        with pytest.raises(ParameterOutOfRange):
            identity_channel(0)
        for bad in (4.5, "3"):
            with pytest.raises(ParameterOutOfRange):
                noisy_typewriter(bad)
            with pytest.raises(ParameterOutOfRange):
                identity_channel(bad)
        for n, m in ((0, 3), (2.9, 3), (2, 3.0)):
            with pytest.raises(ParameterOutOfRange):
                uniform_rows(n, m)
        # Used to raise a bare ValueError.
        with pytest.raises(ParameterOutOfRange):
            per_input_divergences(z_channel(0.5), np.array([0.5, 0.5]), infinite="bogus")
        # Values rejected before keep their messages.
        with pytest.raises(ParameterOutOfRange, match=r"^crossover probability must be in \[0, 1\], got 1.5$"):
            bsc(1.5)
        # Sizes are checked by the shared integer rule, with its message.
        with pytest.raises(ParameterOutOfRange, match="^typewriter size must be at least 2, got 1$"):
            noisy_typewriter(1)
        with pytest.raises(ParameterOutOfRange, match="^typewriter size must be at least 2, got "):
            noisy_typewriter(np.int64(1))
        assert noisy_typewriter(np.int64(3)).num_inputs == 3

    def test_every_kind_has_an_example(self):
        assert set(CANONICAL_EXAMPLES) == set(CANONICAL_KINDS)

    @pytest.mark.parametrize("kind", CANONICAL_KINDS)
    def test_each_kind_is_its_constructor(self, kind):
        build, params, _ = CANONICAL_EXAMPLES[kind]
        assert np.array_equal(canonical(kind, *params).matrix, build(*params).matrix)
        with pytest.raises(ParameterOutOfRange, match="^bad parameters"):
            canonical(kind, *params, 1)

    @pytest.mark.parametrize("kind", [["bsc"], None, 1], ids=["list", "none", "int"])
    def test_a_kind_that_is_not_a_name_is_unknown(self, kind):
        with pytest.raises(ParameterOutOfRange, match="^unknown channel kind"):
            canonical(kind, 0.1)

    def test_dispatch(self):
        assert np.array_equal(canonical("bsc", 0.2).matrix, bsc(0.2).matrix)
        assert np.array_equal(canonical("uniform", 2, 4).matrix, uniform_rows(2, 4).matrix)
        with pytest.raises(ParameterOutOfRange):
            canonical("mystery", 1)
        with pytest.raises(ParameterOutOfRange):
            canonical("bsc")

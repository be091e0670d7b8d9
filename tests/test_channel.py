"""Channel construction, serialization, and canonical families."""

import gc
import io
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    identity_channel,
    joint,
    load_channel,
    m_project_to_independence,
    noisy_typewriter,
    output_marginal,
    per_input_divergences,
    save_channel,
    uniform_rows,
    z_channel,
)
from chancap import channel as channel_module
from chancap.channel import CANONICAL_KINDS, _canonical_entry
from support import CANONICAL_EXAMPLES, random_channel, random_interior


NON_NUMERIC_DOCUMENTS = [
    b'{"matrix": [["a", "b"]]}',
    b'{"matrix": [[0.5, [0.5]]]}',
    b'{"matrix": [[{"a": 1}, 0.5]]}',
    b'{"matrix": [[true, false], [false, true]]}',
    b'{"matrix": [[0.5, 0.5], [1, false]]}',
    b'{"matrix": [["0.5", "0.5"], ["1e-1", "0.9"]]}',
    b'{"matrix": [[0.5, 0.5], [0.1, "0.9"]]}',
    b'{"input_labels": ["a", "b"], "matrix": [["0.5", 0.5], [0.1, 0.9]]}',
]
# float() of this integer raises OverflowError, which used to escape as it
# was.
HUGE_INTEGER_DOCUMENT = b'{"matrix": [[' + b"1" * 400 + b", 0.5], [0.5, 0.5]]}"
NON_LIST_LABELS = [b"5", b'"ab"', b'{"a": 1}']
UNREADABLE_DOCUMENTS = {
    "invalid-utf8": (b'{"matrix": [[1.0]], "input_labels": ["\xff"]}', "json"),
    "matrix-not-a-list": (b'{"matrix": 3}', "json"),
    "empty-csv": (b"", "csv"),
    "blank-csv": (b"\n\n", "csv"),
    "unknown-format": (b"0.5,0.5\n0.5,0.5\n", "xml"),
    # Each of these used to raise a bare RecursionError or ValueError.
    "deep-array": (b"[" * 100000, "json"),
    "deep-matrix": (b'{"matrix": ' + b"[" * 100000, "json"),
    "too-many-digits": (b'{"matrix": [[' + b"1" * 5000 + b"]]}", "json"),
}


def labels_documents(labels: bytes) -> list[bytes]:
    """A document with the given text as its "input_labels", and one with it
    as its "output_labels": keys load_channel reads past and ignores."""
    return [b'{"matrix": [[0.5, 0.5], [0.1, 0.9]], "' + key + b'": ' + labels + b"}"
            for key in (b"input_labels", b"output_labels")]


class TestConstruction:
    def test_repr_gives_the_shape(self):
        assert repr(uniform_rows(3, 5)) == "Channel(3x5)"

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
        # The other columns keep their order.
        with pytest.warns(DroppedOutputColumnWarning, match=r"column\(s\) \[1\]"):
            ch = Channel(np.array([[0.5, 0.0, 0.5], [0.2, 0.0, 0.8]]))
        assert np.array_equal(ch.matrix, [[0.5, 0.5], [0.2, 0.8]])


class TestSerialization:
    def test_json_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            ch = random_channel(rng, int(rng.integers(2, 9)), int(rng.integers(2, 9)))
            again = load_channel(save_channel(ch), "json")
            assert np.array_equal(again.matrix, ch.matrix)

    def test_save_writes_only_the_matrix(self):
        assert list(json.loads(save_channel(bsc(0.25)))) == ["matrix"]

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
        "doc", [*NON_NUMERIC_DOCUMENTS, pytest.param(HUGE_INTEGER_DOCUMENT, id="huge-integer")]
    )
    def test_non_numeric_entries(self, doc):
        with pytest.raises(ParseError):
            load_channel(doc, "json")

    def test_true_false_outside_the_matrix_are_fine(self):
        doc = b'{"matrix": [[1, 0], [0, 1]], "input_labels": ["true", "false"]}'
        ch = load_channel(doc, "json")
        assert np.array_equal(ch.matrix, np.eye(2))

    def test_csv_bad_number(self):
        with pytest.raises(ParseError):
            load_channel(b"0.5,abc\n", "csv")

    @pytest.mark.parametrize("doc, fmt", UNREADABLE_DOCUMENTS.values(), ids=UNREADABLE_DOCUMENTS.keys())
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


# JSON documents for the row walk to read as json.loads reads them: every
# other JSON document this module loads, then variants of the grammar.
WALK_DOCUMENTS = {
    **{f"round-trip-{k}": save_channel(random_channel(np.random.default_rng(7 + k), 3 + k, 5 - k)) for k in range(3)},
    "labelled": (
        b'{\n  "matrix": [\n    [\n      1.0,\n      0.0\n    ],\n    [\n      0.0,\n      1.0\n    ]\n  ],\n'
        b'  "input_labels": [\n    "x0",\n    "x1"\n  ],\n  "output_labels": [\n    "y0",\n    "y1"\n  ]\n}\n'
    ),
    "zero-column": b'{"matrix": [[0.5, 0.5, 0.0], [0.3, 0.7, 0.0]]}',
    "not-json": b"{not json",
    "no-matrix": b'{"rows": []}',
    "ragged": b'{"matrix": [[0.5, 0.5], [1.0]]}',
    "ragged-across-blocks": b'{"matrix": [[0.5, 0.5, 0.0], [1.0, 0.0]]}',
    **{f"non-numeric-{k}": doc for k, doc in enumerate(NON_NUMERIC_DOCUMENTS)},
    "huge-integer": HUGE_INTEGER_DOCUMENT,
    **{f"labels-{k}": doc for k, doc in enumerate(d for labels in NON_LIST_LABELS for d in labels_documents(labels))},
    "true-false-labels": b'{"matrix": [[1, 0], [0, 1]], "input_labels": ["true", "false"]}',
    **{name: doc for name, (doc, fmt) in UNREADABLE_DOCUMENTS.items() if fmt == "json"},
    "text-input": b'{"matrix": [[0.75, 0.25], [0.0, 1.0]]}',
    "labels-first": b'{"output_labels": ["a", "b"], "matrix": [[0.25, 0.75], [1, 0]], "input_labels": ["x", "y"]}',
    "labels-zero-column": b'{"matrix": [[0.5, 0, 0.5], [1, 0, 0]], "output_labels": ["a", "b", "c"]}',
    "nested-labels": b'{"input_labels": [["a"], {"b": null}], "matrix": [[1, 0], [0, 1]]}',
    "label-count": b'{"matrix": [[1, 0], [0, 1]], "input_labels": ["a"]}',
    "duplicate-matrix": b'{"matrix": [[1, 0], [0, 1]], "matrix": [[0.5, 0.5], [0.25, 0.75]]}',
    "duplicate-bad-first": b'{"matrix": [["a"]], "matrix": [[1.0]]}',
    "duplicate-bad-last": b'{"matrix": [[1.0]], "matrix": 3}',
    "escaped-key": b'{"\\u006datrix": [[1.0]]}',
    "whitespace": b' \n\t{ \r\n "matrix" \t: \n [ \n [ 0.5 ,\t0.5 ] \r, [1 , 0 ]\n ] \n } \n\t',
    "nan": b'{"matrix": [[NaN, 1.0], [0.5, 0.5]]}',
    "infinity": b'{"matrix": [[Infinity, 0], [-Infinity, 1]]}',
    "null": b'{"matrix": [[null, 1.0]]}',
    "bom": b"\xef\xbb\xbf" + b'{"matrix": [[1.0]]}',
    "trailing-data": b'{"matrix": [[1.0]]} x',
    "second-object": b'{"matrix": [[1.0]]}{}',
    "empty-matrix": b'{"matrix": []}',
    "empty-rows": b'{"matrix": [[], []]}',
    "rows-not-lists": b'{"matrix": [[1.0], 1.0]}',
    "entries-are-lists": b'{"matrix": [[[0.5, 0.5]], [[1.0, 0.0]]]}',
    "mixed-depth": b'{"matrix": [[[0.5, 0.5]], [1.0]]}',
    "not-stochastic": b'{"matrix": [[0.5, 0.3], [0.5, 0.5]]}',
    "negative": b'{"matrix": [[1.5, -0.5], [0.5, 0.5]]}',
    "trailing-comma-rows": b'{"matrix": [[1.0],]}',
    "missing-comma-rows": b'{"matrix": [[0.5, 0.5] [0.5, 0.5]]}',
    "trailing-comma-object": b'{"matrix": [[1.0]],}',
    "missing-colon": b'{"matrix" [[1.0]]}',
    "missing-comma": b'{"matrix": [[1.0]] "input_labels": ["a"]}',
    "bare-key": b'{matrix: [[1.0]]}',
    "truncated-row": b'{"matrix": [[0.5, 0.5], [0.5',
    "truncated-object": b'{"matrix": [[1.0]]',
    "empty-object": b"{}",
    "array": b"[[1.0]]",
    "empty": b"",
    "two-blocks": json.dumps({"matrix": np.random.default_rng(29).dirichlet(np.ones(300), size=300).tolist()}).encode(),
}
# chancap.channel's settings for each path: json.loads, the row walk, and
# the row walk with blocks of a few entries.
LOADED = {"_STREAM_CHARS": math.inf}
WALKED = {"_STREAM_CHARS": -1}
SMALL_BLOCKS = {"_STREAM_CHARS": -1, "_BLOCK_ENTRIES": 3}


def json_outcome(doc: bytes, settings: dict) -> tuple:
    """load_channel(doc, "json") under settings: the matrix's shape and
    bits and the warnings, or the error's type and message."""
    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings(record=True) as caught:
        for name, value in settings.items():
            patch.setattr(channel_module, name, value)
        warnings.simplefilter("always")
        try:
            ch = load_channel(doc, "json")
        except Exception as exc:
            return type(exc), str(exc)
    return (
        ch.matrix.shape, ch.matrix.tobytes(), [(w.category, str(w.message)) for w in caught],
    )


def assert_walk_reads_as_json_loads(doc: bytes) -> None:
    loaded = json_outcome(doc, LOADED)
    assert json_outcome(doc, WALKED) == loaded
    assert json_outcome(doc, SMALL_BLOCKS) == loaded


class TestRowWalk:
    @pytest.mark.parametrize("doc", WALK_DOCUMENTS.values(), ids=WALK_DOCUMENTS.keys())
    def test_each_document_reads_as_json_loads_reads_it(self, doc):
        assert_walk_reads_as_json_loads(doc)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
        indent=st.sampled_from([None, 0, 2, "\t", " \r\n"]),
        separators=st.sampled_from([None, (",", ":"), (" ,\n", " \t: ")]),
        keys=st.permutations(["matrix", "input_labels", "output_labels"]),
        labelled=st.booleans(),
    )
    def test_dumped_matrices_read_as_json_loads_reads_them(self, seed, shape, indent, separators, keys, labelled):
        rng = np.random.default_rng(seed)
        n, m = shape
        # A small Dirichlet parameter gives exact zeros, and columns to drop.
        matrix = rng.dirichlet(np.full(m, rng.uniform(0.02, 1.0)), size=n).tolist()
        values = {
            "matrix": [[int(v) if v in (0.0, 1.0) else v for v in row] for row in matrix],
            "input_labels": [f"x{i}" for i in range(n)],
            "output_labels": ["true" if j % 2 else "false" for j in range(m)],
        }
        doc = {key: values[key] for key in keys if labelled or key == "matrix"}
        text = json.dumps(doc, indent=indent, separators=separators)
        assert_walk_reads_as_json_loads(text.encode())
        # The walk reads it itself, rather than handing it on to json.loads.
        assert channel_module._streamed_json(text) is not None

    @pytest.mark.parametrize(
        "labels",
        [b'["x0", "x1"]', b'["a"]', b'["a", "b", "c"]', *NON_LIST_LABELS, b'[["a"], {"b": null}]'],
        ids=["two", "too-few", "too-many", "int", "str", "object", "nested"],
    )
    def test_labels_load_as_the_bare_matrix(self, labels):
        # Labels of any count or kind, before or after the matrix, load to
        # the bare matrix's bits on each path.
        plain = b'{"matrix": [[0.5, 0.5], [0.1, 0.9]]}'
        first = b'{"input_labels": ' + labels + b', "matrix": [[0.5, 0.5], [0.1, 0.9]]}'
        for settings in (LOADED, WALKED, SMALL_BLOCKS):
            expected = json_outcome(plain, settings)
            for doc in (first, *labels_documents(labels)):
                assert json_outcome(doc, settings) == expected

    def test_labels_leave_plain_rows_unscanned(self, monkeypatch):
        # The walk decides the per-entry scan from each row's own text, so
        # labels with quotes, "t" and "f" elsewhere do not scan the matrix.
        scans = []
        json_numbers = channel_module._json_numbers

        def recording(rows, what, scan=True):
            scans.append(scan)
            return json_numbers(rows, what, scan)

        for name, value in {**SMALL_BLOCKS, "_json_numbers": recording}.items():
            monkeypatch.setattr(channel_module, name, value)
        doc = {"input_labels": ["true", "false", "x"], "matrix": np.eye(3).tolist(), "output_labels": ["a", "b", "c"]}
        assert np.array_equal(load_channel(json.dumps(doc, indent=2)).matrix, np.eye(3))
        assert len(scans) > 1 and not any(scans)

    @pytest.mark.parametrize("entry", ['"0.5"', "true", "false"])
    @pytest.mark.parametrize("row", [0, 2])
    def test_a_non_number_after_labels_is_still_a_parse_error(self, entry, row):
        # The labels come first and the bad entry sits in a later block, so
        # only that row's own text can turn its block's scan on.
        rows = [["0.5", "0.5"], ["1", "0"], ["0.25", "0.75"]]
        rows[row][1] = entry
        matrix = ", ".join(f"[{a}, {b}]" for a, b in rows)
        doc = f'{{"input_labels": ["a", "b", "c"], "matrix": [{matrix}]}}'.encode()
        for settings in (LOADED, WALKED, SMALL_BLOCKS):
            kind, message = json_outcome(doc, settings)
            assert kind is ParseError and "strings or true/false" in message

    @pytest.mark.parametrize("text", ["", "a", "a\n", "a\r\nb\rc\n\nd", "\n\n", "0.5,0.5\r\n0.5,0.5"])
    def test_csv_lines_are_the_lines_of_a_text_stream(self, text):
        assert list(channel_module._lines(text)) == list(io.StringIO(text))

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_a_large_load_holds_the_text_and_about_twice_the_matrix(self, fmt):
        # At 512x512 a whole parse peaked at the text plus 6.3 (JSON) and
        # 15.0 (CSV, read through io.StringIO) times the matrix's bytes.  Row
        # blocks peak at about 2: the blocks and the joined matrix, then the
        # matrix and the Channel's copy.
        matrix = np.random.default_rng(29).dirichlet(np.ones(512), size=512)
        if fmt == "json":
            doc = json.dumps({"matrix": matrix.tolist()}).encode()
        else:
            doc = "".join(",".join(map(repr, row)) + "\n" for row in matrix.tolist()).encode()
        # The first load also checks the bits, and imports and caches
        # outside the measurement.
        assert np.array_equal(load_channel(doc, fmt).matrix, matrix)
        gc.collect()
        tracemalloc.start()
        try:
            load_channel(doc, fmt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(doc) + 3 * matrix.nbytes


class TestOperations:
    def test_joint_marginals_recover_inputs(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            n, m = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            ch = random_channel(rng, n, m)
            q = random_interior(rng, n)
            p = joint(q, ch)
            point = m_project_to_independence(p)
            r = output_marginal(q, ch)
            assert np.max(np.abs(point.input_factor.weights - q.weights)) <= 1e-12
            assert np.max(np.abs(point.output_factor.weights - r.weights)) <= 1e-12

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
        assert _canonical_entry(kind, len(params)) == (build, tuple(type(p) for p in params))
        with pytest.raises(ParameterOutOfRange, match="^bad parameters"):
            _canonical_entry(kind, len(params) + 1)

    @pytest.mark.parametrize("kind", CANONICAL_KINDS)
    def test_each_row_is_an_output_law(self, kind):
        # Distribution(ch.matrix[x]) reads the law of Y given x; every row of
        # every kind passes its check and keeps its bits.
        build, params, _ = CANONICAL_EXAMPLES[kind]
        ch = build(*params)
        for row in ch.matrix:
            assert np.array_equal(Distribution(row).weights, row)

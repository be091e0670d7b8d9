"""Discrete memoryless channels.

A channel is a row-stochastic matrix: entry (x, y) is the probability of
output y given input x.  Rows follow the same construction tolerances as
Distribution (sum within 1e-9 of one, renormalized; sums within 1e-12 kept
bit for bit).  Output symbols that no input can ever produce (all-zero
columns) are removed at construction with a warning, which guarantees that
every output marginal of an interior input is strictly positive.

This module is also the kernel every solver and check shares.  A sweep is

    r = q P,    d(x) = negH(x) - sum_y P(y|x) log r(y),

where negH(x) = sum_y P(y|x) log P(y|x) is the row negentropy, computed
once per channel on first use and cached.  Both steps are one contraction
with the C-contiguous channel matrix through numeric._contract, numpy's
c_einsum called directly: the very function np.einsum without optimize
calls, so the bits are np.einsum's, without its Python-level dispatch.  It
builds no n x m temporary and does not go through BLAS (see numeric).
The private _marginal and _divergences are the kernel itself and check
nothing; the solver loops call them on raw arrays, each marginal checked by
probability._normalized.  The public output_marginal and
per_input_divergences validate their arguments and then call the same two
functions, so both paths agree bit for bit.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    AbsoluteContinuityViolation,
    DimensionMismatch,
    DroppedOutputColumnWarning,
    InvalidDistribution,
    NegativeEntry,
    NonInteriorInput,
    ParameterOutOfRange,
    ParseError,
    RowNotStochastic,
    _check_limit,
    _check_probability,
    _check_type,
    _plain,
    _sized,
)
from .numeric import _contract, ordered_sum_along
from .probability import _SUM_KEEP, _SUM_REJECT, Distribution, JointDistribution, _normalized, _real_array

__all__ = [
    "Channel",
    "load_channel",
    "save_channel",
    "joint",
    "output_marginal",
    "per_input_divergences",
    "bsc",
    "bec",
    "z_channel",
    "noisy_typewriter",
    "identity_channel",
    "uniform_rows",
]


@dataclass(frozen=True, eq=False)
class Channel:
    """An immutable conditional distribution matrix, rows indexed by input.

    The matrix is the whole channel: it names no input or output symbol,
    so labels for either are kept beside the channel.
    """

    matrix: np.ndarray

    def __post_init__(self):
        # C order fixes the grouping of every reduction over the matrix.
        m = _real_array(self.matrix, "channel matrix")
        if m.ndim != 2:
            raise InvalidDistribution(f"channel matrix must be 2-dimensional, got shape {m.shape}")
        if m.size == 0:
            raise InvalidDistribution(f"channel matrix must have at least one row and one column, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise InvalidDistribution("channel matrix entries must be finite")
        negative = m < 0.0
        if negative.any():
            x, y = (int(v) for v in np.argwhere(negative)[0])
            raise NegativeEntry(f"matrix entry ({x}, {y}) is negative: {_plain(m[x, y])}")
        totals = ordered_sum_along(m, axis=1)
        deviation = np.abs(totals - 1.0)
        bad = deviation > _SUM_REJECT
        if bad.any():
            x = int(bad.argmax())  # the first bad row
            raise RowNotStochastic(x, float(deviation[x]))
        # Normalize rows only when needed, so a matrix saved by this package
        # reloads without any bit changing.
        off = deviation > _SUM_KEEP
        if off.any():
            m[off] = m[off] / totals[off, None]

        dead = (m == 0.0).all(axis=0)
        if dead.any():
            dropped = [int(y) for y in np.flatnonzero(dead)]
            warnings.warn(
                f"dropping all-zero output column(s) {dropped}",
                DroppedOutputColumnWarning,
                stacklevel=2,
            )
            m = np.ascontiguousarray(m[:, ~dead])

        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @cached_property
    def row_negentropy(self) -> np.ndarray:
        """sum_y p(y|x) log p(y|x) for every input x, with 0 log 0 = 0.

        Computed on first use rather than at construction, so loading a
        channel allocates no matrix-sized temporary beyond the matrix itself.
        """
        m = self.matrix
        terms = np.zeros_like(m)
        np.log(m, out=terms, where=m > 0.0)
        np.multiply(terms, m, out=terms)
        negentropy = ordered_sum_along(terms, axis=1)
        negentropy.flags.writeable = False
        return negentropy

    @property
    def num_inputs(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_outputs(self) -> int:
        return self.matrix.shape[1]

    def __repr__(self):
        return f"Channel({self.num_inputs}x{self.num_outputs})"


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def save_channel(ch: Channel) -> bytes:
    """Serialize a channel to its JSON document form, {"matrix": rows}.

    Floats are written with repr precision, so load_channel(save_channel(ch))
    reproduces the matrix bit for bit.
    """
    _check_channel(ch)
    doc = {"matrix": [[float(v) for v in row] for row in ch.matrix]}
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def _as_text(source) -> str:
    """The text of bytes, text or a readable stream of either; ParseError for anything else."""
    data = source.read() if callable(getattr(source, "read", None)) else source
    if isinstance(data, bytes):
        return data.decode("utf-8")
    if isinstance(data, str):
        return data
    raise ParseError(f"channel source must be bytes, text or a readable stream, not {type(source).__name__}")


def _third_quote(text: str) -> bool:
    """True when text holds more than two '"' characters."""
    second = text.find('"', text.find('"') + 1)
    return second >= 0 and text.find('"', second + 1) >= 0


def _json_numbers(rows: list, what: str, scan: bool = True) -> np.ndarray:
    """Parsed rows as a float array; ParseError unless every entry is a number.

    np.asarray would read true/false as 1.0/0.0 and "0.5" as 0.5, hence the
    scan, which a caller may skip when the text shows no such entry exists.
    """
    if scan and any(isinstance(v, (bool, str)) for row in rows for v in row):
        raise ParseError(f"{what} entries must be numbers, not strings or true/false")
    try:
        return np.asarray(rows, dtype=float)
    except (TypeError, ValueError):
        raise ParseError(f"{what} entries must all be numbers") from None
    except OverflowError:  # an integer too large for a float
        raise ParseError(f"{what} entries must be within the float range") from None


# JSON documents longer than this many characters are read row by row.
# json.loads is faster on short ones, and its Python objects for the whole
# matrix are what the row walk avoids holding.
_STREAM_CHARS = 2**20
# Rows are converted to float64 once a block holds this many entries.
_BLOCK_ENTRIES = 2**16
_skip_space = json.decoder.WHITESPACE.match
# json's own C scanner, with json.loads's settings: it reads one JSON value
# at an index of a text and returns it with the index after it.
_scan_value = json.JSONDecoder().scan_once


class _RowBlocks:
    """Rows of numbers, converted to float64 a block of rows at a time, so
    that Python numbers for at most one block of _BLOCK_ENTRIES entries are
    alive.

    add takes one row, a list, and scan, True when the row may hold a
    string or true/false entry.  width is the first row's length; unequal
    turns True at the first row of another length, and from then on no row
    is kept.  A block converts through _json_numbers, with its per-entry
    scan when any of its rows was added with scan: an entry other than a
    number raises its ParseError, and a block that is not 2-dimensional
    (entries that are lists) raises ValueError.  close converts the rows
    added since the last block, and matrix closes and joins the blocks,
    and this object lets go of them.
    """

    def __init__(self):
        self.width: int | None = None
        self.unequal = False
        self._blocks: list[np.ndarray] = []
        self._rows: list[list] = []
        self._entries = 0
        self._scan = False

    def add(self, row: list, scan: bool = False) -> None:
        if self.width is None:
            self.width = len(row)
        if self.unequal or len(row) != self.width:
            self.unequal, self._blocks, self._rows = True, [], []
            return
        self._rows.append(row)
        self._scan = self._scan or scan
        # An empty row counts as one entry, so that no block grows unbounded.
        self._entries += len(row) or 1
        if self._entries >= _BLOCK_ENTRIES:
            self.close()

    def close(self) -> None:
        if self._rows:
            block = _json_numbers(self._rows, '"matrix"', self._scan)
            if block.ndim != 2:
                raise ValueError("matrix entries that are lists")
            self._blocks.append(block)
            self._rows, self._entries, self._scan = [], 0, False

    def matrix(self) -> np.ndarray:
        self.close()
        blocks, self._blocks = self._blocks, []
        return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


def _streamed_json(text: str) -> dict | None:
    """A JSON channel document's object, its "matrix" read into _RowBlocks.

    The top-level object and its "matrix" list are walked in the grammar
    json's parser follows, and every key, row and other value is read by
    json's own scanner, so a document this accepts is one json.loads reads
    to the same object.  The matrix converts a block of rows at a time
    (see _RowBlocks), with the per-entry scan only for a block that has a
    row whose own text holds a '"', a "t" or an "f": a string entry needs
    the first, a true or false token one of the others, and no JSON
    number holds any of them, so quoted values outside the matrix leave
    plain rows unscanned.  None unless the document is a valid object whose
    last "matrix" is a non-empty list of equal-length rows of numbers:
    json.loads then reads it again and gives its own error or answer.
    """
    doc = {}
    try:
        i = _skip_space(text).end()
        if text[i:i + 1] != "{":
            return None
        i = _skip_space(text, i + 1).end()
        while text[i:i + 1] == '"':
            key, i = _scan_value(text, i)
            i = _skip_space(text, i).end()
            if text[i:i + 1] != ":":
                return None
            i = _skip_space(text, i + 1).end()
            if key == "matrix" and text[i:i + 1] == "[":
                value = _RowBlocks()
                i = _skip_space(text, i + 1).end()
                while True:
                    start = i
                    row, i = _scan_value(text, i)
                    if not isinstance(row, list):
                        return None
                    value.add(row, any(text.find(c, start, i) >= 0 for c in '"tf'))
                    if value.unequal:
                        return None
                    i = _skip_space(text, i).end()
                    if text[i:i + 1] != ",":
                        break
                    i = _skip_space(text, i + 1).end()
                if text[i:i + 1] != "]":
                    return None
                value.close()
                i += 1
            else:
                value, i = _scan_value(text, i)
            doc[key] = value
            i = _skip_space(text, i).end()
            if text[i:i + 1] == "}":
                break
            if text[i:i + 1] != ",":
                return None
            i = _skip_space(text, i + 1).end()
        else:  # no key where one must be
            return None
    # A value json's scanner cannot read (StopIteration, JSONDecodeError, an
    # integer of too many digits or too deep a nesting), or a block with an
    # entry other than a number.
    except (StopIteration, ValueError, RecursionError):
        return None
    if _skip_space(text, i + 1).end() != len(text) or not isinstance(doc.get("matrix"), _RowBlocks):
        return None
    return doc


def _lines(text: str):
    """The lines of text, each with its "\\n", as io.StringIO(text) gives
    them, without a copy of text."""
    start = 0
    while start < len(text):
        end = text.find("\n", start) + 1 or len(text)
        yield text[start:end]
        start = end


def load_channel(source, format: str = "json") -> Channel:
    """Parse a channel from bytes, text, or a readable stream.

    JSON documents are objects with a required "matrix" key (list of rows);
    any other key, "input_labels" and "output_labels" among them, is read
    as JSON and ignored.  CSV is one row per input symbol, comma-separated
    probabilities, no header.  Validation failures raise the same errors as
    the Channel constructor; malformed syntax raises ParseError.

    A CSV document, and a JSON document longer than 2**20 characters, is
    read a row at a time and converted to float64 in blocks of rows, so the
    load holds the text plus about twice the matrix's bytes, where a whole
    parse holds Python floats for every entry: while reading, the text, the
    blocks so far and Python floats for one block of 2**16 entries (about
    2 MiB); then, with the text let go where it was decoded here, the
    joined matrix and the Channel's copy.  A shorter JSON document is read
    by json.loads.
    """
    try:
        text = _as_text(source)
    except UnicodeDecodeError as exc:
        raise ParseError(f"channel file is not valid UTF-8: {exc}") from None
    if not (isinstance(format, str) and format in ("json", "csv")):
        raise ParseError(f"unknown channel format {format!r}")
    if format == "csv":
        # Imported here, so that a JSON channel never loads the csv module.
        import csv

        # A CSV document's cells are floats already.
        rows = _RowBlocks()
        try:
            for line in csv.reader(_lines(text)):
                if line:
                    rows.add([float(cell) for cell in line])
        except (csv.Error, ValueError) as exc:
            raise ParseError(f"invalid CSV: {exc}") from None
        if rows.width is None:
            raise ParseError("CSV channel file is empty")
        if rows.unequal:
            raise ParseError("CSV rows have unequal lengths")
        del text
        return Channel(rows.matrix())
    doc = _streamed_json(text) if len(text) > _STREAM_CHARS else None
    if doc is not None:
        # The text goes before the blocks are joined.
        del text
        return Channel(doc["matrix"].matrix())
    # The per-entry scan runs only when a one-character search (memchr)
    # finds what a bad entry needs: a true/false token holds a "u" or an
    # "l", which no JSON number or "matrix" key does, and a string entry a
    # third '"'.  A plain numeric document stops at these searches.
    scan = _third_quote(text) or (("u" in text or "l" in text) and ("true" in text or "false" in text))
    try:
        doc = json.loads(text)
    # JSONDecodeError, an integer of too many digits, or too deep a nesting.
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or "matrix" not in doc:
        raise ParseError('JSON channel must be an object with a "matrix" key')
    rows = doc["matrix"]
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ParseError('"matrix" must be a list of rows')
    if len({len(r) for r in rows}) > 1:
        raise ParseError("matrix rows have unequal lengths")
    return Channel(_json_numbers(rows, '"matrix"', scan))


# ---------------------------------------------------------------------------
# channel operations
# ---------------------------------------------------------------------------

def _check_channel(ch: Channel) -> None:
    """Raise InvalidDistribution unless ch is a Channel, not a bare matrix or anything else."""
    _check_type("channel", ch, Channel)


def _check_input_size(q: Distribution, ch: Channel) -> None:
    """InvalidDistribution unless q is a Distribution and ch a Channel, and
    DimensionMismatch unless q is a law over the channel inputs."""
    _check_channel(ch)
    _check_type("input law", q, Distribution)
    if q.alphabet_size != ch.num_inputs:
        raise DimensionMismatch(
            f"input distribution has {q.alphabet_size} symbols, channel has {ch.num_inputs}"
        )


def _check_interior_input(q: Distribution, ch: Channel) -> None:
    """Raise unless q is a strictly positive law over the channel inputs.

    The multiplicative sweep, the backward family and the e-projection all
    take log q, so each of them requires an interior input law.
    """
    _check_input_size(q, ch)
    if not q.is_interior:
        raise NonInteriorInput("the input law must give every channel input positive weight")


def joint(q: Distribution, ch: Channel) -> JointDistribution:
    """The joint distribution q(x) * p(y|x)."""
    _check_input_size(q, ch)
    return JointDistribution(q.weights[:, None] * ch.matrix)


def _marginal(weights: np.ndarray, ch: Channel) -> np.ndarray:
    """The raw output weights sum_x q(x) p(y|x) of raw input weights."""
    # The contraction adds q(x) P(x, .) row after row, in its own loops: no
    # n x m temporary and no BLAS.
    return _contract("x,xy->y", weights, ch.matrix)


def output_marginal(q: Distribution, ch: Channel) -> Distribution:
    """The output distribution induced by feeding q through the channel."""
    _check_input_size(q, ch)
    return Distribution(_marginal(q.weights, ch))


def _divergences(ch: Channel, r: np.ndarray) -> np.ndarray:
    """D(row_x || r) for every input x, for a raw output law r with no zero entry.

    The kernel negH(x) - sum_y P(y|x) log r(y), floored at 0 against rounding.
    Nothing is checked: r must have the channel's width and be positive.
    """
    # One contraction over each C-contiguous row, in c_einsum's own loops:
    # no n x m temporary and no BLAS.
    d = _contract("xy,y->x", ch.matrix, np.log(r))
    np.subtract(ch.row_negentropy, d, out=d)
    np.maximum(d, 0.0, out=d)
    return d


def per_input_divergences(
    ch: Channel, reference: np.ndarray, infinite: str = "raise"
) -> np.ndarray:
    """D(row_x || reference) for every input symbol x, as an array of nats.

    reference is a raw weight vector over the channel outputs.  A copy of it
    is checked by the Distribution rule, so a broken one raises
    InvalidDistribution.  Where a row has mass on a symbol with zero
    reference weight the divergence is infinite; infinite="raise" raises
    AbsoluteContinuityViolation, while infinite="inf" records +inf for that
    row (useful for diagnostic checks that must not throw).  Computed by
    _divergences from the channel's cached row negentropies, so each call
    makes one pass over P.
    """
    _check_channel(ch)
    r = _real_array(reference, "reference")
    if r.shape != (ch.num_outputs,):
        raise DimensionMismatch(
            f"reference has shape {r.shape}, channel has {ch.num_outputs} outputs"
        )
    if not (isinstance(infinite, str) and infinite in ("raise", "inf")):
        raise ParameterOutOfRange(f"infinite must be 'raise' or 'inf', got {infinite!r}")
    r = _normalized(r, "reference")
    positive = r > 0.0
    if positive.all():
        return _divergences(ch, r)
    zero = r == 0.0
    # No output column is all zero, so some row has mass where r has none.
    bad_rows = (ch.matrix[:, zero] > 0.0).any(axis=1)
    if infinite == "raise":
        raise AbsoluteContinuityViolation(
            f"row {int(np.flatnonzero(bad_rows)[0])} has mass outside the reference support"
        )
    # Outputs without reference mass get log r = 0: a row with mass there is
    # overwritten with +inf, and every other row has P = 0 there.
    return np.where(bad_rows, np.inf, _divergences(ch, np.where(positive, r, 1.0)))


# ---------------------------------------------------------------------------
# canonical channels
# ---------------------------------------------------------------------------

def bsc(p: float) -> Channel:
    """Binary symmetric channel with crossover probability p."""
    _check_probability("crossover probability", p)
    return Channel(np.array([[1.0 - p, p], [p, 1.0 - p]]))


def bec(eps: float) -> Channel:
    """Binary erasure channel; the middle output symbol is the erasure."""
    _check_probability("erasure probability", eps)
    return Channel(np.array([[1.0 - eps, eps, 0.0], [0.0, eps, 1.0 - eps]]))


def z_channel(p: float) -> Channel:
    """Z channel: input 0 is noiseless, input 1 flips to 0 with probability p."""
    _check_probability("flip probability", p)
    return Channel(np.array([[1.0, 0.0], [p, 1.0 - p]]))


def noisy_typewriter(n: int) -> Channel:
    """Each of n symbols maps to itself or its cyclic successor, half and half."""
    _check_limit("typewriter size", n, minimum=2)
    eye = _sized(np.eye, n)
    return Channel(0.5 * (eye + np.roll(eye, 1, axis=1)))


def identity_channel(n: int) -> Channel:
    """A noiseless channel on n symbols."""
    _check_limit("identity channel size", n)
    return Channel(_sized(np.eye, n))


def uniform_rows(n: int, m: int) -> Channel:
    """The useless channel: every input induces the uniform output law."""
    _check_limit("input count", n)
    _check_limit("output count", m)
    # Sized before 1.0 / m is taken, which overflows for a size no array can have.
    matrix = _sized(np.empty, (n, m))
    matrix.fill(1.0 / m)
    return Channel(matrix)


# Each canonical kind's constructor and the types of its parameters, in
# order: the CLI's generate parses --param with it.
_CANONICAL = {
    "bsc": (bsc, (float,)),
    "bec": (bec, (float,)),
    "z": (z_channel, (float,)),
    "typewriter": (noisy_typewriter, (int,)),
    "identity": (identity_channel, (int,)),
    "uniform": (uniform_rows, (int, int)),
}
CANONICAL_KINDS = tuple(_CANONICAL)


def _canonical_entry(kind: str, count: int) -> tuple:
    """The constructor and parameter types of a known kind given count
    parameters; ParameterOutOfRange for a wrong parameter count."""
    build, types = _CANONICAL[kind]
    if count != len(types):
        raise ParameterOutOfRange(f"bad parameters for {kind!r}: {len(types)} expected, got {count}")
    return build, types


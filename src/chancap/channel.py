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

import csv
import io
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
    "canonical",
]


@dataclass(frozen=True, eq=False)
class Channel:
    """An immutable conditional distribution matrix, rows indexed by input."""

    matrix: np.ndarray
    input_labels: tuple[str, ...] | None = None
    output_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        # C order fixes the grouping of every reduction over the matrix.
        m = _real_array(self.matrix, "channel matrix")
        if m.ndim != 2 or m.size == 0:
            raise InvalidDistribution(f"channel matrix must be 2-dimensional, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise InvalidDistribution("channel matrix entries must be finite")
        negative = m < 0.0
        if negative.any():
            x, y = (int(v) for v in np.argwhere(negative)[0])
            raise NegativeEntry(f"matrix entry ({x}, {y}) is negative: {m[x, y]!r}")
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

        # Label counts are checked against the matrix as given, before any
        # column is dropped.  A string is not a label list: tuple() would
        # split it into characters.
        for kind, size in (("input", m.shape[0]), ("output", m.shape[1])):
            field = f"{kind}_labels"
            given = getattr(self, field)
            if given is not None:
                if not isinstance(given, (list, tuple)):
                    raise InvalidDistribution(f"{kind} labels must be a list or tuple, not {type(given).__name__}")
                labels = tuple(str(s) for s in given)
                if len(labels) != size:
                    raise DimensionMismatch(f"{len(labels)} {kind} labels for {size} {kind}s")
                object.__setattr__(self, field, labels)

        dead = (m == 0.0).all(axis=0)
        if dead.any():
            kept = ~dead
            dropped = [int(y) for y in np.flatnonzero(dead)]
            warnings.warn(
                f"dropping all-zero output column(s) {dropped}",
                DroppedOutputColumnWarning,
                stacklevel=2,
            )
            m = np.ascontiguousarray(m[:, kept])
            if self.output_labels is not None:
                labels = tuple(lab for lab, keep in zip(self.output_labels, kept) if keep)
                object.__setattr__(self, "output_labels", labels)

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

    def row(self, x: int) -> Distribution:
        """The output distribution of input symbol x, an integer in [0, num_inputs)."""
        _check_limit("input symbol", x, minimum=0)
        if x >= self.num_inputs:
            raise ParameterOutOfRange(f"input symbol must be below {self.num_inputs}, got {x!r}")
        return Distribution(self.matrix[x])

    def __repr__(self):
        return f"Channel({self.num_inputs}x{self.num_outputs})"


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def save_channel(ch: Channel) -> bytes:
    """Serialize a channel to its JSON document form.

    Floats are written with repr precision, so load_channel(save_channel(ch))
    reproduces the matrix bit for bit.
    """
    _check_channel(ch)
    doc: dict = {"matrix": [[float(v) for v in row] for row in ch.matrix]}
    if ch.input_labels is not None:
        doc["input_labels"] = list(ch.input_labels)
    if ch.output_labels is not None:
        doc["output_labels"] = list(ch.output_labels)
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


def load_channel(source, format: str = "json") -> Channel:
    """Parse a channel from bytes, text, or a readable stream.

    JSON documents are objects with a required "matrix" key (list of rows)
    and optional "input_labels" / "output_labels".  CSV is one row per input
    symbol, comma-separated probabilities, no header.  Validation failures
    raise the same errors as the Channel constructor; malformed syntax raises
    ParseError.
    """
    try:
        text = _as_text(source)
    except UnicodeDecodeError as exc:
        raise ParseError(f"channel file is not valid UTF-8: {exc}") from None
    if not (isinstance(format, str) and format in ("json", "csv")):
        raise ParseError(f"unknown channel format {format!r}")
    if format == "json":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}") from None
        if not isinstance(doc, dict) or "matrix" not in doc:
            raise ParseError('JSON channel must be an object with a "matrix" key')
        rows, what = doc["matrix"], "matrix"
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise ParseError('"matrix" must be a list of rows')
        # The per-entry scan runs only when a one-character search (memchr)
        # finds what a bad entry needs: a true/false token holds a "u" or an
        # "l", which no JSON number or "matrix" key does, and a string entry
        # a third '"'.  A plain numeric document stops at these searches.
        scan = _third_quote(text) or (("u" in text or "l" in text) and ("true" in text or "false" in text))
    else:
        # A CSV document has no labels, and its cells are floats already.
        doc, what, scan = {}, "CSV", False
        try:
            rows = [[float(cell) for cell in line] for line in csv.reader(io.StringIO(text)) if line]
        except (csv.Error, ValueError) as exc:
            raise ParseError(f"invalid CSV: {exc}") from None
        if not rows:
            raise ParseError("CSV channel file is empty")
    if len({len(r) for r in rows}) > 1:
        raise ParseError(f"{what} rows have unequal lengths")
    labels = []
    for key in ("input_labels", "output_labels"):
        value = doc.get(key)
        if value is not None and not isinstance(value, list):
            raise ParseError(f'"{key}" must be a list')
        labels.append(tuple(value) if value is not None else None)
    return Channel(_json_numbers(rows, '"matrix"', scan), *labels)


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
    d = ch.row_negentropy - _contract("xy,y->x", ch.matrix, np.log(r))
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
# order: canonical dispatches on it and the CLI parses --param with it.
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
    """The constructor and parameter types of a kind given count parameters.

    ParameterOutOfRange for an unknown kind or a wrong parameter count.
    """
    if not (isinstance(kind, str) and kind in CANONICAL_KINDS):
        raise ParameterOutOfRange(f"unknown channel kind {kind!r} (known: {', '.join(CANONICAL_KINDS)})")
    build, types = _CANONICAL[kind]
    if count != len(types):
        raise ParameterOutOfRange(f"bad parameters for {kind!r}: {len(types)} expected, got {count}")
    return build, types


def canonical(kind: str, *params) -> Channel:
    """Dispatch to a canonical channel family by name.

    Kinds: bsc(p), bec(eps), z(p), typewriter(n), identity(n), uniform(n, m).
    """
    build, _ = _canonical_entry(kind, len(params))
    return build(*params)

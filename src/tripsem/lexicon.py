"""Lexicon creation, the negation word, and serialization.

File format (UTF-8, line-oriented; ``#`` starts a comment line)::

    TRIPSEM 1
    layout <d_domain> <d_stable> <d_inverted>
    word <token> <alpha>
    v <n space-separated decimals>
    m <n space-separated decimals>     # one line per matrix row, n lines

Real values are written with Python's shortest round-trip decimal
representation (up to 17 significant digits), so ``load(save(lex))``
reproduces every value bit-for-bit. ``save`` additionally records the
lexicon's default negation scale as a ``# mu_default <value>`` pragma
comment; ``load`` honours it when present and otherwise takes the field's
default, so hand-written files need not carry it. Lines break only at LF,
CRLF and CR; any other line break is whitespace inside a row. ``loads`` reads
the lines in one pass, in file order, checking and converting each row as
it meets it, so a malformed lexicon's first fault, a bad ``# mu_default``
pragma included, is raised at its line. ``load`` skips a leading UTF-8
byte order mark.

Random initialization is reproducible across runs and platforms: it draws
from numpy's PCG64 generator (``numpy.random.default_rng(seed)``), taking
for each token in order n uniform doubles in [-1, 1] for the vector and
then n*n row-major standard normals for the matrix noise.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .core import (
    FunctionMatrix,
    LexicalEntry,
    NegationOperator,
    SegmentLayout,
    SemanticVector,
    _entry,
    _scale,
    make_negation_matrix,
)
from .errors import DegenerateNegationError, LexiconFormatError, UnknownTokenError
from .treeio import _check_word

__all__ = ["Lexicon", "init_random", "set_function_word", "dumps", "loads", "save", "load"]

MAGIC = "TRIPSEM 1"


@dataclass(frozen=True)
class Lexicon:
    """Immutable token -> LexicalEntry mapping with a shared layout and
    ``mu_default``, the negation scale in (0, 1] that every default reads."""

    layout: SegmentLayout
    entries: dict[str, LexicalEntry] = field(default_factory=dict)
    mu_default: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "mu_default", _scale(self.mu_default, "mu_default"))
        for token, entry in self.entries.items():
            _check_word(token, "token")
            if entry.token != token:
                raise ValueError(f"entry token {entry.token!r} filed under {token!r}")
            if entry.layout != self.layout:
                raise ValueError(
                    f"entry {token!r} has layout {entry.layout}, lexicon has {self.layout}"
                )

    def __contains__(self, token: str) -> bool:
        return token in self.entries

    def __getitem__(self, token: str) -> LexicalEntry:
        try:
            return self.entries[token]
        except KeyError:
            raise UnknownTokenError(f"token {token!r} is not in the lexicon") from None

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[LexicalEntry]:
        return iter(self.entries.values())

    def with_entry(self, entry: LexicalEntry) -> "Lexicon":
        """A new lexicon with ``entry`` added or replaced."""
        new_entries = dict(self.entries)
        new_entries[entry.token] = entry
        return Lexicon(self.layout, new_entries, self.mu_default)

    __hash__ = None


def init_random(
    tokens: Sequence[str],
    layout: SegmentLayout,
    seed: int,
    noise: float,
    mu_default: float = Lexicon.mu_default,
) -> Lexicon:
    """Deterministic seeded lexicon: v uniform in [-1, 1], M = I + noise * G
    with G standard normal, alpha = 1 for every token."""
    if not tokens:
        raise ValueError("tokens must be nonempty")
    if len(set(tokens)) != len(tokens):
        dupes = sorted(t for t, k in Counter(tokens).items() if k > 1)
        raise ValueError(f"duplicate tokens: {', '.join(dupes)}")
    if not (math.isfinite(noise) and noise >= 0.0):
        raise ValueError(f"noise must be finite and >= 0, got {noise!r}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    n = layout.n
    rng = np.random.default_rng(seed)
    eye = np.eye(n)
    entries: dict[str, LexicalEntry] = {}
    # A huge noise overflows to inf, which FunctionMatrix rejects.
    with np.errstate(over="ignore", invalid="ignore"):
        for token in tokens:
            _check_word(token, "token")
            v = rng.uniform(-1.0, 1.0, n)
            m = eye + noise * rng.standard_normal((n, n))
            entries[token] = LexicalEntry(
                token, SemanticVector(v, layout), FunctionMatrix(m, layout), 1.0
            )
    return Lexicon(layout, entries, mu_default)


def set_function_word(lex: Lexicon, token: str) -> Lexicon:
    """A new lexicon with ``token`` as its negation word: a zero vector, J_mu
    at the lexicon's ``mu_default`` as its matrix, and alpha = 0, so its
    function does not propagate past its own composition step."""
    _check_word(token, "token")
    layout = lex.layout
    if layout.d_inverted < 1:
        raise DegenerateNegationError(
            "negation needs at least one inverted dimension (d_inverted >= 1)")
    matrix = make_negation_matrix(NegationOperator(lex.mu_default, layout))
    return lex.with_entry(LexicalEntry(token, SemanticVector.zeros(layout), matrix, 0.0))


# ---------------------------------------------------------------------------
# serialization


def dumps(lex: Lexicon) -> str:
    lines = [
        MAGIC,
        f"layout {lex.layout.d_domain} {lex.layout.d_stable} {lex.layout.d_inverted}",
        f"# mu_default {lex.mu_default!r}",
    ]
    for entry in lex:
        lines.append(f"word {entry.token} {entry.alpha!r}")
        lines.append("v " + " ".join(map(repr, entry.v.values.tolist())))
        for row in entry.M.entries.tolist():
            lines.append("m " + " ".join(map(repr, row)))
    return "\n".join(lines) + "\n"


def _row_name(token: str, r: int) -> str:
    """What row ``r`` of ``token``'s block holds: its alpha, v or a row of M."""
    return f"{('alpha', 'vector')[r] if r < 2 else f'matrix row {r - 1}'} of {token!r}"


def _numbers(texts: list[str], lineno: int, token: str | None = None, r: int = 0) -> list[float]:
    """The numbers of row ``r`` of ``token``'s block, or of the ``# mu_default``
    pragma when ``token`` is None, all finite; else the row's fault: its first
    text that is no number, or failing that a non-finite value."""
    values: list[float] = []
    try:
        values.extend(map(float, texts))  # on a bad text, keeps the numbers before it
    except ValueError:
        fault = f"bad number {texts[len(values)]!r}"
    else:  # the sum is finite when every value is, unless large values overflow it
        if math.isfinite(sum(values)) or all(map(math.isfinite, values)):
            return values
        fault = "non-finite value"
    raise LexiconFormatError(f"{_row_name(token, r) if token else 'mu_default'}: {fault}", lineno)


def loads(text: str) -> Lexicon:
    mu_default, layout, token = Lexicon.mu_default, None, None
    entries: dict[str, LexicalEntry] = {}
    row = -2  # the row expected next: -2 header, -1 layout, then per word 0 word, 1 v, 2.. m
    # lines end at LF, CRLF and CR only; a final line break starts no line
    lines = (text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text).split("\n")
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if stripped.startswith("#"):
            parts = stripped[1:].split()
            if len(parts) == 2 and parts[0] == "mu_default":
                (mu,) = _numbers(parts[1:], lineno)  # outside the try: it raises its own fault
                try:
                    mu_default = _scale(mu, "mu_default")
                except ValueError as exc:
                    raise LexiconFormatError(str(exc), lineno) from None
            continue
        parts = stripped.split()
        if not parts:
            continue
        if row == -2:
            if parts != MAGIC.split():
                raise LexiconFormatError(f"bad header, expected {MAGIC!r}", lineno)
        elif row == -1:
            if len(parts) != 4 or parts[0] != "layout":
                raise LexiconFormatError(
                    "expected 'layout <d_domain> <d_stable> <d_inverted>'", lineno)
            try:
                layout = SegmentLayout(int(parts[1]), int(parts[2]), int(parts[3]))
            except ValueError as exc:
                raise LexiconFormatError(f"bad layout: {exc}", lineno) from None
            n = layout.n
        elif row == 0:
            if parts[0] != "word" or len(parts) != 3:
                raise LexiconFormatError("expected 'word <token> <alpha>'", lineno)
            token = parts[1]
            if token in entries:
                raise LexiconFormatError(f"duplicate word {token!r}", lineno)
            (alpha,) = _numbers(parts[2:], lineno, token)
            if alpha < 0.0:
                raise LexiconFormatError(
                    f"invalid entry {token!r}: alpha must be finite and >= 0, got {alpha!r}",
                    lineno)
            values: list[float] = []
        else:
            key = "vm"[row > 1]
            if parts[0] != key:
                raise LexiconFormatError(f"expected '{key} ...' for {token!r}", lineno)
            if len(parts) != n + 1:
                raise LexiconFormatError(
                    f"{_row_name(token, row)}: expected {n} values, got {len(parts) - 1}", lineno)
            values += _numbers(parts[1:], lineno, token, row)
            if row == n + 1:  # the block is complete
                block = np.array(values)
                entries[token] = _entry(token, block[:n], block[n:].reshape(n, n), alpha, layout)
                row = -1
        row += 1
    if row:  # the file ends before its layout line or inside a word's block
        what = {-2: "header", -1: "layout line", 1: f"v line of {token!r}"}.get(row)
        raise LexiconFormatError(
            f"unexpected end of file, expected {what or _row_name(token, row)}",
            len(lines) - (not lines[-1]))
    return Lexicon(layout, entries, mu_default)


def save(lex: Lexicon, destination: str | Path):
    Path(destination).write_text(dumps(lex), encoding="utf-8")


def load(source: str | Path) -> Lexicon:
    return loads(Path(source).read_text(encoding="utf-8-sig"))

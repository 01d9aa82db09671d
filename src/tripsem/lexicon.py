"""Lexicon creation, function-word presets, and serialization.

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
comment; ``load`` honours it when present and otherwise defaults to 0.5,
so hand-written files need not carry it. Lines break only at LF, CRLF
and CR; any other line break is whitespace inside a row. ``loads`` reads
the rows once, block by block, and raises a malformed lexicon's first
fault, a bad ``# mu_default`` pragma included, at its line in file order.

Random initialization is reproducible across runs and platforms: it draws
from numpy's PCG64 generator (``numpy.random.default_rng(seed)``), taking
for each token in order n uniform doubles in [-1, 1] for the vector and
then n*n row-major standard normals for the matrix noise.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from operator import length_hint
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
    make_negation_matrix,
)
from .errors import DegenerateNegationError, LexiconFormatError, UnknownTokenError
from .treeio import _check_word

__all__ = ["Lexicon", "init_random", "set_function_word", "dumps", "loads", "save", "load"]

MAGIC = "TRIPSEM 1"
PRESETS = ("negation", "identity")


@dataclass(frozen=True)
class Lexicon:
    """Immutable token -> LexicalEntry mapping with a shared layout."""

    layout: SegmentLayout
    entries: dict[str, LexicalEntry] = field(default_factory=dict)
    mu_default: float = 0.5

    def __post_init__(self):
        mu = float(self.mu_default)
        if not math.isfinite(mu) or not (0.0 < mu <= 1.0):
            raise ValueError(f"mu_default must lie in (0, 1], got {self.mu_default!r}")
        object.__setattr__(self, "mu_default", mu)
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
    mu_default: float = 0.5,
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


def set_function_word(
    lex: Lexicon, token: str, preset: str, mu: float | None = None
) -> Lexicon:
    """Install a function-word preset, returning a new lexicon.

    ``negation``: zero vector, the scaled partial inversion as function
    matrix, and alpha = 0 so the function does not propagate past its own
    composition step. ``identity``: zero vector, identity matrix, alpha = 1.
    """
    if preset not in PRESETS:
        raise ValueError(f"preset must be one of {PRESETS}, got {preset!r}")
    _check_word(token, "token")
    layout = lex.layout
    if preset == "negation":
        if layout.d_inverted < 1:
            raise DegenerateNegationError(
                "negation preset needs d_inverted >= 1, layout has none"
            )
        op = NegationOperator(lex.mu_default if mu is None else mu, layout)
        entry = LexicalEntry(
            token, SemanticVector.zeros(layout), make_negation_matrix(op), 0.0
        )
    else:
        entry = LexicalEntry(
            token, SemanticVector.zeros(layout), FunctionMatrix.identity(layout), 1.0
        )
    return lex.with_entry(entry)


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


def _read_entries(rows: list, layout: SegmentLayout, last: int) -> dict[str, LexicalEntry]:
    """The entries of the rows after the layout line, read block by block:
    one ``float`` pass converts a block's numbers, up to its first row that
    is missing or has a wrong keyword or count. The first fault is raised at
    its line, in the order a row-by-row reading meets it: a row's keyword
    and count, then its numbers. A repeated word and a negative alpha are
    faults of the word row."""
    n = layout.n
    entries: dict[str, LexicalEntry] = {}
    for first in range(2, len(rows), n + 2):
        lineno, parts = rows[first]
        if parts[0] != "word" or len(parts) != 3:
            raise LexiconFormatError("expected 'word <token> <alpha>'", lineno)
        token = parts[1]
        if token in entries:
            raise LexiconFormatError(f"duplicate word {token!r}", lineno)
        block = rows[first : first + n + 2] + [(last, None)]  # None: past the end of the file
        # stop: the first faulty row (n + 2: none), with its fault; later checks only lower it
        stop = next(r for r, (_, p) in enumerate(block[1:], 1)
                    if p is None or p[0] != "vm"[r > 1] or len(p) != n + 1)
        if stop < n + 2:  # row stop is missing, or its keyword or count is wrong
            row, key = block[stop][1], "vm"[stop > 1]
            what = f"v line of {token!r}" if stop == 1 else _row_name(token, stop)
            fault = (f"unexpected end of file, expected {what}" if row is None
                     else f"expected '{key} ...' for {token!r}" if row[0] != key
                     else f"{_row_name(token, stop)}: expected {n} values, got {len(row) - 1}")
        texts = [parts[2], *chain.from_iterable(p[1:] for _, p in block[1:stop])]
        left = iter(texts)
        try:
            values = np.fromiter(map(float, left), float, len(texts))
        except ValueError:  # the text at i is no number; those before it are
            i = len(texts) - 1 - length_hint(left)
            stop = (i + n - 1) // n
            fault = f"{_row_name(token, stop)}: bad number {texts[i]!r}"
            values = np.fromiter(map(float, texts[:i]), float, i)
        finite = np.isfinite(values)
        if not finite.all() and (r := (int(np.argmin(finite)) + n - 1) // n) < stop:
            stop, fault = r, f"{_row_name(token, r)}: non-finite value"
        if stop and values[0] < 0.0:  # the word row is read, and its alpha is finite
            alpha, stop = float(values[0]), 0
            fault = f"invalid entry {token!r}: alpha must be finite and >= 0, got {alpha!r}"
        if stop < n + 2:
            raise LexiconFormatError(fault, block[stop][0])
        v, m = values[1 : n + 1], values[n + 1 :].reshape(n, n)
        entries[token] = _entry(token, v, m, float(values[0]), layout)
    return entries


def loads(text: str) -> Lexicon:
    mu_default = 0.5
    pragma_fault: LexiconFormatError | None = None
    rows: list[tuple[int, list[str]]] = []
    # lines end at LF, CRLF and CR only; a final line break starts no line
    lines = (text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text).split("\n")
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            parts = stripped[1:].split()
            if len(parts) == 2 and parts[0] == "mu_default" and pragma_fault is None:
                try:
                    mu_default = float(parts[1])
                    fault = (None if 0.0 < mu_default <= 1.0
                             else "mu_default: non-finite value" if not math.isfinite(mu_default)
                             else f"mu_default must lie in (0, 1], got {mu_default!r}")
                except ValueError:
                    fault = f"mu_default: bad number {parts[1]!r}"
                pragma_fault = LexiconFormatError(fault, lineno) if fault else None
            continue
        rows.append((lineno, stripped.split()))
    last = len(lines) - (not lines[-1])

    try:
        if not rows:
            raise LexiconFormatError("unexpected end of file, expected header", last)
        if rows[0][1] != MAGIC.split():
            raise LexiconFormatError(f"bad header, expected {MAGIC!r}", rows[0][0])
        if len(rows) == 1:
            raise LexiconFormatError("unexpected end of file, expected layout line", last)
        lineno, parts = rows[1]
        if len(parts) != 4 or parts[0] != "layout":
            raise LexiconFormatError("expected 'layout <d_domain> <d_stable> <d_inverted>'", lineno)
        try:
            layout = SegmentLayout(int(parts[1]), int(parts[2]), int(parts[3]))
        except ValueError as exc:
            raise LexiconFormatError(f"bad layout: {exc}", lineno) from None
        entries = _read_entries(rows, layout, last)
    except LexiconFormatError as exc:  # a bad pragma is reported in its place in file order
        raise (pragma_fault if pragma_fault and pragma_fault.line <= exc.line else exc) from None
    if pragma_fault:
        raise pragma_fault
    return Lexicon(layout, entries, mu_default)


def save(lex: Lexicon, destination: str | Path):
    Path(destination).write_text(dumps(lex), encoding="utf-8")


def load(source: str | Path) -> Lexicon:
    return loads(Path(source).read_text(encoding="utf-8"))

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
so hand-written files need not carry it.

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


def _parse_floats(parts: list[str], count: int, lineno: int, what: str) -> np.ndarray:
    if len(parts) != count:
        raise LexiconFormatError(
            f"{what}: expected {count} values, got {len(parts)}", lineno
        )
    out = np.empty(count)
    for i, text in enumerate(parts):
        try:
            out[i] = float(text)
        except ValueError:
            raise LexiconFormatError(f"{what}: bad number {text!r}", lineno) from None
    if not np.all(np.isfinite(out)):
        raise LexiconFormatError(f"{what}: non-finite value", lineno)
    return out


def loads(text: str) -> Lexicon:
    mu_default = 0.5
    rows: list[tuple[int, list[str]]] = []
    last_lineno = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        last_lineno = lineno
        stripped = raw.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            parts = stripped[1:].split()
            if len(parts) == 2 and parts[0] == "mu_default":
                mu_default = float(_parse_floats(parts[1:], 1, lineno, "mu_default")[0])
                if not 0.0 < mu_default <= 1.0:
                    raise LexiconFormatError(
                        f"mu_default must lie in (0, 1], got {mu_default!r}", lineno
                    )
            continue
        rows.append((lineno, stripped.split()))

    cursor = 0

    def take(what: str) -> tuple[int, list[str]]:
        nonlocal cursor
        if cursor >= len(rows):
            raise LexiconFormatError(f"unexpected end of file, expected {what}", last_lineno)
        row = rows[cursor]
        cursor += 1
        return row

    lineno, parts = take("header")
    if parts != MAGIC.split():
        raise LexiconFormatError(f"bad header, expected {MAGIC!r}", lineno)
    lineno, parts = take("layout line")
    if len(parts) != 4 or parts[0] != "layout":
        raise LexiconFormatError("expected 'layout <d_domain> <d_stable> <d_inverted>'", lineno)
    try:
        layout = SegmentLayout(int(parts[1]), int(parts[2]), int(parts[3]))
    except ValueError as exc:
        raise LexiconFormatError(f"bad layout: {exc}", lineno) from None
    n = layout.n

    entries: dict[str, LexicalEntry] = {}
    while cursor < len(rows):
        lineno, parts = take("word line")
        if parts[0] != "word" or len(parts) != 3:
            raise LexiconFormatError("expected 'word <token> <alpha>'", lineno)
        token = parts[1]
        if token in entries:
            raise LexiconFormatError(f"duplicate word {token!r}", lineno)
        alpha = float(_parse_floats([parts[2]], 1, lineno, f"alpha of {token!r}")[0])
        lineno, parts = take(f"v line of {token!r}")
        if parts[0] != "v":
            raise LexiconFormatError(f"expected 'v ...' for {token!r}", lineno)
        v = _parse_floats(parts[1:], n, lineno, f"vector of {token!r}")
        m = np.empty((n, n))
        for r in range(n):
            lineno, parts = take(f"matrix row {r + 1} of {token!r}")
            if parts[0] != "m":
                raise LexiconFormatError(f"expected 'm ...' for {token!r}", lineno)
            m[r] = _parse_floats(parts[1:], n, lineno, f"matrix row {r + 1} of {token!r}")
        try:
            entries[token] = LexicalEntry(
                token, SemanticVector(v, layout), FunctionMatrix(m, layout), alpha
            )
        except ValueError as exc:
            raise LexiconFormatError(f"invalid entry {token!r}: {exc}", lineno) from None
    return Lexicon(layout, entries, mu_default)


def save(lex: Lexicon, destination: str | Path):
    Path(destination).write_text(dumps(lex), encoding="utf-8")


def load(source: str | Path) -> Lexicon:
    return loads(Path(source).read_text(encoding="utf-8"))

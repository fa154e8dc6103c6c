"""The on-disk format of params, key and ciphertext files.

A file is `key = value` lines: a header (version, n, d, field_poly),
then the pairs of its kind. Rows and vectors are entry lines, d
comma-separated `0x` hex field elements.
"""

from __future__ import annotations

import os
from typing import Iterable

from .gf2field import FieldElement, FieldSpec


class FileFormatError(ValueError):
    pass


def hex_line(ints: Iterable[int]) -> str:
    """An entry line: each field element's bits as `0x` hex."""
    return ",".join(format(b, "#x") for b in ints)


def parse_entries(
    text: str, spec: FieldSpec, d: int, where: str
) -> tuple[FieldElement, ...]:
    """An entry line of d field elements; errors begin with `where`."""
    try:
        entries = []
        for part in text.split(","):
            s = part.strip().lower()
            if not s.startswith("0x"):
                raise ValueError(f"field element must start with 0x, got {part!r}")
            entries.append(FieldElement(int(s, 16), spec))
    except ValueError as exc:
        raise FileFormatError(f"{where}: {exc}") from None
    if len(entries) != d:
        raise FileFormatError(f"{where} has {len(entries)} entries, expected d = {d}")
    return tuple(entries)


def write_kv(
    path: str | os.PathLike, spec: FieldSpec, d: int, pairs: list[tuple[str, str]]
) -> None:
    """The header of a (spec, d) file, then the pairs."""
    head = [("version", 1), ("n", spec.n), ("d", d), ("field_poly", hex(spec.modulus))]
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in head + pairs:
            fh.write(f"{key} = {value}\n")


class KvReader:
    """Sequential schema-checking view over a file's pairs.

    Blank lines are ignored; anything else must contain '='. Duplicate
    keys are kept in order (ciphertext files repeat Ar/w per block). The
    header is checked on opening and gives `spec` and `d`.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = path
        with open(path, encoding="utf-8") as fh:
            try:
                lines = list(fh)
            except UnicodeDecodeError:
                raise FileFormatError(f"{path}: not UTF-8 text") from None
        self.pairs = []
        for lineno, raw in enumerate(lines, 1):
            line = raw.strip()
            if not line:
                continue
            if "=" not in line:
                raise FileFormatError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if not key:
                raise FileFormatError(f"{path}:{lineno}: empty key")
            self.pairs.append((key, value))
        self.pos = 0
        version = self.expect_int("version")
        if version != 1:
            raise FileFormatError(f"{path}: unsupported version {version}")
        n = self.expect_int("n")
        self.d = self.expect_int("d")
        if self.d < 1:
            raise FileFormatError(f"{path}: d must be positive, got {self.d}")
        modulus = self.expect_int("field_poly")
        try:
            self.spec = FieldSpec(n, modulus)
        except ValueError as exc:
            raise FileFormatError(f"{path}: {exc}") from None

    def expect(self, key: str) -> str:
        if self.pos >= len(self.pairs):
            raise FileFormatError(f"{self.path}: missing key {key!r}")
        k, v = self.pairs[self.pos]
        if k != key:
            raise FileFormatError(
                f"{self.path}: expected key {key!r}, found {k!r}"
            )
        self.pos += 1
        return v

    def expect_int(self, key: str) -> int:
        v = self.expect(key)
        try:
            return int(v, 0)
        except ValueError:
            raise FileFormatError(f"{self.path}: {key} is not an integer: {v!r}")

    def entries(self, key: str) -> tuple[FieldElement, ...]:
        """The entry line under `key`: a row or a vector."""
        return parse_entries(self.expect(key), self.spec, self.d, f"{self.path}: {key}")

    def done(self) -> None:
        if self.pos != len(self.pairs):
            k, _ = self.pairs[self.pos]
            raise FileFormatError(f"{self.path}: unknown key {k!r}")

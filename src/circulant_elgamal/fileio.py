"""Line-oriented `key = value` text files used for params, keys, ciphertexts."""

from __future__ import annotations

import os


class FileFormatError(ValueError):
    pass


def read_kv(path: str | os.PathLike) -> list[tuple[str, str]]:
    """Parse a file into ordered (key, value) pairs.

    Blank lines are ignored; anything else must contain '='. Duplicate
    keys are preserved in order (ciphertext files repeat Ar/w per block).
    """
    pairs = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            if "=" not in line:
                raise FileFormatError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if not key:
                raise FileFormatError(f"{path}:{lineno}: empty key")
            pairs.append((key, value))
    return pairs


def write_kv(path: str | os.PathLike, pairs: list[tuple[str, str]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in pairs:
            fh.write(f"{key} = {value}\n")


class KvReader:
    """Sequential schema-checking view over parsed pairs."""

    def __init__(self, path: str | os.PathLike):
        self.path = path
        self.pairs = read_kv(path)
        self.pos = 0

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

    def done(self) -> None:
        if self.pos != len(self.pairs):
            k, _ = self.pairs[self.pos]
            raise FileFormatError(f"{self.path}: unknown key {k!r}")


def check_version(reader: KvReader, expected: int = 1) -> None:
    v = reader.expect_int("version")
    if v != expected:
        raise FileFormatError(f"{reader.path}: unsupported version {v}")

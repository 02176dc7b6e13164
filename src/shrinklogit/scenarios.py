"""Scenario files: replayable inputs for risk sweeps and dominance checks.

A scenario file is plain text combining key = value metadata with
labeled blocks of comma separated numeric rows:

    [meta]
    d = 0.5
    [C]
    4.0,1.0
    1.0,2.0
    [beta]
    1.0,-1.0
    [H]
    1.0,0.0
    [h]
    0.0

Blocks C and beta are required; H and h come together and are optional.
The matrices C and H have rows of one length, and C is square; the
vectors beta and h are each one row or one column of numbers; [meta]
holds at most m (C's size) and d, once each. Any other section or key,
a section or key given twice, a non-numeric value, a non-finite entry
(inf or nan) of a block, or a malformed or empty block raises
CsvParseError naming the file and section.
Lines starting with '#' are comments. Numbers are written with full
round-trip precision so write-then-read is exact.

The command line reads its number flags (--H, --h, --d, --d-grid) with
the same :func:`parse_row`, :func:`matrix_block` and :func:`vector_block`;
their errors name the flag in place of the file and section. Its
--restriction-file is read by :func:`load_restriction`, which reads
[H]/[h] as :func:`load_scenario` does and needs no other section. A
UTF-8 byte-order mark at the start of a file is skipped.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CsvParseError
from .logit import LinearRestriction
from .risk import RiskScenario

__all__ = ["load_scenario", "save_scenario"]


def save_scenario(path, scenario: RiskScenario, d: float | None = None):
    """Write a scenario (and optionally a biasing parameter) to a file."""
    lines = ["[meta]"]
    lines.append(f"m = {scenario.m}")
    if d is not None:
        lines.append(f"d = {float(d)!r}")
    lines.append("[C]")
    lines.extend(",".join(repr(float(v)) for v in row) for row in scenario.C)
    lines.append("[beta]")
    lines.append(",".join(repr(float(v)) for v in scenario.beta_true))
    if scenario.restriction is not None:
        lines.append("[H]")
        lines.extend(
            ",".join(repr(float(v)) for v in row) for row in scenario.restriction.H
        )
        lines.append("[h]")
        lines.append(",".join(repr(float(v)) for v in scenario.restriction.h))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def _parse_blocks(path):
    sections: dict[str, list[list[float]]] = {}
    meta: dict[str, tuple[float, int]] = {}
    seen: set[str] = set()
    current = None
    with open(path, encoding="utf-8-sig") as handle:
        for lineno, line in enumerate(handle, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if text.startswith("[") and text.endswith("]"):
                current = text[1:-1].strip()
                if current not in ("meta", "C", "beta", "H", "h"):
                    raise CsvParseError(f"{path}:{lineno}: unknown section [{current}]", row=lineno)
                if current in seen:
                    raise CsvParseError(f"{path}:{lineno}: section [{current}] given twice", row=lineno)
                seen.add(current)
                if current != "meta":
                    sections[current] = []
                continue
            if current is None:
                raise CsvParseError(
                    f"{path}:{lineno}: data before any section header", row=lineno
                )
            if current == "meta":
                key, equals, value = (part.strip() for part in text.partition("="))
                where = f"{path}:{lineno}: section [meta]"
                if not equals:
                    raise CsvParseError(f"{path}:{lineno}: expected 'key = value'", row=lineno)
                if key not in ("m", "d") or key in meta:
                    problem = f"gives key {key!r} twice" if key in meta else f"has unknown key {key!r}"
                    raise CsvParseError(f"{where} {problem}", row=lineno)
                try:
                    meta[key] = (float(value), lineno)
                except ValueError:
                    raise CsvParseError(f"{where} has non-numeric {key} = {value!r}", row=lineno) from None
                continue
            row = parse_row(text, f"{path}:{lineno}", row=lineno)
            if not all(map(math.isfinite, row)):
                raise CsvParseError(f"{path}:{lineno}: section [{current}] has non-finite entries", row=lineno)
            sections[current].append(row)
    return meta, sections


def parse_row(text: str, where: str, row: int | None = None) -> list[float]:
    """Comma separated numbers, every item one (so an empty item is an error)."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise CsvParseError(f"{where}: cannot parse numeric row {text!r}", row=row) from None


def matrix_block(rows: list[list[float]], where: str) -> np.ndarray:
    """A matrix block: at least one row, every row as long as the first."""
    if not rows:
        raise CsvParseError(f"{where} has no rows")
    if any(len(row) != len(rows[0]) for row in rows):
        raise CsvParseError(f"{where} has rows of different lengths")
    return np.array(rows)


def vector_block(rows: list[list[float]], where: str) -> np.ndarray:
    """A vector block, written as one row or as one column."""
    if len(rows) == 1:
        return np.array(rows[0])
    if all(len(row) == 1 for row in rows):
        return np.array([row[0] for row in rows])
    raise CsvParseError(f"{where} must be one row or one column of numbers")


def load_scenario(path) -> tuple[RiskScenario, float | None]:
    """Read a scenario file; returns the scenario and the d from [meta], if any."""
    meta, sections = _parse_blocks(path)
    for required in ("C", "beta"):
        if required not in sections or not sections[required]:
            raise CsvParseError(f"{path}: missing required section [{required}]")
    C = matrix_block(sections["C"], f"{path}: section [C]")
    if C.shape[0] != C.shape[1]:
        raise CsvParseError(f"{path}: section [C] must be square, got {C.shape[0]} rows of {C.shape[1]}")
    if "m" in meta and meta["m"][0] != C.shape[0]:
        m, lineno = meta["m"]
        raise CsvParseError(f"{path}:{lineno}: section [meta] has m = {m:g} for a {len(C)} x {len(C)} [C]", row=lineno)
    beta = vector_block(sections["beta"], f"{path}: section [beta]")
    d = meta["d"][0] if "d" in meta else None
    return RiskScenario(C=C, beta_true=beta, restriction=_restriction(path, sections)), d


def load_restriction(path) -> LinearRestriction | None:
    """The [H]/[h] pair of a scenario-format file, or None if it has
    neither. The file needs no other section; any other it has must
    parse but is not used."""
    return _restriction(path, _parse_blocks(path)[1])


def _restriction(path, sections) -> LinearRestriction | None:
    """The one reading of a parsed file's [H]/[h] pair."""
    if "H" not in sections:
        if "h" in sections:
            raise CsvParseError(f"{path}: section [h] present but [H] missing")
        return None
    if "h" not in sections or not sections["h"]:
        raise CsvParseError(f"{path}: section [H] present but [h] missing")
    H = matrix_block(sections["H"], f"{path}: section [H]")
    return LinearRestriction(H, vector_block(sections["h"], f"{path}: section [h]"))

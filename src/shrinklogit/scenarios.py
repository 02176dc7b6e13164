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
holds at most m (C's size) and d (in [0, 1]), once each. Any other
section or key, a section or key given twice, a non-numeric value, a d
that is not in [0, 1] (nan included), a non-finite entry (inf or nan) of
a block, or a malformed or empty block raises CsvParseError naming the
file and section.
Lines starting with '#' are comments. Numbers are written with full
round-trip precision so write-then-read is exact.

The command line reads its number flags (--H, --h, --d, --d-grid) with
the same :func:`parse_row`, :func:`matrix_block` and :func:`vector_block`;
their errors name the flag in place of the file and section. Its
--restriction-file is read by :func:`load_restriction`, which reads
[H]/[h] as :func:`load_scenario` does and needs no other section. A
UTF-8 byte-order mark at the start of a file is skipped, and a file that
is not UTF-8 text raises CsvParseError naming the file.
"""

from __future__ import annotations

import math

import numpy as np

from .datasets import _read_lines
from .errors import CsvParseError
from .estimators import KINDS, _NO_D
from .logit import LinearRestriction
from .risk import RiskScenario, _check_scenario

__all__ = ["load_scenario", "save_scenario"]


def save_scenario(path, scenario: RiskScenario, d: float | None = None):
    """Write a scenario (and optionally a biasing parameter) to a file.

    Every number is written as the ``repr`` of its Python float, which
    reads back exactly. ValueError, before the file is opened, for a
    scenario that is not a :class:`RiskScenario` and for a d that no
    estimator takes: a bool, not a real number, or not in [0, 1].
    """
    # the scenario door, with the MLE's request: the check of every d an estimator takes
    _, d_values = _check_scenario(scenario, KINDS[:1], _NO_D if d is None else [d])
    lines = ["[meta]", f"m = {scenario.m}"]
    if d_values is not None:
        lines.append(f"d = {d_values[0]!r}")
    lines += ["[C]", *map(_row, scenario.C.tolist()), "[beta]", _row(scenario.beta_true.tolist())]
    if scenario.restriction is not None:
        H, h = scenario.restriction.H, scenario.restriction.h
        lines += ["[H]", *map(_row, H.tolist()), "[h]", _row(h.tolist())]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def _row(values: list[float]) -> str:
    """One block row: the values' reprs, comma separated."""
    return ",".join(map(repr, values))


def _parse_blocks(path):
    sections: dict[str, list[list[float]]] = {}
    meta: dict[str, tuple[float, int]] = {}
    seen: set[str] = set()
    current = None
    for lineno, line in enumerate(_read_lines(path), start=1):
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
            raise CsvParseError(f"{path}:{lineno}: data before any section header", row=lineno)
        if current == "meta":
            key, equals, value = (part.strip() for part in text.partition("="))
            where = f"{path}:{lineno}: section [meta]"
            if not equals:
                raise CsvParseError(f"{where} expected 'key = value'", row=lineno)
            if key not in ("m", "d") or key in meta:
                problem = f"gives key {key!r} twice" if key in meta else f"has unknown key {key!r}"
                raise CsvParseError(f"{where} {problem}", row=lineno)
            try:
                number = float(value)
            except ValueError:
                raise CsvParseError(f"{where} has non-numeric {key} = {value!r}", row=lineno) from None
            if key == "d" and not 0.0 <= number <= 1.0:
                raise CsvParseError(f"{where} has d = {number!r}, not in [0, 1]", row=lineno)
            meta[key] = (number, lineno)
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

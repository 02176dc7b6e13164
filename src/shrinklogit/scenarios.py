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
The matrices C and H have rows of one length; the vectors beta and h are
each one row or one column of numbers. Any other section, a non-numeric
d, or a malformed block raises CsvParseError naming the file and section.
Lines starting with '#' are comments. Numbers are written with full
round-trip precision so write-then-read is exact.
"""

from __future__ import annotations

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
    meta: dict[str, str] = {}
    current = None
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if text.startswith("[") and text.endswith("]"):
                current = text[1:-1].strip()
                if current not in ("meta", "C", "beta", "H", "h"):
                    raise CsvParseError(f"{path}:{lineno}: unknown section [{current}]", row=lineno)
                if current != "meta":
                    sections.setdefault(current, [])
                continue
            if current is None:
                raise CsvParseError(
                    f"{path}:{lineno}: data before any section header", row=lineno
                )
            if current == "meta":
                if "=" not in text:
                    raise CsvParseError(
                        f"{path}:{lineno}: expected 'key = value'", row=lineno
                    )
                key, _, value = text.partition("=")
                meta[key.strip()] = value.strip()
                continue
            try:
                sections[current].append([float(v) for v in text.split(",")])
            except ValueError:
                raise CsvParseError(
                    f"{path}:{lineno}: cannot parse numeric row {text!r}", row=lineno
                ) from None
    return meta, sections


def _matrix(path, sections, name):
    """A matrix block: every row as long as the first."""
    rows = sections[name]
    if any(len(row) != len(rows[0]) for row in rows):
        raise CsvParseError(f"{path}: section [{name}] has rows of different lengths")
    return np.array(rows)


def _vector(path, sections, name):
    """A vector block, written as one row or as one column."""
    rows = sections[name]
    if len(rows) == 1:
        return np.array(rows[0])
    if all(len(row) == 1 for row in rows):
        return np.array([row[0] for row in rows])
    raise CsvParseError(f"{path}: section [{name}] must be one row or one column of numbers")


def load_scenario(path) -> tuple[RiskScenario, float | None]:
    """Read a scenario file; returns the scenario and the d from [meta], if any."""
    meta, sections = _parse_blocks(path)
    for required in ("C", "beta"):
        if required not in sections or not sections[required]:
            raise CsvParseError(f"{path}: missing required section [{required}]")
    C = _matrix(path, sections, "C")
    beta = _vector(path, sections, "beta")
    restriction = None
    if "H" in sections:
        if "h" not in sections or not sections["h"]:
            raise CsvParseError(f"{path}: section [H] present but [h] missing")
        restriction = LinearRestriction(_matrix(path, sections, "H"), _vector(path, sections, "h"))
    elif "h" in sections:
        raise CsvParseError(f"{path}: section [h] present but [H] missing")
    try:
        d = float(meta["d"]) if "d" in meta else None
    except ValueError:
        raise CsvParseError(f"{path}: section [meta] has non-numeric d = {meta['d']!r}") from None
    return RiskScenario(C=C, beta_true=beta, restriction=restriction), d

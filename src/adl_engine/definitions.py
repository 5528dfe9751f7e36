"""Complex-activity definitions: weighted atomic activities paired 1:1 with
context attributes, core/start/end id sets, and a completion threshold.

A definition file is one JSON document holding a list of definitions; the
repository ships two catalogues, ``definitions/ukdale.json`` (appliance
activities) and ``definitions/adl.json`` (daily-living activities).
`check_definitions` applies every catalogue rule to a list of files, for
the `validate` subcommand and for `load_definitions`, which the stages call:
a file with no definitions, a name that an earlier definition took
(``duplicate definition 'Sleeping'``) and a `validate_definition` violation
are each a fault.
"""

from __future__ import annotations

import json
import math
from functools import cached_property
from pathlib import Path
from typing import Iterable, NamedTuple

from . import InputError, json_integer, json_number

WEIGHT_SUM_TOLERANCE = 1e-6

# the previous activity of a first occurrence, in models and feature rows;
# no definition may take this name
NO_PREVIOUS = "none"

# the fields that hold a set of atomic or context ids
_ID_SETS = ("core_atomics", "core_contexts", "start_atomics", "start_contexts",
            "end_atomics", "end_contexts")


class DefinitionError(InputError):
    """Raised when a definition file cannot be parsed or breaks a rule.

    ``violations`` lists every fault found, as ``<path>: <fault>``, not just
    the first.
    """

    def __init__(self, message: str, violations: list[str] | None = None):
        super().__init__(message)
        self.violations = violations or []


class AtomicActivity(NamedTuple):
    """One indivisible sub-action of a complex activity."""

    id: int
    label: str
    weight: float


class ContextAttribute(NamedTuple):
    """The environmental precondition paired with the same-index atomic."""

    id: int
    label: str
    weight: float


class _Definition(NamedTuple):
    name: str
    short_code: str
    atomics: tuple[AtomicActivity, ...]
    contexts: tuple[ContextAttribute, ...]
    core_atomics: frozenset[int]
    core_contexts: frozenset[int]
    start_atomics: frozenset[int]
    start_contexts: frozenset[int]
    end_atomics: frozenset[int]
    end_contexts: frozenset[int]
    threshold: float
    comment: str = ""


class ComplexActivityDefinition(_Definition):
    """A named activity decomposed into weighted atomics and contexts.

    ``atomics`` and ``contexts`` are positionally paired (id i with id i);
    the core/start/end sets reference those ids.  ``threshold`` is the
    minimum occurrence weight at or above which an instance counts as
    successfully completed.  The id sets, weight totals and most important
    pair are computed on first use and then shared by every caller, so all
    records of one definition hold the same two id-set objects.  (The class
    has no ``__slots__``: its instances keep those values in a ``__dict__``.)
    """

    @cached_property
    def atomic_ids(self) -> frozenset[int]:
        return frozenset(a.id for a in self.atomics)

    @cached_property
    def context_ids(self) -> frozenset[int]:
        return frozenset(c.id for c in self.contexts)

    @cached_property
    def atomic_weight_total(self) -> float:
        return math.fsum(a.weight for a in self.atomics)

    @cached_property
    def context_weight_total(self) -> float:
        return math.fsum(c.weight for c in self.contexts)

    @cached_property
    def most_important_pair(self) -> tuple[int, int]:
        """(atomic id, context id) of the maximum-weight atomic activity.

        Ties break toward the lowest id; the context id is the positional pair.
        """
        best = max(self.atomics, key=lambda a: (a.weight, -a.id))
        return best.id, best.id


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate_definition(defn: ComplexActivityDefinition) -> list[str]:
    """Check every structural invariant; return the list of violations.

    An empty list means the definition is valid.  Violations are data, not
    exceptions: callers decide whether to raise.
    """
    problems: list[str] = []
    prefix = f"{defn.name}: "

    if not defn.name:
        problems.append("definition name is empty")
    if any(ch < " " or "\x7f" <= ch <= "\x9f" for ch in defn.name):
        # a control character (Unicode category Cc), such as a line break,
        # would split the name's rows in every stage table
        prefix = f"{defn.name!r}: "
        problems.append(prefix + "definition name holds a control character")
    if defn.name == NO_PREVIOUS:
        problems.append(prefix + "the name is reserved for no previous activity")
    if not defn.atomics:
        problems.append(prefix + "no atomic activities")
        return problems

    atomic_ids = [a.id for a in defn.atomics]
    context_ids = [c.id for c in defn.contexts]
    n = len(atomic_ids)

    if atomic_ids != list(range(1, n + 1)):
        problems.append(prefix + f"atomic ids must be contiguous from 1, got {atomic_ids}")
    if len(defn.contexts) != n:
        problems.append(
            prefix + f"expected one context attribute per atomic activity "
            f"({n}), got {len(defn.contexts)}"
        )
    elif context_ids != atomic_ids:
        problems.append(prefix + f"context ids must mirror atomic ids, got {context_ids}")

    before = len(problems)
    for a in defn.atomics:
        if not 0.0 <= a.weight <= 1.0:
            problems.append(prefix + f"At{a.id} weight {a.weight} outside [0, 1]")
    for c in defn.contexts:
        if not 0.0 <= c.weight <= 1.0:
            problems.append(prefix + f"Ct{c.id} weight {c.weight} outside [0, 1]")

    # a weight out of range is not summed: fsum raises on 1e308 twice, or inf and -inf
    in_range = len(problems) == before
    if in_range and abs(defn.atomic_weight_total - 1.0) > WEIGHT_SUM_TOLERANCE:
        problems.append(
            prefix + f"atomic weights sum to {defn.atomic_weight_total}, expected 1 "
            f"(tolerance {WEIGHT_SUM_TOLERANCE})"
        )
    if in_range and abs(defn.context_weight_total - 1.0) > WEIGHT_SUM_TOLERANCE:
        problems.append(
            prefix + f"context weights sum to {defn.context_weight_total}, expected 1 "
            f"(tolerance {WEIGHT_SUM_TOLERANCE})"
        )

    for set_name in _ID_SETS:
        valid = defn.atomic_ids if set_name.endswith("atomics") else defn.context_ids
        dangling = sorted(set(getattr(defn, set_name)) - valid)
        if dangling:
            problems.append(prefix + f"{set_name} references missing ids {dangling}")

    if not defn.start_atomics:
        problems.append(prefix + "start_atomics is empty")
    if not defn.end_atomics:
        problems.append(prefix + "end_atomics is empty")

    if not 0.0 < defn.threshold <= 1.0:
        problems.append(prefix + f"threshold {defn.threshold} outside (0, 1]")

    return problems


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------

def _definition_from_dict(raw: dict, source: str) -> ComplexActivityDefinition:
    try:
        atomics = tuple(
            AtomicActivity(id=json_integer(a["id"]), label=str(a["label"]),
                           weight=json_number(a["weight"]))
            for a in raw["atomics"]
        )
        contexts = tuple(
            ContextAttribute(id=json_integer(c["id"]), label=str(c["label"]),
                             weight=json_number(c["weight"]))
            for c in raw["contexts"]
        )
        return ComplexActivityDefinition(
            name=str(raw["name"]),
            short_code=str(raw["short_code"]),
            atomics=atomics,
            contexts=contexts,
            **{key: frozenset(map(json_integer, raw[key])) for key in _ID_SETS},
            threshold=json_number(raw["threshold"]),
            comment=str(raw.get("comment", "")),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DefinitionError(f"{source}: malformed definition entry: {exc}") from exc


def parse_definition_file(path: str | Path) -> list[ComplexActivityDefinition]:
    """Parse a definition file without applying any catalogue rule.

    A file that cannot be read, is not JSON, or holds an entry that does not
    convert raises; the rules are left to `check_definitions`.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DefinitionError(f"{path}: not valid JSON: {exc}") from exc
    except (OSError, ValueError) as exc:  # ValueError: undecodable text, a NUL in the path
        raise DefinitionError(f"cannot read {path}: {exc}") from exc

    if not isinstance(raw, dict) or not isinstance(raw.get("definitions"), list):
        raise DefinitionError(f"{path}: expected an object with a 'definitions' list")
    return [_definition_from_dict(entry, str(path)) for entry in raw["definitions"]]


def check_definitions(
    paths: Iterable[str | Path],
) -> tuple[dict[str, ComplexActivityDefinition], list[str], int]:
    """Apply every catalogue rule to the definition files ``paths``, in order.

    Returns the definitions that break no rule, by name in file order; every
    fault, as ``<path>: <fault>``; and the number of definitions read.  A
    file that cannot be parsed raises DefinitionError.
    """
    passed: dict[str, ComplexActivityDefinition] = {}
    faults: list[str] = []
    names: set[str] = set()
    total = 0
    for path in paths:
        parsed = parse_definition_file(path)
        if not parsed:
            faults.append(f"{path}: definition set is empty")
        total += len(parsed)
        for defn in parsed:
            problems = validate_definition(defn)
            if defn.name in names:
                problems.insert(0, f"duplicate definition {defn.name!r}")
            names.add(defn.name)
            faults.extend(f"{path}: {problem}" for problem in problems)
            if not problems:
                passed[defn.name] = defn
    return passed, faults, total


def load_definitions(*paths: str | Path) -> dict[str, ComplexActivityDefinition]:
    """``{name: definition}`` of the files ``paths``, in file order; a
    DefinitionError lists every fault `check_definitions` finds."""
    passed, faults, _ = check_definitions(paths)
    if faults:
        raise DefinitionError(
            f"{len(faults)} definition fault(s):\n  " + "\n  ".join(faults),
            violations=faults,
        )
    return passed

"""Capability identifiers, the 7-step quantification scale, and the catalog.

Capabilities are identified hierarchically as complex.main.detail
(e.g. "3.04.08"); the detail component is omitted for main-level entries
(e.g. "4.01") and stored as 0, which no parsed component can be. An id is
an immutable ``(complex, main, detail)`` tuple of validated integers, so
it hashes, compares and orders as that tuple does: a main-level id sorts
just before its details, every artifact lists ids in that one canonical
order, and an id equals the plain tuple of its components.

Quantifications live on the integer scale 0..6, where the raw scale
labels are 0,1,2,3-,3+,4,5 (3- and 3+ are stored as 3 and 4 so that
arithmetic on scores stays plain integer arithmetic).
"""

from __future__ import annotations

import csv
import numbers
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from importlib import resources
from typing import Callable, Hashable, Iterable, Iterator

from .errors import CapabilityIdError, CapnetError, CatalogError, QuantificationError

__all__ = [
    "CapabilityId",
    "quantification",
    "parse_score",
    "QUANT_MIN",
    "QUANT_MAX",
    "QUANT_LABELS",
    "DEFAULT_N_MIN",
    "DEFAULT_P_MAX",
    "DEFAULT_P_HAT_MAX",
    "quantification_label",
    "Category",
    "Posture",
    "Laterality",
    "CatalogEntry",
    "CapabilityCatalog",
    "parse_capability_id",
    "read_table",
    "sitting_over_table_set",
    "load_default_catalog",
]


class CapabilityId(namedtuple("CapabilityId", "complex main detail", defaults=(0,))):
    """Hierarchical capability identifier: complex.main[.detail].

    An immutable ``(complex, main, detail)`` tuple of validated integers:
    ``complex`` and ``main`` are positive, ``detail`` is 0 for a main-level
    id. Field order is the canonical order: "3.04" < "3.04.01" < "3.04.08"
    < "3.05". Hashing, equality and ordering are the tuple's own, so an id
    equals (and hashes like) the plain tuple of its components.
    """

    __slots__ = ()

    def __new__(cls, complex: int, main: int, detail: int = 0):
        for part, value in (("complex", complex), ("main", main)):
            if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
                raise CapabilityIdError(f"{part} component must be a positive integer, got {value!r}")
        if not isinstance(detail, int) or isinstance(detail, bool) or detail < 0:
            raise CapabilityIdError(f"detail component must be a non-negative integer, got {detail!r}")
        return tuple.__new__(cls, (complex, main, detail))

    @classmethod
    def _make(cls, iterable) -> "CapabilityId":
        # namedtuple's _make (and so _replace) would skip the checks in __new__.
        return cls(*iterable)

    @property
    def is_main_level(self) -> bool:
        return self.detail == 0

    def main_id(self) -> "CapabilityId":
        """The main-level id this capability aggregates under."""
        return CapabilityId(self.complex, self.main)

    def __str__(self) -> str:
        if self.is_main_level:
            return f"{self.complex}.{self.main:02d}"
        return f"{self.complex}.{self.main:02d}.{self.detail:02d}"

    def __repr__(self) -> str:
        return f"CapabilityId({str(self)!r})"


def parse_capability_id(text: str) -> CapabilityId:
    """Parse dotted-decimal capability id text into its structured form.

    Accepts unpadded components ("3.4.8") and renders back zero-padded
    ("3.04.08"). Raises CapabilityIdError naming the offending component.
    Ids are immutable, so each text's id is memoised in a bounded cache;
    text that raises is not cached and raises again on every call.
    """
    if not isinstance(text, str):
        raise CapabilityIdError(f"expected string, got {type(text).__name__}")
    return _parse_id_text(text)


@lru_cache(maxsize=4096)
def _parse_id_text(text: str) -> CapabilityId:
    parts = text.strip().split(".")
    if len(parts) > 3:
        raise CapabilityIdError(f"{text!r}: more than 3 components")
    if len(parts) < 2:
        raise CapabilityIdError(f"{text!r}: need at least complex.main")
    for name, part in zip(("complex", "main", "detail"), parts):
        # ASCII digits only: str.isdigit also accepts "²" (int() rejects it) and "３" (int() reads 3).
        # Zero is refused here too, as CapabilityId takes detail 0 to mean a main-level id.
        if not (part.isascii() and part.isdigit()) or int(part) == 0:
            raise CapabilityIdError(f"{text!r}: {name} component {part!r} is not a positive decimal number")
    return CapabilityId(*map(int, parts))


QUANT_MIN = 0
QUANT_MAX = 6
QUANT_LABELS = ("0", "1", "2", "3-", "3+", "4", "5")

# Test-plan defaults: nodes per movement sequence, and visits per node.
# They live here, not in the solver modules, so the CLI shows them without importing scipy.
DEFAULT_N_MIN = 4
DEFAULT_P_MAX = 6
DEFAULT_P_HAT_MAX = 7


def quantification(value) -> int:
    """Check one score on the 7-step scale and return it as a plain int 0..6.

    Any integer type is accepted (a numpy integer too); a bool, a float or
    a string raises QuantificationError rather than being coerced.
    """
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise QuantificationError(f"quantification must be an integer, got {value!r}")
        value = int(value)
    if not QUANT_MIN <= value <= QUANT_MAX:
        raise QuantificationError(f"quantification {value} outside scale [{QUANT_MIN}, {QUANT_MAX}]")
    return value


def parse_score(text: str) -> int:
    """A score, level or slack written in ASCII digits, as a non-negative int.

    Plain ``int()`` also reads "５", "0_4" and "+4"; each raises ValueError
    here, as a non-decimal id component does in ``parse_capability_id``.
    """
    digits = text.strip()
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{text!r} is not a non-negative decimal number")
    return int(digits)


def quantification_label(value: int) -> str:
    """Raw scale label for a stored score (3 -> "3-", 4 -> "3+", 6 -> "5")."""
    return QUANT_LABELS[quantification(value)]


class Category(str, Enum):
    UPSTREAM = "upstream"
    OVER_TABLE = "over_table"


class Posture(str, Enum):
    SITTING = "sitting"
    STANDING = "standing"
    BOTH = "both"


class Laterality(str, Enum):
    UNILATERAL = "unilateral"
    BILATERAL = "bilateral"
    NA = "n/a"


@dataclass(frozen=True)
class CatalogEntry:
    id: CapabilityId
    name: str
    category: Category
    posture: Posture
    laterality: Laterality


class CapabilityCatalog:
    """Immutable set of catalog entries keyed by capability id."""

    def __init__(self, entries: Iterable[CatalogEntry]):
        self._entries: dict[CapabilityId, CatalogEntry] = {}
        for entry in entries:
            if entry.id in self._entries:
                raise CatalogError(f"duplicate catalog id {entry.id}")
            self._entries[entry.id] = entry
        self._order = tuple(sorted(self._entries))

    def __contains__(self, cap_id: CapabilityId) -> bool:
        return cap_id in self._entries

    def __iter__(self) -> Iterator[CatalogEntry]:
        for cap_id in self._order:
            yield self._entries[cap_id]

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, cap_id: CapabilityId) -> CatalogEntry:
        try:
            return self._entries[cap_id]
        except KeyError:
            raise CatalogError(f"unknown capability id {cap_id}") from None

    def name_of(self, cap_id: CapabilityId) -> str:
        return self[cap_id].name

    def knows_value_id(self, cap_id: CapabilityId) -> bool:
        """True for catalog ids and for main-level aggregates of catalog details.

        Profiles may carry propagated main-level scores (e.g. 3.04) even when
        the catalog only lists the details of that main capability.
        """
        if cap_id in self._entries:
            return True
        if cap_id.is_main_level:
            return any(e.main_id() == cap_id for e in self._entries)
        return False


def sitting_over_table_set(catalog: CapabilityCatalog) -> list[CapabilityId]:
    """Over-table capabilities assessable in sitting posture, canonical order.

    Standing-only entries are removed; entries applicable to both postures
    are kept.
    """
    return [
        entry.id
        for entry in catalog
        if entry.category is Category.OVER_TABLE and entry.posture is not Posture.STANDING
    ]


def read_table(
    lines: Iterable[str],
    columns: tuple[str, ...],
    what: str,
    error: type[Exception],
    parse: Callable[[list[str]], object],
    key: Callable[[object], Hashable] | None = None,
    describe: Callable[[object], str] = str,
) -> list:
    """``parse`` applied to each row of a CSV table whose header is exactly ``columns``.

    ``parse`` gets each non-blank row as its list of cells. A different
    header, a row with more or fewer cells than the header, a CSV syntax
    error, or a ValueError or CapnetError from ``parse`` raises ``error``
    with the message prefixed by the line it happened on. With ``key``, a
    row whose parsed value has the key of an earlier row raises ``error``
    as a duplicate: ``describe`` of the value says what repeats, and the
    message names the earlier line too. ``describe`` runs only on a repeat.
    """
    reader = csv.reader(lines)
    parsed = []
    first_line: dict[Hashable, int] = {}
    try:
        if tuple(next(reader, ())) != columns:
            raise ValueError(f"{what} header must be {','.join(columns)}")
        for row in reader:
            if not row:
                continue
            if len(row) != len(columns):
                raise ValueError(f"{what} row has {len(row)} cells, expected {len(columns)}")
            parsed.append(parse(row))
            if key is not None:
                k = key(parsed[-1])
                if k in first_line:
                    raise ValueError(f"duplicate {describe(parsed[-1])} (first on line {first_line[k]})")
                first_line[k] = reader.line_num
    except (ValueError, CapnetError, csv.Error) as exc:
        raise error(f"line {max(reader.line_num, 1)}: {exc}") from None
    return parsed


def read_catalog(lines: Iterable[str]) -> CapabilityCatalog:
    """Read a catalog from CSV lines (header row required)."""

    def parse(row) -> CatalogEntry:
        cap_id, name, category, posture, laterality = row
        return CatalogEntry(
            id=parse_capability_id(cap_id),
            name=name.strip(),
            category=Category(category.strip()),
            posture=Posture(posture.strip()),
            laterality=Laterality(laterality.strip()),
        )

    columns = ("id", "name", "category", "posture", "laterality")
    entries = read_table(
        lines, columns, "catalog", CatalogError, parse, key=lambda entry: entry.id, describe=lambda entry: f"catalog id {entry.id}"
    )
    return CapabilityCatalog(entries)


def load_catalog(path) -> CapabilityCatalog:
    with open(path, newline="", encoding="utf-8") as handle:
        return read_catalog(handle)


def load_default_catalog() -> CapabilityCatalog:
    """The shipped stationary-manufacturing workstation catalog."""
    text = resources.files("capnet.fixtures").joinpath("capabilities.csv").read_text("utf-8")
    return read_catalog(text.splitlines())

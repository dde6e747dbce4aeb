"""Capability profiles, requirement sets, datasets, and synthetic data.

A profile maps capability ids to an agent's quantified capacities; a
requirement set maps capability ids to the demands of one action. Dataset
files are CSV: columns ``agent_id, phase`` followed by one column per
capability id, each id at most once; an empty cell means "not assessed".

A dataset is one ``ScoreTable``: the header ids, each row's agent and
phase, and per row one int per id, -1 where a cell is empty.
``read_dataset`` reads a file into it once, ``generate_synthetic_profiles``
builds one, ``write_dataset`` writes it in its own column and row order.
Only the table lays its columns onto an id list: in ``ScoreTable.matrix``
(shape (0, len(ids)) for no rows) and in the filter. ``Profile``s are
built only for rows asked for: one per row when iterating, the chosen
row's in ``select``. The filter rule (complete over a non-empty set,
spread reaching a threshold) is written once: ``filter_profiles`` keeps
its rows as a table, ``ScoreTable.retained`` returns their matrix. numpy
is imported by the functions that use it, so reading a dataset loads no numpy.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from .errors import CapabilityIdError, ConfigError, DatasetError, QuantificationError
from .taxonomy import (
    QUANT_MAX,
    QUANT_MIN,
    CapabilityCatalog,
    CapabilityId,
    parse_capability_id,
    parse_score,
    quantification,
    read_table,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Phase",
    "Profile",
    "RequirementSet",
    "ScoreTable",
    "GeneratorConfig",
    "propagate_main_level",
    "filter_profiles",
    "generate_synthetic_profiles",
    "read_dataset",
    "load_dataset",
    "write_dataset",
]


class Phase(str, Enum):
    PRE_REHAB = "pre_rehab"
    POST_REHAB = "post_rehab"
    UNSPECIFIED = "unspecified"


_SCALE = frozenset(range(QUANT_MIN, QUANT_MAX + 1))


def _checked_scores(values: Mapping[CapabilityId, int]) -> dict[CapabilityId, int]:
    """A copy of ``values`` with every score checked by ``quantification``.

    Plain ints on the scale, what every reader and the generator pass, are
    copied as they are; anything else (a bool, a float, a numpy integer)
    goes through ``quantification`` one value at a time.
    """
    scores = dict(values)
    if set(map(type, scores.values())) <= {int} and _SCALE.issuperset(scores.values()):
        return scores
    return {cap: quantification(v) for cap, v in scores.items()}


@dataclass(frozen=True)
class Profile:
    """One agent's assessed capacities. Missing ids mean "not assessed"."""

    agent_id: str
    phase: Phase = Phase.UNSPECIFIED
    values: dict[CapabilityId, int] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "values", _checked_scores(self.values))

    def missing_from(self, capability_set: Iterable[CapabilityId]) -> list[CapabilityId]:
        return sorted(cap for cap in capability_set if cap not in self.values)


@dataclass(frozen=True)
class RequirementSet:
    """Quantified demands of one action over a subset of capabilities."""

    action_id: str
    requirements: dict[CapabilityId, int] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "requirements", _checked_scores(self.requirements))

    def total(self) -> int:
        return sum(self.requirements.values())

    def validate_against(self, catalog: CapabilityCatalog) -> None:
        unknown = sorted(cap for cap in self.requirements if not catalog.knows_value_id(cap))
        if unknown:
            ids = ", ".join(str(u) for u in unknown)
            raise DatasetError(f"requirements {self.action_id}: unknown capability ids {ids}")


@dataclass(frozen=True)
class ScoreTable:
    """A dataset: the capability ``ids``, then each row's agent, phase and scores.

    ``scores[k][c]`` is row k's score for ``ids[c]``, a plain int on the
    0..6 scale, or -1 where it was not assessed. Rows keep their order; a
    row with other than one score per id, or a repeated (agent, phase) key,
    is a DatasetError, and so is any other score once ``matrix``, ``retained``
    or the filter reads it. Iterating yields one ``Profile`` per row, of its assessed scores.
    """

    ids: tuple[CapabilityId, ...]
    agents: tuple[str, ...]
    phases: tuple[Phase, ...]
    scores: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not set(map(len, self.scores)) <= {len(self.ids)} or len(set(zip(self.agents, self.phases))) < len(self.agents):
            seen = set()  # one scan names the first row of another width or with a repeated key
            for agent, phase, row in zip(self.agents, self.phases, self.scores):
                if len(row) != len(self.ids):
                    raise DatasetError(f"row for agent {agent!r} phase {phase.value} holds {len(row)} scores for {len(self.ids)} ids")
                if (agent, phase) in seen:
                    raise DatasetError(f"duplicate row for agent {agent!r} phase {phase.value}")
                seen.add((agent, phase))

    def __len__(self) -> int:
        return len(self.agents)

    def __iter__(self) -> Iterator[Profile]:
        return map(self._profile, range(len(self)))

    def _profile(self, k: int) -> Profile:
        return Profile(self.agents[k], self.phases[k], {cap: s for cap, s in zip(self.ids, self.scores[k]) if s >= 0})

    def _rows(self, rows: Sequence[int]) -> ScoreTable:
        return ScoreTable(self.ids, *(tuple(column[k] for k in rows) for column in (self.agents, self.phases, self.scores)))

    def with_phase(self, phase: Phase) -> ScoreTable:
        return self._rows([k for k, row_phase in enumerate(self.phases) if row_phase is phase])

    def select(self, agent_id: str, phase: Phase | None = None) -> Profile:
        """The agent's profile in ``phase``; with no phase, the agent's only profile.

        No match is a DatasetError; several matches (no phase given) are a
        ConfigError naming the phases found. Only the match's ``Profile`` is built.
        """
        rows = enumerate(zip(self.agents, self.phases))
        found = [k for k, (agent, row_phase) in rows if agent == agent_id and (phase is None or row_phase is phase)]
        if not found:
            raise DatasetError(f"no profile for agent {agent_id!r}" + (f" phase {phase.value}" if phase else ""))
        if len(found) > 1:
            phases = ", ".join(self.phases[k].value for k in found)
            raise ConfigError(f"agent {agent_id!r} has profiles for phases {phases}; name one")
        return self._profile(found[0])

    def matrix(self, ids: Sequence[CapabilityId]) -> np.ndarray:
        """The rows x ids float matrix; the first row incomplete over ``ids`` is a DatasetError naming what it lacks."""
        picked = self._columns(ids)
        incomplete = (picked < 0).any(axis=1)
        if incomplete.any():
            profile = self._profile(int(incomplete.argmax()))
            names = ", ".join(str(m) for m in profile.missing_from(ids))
            raise DatasetError(f"profile {profile.agent_id}/{profile.phase.value} incomplete over ids: {names}")
        return picked.astype(float)

    def _columns(self, ids: Sequence[CapabilityId]) -> np.ndarray:
        """The int8 scores of every row, one column per id of ``ids``; an id the table lacks is a column of -1.

        A score off -1..6 is a DatasetError naming the first row and id that hold one.
        """
        import numpy as np

        try:
            rows = np.array(self.scores, dtype=np.int64)
        except OverflowError:  # a score beyond int64 is off the scale like any other
            rows = np.array(self.scores, dtype=object)
        rows = rows.reshape(len(self), len(self.ids))
        off = (rows < -1) | (rows > 6)
        if off.any():
            k = int(off.any(axis=1).argmax())
            c = int(off[k].argmax())
            raise DatasetError(f"row for agent {self.agents[k]!r} phase {self.phases[k].value} scores {self.scores[k][c]} for {self.ids[c]}, off the 0..6 scale")
        rows = rows.astype(np.int8)
        rows = np.pad(rows, ((0, 0), (0, 1)), constant_values=-1)  # the last column stands for a lacking id
        position = {cap: c for c, cap in enumerate(self.ids)}
        return rows[:, [position.get(cap, -1) for cap in ids]]

    def retained(self, capability_set: Sequence[CapabilityId], threshold: float = 0.2) -> np.ndarray:
        """The float matrix of the rows that ``filter_profiles`` keeps, one column per id of ``capability_set``.

        Rows stay in order; with none left the shape is (0, len(capability_set)).
        No ``Profile`` is built.
        """
        return self._filtered(capability_set, threshold)[1]

    def _filtered(self, capability_set: Sequence[CapabilityId], threshold: float) -> tuple[np.ndarray, np.ndarray]:
        """The filter rule: a mask of the rows kept, and their float matrix over ``capability_set``.

        A row is kept when it is complete over the set and the population
        standard deviation of its scores there reaches ``threshold``. A
        negative or NaN threshold is a ConfigError; an empty set, over
        which no spread is defined, is a DatasetError.
        """
        if not threshold >= 0:
            raise ConfigError(f"threshold must be non-negative, got {threshold}")
        if not capability_set:
            raise DatasetError("the capability set to filter over is empty")
        picked = self._columns(capability_set)
        kept = (picked >= 0).all(axis=1)
        data = picked[kept].astype(float)
        dispersed = data.std(axis=1) >= threshold
        kept[kept] = dispersed  # of the complete rows, those that spread
        return kept, data[dispersed]


def propagate_main_level(profile: Profile) -> Profile:
    """Extend a profile with main-level scores.

    The score of a main-level capability is the minimum over its assessed
    details. Detail entries are preserved; an already assessed main-level
    entry is never overwritten, which makes the operation idempotent.
    """
    groups: dict[CapabilityId, list[int]] = {}
    for cap_id, value in profile.values.items():
        if cap_id.is_main_level:
            continue
        groups.setdefault(cap_id.main_id(), []).append(value)
    extended = dict(profile.values)
    for main_id, values in groups.items():
        if main_id not in extended:
            extended[main_id] = min(values)
    return replace(profile, values=extended)


def filter_profiles(
    dataset: ScoreTable,
    capability_set: Sequence[CapabilityId],
    threshold: float = 0.2,
) -> ScoreTable:
    """Keep the rows complete over the set whose dispersion >= threshold.

    Near-constant profiles (therapists scoring everything the same) and
    incomplete profiles are dropped; input order is preserved.
    """
    kept, _ = dataset._filtered(capability_set, threshold)
    return dataset._rows(kept.nonzero()[0].tolist())


# -- synthetic generation ---------------------------------------------------


_BASE_MEAN = 3.6
_BASE_SD = 1.1
_POST_IMPROVEMENT = 0.4


@dataclass(frozen=True)
class GeneratorConfig:
    """Synthetic profile generator settings.

    Each agent yields a pre/post rehabilitation pair. Detail scores are a
    blend of a per-main-capability latent level and independent noise, so
    details of one main capability correlate with strength
    ``within_main_correlation`` while capabilities of different complexes
    stay uncorrelated. Pre-rehabilitation scores have the fixed mean 3.6
    and spread 1.1 (profiles are assumed roughly normal around 3 and 4);
    post-rehabilitation scores add an improvement of |N(0.4, 0.3)| per
    capability. A ``degenerate_fraction`` of profiles is emitted constant
    or with holes, mimicking real-world assessment shortcuts that the
    filter stage must remove.
    """

    ids: tuple[CapabilityId, ...]
    agents: int = 500
    within_main_correlation: float = 0.8
    degenerate_fraction: float = 0.15

    def __post_init__(self):
        if self.agents < 0:
            raise ConfigError(f"agents must be >= 0, got {self.agents}")
        if not 0.0 <= self.within_main_correlation <= 1.0:
            raise ConfigError(
                f"within_main_correlation must be in [0, 1], got {self.within_main_correlation}"
            )
        if not 0.0 <= self.degenerate_fraction <= 1.0:
            raise ConfigError(
                f"degenerate_fraction must be in [0, 1], got {self.degenerate_fraction}"
            )
        if not self.ids:
            raise ConfigError("ids must not be empty")
        for k, cap in enumerate(self.ids):
            if cap in self.ids[:k]:
                raise ConfigError(f"id {cap} repeats in ids")


def generate_synthetic_profiles(config: GeneratorConfig, seed: int) -> ScoreTable:
    """Deterministic synthetic dataset of pre/post profile pairs, over ``config.ids`` in canonical order."""
    import numpy as np

    rng = np.random.default_rng(seed)
    ids = sorted(config.ids)
    mains = sorted({cap.main_id() for cap in ids})
    main_of = [mains.index(cap.main_id()) for cap in ids]
    latent_w = math.sqrt(config.within_main_correlation)
    noise_w = math.sqrt(1.0 - config.within_main_correlation)

    agents, phases, scores = [], [], []
    for agent in range(config.agents):
        # Every draw is made, in this order: the stream order fixes the dataset of a seed.
        latents = rng.normal(0.0, 1.0, size=len(mains))
        noise = rng.normal(0.0, 1.0, size=len(ids))
        improvement = np.abs(rng.normal(_POST_IMPROVEMENT, 0.3, size=len(ids)))
        degenerate = rng.uniform() < config.degenerate_fraction
        kind = rng.integers(0, 2)
        holes = rng.uniform(size=len(ids)) < 0.4
        constant = rng.integers(3, 5)

        pre = _BASE_MEAN + _BASE_SD * (latent_w * latents[main_of] + noise_w * noise)
        levels = np.clip(np.rint([pre, pre + improvement]), 0, 6).astype(int)
        if degenerate and kind == 0:
            levels[:] = constant
        holed = degenerate and kind == 1
        holes &= holed
        if holed and not holes.any():
            holes[0] = True  # a holed profile lacks at least one id
        levels[:, holes] = -1  # not assessed
        agents += [f"A{agent:05d}"] * 2
        phases += [Phase.PRE_REHAB, Phase.POST_REHAB]
        scores += map(tuple, levels.tolist())
    return ScoreTable(tuple(ids), tuple(agents), tuple(phases), tuple(scores))


# -- dataset file format -----------------------------------------------------


def write_dataset(dataset: ScoreTable) -> str:
    """Render a dataset to CSV text: a column per id and a line per row, in the table's order; -1 is an empty cell."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["agent_id", "phase"] + [str(cap) for cap in dataset.ids])
    for agent, phase, row in zip(dataset.agents, dataset.phases, dataset.scores):
        writer.writerow([agent, phase.value] + ["" if score < 0 else str(score) for score in row])
    return buffer.getvalue()


class _CellScores(dict):
    """Cell text -> checked score, -1 for an empty cell; each distinct text is parsed and checked once."""

    def __init__(self):
        super().__init__({"": -1})

    def __missing__(self, cell: str) -> int:
        score = self[cell] = quantification(parse_score(cell))
        return score


# a dict lookup per row: Phase(text) took 0.5 ms of a 2.9 ms read of 1,040 rows
_PHASES = {phase.value: phase for phase in Phase}


def read_dataset(lines: Iterable[str], catalog: CapabilityCatalog | None = None) -> ScoreTable:
    """The dataset in CSV ``lines``; a malformed file raises DatasetError.

    A header that does not start with ``agent_id,phase``, or whose ids are
    malformed, repeated or (with ``catalog``) unknown, is named as such. A
    row error names its line and agent, then the first fault of the row:
    an unknown phase, else the first cell, left to right, that is not an
    ASCII decimal number or lies off the 0..6 scale. An earlier line's
    fault wins over a later one's. A repeated (agent, phase) row names
    both lines.
    """
    lines = iter(lines)
    first = next(lines, None)
    if first is None:
        raise DatasetError("empty dataset file")
    header = next(csv.reader([first]), [])
    if header[:2] != ["agent_id", "phase"]:
        raise DatasetError("dataset header must start with agent_id,phase")
    try:
        ids = [parse_capability_id(text) for text in header[2:]]
    except CapabilityIdError as exc:
        raise DatasetError(f"bad capability id in header: {exc}") from exc
    for k, cap in enumerate(ids):
        if cap in ids[:k]:
            raise DatasetError(f"capability id {cap} repeats in the dataset header")
    if catalog is not None and (unknown := sorted(cap for cap in ids if not catalog.knows_value_id(cap))):
        raise DatasetError(f"dataset header: unknown capability ids {', '.join(str(u) for u in unknown)}")

    def parse(row) -> tuple[str, Phase, tuple[int, ...]]:
        agent, phase_text, *cells = row
        phase = _PHASES.get(phase_text)
        if phase is None:
            raise DatasetError(f"unknown phase {phase_text!r} for agent {agent!r}")
        try:
            return agent, phase, tuple(map(cell_scores.__getitem__, cells))
        except ValueError as exc:
            raise DatasetError(f"non-integer level for agent {agent!r}: {exc}") from None
        except QuantificationError as exc:
            raise DatasetError(f"level for agent {agent!r}: {exc}") from None

    cell_scores = _CellScores()
    # The header line goes back in front, so read_table counts lines from 1.
    rows = itertools.chain([first], lines)
    key = lambda row: row[:2]
    describe = lambda row: f"row for agent {row[0]!r} phase {row[1].value}"
    parsed = read_table(rows, tuple(header), "dataset", DatasetError, parse, key, describe)
    agents, phases, scores = zip(*parsed) if parsed else ((), (), ())
    return ScoreTable(tuple(ids), agents, phases, scores)


def load_dataset(path, catalog: CapabilityCatalog | None = None) -> ScoreTable:
    with open(path, newline="", encoding="utf-8") as handle:
        return read_dataset(handle, catalog)

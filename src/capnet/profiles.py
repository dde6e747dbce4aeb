"""Capability profiles, requirement sets, datasets, and synthetic data.

A profile maps capability ids to an agent's quantified capacities; a
requirement set maps capability ids to the demands of one action. Dataset
files are CSV: columns ``agent_id, phase`` followed by one column per
capability id in canonical order; an empty cell means "not assessed".
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable, Mapping, Sequence

import numpy as np

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

__all__ = [
    "Phase",
    "Profile",
    "RequirementSet",
    "ProfileDataset",
    "GeneratorConfig",
    "propagate_main_level",
    "filter_profiles",
    "generate_synthetic_profiles",
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


class ProfileDataset:
    """Ordered collection of profiles with unique (agent_id, phase) keys."""

    def __init__(self, profiles: Iterable[Profile]):
        self.profiles = tuple(profiles)
        seen = set()
        for profile in self.profiles:
            key = (profile.agent_id, profile.phase)
            if key in seen:
                raise DatasetError(f"duplicate row for agent {profile.agent_id!r} phase {profile.phase.value}")
            seen.add(key)

    def __len__(self) -> int:
        return len(self.profiles)

    def __iter__(self):
        return iter(self.profiles)

    def __eq__(self, other) -> bool:
        return isinstance(other, ProfileDataset) and self.profiles == other.profiles

    def with_phase(self, phase: Phase) -> "ProfileDataset":
        return ProfileDataset(p for p in self.profiles if p.phase is phase)

    def select(self, agent_id: str, phase: Phase | None = None) -> Profile:
        """The agent's profile in ``phase``; with no phase, the agent's only profile.

        No match is a DatasetError; several matches (no phase given) are a
        ConfigError naming the phases found.
        """
        found = [p for p in self.profiles if p.agent_id == agent_id and (phase is None or p.phase is phase)]
        if not found:
            raise DatasetError(f"no profile for agent {agent_id!r}" + (f" phase {phase.value}" if phase else ""))
        if len(found) > 1:
            phases = ", ".join(p.phase.value for p in found)
            raise ConfigError(f"agent {agent_id!r} has profiles for phases {phases}; name one")
        return found[0]


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
    dataset: ProfileDataset,
    capability_set: Sequence[CapabilityId],
    threshold: float = 0.2,
) -> ProfileDataset:
    """Keep profiles complete over the set whose dispersion >= threshold.

    Near-constant profiles (therapists scoring everything the same) and
    incomplete profiles are dropped; input order is preserved.
    """
    if not threshold >= 0:
        raise ConfigError(f"threshold must be non-negative, got {threshold}")
    needed = set(capability_set)
    complete = [profile for profile in dataset if profile.values.keys() >= needed]
    data = np.array([[profile.values[cap] for cap in capability_set] for profile in complete], dtype=float)
    data = data.reshape(len(complete), len(capability_set))
    return ProfileDataset(profile for profile, spread in zip(complete, data.std(axis=1)) if spread >= threshold)


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


def generate_synthetic_profiles(config: GeneratorConfig, seed: int) -> ProfileDataset:
    """Deterministic synthetic dataset of pre/post profile pairs."""
    rng = np.random.default_rng(seed)
    ids = sorted(config.ids)
    mains = sorted({cap.main_id() for cap in ids})
    main_of = [mains.index(cap.main_id()) for cap in ids]
    latent_w = math.sqrt(config.within_main_correlation)
    noise_w = math.sqrt(1.0 - config.within_main_correlation)

    profiles = []
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
        for phase, row in zip((Phase.PRE_REHAB, Phase.POST_REHAB), levels.tolist()):
            values = {cap: v for cap, v, hole in zip(ids, row, holes) if not hole}
            profiles.append(Profile(agent_id=f"A{agent:05d}", phase=phase, values=values))
    return ProfileDataset(profiles)


# -- dataset file format -----------------------------------------------------


def write_dataset(dataset: ProfileDataset, ids: Sequence[CapabilityId]) -> str:
    """Render a dataset to CSV text (one row per profile)."""
    ids = sorted(ids)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["agent_id", "phase"] + [str(cap) for cap in ids])
    for profile in dataset:
        row = [profile.agent_id, profile.phase.value]
        for cap in ids:
            value = profile.values.get(cap)
            row.append("" if value is None else str(value))
        writer.writerow(row)
    return buffer.getvalue()


class _ScoreTable(dict):
    """Cell text -> checked score; each distinct text is parsed and checked once."""

    def __missing__(self, cell: str) -> int:
        score = self[cell] = quantification(parse_score(cell))
        return score


def read_dataset(lines: Iterable[str], catalog: CapabilityCatalog | None = None) -> ProfileDataset:
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

    def parse(row) -> Profile:
        agent, phase_text, *cells = row
        try:
            phase = Phase(phase_text)
        except ValueError:
            raise DatasetError(f"unknown phase {phase_text!r} for agent {agent!r}") from None
        try:
            values = {cap: scores[cell] for cap, cell in zip(ids, cells) if cell != ""}
        except ValueError as exc:
            raise DatasetError(f"non-integer level for agent {agent!r}: {exc}") from None
        except QuantificationError as exc:
            raise DatasetError(f"level for agent {agent!r}: {exc}") from None
        return Profile(agent_id=agent, phase=phase, values=values)

    scores = _ScoreTable()
    # The header line goes back in front, so read_table counts lines from 1.
    rows = itertools.chain([first], lines)
    key = lambda profile: (profile.agent_id, profile.phase)
    describe = lambda profile: f"row for agent {profile.agent_id!r} phase {profile.phase.value}"
    return ProfileDataset(read_table(rows, tuple(header), "dataset", DatasetError, parse, key, describe))


def load_dataset(path, catalog: CapabilityCatalog | None = None) -> ProfileDataset:
    with open(path, newline="", encoding="utf-8") as handle:
        return read_dataset(handle, catalog)

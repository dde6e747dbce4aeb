"""Exception types shared across the toolkit."""


class CapnetError(Exception):
    """Base class for all toolkit errors."""


class CapabilityIdError(CapnetError):
    """Malformed capability identifier text."""


class QuantificationError(CapnetError):
    """Quantification value outside the 7-step scale."""


class CatalogError(CapnetError):
    """Broken capability catalog (duplicate ids, bad tags, unknown ids)."""


class DatasetError(CapnetError):
    """Broken profile dataset (duplicate agent/phase, unknown ids, bad file)."""


class IncompleteProfileError(CapnetError):
    """A profile lacks values required by the requested operation."""

    def __init__(self, missing):
        self.missing = tuple(missing)
        ids = ", ".join(str(m) for m in self.missing)
        super().__init__(f"profile is missing values for: {ids}")


class ConfigError(CapnetError):
    """Invalid generator or run configuration."""


class GraphConstructionError(CapnetError):
    """Interrelation table cannot be oriented into an acyclic graph."""


class MissingCorrelationError(CapnetError):
    """An edge endpoint pair has no correlation value available."""


class UndefinedCorrelationError(CapnetError):
    """Correlation is undefined (constant input vector)."""


class InfeasibleCoverError(CapnetError):
    """The path-cover program has no solution within the visit bounds."""

    def __init__(self, binding_nodes):
        self.binding_nodes = tuple(binding_nodes)
        ids = ", ".join(str(n) for n in self.binding_nodes)
        super().__init__(f"cover infeasible; binding nodes: {ids}")


class AnnotationError(CapnetError):
    """Solver output violates the annotation stage's consistency checks."""

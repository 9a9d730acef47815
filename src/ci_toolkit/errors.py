"""Exception types raised across the toolkit."""

from __future__ import annotations


class ToolkitError(Exception):
    """Base class for every error this package raises on purpose."""


class InvalidMatrix(ToolkitError):
    """Matrix input is not square / not Hermitian / wrong shape."""


class NotPSD(ToolkitError):
    """Matrix has an eigenvalue below the PSD tolerance."""


class NotPure(ToolkitError):
    """State expected to be pure has Tr(rho^2) < 1 - 1e-9."""


class NotRankOne(ToolkitError):
    """POVM element expected to be rank one is not."""


class DuplicateParty(ToolkitError):
    """Two parties in a layout share a label."""


class LayoutMismatch(ToolkitError):
    """Two states (or a state and an operation) disagree on the layout."""


class UnknownParty(LayoutMismatch):
    """A label does not occur in the state's layout."""


class InvalidPartition(LayoutMismatch):
    """Party groups are not a valid grouping of a layout's labels: a label
    appears twice (within one group or across groups), or a group is empty."""


class ShapeMismatch(ToolkitError):
    """State does not have the structural form the operation requires."""


class InvalidPreset(ToolkitError):
    """Unknown preset name or parameters outside the preset's domain."""


class InvalidArgument(ToolkitError):
    """Scalar or flag argument outside its documented domain."""


class DimensionTooLarge(ToolkitError):
    """A layout's total dimension exceeds `states.DIM_CAP` (64), checked
    when the layout is built; every state, and so every search, is bounded
    by it."""


class StateFileError(ToolkitError):
    """State file failed validation; message names the offending field."""


class ObjectiveError(ToolkitError):
    """Objective returned a non-finite value during optimization."""


class InternalInvariantError(ToolkitError):
    """A mathematical invariant the code guarantees was violated (a bug)."""

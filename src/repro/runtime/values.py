"""Value model of the numerical interpreter: scopes, arrays, derived types.

Fortran's storage semantics drive every design choice here:

* arrays are mutable aggregates passed by reference — a dummy argument bound
  to a whole array aliases the caller's storage, so they are represented as
  shared :class:`numpy.ndarray` objects and whole-array assignment writes
  *through* the array (``arr[...] = value``) instead of rebinding the name;
* scalars are copied in at a call and copied back out for ``intent(out)`` /
  ``intent(inout)`` dummies;
* derived-type values are :class:`DerivedValue` component records shared by
  reference, with the components allocated from the defining module's
  ``type`` definition;
* every name lives in exactly one :class:`Scope` (a subprogram frame or a
  module), and a scope knows which of its names are read-only — parameters
  and ``intent(in)`` dummies — so the interpreter can enforce the paper's
  intent semantics at store time.

Assignment targets resolve to small :class:`Ref` objects (scope slot, array
element/section, derived component) that know how to load and store, which
keeps argument copy-back and ``intent`` protection in one place.

The vectorized runtime marks member-batched values as :class:`MemberBatch`
and states the member-axis lifting rule once, in :func:`lift_batches`; the
marker itself keeps no arithmetic (see :mod:`repro.runtime.vec`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ReproError

__all__ = [
    "DerivedValue",
    "ElementRef",
    "FortranRuntimeError",
    "IntentViolationError",
    "MemberBatch",
    "Ref",
    "Scope",
    "ScopeRef",
    "ComponentRef",
    "StatementLimitExceeded",
    "StopModel",
    "UndefinedNameError",
    "VectorizationError",
    "fortran_index",
    "fortran_slices",
    "lift_batches",
]


class FortranRuntimeError(ReproError):
    """Base class for errors raised while executing model code."""


class IntentViolationError(FortranRuntimeError):
    """A statement stored into an ``intent(in)`` dummy or a ``parameter``."""


class UndefinedNameError(FortranRuntimeError):
    """A reference to a name no scope, module, or use-association defines."""


class StopModel(FortranRuntimeError):
    """The model executed a ``stop`` statement (e.g. via ``endrun``)."""

    def __init__(self, message: Optional[str] = None):
        self.message = message
        super().__init__(message or "stop")


class StatementLimitExceeded(FortranRuntimeError):
    """The configured ``max_statements`` budget was exhausted."""


class VectorizationError(FortranRuntimeError):
    """A construct the vectorized (member-batched) runtime cannot express.

    Raised as a safety rail instead of silently producing member-mixed
    results: PRNG draws or history writes under diverged control flow,
    member-varying loop bounds, batch stores into member-uniform storage.
    The scalar interpreter remains the fallback for such models.
    """


class _Return(Exception):
    """Internal control flow: ``return``."""


class _Exit(Exception):
    """Internal control flow: ``exit`` (leave innermost do loop)."""


class _Cycle(Exception):
    """Internal control flow: ``cycle`` (next do iteration)."""


class DerivedValue:
    """An instance of a Fortran derived type: named, typed components."""

    __slots__ = ("type_name", "components")

    def __init__(self, type_name: str, components: dict[str, object]):
        self.type_name = type_name
        self.components = components

    def get(self, name: str):
        try:
            return self.components[name]
        except KeyError:
            raise UndefinedNameError(
                f"type({self.type_name}) has no component {name!r}"
            ) from None

    def set(self, name: str, value) -> None:
        if name not in self.components:
            raise UndefinedNameError(
                f"type({self.type_name}) has no component {name!r}"
            )
        current = self.components[name]
        if isinstance(current, np.ndarray):
            current[...] = value
        else:
            self.components[name] = value

    def copy(self) -> "DerivedValue":
        out: dict[str, object] = {}
        for name, value in self.components.items():
            if isinstance(value, np.ndarray):
                out[name] = value.copy()
            elif isinstance(value, DerivedValue):
                out[name] = value.copy()
            else:
                out[name] = value
        return DerivedValue(self.type_name, out)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DerivedValue({self.type_name}, {sorted(self.components)})"


class Scope:
    """One name environment: a module's variables or a call frame's locals."""

    __slots__ = ("name", "values", "readonly")

    def __init__(self, name: str):
        self.name = name
        self.values: dict[str, object] = {}
        self.readonly: set[str] = set()

    def __contains__(self, name: str) -> bool:
        return name in self.values

    def get(self, name: str):
        return self.values[name]

    def define(self, name: str, value, readonly: bool = False) -> None:
        self.values[name] = value
        if readonly:
            self.readonly.add(name)

    def store(self, name: str, value) -> None:
        """Assign to a whole variable, writing through arrays in place."""
        if name in self.readonly:
            raise IntentViolationError(
                f"cannot assign to read-only name {name!r} in scope {self.name!r}"
            )
        current = self.values.get(name)
        if isinstance(current, np.ndarray):
            current[...] = value
        else:
            self.values[name] = value


# --------------------------------------------------------------------------- #
# Subscript helpers (Fortran is 1-based, bounds inclusive)
# --------------------------------------------------------------------------- #
def fortran_index(subscripts: list[int]) -> tuple[int, ...]:
    """Convert 1-based scalar subscripts to a numpy index tuple."""
    return tuple(int(s) - 1 for s in subscripts)


def fortran_slices(parts: list[object]) -> tuple[object, ...]:
    """Convert a mixed subscript list (ints and (lo, hi, stride) triples from
    ``SectionRange``) to a numpy index; section bounds are inclusive.

    For a negative stride the first bound is the *start* (``a(5:2:-1)``
    walks 5, 4, 3, 2), so the exclusive numpy stop is ``upper - 2`` — and
    ``None`` once it passes the first element, which plain ``-1`` would
    wrap around to the end of the array.
    """
    out: list[object] = []
    for part in parts:
        if isinstance(part, tuple):
            lower, upper, stride = part
            start = None if lower is None else int(lower) - 1
            step = None if stride is None else int(stride)
            if step is not None and step < 0:
                if upper is None:
                    stop = None
                else:
                    stop = int(upper) - 2
                    if stop < 0:
                        stop = None
            else:
                stop = None if upper is None else int(upper)
            out.append(slice(start, stop, step))
        else:
            out.append(int(part) - 1)
    return tuple(out)


# --------------------------------------------------------------------------- #
# References (assignment targets and argument copy-back)
# --------------------------------------------------------------------------- #
class Ref:
    """An assignable storage location."""

    def load(self):  # pragma: no cover - interface
        raise NotImplementedError

    def store(self, value) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class ScopeRef(Ref):
    """A whole variable in one scope."""

    __slots__ = ("scope", "name")

    def __init__(self, scope: Scope, name: str):
        self.scope = scope
        self.name = name

    def load(self):
        return self.scope.get(self.name)

    def store(self, value) -> None:
        self.scope.store(self.name, value)


class ElementRef(Ref):
    """An element or section of an array (readonly enforced by the owner)."""

    __slots__ = ("array", "index", "guard", "guard_name")

    def __init__(
        self,
        array: np.ndarray,
        index: tuple,
        guard: Optional[set[str]] = None,
        guard_name: str = "",
    ):
        self.array = array
        self.index = index
        self.guard = guard
        self.guard_name = guard_name

    def load(self):
        if type(self.array) is MemberBatch:
            # the member axis leads; a batch element loads by value
            value = np.ndarray.__getitem__(
                self.array, (slice(None),) + self.index
            )
            return value.copy() if value.ndim == 1 else value
        value = self.array[self.index]
        if isinstance(value, np.ndarray):
            return value
        return value.item() if hasattr(value, "item") else value

    def store(self, value) -> None:
        if self.guard is not None and self.guard_name in self.guard:
            raise IntentViolationError(
                f"cannot assign through read-only name {self.guard_name!r}"
            )
        self.array[self.index] = value


class ComponentRef(Ref):
    """A component of a derived-type value, optionally subscripted."""

    __slots__ = ("derived", "component", "index", "guard", "guard_name")

    def __init__(
        self,
        derived: DerivedValue,
        component: str,
        index: Optional[tuple] = None,
        guard: Optional[set[str]] = None,
        guard_name: str = "",
    ):
        self.derived = derived
        self.component = component
        self.index = index
        self.guard = guard
        self.guard_name = guard_name

    def load(self):
        value = self.derived.get(self.component)
        if self.index is not None:
            value = value[self.index]
            if not isinstance(value, np.ndarray):
                value = value.item() if hasattr(value, "item") else value
        return value

    def store(self, value) -> None:
        if self.guard is not None and self.guard_name in self.guard:
            raise IntentViolationError(
                f"cannot assign through read-only name {self.guard_name!r}"
            )
        if self.index is None:
            self.derived.set(self.component, value)
        else:
            self.derived.get(self.component)[self.index] = value


# --------------------------------------------------------------------------- #
# Member-batched values (the vectorized runtime's array type)
# --------------------------------------------------------------------------- #
class MemberBatch(np.ndarray):
    """An array whose *leading* axis is the ensemble-member axis.

    A ``MemberBatch`` of shape ``(n, *model_shape)`` holds one model-space
    value per member.  It is a *marker* and keeps no arithmetic: the
    vectorized compiler (:mod:`repro.runtime.vec`) strips the marker,
    prefixes model subscripts with the member axis, lifts operands whose
    model ranks differ (:func:`lift_batches`) and runs numpy on plain
    arrays.  Ufuncs, subscripts and subscripted stores applied to the
    marked array itself raise :class:`VectorizationError`, so a site the
    compiler does not cover falls back to the serial interpreter instead
    of broadcasting members against model axes.  Use :meth:`lane` to
    slice one member's value back out.
    """

    def _uncovered(self, *args, **kwargs):
        raise VectorizationError(
            "uncompiled operation on a member batch: the vectorized runtime "
            "does not cover this site"
        )

    __array_ufunc__ = __getitem__ = __setitem__ = _uncovered

    @property
    def n_members(self) -> int:
        return self.shape[0]

    def member(self, m: int) -> np.ndarray:
        """Member ``m``'s model-space value (a plain-ndarray view)."""
        return np.asarray(self)[m]

    def lane(self, m: int) -> np.ndarray:
        """Member ``m``'s model-space value as an independent copy.

        Unlike :meth:`member` this never aliases the batch, so a
        per-member result sliced out of it — including a scalar-promoted
        ``(n,)`` slot, where ``member`` would hand back a 0-d view into
        shared storage — can outlive and never write back into the
        batched evaluation."""
        return np.asarray(self)[m].copy()


def lift_batches(values, model_ndim: Optional[int] = None) -> list:
    """The member-axis lifting rule: ``values`` as plain numpy operands
    whose broadcasting is Fortran's, member by member.

    A :class:`MemberBatch` becomes its base array with length-1 axes
    inserted after the member axis, so that its model axes right-align at
    ``model_ndim`` model dimensions.  ``model_ndim`` defaults to the
    highest model rank in ``values``: a batch counts the axes after its
    member axis, a plain array all of its axes.  Plain arrays and scalars
    pass through unchanged, because numpy broadcasts them from the right.
    """
    if model_ndim is None:
        model_ndim = 0
        for v in values:
            if isinstance(v, np.ndarray):
                rank = v.ndim - 1 if type(v) is MemberBatch else v.ndim
                if rank > model_ndim:
                    model_ndim = rank
    out = []
    for v in values:
        if type(v) is MemberBatch:
            v = v.view(np.ndarray)
            if v.ndim <= model_ndim:
                pad = (1,) * (model_ndim + 1 - v.ndim)
                v = v.reshape(v.shape[:1] + pad + v.shape[1:])
        out.append(v)
    return out

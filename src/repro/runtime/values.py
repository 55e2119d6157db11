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
    value per member.  Model code never sees the member axis: subscripts
    written against ``model_shape`` are transparently prefixed with
    ``slice(None)`` on load and store, and ufuncs align operands on the
    *trailing* (model) axes by re-inserting length-1 dimensions after the
    member axis, so a promoted batch scalar of shape ``(n,)`` broadcasts
    against a batch array of shape ``(n, pcols, pver)`` the way a Fortran
    scalar broadcasts against an array.

    Plain ndarrays (member-uniform model values) broadcast from the right,
    exactly as numpy would without the member axis.

    The leading axis is really a *(config, member) lane* axis: nothing in
    the batched runtime requires two lanes to come from the same run
    configuration, only that lanes agree on whatever shapes the shared
    evaluation (the model build, ``nsteps``, the fp model).  A
    cross-config batch is therefore just a ``MemberBatch`` whose lanes
    map to heterogeneous configs; use :meth:`lane` to slice one config's
    value back out.
    """

    # win ufunc dispatch against plain ndarrays regardless of operand order
    __array_priority__ = 100.0

    @property
    def n_members(self) -> int:
        return self.shape[0]

    @property
    def model_ndim(self) -> int:
        return self.ndim - 1

    def member(self, m: int) -> np.ndarray:
        """Member ``m``'s model-space value (a plain-ndarray view)."""
        return np.asarray(self)[m]

    def lane(self, m: int) -> np.ndarray:
        """Lane ``m``'s model-space value as an independent copy.

        Unlike :meth:`member` this never aliases the batch, so a
        per-config result sliced from a cross-config batch — including a
        scalar-promoted ``(n,)`` slot, where ``member`` would hand back a
        0-d view into shared storage — can outlive and never write back
        into the fused evaluation."""
        return np.asarray(self)[m].copy()

    def _lifted(self, target_model_ndim: int) -> np.ndarray:
        """The base array with length-1 axes inserted after the member axis
        so its model axes right-align at ``target_model_ndim`` dims."""
        base = np.asarray(self)
        pad = target_model_ndim - self.model_ndim
        if pad <= 0:
            return base
        return base.reshape(base.shape[:1] + (1,) * pad + base.shape[1:])

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        out = kwargs.get("out")
        if out is not None:
            kwargs["out"] = tuple(
                np.asarray(o) if isinstance(o, MemberBatch) else o
                for o in out
            )
        if method != "__call__":
            # reductions / accumulations collapse or reorder axes in ways
            # the member-axis convention cannot track: compute on the base
            # arrays and return plain ndarrays (callers re-wrap knowingly).
            plain = tuple(
                np.asarray(x) if isinstance(x, MemberBatch) else x
                for x in inputs
            )
            return getattr(ufunc, method)(*plain, **kwargs)
        target = 0
        for x in inputs:
            if isinstance(x, MemberBatch):
                target = max(target, x.model_ndim)
            elif isinstance(x, np.ndarray):
                target = max(target, x.ndim)
        plain = tuple(
            x._lifted(target) if isinstance(x, MemberBatch) else x
            for x in inputs
        )
        result = getattr(ufunc, method)(*plain, **kwargs)
        if isinstance(result, tuple):
            return tuple(
                r.view(MemberBatch) if isinstance(r, np.ndarray) else r
                for r in result
            )
        if isinstance(result, np.ndarray):
            return result.view(MemberBatch)
        return result

    def __getitem__(self, key):
        if key is Ellipsis:
            return self
        if not isinstance(key, tuple):
            key = (key,)
        result = np.asarray(self)[(slice(None),) + key]
        if result.ndim == 1:
            # fully-indexed element: Fortran loads scalars by value, so a
            # promoted (n,) batch scalar must not alias the array storage
            return result.copy().view(MemberBatch)
        return result.view(MemberBatch)

    def __setitem__(self, key, value) -> None:
        base = np.asarray(self)
        if key is Ellipsis:
            dest = base
        else:
            if not isinstance(key, tuple):
                key = (key,)
            dest = base[(slice(None),) + key]
        if isinstance(value, MemberBatch):
            value = value._lifted(dest.ndim - 1)
        dest[...] = value

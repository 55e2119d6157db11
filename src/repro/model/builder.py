"""Assemble the synthetic model's Fortran source tree for one configuration.

This is the analogue of the paper's "check out CESM, pick a compset, run the
build system" step.  :func:`build_model_source` takes a :class:`ModelConfig`,
collects every Fortran file from the subsystem registry
(:mod:`repro.model.registry`), applies any requested bug-injection patches
(:mod:`repro.model.patches`), and returns a :class:`ModelSource` — the single
object the rest of the pipeline consumes:

>>> src = build_model_source(ModelConfig())
>>> len(src.files) > len(src.compiled_files)   # FC5 excludes some files
True
>>> asts = src.parse()                  # filename -> SourceFileAST

``ModelSource.parse()`` preprocesses with the compset's macros and caches the
ASTs, so the metagraph builder (:mod:`repro.graphs`), the runtime and the
slicer all share one parse of the tree.  Building is cheap and parsing is
not, so nothing parses until a consumer first needs the ASTs (the Fortran
front end is not even imported before then), and trees that share a
``parse_cache`` parse each unchanged file once.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..obs import get_metrics, get_tracer
from .patches import get_patch
from .registry import CompsetSpec, get_compset, iter_module_specs
from . import modules as _modules

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..fortran.ast_nodes import ModuleNode, SourceFileAST


@dataclass(frozen=True)
class ModelConfig:
    """Build configuration for the synthetic model.

    Attributes
    ----------
    compset:
        Name of the registered :class:`~repro.model.registry.CompsetSpec`
        (default ``"FC5"``, the configuration of all paper experiments).
    patches:
        Names of :class:`~repro.model.patches.SourcePatch` bug injections to
        apply, in order (empty for the accepted / control model).
    macros:
        Extra CPP macros defined on top of the compset's own.
    """

    compset: str = "FC5"
    patches: tuple[str, ...] = ()
    #: compares (so run_model's source/config mismatch guard sees macro
    #: differences) but stays out of the hash — dicts are unhashable
    macros: dict[str, str] = field(default_factory=dict, hash=False)

    def __post_init__(self) -> None:
        if not isinstance(self.patches, tuple):
            object.__setattr__(self, "patches", tuple(self.patches))


@dataclass
class ModelSource:
    """The assembled source tree for one :class:`ModelConfig`.

    ``files`` is every file in the tree; ``compiled_files`` the subset the
    compset compiles (the paper's 2400 -> 820 reduction).  ``parse`` returns
    preprocessed + parsed ASTs, cached after the first call.
    ``parse_cache`` (``{(filename, macros, text): SourceFileAST}``) may be
    shared with other trees, so a file they already parsed is not parsed
    again.
    """

    config: ModelConfig
    compset: CompsetSpec
    files: dict[str, str]
    compiled_files: tuple[str, ...]
    macros: dict[str, str]
    _asts: dict[str, SourceFileAST] | None = field(default=None, repr=False)
    _digest: str | None = field(default=None, repr=False, compare=False)
    parse_cache: dict | None = field(default=None, repr=False, compare=False)

    def compiled_sources(self) -> dict[str, str]:
        """Mapping of compiled file name -> source text, in build order."""
        return {name: self.files[name] for name in self.compiled_files}

    def content_digest(self) -> str:
        """SHA-256 over the compiled tree (names + patched text), cached.

        This is the "what would the compiler see" identity the member
        cache keys on; computing it once per instance keeps cache-key
        derivation O(1) per ensemble member instead of re-hashing ~40
        files for each of N members.
        """
        if self._digest is None:
            h = hashlib.sha256()
            for name in self.compiled_files:
                h.update(name.encode())
                h.update(b"\x00")
                h.update(self.files[name].encode())
                h.update(b"\x01")
            self._digest = h.hexdigest()
        return self._digest

    def parse(self, include_uncompiled: bool = False) -> dict[str, SourceFileAST]:
        """Parse the tree into ``{filename: SourceFileAST}``.

        Only compiled files are parsed by default — uncompiled files are not
        part of the executable and therefore not part of the digraph.  The
        result for the default call is cached, and reuses the AST of any
        compiled file the ``parse_cache`` holds with the same name, macros
        and text: a patched tree that shares its control tree's cache
        parses only the files its patches changed.  ASTs are read-only, so
        sharing them is safe.  A call that actually parses runs under a
        ``model.parse`` span and counts one ``model.parses``; the span
        records how many ``files`` it parsed and how many it ``reused``.
        """
        if include_uncompiled:
            return self._parse(self.files, None)
        if self._asts is None:
            self._asts = self._parse(self.compiled_sources(), self.parse_cache)
        return self._asts

    def _parse(
        self, files: dict[str, str], cache: dict | None
    ) -> dict[str, SourceFileAST]:
        from ..fortran import parse_source  # loaded by the first parse

        macros = tuple(sorted(self.macros.items()))
        asts: dict[str, SourceFileAST] = {}
        reused = 0
        with get_tracer().span("model.parse") as span:
            for name, text in files.items():
                key = (name, macros, text)
                ast = None if cache is None else cache.get(key)
                if ast is None:
                    ast = parse_source(text, filename=name, macros=self.macros)
                    if cache is not None:
                        cache[key] = ast
                else:
                    reused += 1
                asts[name] = ast
            span.annotate(files=len(files) - reused, reused=reused)
        get_metrics().inc("model.parses")
        return asts

    def modules(self) -> dict[str, ModuleNode]:
        """Mapping of Fortran module name -> parsed module (compiled files)."""
        out: dict[str, ModuleNode] = {}
        for ast in self.parse().values():
            for mod in ast.modules:
                out[mod.name] = mod
        return out

    @property
    def total_lines(self) -> int:
        """Physical line count of the whole tree (compiled or not)."""
        return sum(text.count("\n") + 1 for text in self.files.values())


def build_model_source(config: ModelConfig | None = None) -> ModelSource:
    """Assemble (and optionally patch) the model source for ``config``."""
    config = config or ModelConfig()
    compset = get_compset(config.compset)

    files: dict[str, str] = {}
    compiled: list[str] = []
    providers = {
        p.__name__.rsplit(".", 1)[-1]: p.SOURCES for p in _modules.SOURCE_PROVIDERS
    }
    for spec in iter_module_specs():
        files[spec.filename] = providers[spec.provider][spec.filename]
        if compset.compiles(spec):
            compiled.append(spec.filename)

    for patch_name in config.patches:
        files = get_patch(patch_name).apply(files)

    macros = dict(compset.macros)
    macros.update(config.macros)
    return ModelSource(
        config=config,
        compset=compset,
        files=files,
        compiled_files=tuple(compiled),
        macros=macros,
    )


__all__ = ["ModelConfig", "ModelSource", "build_model_source"]

"""The declarative stage contract and its graph executor.

The paper's method is an explicitly staged dataflow (tokenize →
template → extracts → observations → segment, Sections 3–4), and every
driver in this repository — the single-site pipeline, the batch
runner's workers, the online service, the experiment sweeps — runs the
same stages while needing the same three cross-cutting behaviours:

* **cache-key chaining** — each stage's content-addressed cache key
  hashes its dependencies' keys with its own inputs (a Merkle chain),
  so a downstream knob change invalidates only downstream stages;
* **observability** — one ``pipeline.*`` span per stage with the
  stage's counts as attributes, plus the stage counters;
* **degradation** — the ladder of paper-prescribed fallbacks
  (whole-page template, empty problem, unsegmentable page) that turns
  recoverable errors into annotated results instead of crashes.

Before this module each driver hand-threaded those behaviours through
its own copy of the plumbing.  Now a stage is a *declaration* — a
:class:`Stage` value naming its dependencies, its own cache-key parts
(its config slice plus per-invocation inputs), its compute function,
its span/counter emissions, and its :class:`Degradation` ladder — and
the :class:`StageGraph` executor supplies the behaviours from one
place.  Adding a stage to the batch and serving layers is adding a
declaration, not re-plumbing four call sites.

This module is deliberately generic: it knows nothing about pages,
templates or segmenters.  The paper's concrete stage catalogue lives
in :mod:`repro.core.pipeline` (see ``PIPELINE_GRAPH`` there), the only
graph built from it; the online service runs that graph inside its
``serve.pipeline`` span.

Contract guarantees the executor upholds:

* a stage already present in the :class:`StageContext` (for example
  computed by a parent context) is never re-run;
* a cached stage looks its key up first; its dependencies are loaded
  or computed only when it must compute (no cache, or a miss), so a
  hit reads one cache entry however deep its dependency chain is;
* cache keys chain (:meth:`StageGraph.key`): each is computed once
  per context and never re-hashes upstream material;
* degradations (pre-condition checks first, then exception matches,
  both in declaration order) run *inside* the cached compute, so a
  degraded result is cached exactly like a computed one;
* a computing stage resolves its dependencies, then opens its span,
  computes (and stores), adds ``result_attrs``, runs ``finalize`` and
  closes the span; counters are booked after the span closes — the
  hand-written pipeline's order, which keeps cold and uncached traces
  byte-identical under a ``ManualClock``.  A hit opens only its own
  span, after the lookup, and books only its own counters.
"""

from __future__ import annotations

import hashlib
from contextlib import nullcontext
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Any, Callable, Iterable, Mapping

from repro.obs import Observability, current as current_obs

__all__ = ["Degradation", "Stage", "StageContext", "StageGraph", "fingerprint"]

#: Part of every stage key.  Bumping it orphans every cache entry
#: written under the previous key or value format at once.
CACHE_SCHEMA = 2


def _update(digest: "hashlib._Hash", obj: Any) -> None:
    """Feed one value into ``digest`` in canonical form."""
    if obj is None:
        digest.update(b"N;")
    elif isinstance(obj, bool):  # before int: bool is an int subclass
        digest.update(b"b1;" if obj else b"b0;")
    elif isinstance(obj, int):
        digest.update(b"i" + repr(obj).encode() + b";")
    elif isinstance(obj, float):
        digest.update(b"f" + repr(obj).encode() + b";")
    elif isinstance(obj, str):
        data = obj.encode("utf-8")
        digest.update(b"s" + str(len(data)).encode() + b":")
        digest.update(data)
    elif isinstance(obj, bytes):
        digest.update(b"y" + str(len(obj)).encode() + b":")
        digest.update(obj)
    elif isinstance(obj, (list, tuple)):
        digest.update(b"l(")
        for item in obj:
            _update(digest, item)
        digest.update(b")")
    elif isinstance(obj, (set, frozenset)):
        # Iteration order is hash-randomized; sort element digests.
        digest.update(b"e(")
        for item_digest in sorted(fingerprint(item) for item in obj):
            digest.update(item_digest.encode())
        digest.update(b")")
    elif isinstance(obj, dict):
        digest.update(b"d(")
        for key in sorted(obj, key=lambda k: fingerprint(k)):
            _update(digest, key)
            _update(digest, obj[key])
        digest.update(b")")
    elif is_dataclass(obj) and not isinstance(obj, type):
        digest.update(b"D" + type(obj).__qualname__.encode() + b"(")
        for field_ in fields(obj):
            _update(digest, field_.name)
            _update(digest, getattr(obj, field_.name))
        digest.update(b")")
    else:
        digest.update(b"r" + repr(obj).encode() + b";")


def fingerprint(*parts: Any) -> str:
    """SHA-256 hex digest of ``parts`` in canonical form.

    Stable across processes and interpreter restarts: dicts hash by
    sorted key, sets by sorted element digest (never by the iteration
    order ``PYTHONHASHSEED`` randomizes), dataclasses by qualified
    class name plus fields, and every value carries a type tag so
    ``1`` / ``1.0`` / ``"1"`` differ.
    """
    digest = hashlib.sha256()
    for part in parts:
        _update(digest, part)
    return digest.hexdigest()


class StageContext:
    """The value store one stage-graph execution reads and writes.

    A context maps names to values: the run's *inputs* (pages, config
    slices, helper callables) seeded at construction, and each executed
    stage's *result* stored under the stage's name.  Contexts chain —
    a :meth:`child` context resolves missing names through its parent,
    so per-page contexts share the site-level template result without
    re-running the template stage.

    Attributes:
        health: optional degradation ledger (any object with a
            ``fallbacks`` list, e.g.
            :class:`~repro.crawl.resilient.CrawlHealth`).  Labelled
            degradations append to it; inherited from the parent when
            not given.
        keys: the stage cache keys computed in this layer (see
            :meth:`StageGraph.key`); a child reuses its parent's.
    """

    __slots__ = ("values", "parent", "health", "keys")

    def __init__(
        self,
        values: Mapping[str, Any] | None = None,
        parent: "StageContext | None" = None,
        health: Any = None,
    ) -> None:
        self.values: dict[str, Any] = dict(values or {})
        self.parent = parent
        if health is None and parent is not None:
            health = parent.health
        self.health = health
        self.keys: dict[str, str] = {}

    def child(self, **values: Any) -> "StageContext":
        """A new context layered over this one."""
        return StageContext(values, parent=self)

    def __contains__(self, name: str) -> bool:
        ctx: StageContext | None = self
        while ctx is not None:
            if name in ctx.values:
                return True
            ctx = ctx.parent
        return False

    def __getitem__(self, name: str) -> Any:
        ctx: StageContext | None = self
        while ctx is not None:
            if name in ctx.values:
                return ctx.values[name]
            ctx = ctx.parent
        raise KeyError(name)

    def get(self, name: str, default: Any = None) -> Any:
        try:
            return self[name]
        except KeyError:
            return default

    def set(self, name: str, value: Any) -> None:
        """Bind ``name`` in *this* layer (never the parent's)."""
        self.values[name] = value


@dataclass(frozen=True)
class Degradation:
    """One rung of a stage's degradation ladder.

    A rung fires either on a *pre-condition* over the context (checked
    before the stage computes) or on a raised exception of one of the
    declared types; its ``fallback`` then supplies the stage's result.
    Rungs are evaluated in declaration order: all conditions first,
    then — if the compute raised — the first matching exception rung.

    Attributes:
        fallback: ``(error_or_None, ctx) -> result`` producing the
            degraded stage result (cached like a computed one).
        exceptions: exception types this rung absorbs.
        condition: pre-check over the context; when true the stage
            never computes and the fallback supplies the result.
        label: when set and the context carries a ``health`` ledger,
            appended to ``health.fallbacks`` (the crawl layer's
            degradation bookkeeping).
    """

    fallback: Callable[[BaseException | None, StageContext], Any]
    exceptions: tuple[type[BaseException], ...] = ()
    condition: Callable[[StageContext], bool] | None = None
    label: str | None = None

    def record(self, ctx: StageContext) -> None:
        """Book this rung into the context's health ledger, if any."""
        if self.label is not None and ctx.health is not None:
            ctx.health.fallbacks.append(self.label)


@dataclass(frozen=True)
class Stage:
    """One declarative stage of the dataflow.

    Attributes:
        name: stage identity — the cache namespace, the context key
            its result is stored under, and what ``deps`` reference.
        compute: ``ctx -> result``; reads inputs and upstream results
            from the context.
        deps: upstream stage names.  They resolve before this stage
            computes, and their cache keys are part of its key (key
            chaining).
        key: ``ctx -> tuple`` of this stage's *own* cache-key parts —
            its config slice plus per-invocation inputs.  ``None``
            marks the stage uncacheable (always computed).
        span: span name the executor wraps the stage in (``None`` =
            no span).
        span_attrs: ``ctx -> dict`` of attributes the span opens with.
        result_attrs: ``(result, ctx) -> dict`` of attributes added to
            the span once the result exists.
        counters: ``(result, ctx) -> iterable of (name, amount)``
            booked after the span closes.
        finalize: ``(result, ctx) -> None`` hook run inside the span
            after ``result_attrs`` — for uncached derivations that
            belong to the stage (e.g. resolving table regions from a
            template verdict) or for installing the result somewhere.
        degradations: the stage's fallback ladder (see
            :class:`Degradation`).
    """

    name: str
    compute: Callable[[StageContext], Any]
    deps: tuple[str, ...] = ()
    key: Callable[[StageContext], tuple] | None = None
    span: str | None = None
    span_attrs: Callable[[StageContext], dict] | None = None
    result_attrs: Callable[[Any, StageContext], dict] | None = None
    counters: Callable[[Any, StageContext], Iterable[tuple[str, int]]] | None = None
    finalize: Callable[[Any, StageContext], None] | None = None
    degradations: tuple[Degradation, ...] = field(default=())

    def guarded_compute(self, ctx: StageContext) -> Any:
        """``compute`` wrapped in the degradation ladder.

        This is the unit the cache memoises, so degraded results are
        cached exactly like computed ones.
        """
        for rung in self.degradations:
            if rung.condition is not None and rung.condition(ctx):
                rung.record(ctx)
                return rung.fallback(None, ctx)
        try:
            return self.compute(ctx)
        except Exception as error:
            for rung in self.degradations:
                if rung.exceptions and isinstance(error, rung.exceptions):
                    rung.record(ctx)
                    return rung.fallback(error, ctx)
            raise


class StageGraph:
    """Executes :class:`Stage` declarations in dependency order.

    The graph is static data: build it once (module level is fine) and
    run it against many contexts.  ``run`` binds the requested
    ``targets``, resolving a dependency only when a stage that computes
    needs it, and skipping stages whose result the context (or an
    ancestor context) already holds — which is both the "don't
    recompute the site-level template per page" rule and the mechanism
    that lets drivers enter the graph at any stage.

    Args:
        stages: the declarations.  Names must be unique and every
            dependency must name a declared stage; cycles are
            rejected.
    """

    def __init__(self, stages: Iterable[Stage]) -> None:
        self._stages: dict[str, Stage] = {}
        for stage in stages:
            if stage.name in self._stages:
                raise ValueError(f"duplicate stage {stage.name!r}")
            self._stages[stage.name] = stage
        for stage in self._stages.values():
            for dep in stage.deps:
                if dep not in self._stages:
                    raise ValueError(
                        f"stage {stage.name!r} depends on unknown "
                        f"stage {dep!r}"
                    )
        self._reject_cycles()

    def __contains__(self, name: str) -> bool:
        return name in self._stages

    def stage(self, name: str) -> Stage:
        """The declaration called ``name`` (KeyError when unknown)."""
        return self._stages[name]

    def _reject_cycles(self) -> None:
        state: dict[str, int] = {}  # 1 = visiting, 2 = done

        def visit(name: str) -> None:
            mark = state.get(name)
            if mark == 2:
                return
            if mark == 1:
                raise ValueError(f"stage dependency cycle through {name!r}")
            state[name] = 1
            for dep in self._stages[name].deps:
                visit(dep)
            state[name] = 2

        for name in self._stages:
            visit(name)

    def key(self, name: str, ctx: StageContext) -> str:
        """Stage ``name``'s cache key in ``ctx``: a Merkle hash.

        ``fingerprint(name, CACHE_SCHEMA, [dependency keys], *own
        parts)``, computed once per context (a child context reuses
        the keys its ancestors computed).
        """
        layer: StageContext | None = ctx
        while layer is not None:
            if name in layer.keys:
                return layer.keys[name]
            layer = layer.parent
        stage = self._stages[name]
        if stage.key is None:
            raise ValueError(f"stage {name!r} declares no cache key")
        key = fingerprint(
            name,
            CACHE_SCHEMA,
            [self.key(dep, ctx) for dep in stage.deps],
            *stage.key(ctx),
        )
        ctx.keys[name] = key
        return key

    def run(
        self,
        ctx: StageContext,
        targets: Iterable[str] | None = None,
        *,
        obs: Observability | None = None,
        cache: Any = None,
    ) -> StageContext:
        """Bind ``targets`` (default: every stage) into ``ctx``.

        Args:
            ctx: the value store; stage results are bound into it.
            targets: stage names to produce.  Stages already bound in
                the context are skipped; a target's dependencies run
                first whenever it computes.
            obs: observability bundle for spans/counters (default: the
                installed bundle, usually the no-op one).
            cache: optional stage cache — any object with
                ``get(stage, key) -> (found, value)`` and
                ``put(stage, key, value) -> value`` (the
                :class:`~repro.runner.cache.StageCache` interface).
                Stages without a ``key`` bypass it.
        """
        obs = obs if obs is not None else current_obs()
        for name in self._stages if targets is None else targets:
            if name not in self._stages:
                raise ValueError(f"unknown stage {name!r}")
            if name not in ctx:
                self._execute(self._stages[name], ctx, obs, cache)
        return ctx

    # -- internals -----------------------------------------------------------

    def _execute(
        self, stage: Stage, ctx: StageContext, obs: Observability, cache: Any
    ) -> None:
        cached = cache is not None and stage.key is not None
        found = False
        if cached:
            key = self.key(stage.name, ctx)
            found, value = cache.get(stage.name, key)
        if not found:
            self.run(ctx, stage.deps, obs=obs, cache=cache)
        attrs = stage.span_attrs(ctx) if stage.span_attrs else {}
        scope = obs.span(stage.span, **attrs) if stage.span else nullcontext()
        with scope as span:
            if not found:
                value = stage.guarded_compute(ctx)
                if cached:
                    value = cache.put(stage.name, key, value)
            if span is not None and stage.result_attrs is not None:
                span.attributes.update(stage.result_attrs(value, ctx))
            if stage.finalize is not None:
                stage.finalize(value, ctx)
        if stage.counters is not None:
            for counter_name, amount in stage.counters(value, ctx):
                obs.counter(counter_name).inc(amount)
        ctx.set(stage.name, value)

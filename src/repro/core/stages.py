"""The declarative stage contract and its graph executor.

The paper's method is an explicitly staged dataflow (tokenize →
template → extracts → observations → segment, Sections 3–4), and every
driver in this repository — the single-site pipeline, the batch
runner's workers, the online service, the experiment sweeps — runs the
same stages while needing the same three cross-cutting behaviours:

* **cache-key chaining** — each stage's content-addressed cache key
  extends its upstream stages' key material with its own inputs, so a
  downstream knob change invalidates only downstream stages;
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
in :mod:`repro.core.pipeline` (see ``PIPELINE_GRAPH`` there), and the
online service declares its own stages in :mod:`repro.serve.service`.

Contract guarantees the executor upholds:

* stages run in dependency order; a stage already present in the
  :class:`StageContext` (for example computed by a parent context) is
  never re-run;
* cache keys are ``fingerprint(stage.name, material)`` where
  ``material`` is the concatenation of every dependency's material
  followed by the stage's own ``key(ctx)`` parts — byte-identical to
  the hand-written tuples the pipeline used before the stage graph
  existed (guarded by ``tests/test_stage_graph.py`` and the CI
  ``stage-parity`` job);
* degradations (pre-condition checks first, then exception matches,
  both in declaration order) run *inside* the cached compute, so a
  degraded result is cached exactly like a computed one;
* the span opens before the cache lookup and closes after
  ``result_attrs``/``finalize``, and counters are booked after the
  span closes — the exact emission order the hand-written pipeline
  used, which keeps traces byte-identical under a ``ManualClock``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Mapping

from repro.obs import Observability, current as current_obs

__all__ = ["Degradation", "Stage", "StageContext", "StageGraph"]


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
    """

    __slots__ = ("values", "parent", "health")

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
        deps: upstream stage names.  They execute first, and their
            cache-key material prefixes this stage's (key chaining).
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
        cached exactly like computed ones (matching the pre-graph
        pipeline, which ran its fallback ladders inside the cached
        closures).
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
    run it against many contexts.  ``run`` executes the dependency
    closure of the requested ``targets``, skipping stages whose result
    the context (or an ancestor context) already holds — which is both
    the "don't recompute the site-level template per page" rule and
    the mechanism that lets drivers enter the graph at any stage.

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
        self._order = self._toposort()

    def __contains__(self, name: str) -> bool:
        return name in self._stages

    def __iter__(self) -> Iterator[Stage]:
        return iter(self._order)

    def stage(self, name: str) -> Stage:
        """The declaration called ``name`` (KeyError when unknown)."""
        return self._stages[name]

    def _toposort(self) -> tuple[Stage, ...]:
        order: list[Stage] = []
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
            order.append(self._stages[name])

        for name in self._stages:
            visit(name)
        return tuple(order)

    def key_material(self, name: str, ctx: StageContext) -> list:
        """The full cache-key part list for stage ``name``.

        Every dependency's material, in declaration order, followed by
        the stage's own ``key(ctx)`` parts — exactly the hand-built
        tuples the pre-graph pipeline passed to
        ``StageCache.get_or_compute``, so existing on-disk caches stay
        warm across the refactor.
        """
        stage = self._stages[name]
        if stage.key is None:
            raise ValueError(f"stage {name!r} declares no cache key")
        material: list = []
        for dep in stage.deps:
            material.extend(self.key_material(dep, ctx))
        material.extend(stage.key(ctx))
        return material

    def run(
        self,
        ctx: StageContext,
        targets: Iterable[str] | None = None,
        *,
        obs: Observability | None = None,
        cache: Any = None,
    ) -> StageContext:
        """Execute ``targets`` (default: every stage) and their deps.

        Args:
            ctx: the value store; stage results are bound into it.
            targets: stage names to produce.  The dependency closure
                runs in topological order; stages already bound in the
                context are skipped.
            obs: observability bundle for spans/counters (default: the
                installed bundle, usually the no-op one).
            cache: optional stage cache — any object with
                ``get_or_compute(stage, parts, compute)`` (the
                :class:`~repro.runner.cache.StageCache` interface).
                Stages without a ``key`` bypass it.
        """
        obs = obs if obs is not None else current_obs()
        if targets is None:
            wanted = {stage.name for stage in self._order}
        else:
            wanted = set()
            pending = list(targets)
            while pending:
                name = pending.pop()
                if name in wanted:
                    continue
                stage = self._stages.get(name)
                if stage is None:
                    raise ValueError(f"unknown stage {name!r}")
                wanted.add(name)
                pending.extend(stage.deps)
        for stage in self._order:
            if stage.name in wanted and stage.name not in ctx:
                self._execute(stage, ctx, obs, cache)
        return ctx

    # -- internals -----------------------------------------------------------

    def _compute(self, stage: Stage, ctx: StageContext, cache: Any) -> Any:
        if cache is None or stage.key is None:
            return stage.guarded_compute(ctx)
        return cache.get_or_compute(
            stage.name,
            self.key_material(stage.name, ctx),
            lambda: stage.guarded_compute(ctx),
        )

    def _execute(
        self, stage: Stage, ctx: StageContext, obs: Observability, cache: Any
    ) -> None:
        if stage.span is None:
            value = self._compute(stage, ctx, cache)
            if stage.finalize is not None:
                stage.finalize(value, ctx)
        else:
            attrs = stage.span_attrs(ctx) if stage.span_attrs else {}
            with obs.span(stage.span, **attrs) as span:
                value = self._compute(stage, ctx, cache)
                if stage.result_attrs is not None:
                    span.attributes.update(stage.result_attrs(value, ctx))
                if stage.finalize is not None:
                    stage.finalize(value, ctx)
        if stage.counters is not None:
            for counter_name, amount in stage.counters(value, ctx):
                obs.counter(counter_name).inc(amount)
        ctx.set(stage.name, value)

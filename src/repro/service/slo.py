"""SLO-aware serving: the deadline-driven algorithm ladder and its cost model.

The paper defines a quality/latency ladder — ``Exact+`` (optimal; its
``epsilon_a`` only tunes the internal AppAcc bracket) down through
``AppAcc`` (radius within ``1 + epsilon_a`` of optimal), ``AppInc`` (``2``),
and ``AppFast`` (``2 + epsilon_f``) — and leaves the rung choice to the
caller.  This module makes the system climb the ladder
automatically under a **per-query deadline**: given ``deadline_ms``, a small
calibrated :class:`CostModel` predicts what each rung would cost on the
query's k-ĉore component (features: component size, number of uncached
queries, whether the component's artifact bundle is resident) and
:func:`select_rung` picks the **best-quality rung predicted to fit the
budget**, falling back to the fastest rung — never to a refusal — when
nothing fits.  Every answer then reports ``algorithm_used`` together with
its approximation bound (:func:`approximation_bound`), so a caller always
knows which quality contract the deadline bought.

Three properties anchor the design (property-tested in ``tests/test_slo.py``):

* **bounded answers** — whatever rung the deadline selects, the answer obeys
  that rung's paper bound: ``exact <= answer <= bound * exact``;
* **deadline monotonicity** — a looser deadline never selects a
  lower-quality rung than a tighter one (selection walks the ladder
  best-quality-first, so a larger budget admits a superset of rungs);
* **opt-out identity** — ``deadline_ms=None`` is bit-identical to the
  explicit-algorithm path; the ladder only engages when a budget is given.

The cost model is deliberately small: per rung a per-query cost that is
affine in component size (``fixed + per_candidate * size``), plus a global
bundle-build term charged once when the component's artifacts are not yet
resident.  Coefficients are fitted at warm-up from a few probe queries
(:meth:`CostModel.calibrate`) and refreshed multiplicatively from the
latencies observed on every executed group (:meth:`CostModel.observe`), so
a machine that is slower than the probes suggested converges onto its real
costs instead of missing deadlines forever.  All coefficients are clamped
strictly positive, which is what makes the monotonicity guarantees
(bigger component → higher predicted cost; resident bundle → lower) hold
unconditionally — even for a mispredicting model, the serving layer's
contract is "answer anyway and flag ``deadline_missed``", never "hang".

:class:`repro.service.SACService` owns one :class:`CostModel` and drives the
batch pipeline through per-group rung overrides
(:class:`repro.engine.plan.PlanGroup`); the network daemon adds admission
control on top (``docs/serving.md``).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.searcher import ALGORITHMS
from repro.exceptions import InvalidParameterError

#: The quality/latency ladder, best quality first, fastest last.  ``exact``
#: sits above the paper's ladder (it is the reference, not a serving rung)
#: but is accepted as a ceiling so a caller can ask for "optimal if it fits".
FULL_LADDER: Tuple[str, ...] = ("exact", "exact+", "appacc", "appinc", "appfast")

#: The serving ladder proper — what an unconstrained deadline climbs to.
LADDER: Tuple[str, ...] = ("exact+", "appacc", "appinc", "appfast")

#: Default quality ceiling when a deadline is given without an algorithm.
DEFAULT_CEILING = "exact+"

#: Floor for every fitted coefficient (milliseconds / ms-per-candidate):
#: keeps predictions strictly monotone in size and residency even when a
#: probe measured ~0 on a tiny component.
_COEFFICIENT_FLOOR = 1e-6

#: Conservative priors (per-query ms per candidate) used before calibration,
#: ordered like the rungs' asymptotic costs so an uncalibrated model still
#: ranks the ladder sensibly.
_PRIOR_PER_CANDIDATE = {
    "exact": 0.5,
    "exact+": 0.05,
    "appacc": 0.02,
    "appinc": 0.01,
    "appfast": 0.005,
}
_PRIOR_FIXED_MS = 0.2
_PRIOR_BUILD_PER_CANDIDATE = 0.01


def algorithm_parameter_names(algorithm: str) -> frozenset:
    """Keyword parameters ``algorithm`` accepts (beyond graph/query/k/context).

    Derived from the callable's signature so validation can never drift from
    what the algorithms take; shared by the server's 400-validation and the
    ladder's per-rung parameter filtering.
    """
    names = []
    for parameter in inspect.signature(ALGORITHMS[algorithm]).parameters.values():
        if parameter.name in ("graph", "query", "k", "context"):
            continue
        if parameter.kind in (
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
            inspect.Parameter.KEYWORD_ONLY,
        ):
            names.append(parameter.name)
    return frozenset(names)


def params_for(algorithm: str, params: Mapping[str, float]) -> Dict[str, float]:
    """Filter a caller's parameter dict down to what ``algorithm`` accepts.

    The ladder switches rungs behind the caller's back, so a request carrying
    ``epsilon_f`` (an AppFast knob) must not explode when the deadline buys
    ``appacc`` instead — each rung receives exactly its own knobs and uses
    its documented defaults for the rest.
    """
    allowed = algorithm_parameter_names(algorithm)
    return {name: float(value) for name, value in params.items() if name in allowed}


def approximation_bound(algorithm: str, params: Mapping[str, float]) -> float:
    """The paper's approximation factor of ``algorithm`` under ``params``.

    The returned bound ``b`` guarantees ``answer.radius <= b * exact.radius``
    (Theorems 2-4 of the paper): ``1`` for ``exact`` and ``exact+`` (exact
    for every ``epsilon_a``), ``1 + epsilon_a`` for ``appacc``, ``2`` for
    ``appinc``, ``2 + epsilon_f`` for ``appfast``.  Parameters not supplied
    fall back to the algorithms' documented defaults (``0.5``).
    """
    if algorithm in ("exact", "exact+"):
        return 1.0
    if algorithm == "appacc":
        return 1.0 + float(params.get("epsilon_a", 0.5))
    if algorithm == "appinc":
        return 2.0
    if algorithm == "appfast":
        return 2.0 + float(params.get("epsilon_f", 0.5))
    raise InvalidParameterError(
        f"unknown algorithm {algorithm!r}; choose from {sorted(ALGORITHMS)}"
    )


def ladder_from(ceiling: str) -> Tuple[str, ...]:
    """The ladder rungs at or below quality ``ceiling``, best first.

    ``ceiling`` is the highest-quality algorithm the caller is willing to
    pay for; the returned tuple always ends in the fastest rung, so a
    deadline can always be answered by *something*.
    """
    if ceiling not in FULL_LADDER:
        raise InvalidParameterError(
            f"unknown algorithm {ceiling!r}; choose from {sorted(ALGORITHMS)}"
        )
    return FULL_LADDER[FULL_LADDER.index(ceiling):]


@dataclass
class RungCoefficients:
    """Affine per-query cost of one rung: ``fixed_ms + per_candidate_ms * size``."""

    fixed_ms: float
    per_candidate_ms: float


@dataclass
class CostModelStats:
    """Calibration/feedback counters of one :class:`CostModel`.

    ``observations_clamped`` counts feedback updates that hit the
    per-calibration-window ratchet bound (see :meth:`CostModel.observe`) —
    a persistently high count means the machine has genuinely drifted from
    its probes and a recalibration is due.
    """

    calibrations: int = 0
    probes: int = 0
    observations: int = 0
    observations_clamped: int = 0


@dataclass
class RungChoice:
    """Outcome of one :func:`select_rung` decision.

    ``fits`` is ``False`` when no rung's prediction fit the budget and the
    fastest rung was taken anyway — the "shed to faster rung, never to
    silence" half of the serving contract (rejection, when it happens at
    all, is the admission controller's move, before any work is queued).
    """

    algorithm: str
    predicted_ms: float
    fits: bool


class CostModel:
    """Predict per-rung execution cost from component size and cache state.

    The model is per-algorithm affine in component size with a shared
    bundle-build surcharge::

        group_cost_ms = queries * (fixed + per_candidate * size)
                        + (0 if bundle resident else build_per_candidate * size)

    Parameters
    ----------
    safety_factor:
        Multiplier applied to predictions before they are compared against a
        deadline (``> 1`` makes selection more conservative).  Predictions
        returned by :meth:`predict` / :meth:`predict_group` are raw; the
        factor is applied inside :func:`select_rung`.

    Examples
    --------
    >>> model = CostModel()                                  # doctest: +SKIP
    >>> model.calibrate(engine, k=4)                         # doctest: +SKIP
    >>> model.predict_group("appfast", 500, queries=4)       # doctest: +SKIP
    """

    def __init__(self, *, safety_factor: float = 1.0) -> None:
        if not safety_factor > 0:
            raise InvalidParameterError(
                f"safety_factor must be positive, got {safety_factor!r}"
            )
        self.safety_factor = float(safety_factor)
        self.stats = CostModelStats()
        self.rungs: Dict[str, RungCoefficients] = {
            algorithm: RungCoefficients(
                fixed_ms=_PRIOR_FIXED_MS, per_candidate_ms=per_candidate
            )
            for algorithm, per_candidate in _PRIOR_PER_CANDIDATE.items()
        }
        self.build_per_candidate_ms = _PRIOR_BUILD_PER_CANDIDATE
        #: ``(algorithm, component size, measured ms)`` triples recorded by
        #: :meth:`calibrate` — kept for inspection and the convergence tests.
        self.calibration_probes: List[Tuple[str, int, float]] = []
        #: Total drift :meth:`observe` may accumulate per calibration window
        #: — coefficients stay within ``[anchor / 10, anchor * 10]`` of the
        #: values the last :meth:`calibrate` fitted (or the priors).
        self.window_clamp = 10.0
        self._window_anchors: Dict[str, RungCoefficients] = {}
        self._reset_window_anchors()

    def _reset_window_anchors(self) -> None:
        """Re-anchor the feedback clamp window at the current coefficients."""
        self._window_anchors = {
            algorithm: RungCoefficients(
                fixed_ms=coefficients.fixed_ms,
                per_candidate_ms=coefficients.per_candidate_ms,
            )
            for algorithm, coefficients in self.rungs.items()
        }

    # -------------------------------------------------------------- predict
    def predict(self, algorithm: str, size: int, *, resident: bool = True) -> float:
        """Predicted cost (ms) of ONE query on a component of ``size`` members.

        Strictly increasing in ``size`` and strictly larger when the
        component's artifact bundle is not ``resident`` — the two
        monotonicity guarantees the unit tests pin.
        """
        coefficients = self.rungs.get(algorithm)
        if coefficients is None:
            raise InvalidParameterError(
                f"unknown algorithm {algorithm!r}; choose from {sorted(self.rungs)}"
            )
        size = max(0, int(size))
        cost = coefficients.fixed_ms + coefficients.per_candidate_ms * size
        if not resident:
            cost += self.build_per_candidate_ms * size
        return cost

    def predict_group(
        self, algorithm: str, size: int, *, queries: int = 1, resident: bool = True
    ) -> float:
        """Predicted cost (ms) of ``queries`` uncached queries on one component.

        The bundle-build surcharge is charged once per group (the first
        query materialises the bundle, the rest reuse it); zero queries cost
        zero — a fully cached group fits any deadline.
        """
        queries = max(0, int(queries))
        if queries == 0:
            return 0.0
        per_query = self.predict(algorithm, size, resident=True)
        cost = per_query * queries
        if not resident:
            cost += self.build_per_candidate_ms * max(0, int(size))
        return cost

    # ------------------------------------------------------------ calibrate
    def calibrate(
        self,
        engine,
        k: int,
        *,
        params: Optional[Mapping[str, float]] = None,
        ladder: Sequence[str] = LADDER,
        timer: Optional[Callable[[], float]] = None,
    ) -> int:
        """Fit the coefficients from a few probe queries on ``engine``.

        Probes the largest and the median-size k-ĉore component (one query
        each — the component *representative*, which is guaranteed to be a
        member): the bundle build of the large component fits the build
        surcharge, and the two resident-bundle timings per rung fit the
        affine per-query cost.  With a single component the slope keeps its
        prior and only the intercept is fitted.  Returns the number of probe
        queries executed (0 when the graph has no k-ĉore, in which case the
        priors stay — there is nothing to serve anyway).
        """
        import numpy as np
        from time import perf_counter

        clock = timer if timer is not None else perf_counter
        params = dict(params or {})
        labels, count = engine.component_labels(k)
        if count == 0:
            return 0
        sizes = np.bincount(labels[labels >= 0], minlength=count)
        order = np.argsort(sizes)
        large = int(order[-1])
        median = int(order[len(order) // 2])
        probes = [large] if median == large else [median, large]

        # Bundle-build surcharge: time the first materialisation of the
        # largest probed component (skipped when it is already resident —
        # the surcharge then keeps its current estimate).
        representative = engine.component_representative(k, large)
        if not engine.bundle_resident(k, representative):
            began = clock()
            engine.component_artifacts(k, large)
            build_ms = (clock() - began) * 1000.0
            self.build_per_candidate_ms = max(
                _COEFFICIENT_FLOOR, build_ms / max(1, int(sizes[large]))
            )
        ran = 0
        measured: Dict[str, List[Tuple[int, float]]] = {}
        for component in probes:
            engine.component_artifacts(k, component)  # probe resident bundles
            query = engine.component_representative(k, component)
            for algorithm in ladder:
                rung_params = params_for(algorithm, params)
                began = clock()
                engine.search(query, k, algorithm=algorithm, **rung_params)
                elapsed_ms = (clock() - began) * 1000.0
                measured.setdefault(algorithm, []).append(
                    (int(sizes[component]), elapsed_ms)
                )
                self.calibration_probes.append(
                    (algorithm, int(sizes[component]), elapsed_ms)
                )
                ran += 1

        for algorithm, points in measured.items():
            coefficients = self.rungs[algorithm]
            if len(points) >= 2:
                (small_size, small_ms), (large_size, large_ms) = points[0], points[-1]
                if large_size > small_size:
                    slope = (large_ms - small_ms) / (large_size - small_size)
                    coefficients.per_candidate_ms = max(_COEFFICIENT_FLOOR, slope)
                intercept = small_ms - coefficients.per_candidate_ms * small_size
                coefficients.fixed_ms = max(_COEFFICIENT_FLOOR, intercept)
            else:
                size, elapsed_ms = points[0]
                intercept = elapsed_ms - coefficients.per_candidate_ms * size
                coefficients.fixed_ms = max(_COEFFICIENT_FLOOR, intercept)
        self.stats.calibrations += 1
        self.stats.probes += ran
        # A fresh fit opens a fresh feedback window: observe() may drift the
        # coefficients up to window_clamp away from THESE values, no further.
        self._reset_window_anchors()
        return ran

    # -------------------------------------------------------------- observe
    def observe(
        self,
        algorithm: str,
        size: int,
        *,
        queries: int,
        elapsed_ms: float,
        resident: bool = True,
        learning_rate: float = 0.3,
    ) -> None:
        """Fold one observed group latency back into the coefficients.

        The observed per-query cost is compared with the prediction and both
        coefficients are scaled towards the ratio with an exponential moving
        average — a multiplicative update, so the model converges onto a
        machine that is uniformly faster or slower than its probes without
        ever producing a non-positive (monotonicity-breaking) coefficient.

        Two clamps bound the feedback.  Per update, the observed/predicted
        ratio is limited to one order of magnitude so a single scheduler
        hiccup cannot wreck the fit.  Per **calibration window**, the
        coefficients themselves are held within ``window_clamp`` (10×) of
        the values the last :meth:`calibrate` fitted — without this, a burst
        of pathological group latencies compounds the per-update clamp
        (1.0 → 10× per batch of ~9 updates at the default learning rate)
        and can ratchet the model arbitrarily far.  Under the window clamp,
        adversarial observation streams saturate at the envelope and stop;
        escaping it requires an actual recalibration.
        """
        if queries <= 0 or elapsed_ms < 0:
            return
        coefficients = self.rungs.get(algorithm)
        if coefficients is None:
            return
        budget = float(elapsed_ms)
        if not resident:
            budget -= self.build_per_candidate_ms * max(0, int(size))
        observed = max(_COEFFICIENT_FLOOR, budget / queries)
        predicted = self.predict(algorithm, size, resident=True)
        ratio = observed / max(_COEFFICIENT_FLOOR, predicted)
        ratio = min(10.0, max(0.1, ratio))
        factor = (1.0 - learning_rate) + learning_rate * ratio
        anchor = self._window_anchors.get(algorithm, coefficients)
        clamped = False

        def _bounded(value: float, anchor_value: float) -> float:
            nonlocal clamped
            low = max(_COEFFICIENT_FLOOR, anchor_value / self.window_clamp)
            high = max(_COEFFICIENT_FLOOR, anchor_value * self.window_clamp)
            bounded = min(high, max(low, value))
            clamped = clamped or bounded != value
            return bounded

        coefficients.fixed_ms = _bounded(
            coefficients.fixed_ms * factor, anchor.fixed_ms
        )
        coefficients.per_candidate_ms = _bounded(
            coefficients.per_candidate_ms * factor, anchor.per_candidate_ms
        )
        self.stats.observations += 1
        if clamped:
            self.stats.observations_clamped += 1


def select_rung(
    model: CostModel,
    deadline_ms: float,
    *,
    size: int,
    resident: bool,
    pending: Mapping[str, int],
    ceiling: str = DEFAULT_CEILING,
) -> RungChoice:
    """Pick the best-quality rung predicted to fit ``deadline_ms``.

    Walks :func:`ladder_from` ``ceiling`` best-quality-first and returns the
    first rung whose predicted group cost (times the model's safety factor)
    fits the remaining budget; when none fits — including a budget that has
    already expired — the **fastest** rung is returned with ``fits=False``,
    because a late answer with a known bound beats no answer.

    ``pending`` maps each rung to the number of queries that would actually
    execute at that rung (uncached ones) — how answer-cache residency enters
    the decision: a rung whose answers are all cached costs nothing and wins
    any deadline.

    Monotone in the deadline by construction: a looser budget admits a
    superset of rungs, so the first (best-quality) fit can only move up the
    ladder — the property ``tests/test_slo.py`` pins.
    """
    ladder = ladder_from(ceiling)
    choice = None
    for algorithm in ladder:
        queries = int(pending.get(algorithm, 0))
        predicted = model.predict_group(
            algorithm, size, queries=queries, resident=resident
        )
        if predicted * model.safety_factor <= deadline_ms:
            return RungChoice(algorithm=algorithm, predicted_ms=predicted, fits=True)
        choice = RungChoice(algorithm=algorithm, predicted_ms=predicted, fits=False)
    fastest = ladder[-1]
    predicted = model.predict_group(
        fastest, size, queries=int(pending.get(fastest, 0)), resident=resident
    )
    return RungChoice(algorithm=fastest, predicted_ms=predicted, fits=False)


@dataclass
class SloStats:
    """Deadline-serving counters of one :class:`repro.service.SACService`.

    Attributes
    ----------
    batches:
        Batches served in SLO mode (``deadline_ms`` given).
    queries:
        Query occurrences those batches carried.
    groups:
        ``(component, k)`` groups the ladder picked a rung for.
    deadline_missed:
        Answered queries delivered after their deadline had already passed
        (the flag every such answer carries).
    downgrades:
        Groups answered below the requested quality ceiling — the ladder
        descending to fit the budget.
    overloads:
        Groups where *no* rung fit the remaining budget and the fastest rung
        was used anyway.
    rungs:
        ``algorithm -> groups answered at that rung``.
    """

    batches: int = 0
    queries: int = 0
    groups: int = 0
    deadline_missed: int = 0
    downgrades: int = 0
    overloads: int = 0
    rungs: Dict[str, int] = field(default_factory=dict)

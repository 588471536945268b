"""Active-learning design-space exploration (the paper's Figure 8 loop).

The algorithm follows §IV-C-1 and HyperMapper: draw random configurations,
evaluate them on the real (black-box) objective function, fit one
random-forest surrogate per objective, predict the Pareto front over a large
candidate pool, evaluate only the configurations predicted to be near the
front, retrain, and repeat.  A random-sampling explorer with the same
evaluation budget serves as the baseline the paper says active learning
beats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.exceptions import OptimizationError
from repro.middleware.optimizer.design_space import DesignSpace
from repro.middleware.optimizer.multi_objective import (
    Evaluation,
    ParetoArchive,
    hypervolume_2d,
    is_pareto_efficient,
)
from repro.middleware.optimizer.random_forest import RandomForestRegressor

ObjectiveFunction = Callable[[dict[str, Any]], Sequence[float]]


@dataclass
class DSEResult:
    """Outcome of one design-space exploration run."""

    evaluations: list[Evaluation] = field(default_factory=list)
    front: list[Evaluation] = field(default_factory=list)
    iterations: int = 0
    evaluation_budget: int = 0

    def front_points(self) -> list[tuple[float, ...]]:
        """Objective tuples on the Pareto front."""
        return [e.objectives for e in self.front]

    def hypervolume(self, reference: tuple[float, float]) -> float:
        """2-objective hypervolume of the front (larger is better)."""
        points = [(o[0], o[1]) for o in self.front_points()]
        return hypervolume_2d(points, reference)

    def best_scalarized(self, weights: Sequence[float]) -> Evaluation:
        """Evaluation minimizing a weighted sum of objectives."""
        if not self.evaluations:
            raise OptimizationError("no evaluations recorded")
        return min(self.evaluations,
                   key=lambda e: sum(w * o for w, o in zip(weights, e.objectives)))


class ActiveLearningOptimizer:
    """HyperMapper-style multi-objective optimizer over a design space."""

    def __init__(self, space: DesignSpace, objective_fn: ObjectiveFunction, *,
                 n_objectives: int = 2, initial_samples: int = 10,
                 samples_per_iteration: int = 5, candidate_pool: int = 200,
                 n_trees: int = 16, seed: int = 0) -> None:
        if initial_samples <= 1:
            raise OptimizationError("initial_samples must be at least 2")
        self.space = space
        self.objective_fn = objective_fn
        self.n_objectives = n_objectives
        self.initial_samples = initial_samples
        self.samples_per_iteration = samples_per_iteration
        self.candidate_pool = candidate_pool
        self.n_trees = n_trees
        self.seed = seed

    # -- public API --------------------------------------------------------------------

    def optimize(self, *, budget: int = 50) -> DSEResult:
        """Run the active-learning loop until ``budget`` evaluations are spent."""
        if budget < self.initial_samples:
            raise OptimizationError("budget must cover the initial random samples")
        rng = np.random.default_rng(self.seed)
        archive = ParetoArchive()
        seen: set[tuple] = set()

        for configuration in self.space.sample_many(self.initial_samples, seed=self.seed):
            self._evaluate_into(archive, configuration, seen)

        iterations = 0
        while len(archive) < budget:
            iterations += 1
            surrogates = self._fit_surrogates(archive)
            candidates = self.space.sample_many(
                self.candidate_pool, seed=self.seed + 1000 + iterations)
            selected = self._select_candidates(surrogates, candidates, seen, rng)
            if not selected:
                selected = [self.space.sample(rng)]
            for configuration in selected:
                if len(archive) >= budget:
                    break
                self._evaluate_into(archive, configuration, seen)

        return DSEResult(
            evaluations=list(archive.evaluations),
            front=archive.front,
            iterations=iterations,
            evaluation_budget=budget,
        )

    def random_search(self, *, budget: int = 50, seed: int | None = None) -> DSEResult:
        """Baseline: spend the same budget on uniform random sampling."""
        archive = ParetoArchive()
        seen: set[tuple] = set()
        for configuration in self.space.sample_many(budget, seed=self.seed if seed is None
                                                    else seed):
            self._evaluate_into(archive, configuration, seen)
        return DSEResult(
            evaluations=list(archive.evaluations),
            front=archive.front,
            iterations=0,
            evaluation_budget=budget,
        )

    # -- internals ------------------------------------------------------------------------

    def _evaluate_into(self, archive: ParetoArchive, configuration: dict[str, Any],
                       seen: set[tuple]) -> None:
        key = tuple(sorted((k, str(v)) for k, v in configuration.items()))
        seen.add(key)
        objectives = tuple(float(v) for v in self.objective_fn(configuration))
        if len(objectives) != self.n_objectives:
            raise OptimizationError(
                f"objective function returned {len(objectives)} values, "
                f"expected {self.n_objectives}"
            )
        archive.add(Evaluation(dict(configuration), objectives))

    def _fit_surrogates(self, archive: ParetoArchive) -> list[RandomForestRegressor]:
        x = self.space.encode_many([e.configuration for e in archive.evaluations])
        surrogates = []
        for objective_index in range(self.n_objectives):
            y = np.array([e.objectives[objective_index] for e in archive.evaluations])
            forest = RandomForestRegressor(n_trees=self.n_trees,
                                           seed=self.seed + objective_index)
            forest.fit(x, y)
            surrogates.append(forest)
        return surrogates

    def _select_candidates(self, surrogates: list[RandomForestRegressor],
                           candidates: list[dict[str, Any]], seen: set[tuple],
                           rng: np.random.Generator) -> list[dict[str, Any]]:
        fresh = []
        for configuration in candidates:
            key = tuple(sorted((k, str(v)) for k, v in configuration.items()))
            if key not in seen:
                fresh.append(configuration)
        if not fresh:
            return []
        encoded = self.space.encode_many(fresh)
        predicted = np.column_stack([s.predict(encoded) for s in surrogates])
        efficient = is_pareto_efficient(predicted)
        front_indexes = np.flatnonzero(efficient)
        # Exploit: predicted-front points; explore: a few uncertain points.
        exploit = list(front_indexes[:self.samples_per_iteration])
        remaining = max(0, self.samples_per_iteration - len(exploit))
        if remaining:
            uncertainty = np.sum(
                np.column_stack([s.predict_std(encoded) for s in surrogates]), axis=1)
            explore_order = np.argsort(-uncertainty)
            exploit_set = set(exploit)
            for index in explore_order:
                if len(exploit) >= self.samples_per_iteration:
                    break
                if int(index) not in exploit_set:
                    exploit.append(int(index))
                    exploit_set.add(int(index))
        rng.shuffle(exploit)
        return [fresh[int(i)] for i in exploit[:self.samples_per_iteration]]


def compare_to_random(space: DesignSpace, objective_fn: ObjectiveFunction, *,
                      budget: int = 50, reference: tuple[float, float],
                      seed: int = 0) -> dict[str, float]:
    """Convenience comparison used by experiment E6.

    Runs active learning and random search at the same budget and returns the
    hypervolume achieved by each (larger is better).
    """
    optimizer = ActiveLearningOptimizer(space, objective_fn, seed=seed)
    active = optimizer.optimize(budget=budget)
    random = optimizer.random_search(budget=budget, seed=seed + 1)
    return {
        "active_learning_hypervolume": active.hypervolume(reference),
        "random_hypervolume": random.hypervolume(reference),
        "active_front_size": float(len(active.front)),
        "random_front_size": float(len(random.front)),
    }

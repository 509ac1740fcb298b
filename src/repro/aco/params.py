"""Parameters of the ACO layering algorithm.

The paper's Section VIII tunes two of these (α and β, best at 3 and 5 with
(1, 3) a close, cheaper runner-up that the authors adopt) plus the dummy
vertex width ``nd_width`` (best at 1.1, with 1.0 adopted for speed).  The
remaining knobs — number of ants, number of tours, evaporation rate, initial
pheromone — follow the paper where stated (10 tours) and the standard Ant
System defaults of Dorigo & Stützle otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any

from repro.utils.exceptions import ValidationError

__all__ = ["ACOParams", "ENGINES", "SELECTION_RULES", "VERTEX_ORDERS"]

#: Supported layer-selection rules for an ant's construction step.
#: ``"argmax"`` is what the paper implements ("the layer that corresponds to
#: the highest probability value is chosen"); ``"roulette"`` is the classical
#: random-proportional sampling and is used in an ablation benchmark.
SELECTION_RULES = ("argmax", "roulette")

#: Supported vertex visiting orders for an ant's walk.  The paper's
#: implementation iterates "randomly over all vertices"; Section IV-D notes
#: that a BFS-style linear order is an equally valid alternative, and a random
#: topological order is provided as a third natural choice.
VERTEX_ORDERS = ("random", "bfs", "topological")

#: Supported execution engines.  ``"vectorized"`` (default) runs the tours
#: on the walk kernel through :func:`repro.aco.runtime.run_packed_colonies`;
#: ``"python"`` is ``AntColony``'s own per-vertex loop, the reference the
#: tests compare against.  Both follow the same randomness and selection
#: protocol and produce bit-identical results for a fixed seed.
ENGINES = ("vectorized", "python")


@dataclass(frozen=True)
class ACOParams:
    """All tunable parameters of the ACO DAG-layering algorithm.

    Attributes
    ----------
    n_ants:
        Colony size — how many ants build a layering per tour.
    n_tours:
        Number of tours; the paper uses 10.
    alpha:
        Exponent of the pheromone trail in the random-proportional rule.
        ``alpha = 0`` reduces the algorithm to a stochastic greedy search.
    beta:
        Exponent of the heuristic information ``η = 1 / W(layer)``.
        ``beta = 0`` leaves only the pheromone at work (poor results and
        early stagnation, per the paper).
    rho:
        Pheromone evaporation rate applied at the end of every tour:
        ``τ ← (1 − rho) · τ``.
    tau0:
        Initial pheromone value for every (vertex, layer) pair.
    tau_min:
        Lower clamp applied after evaporation so trails never vanish
        completely (standard MAX-MIN style safeguard).
    deposit:
        Scale factor of the tour-best ant's pheromone deposit; the deposited
        amount on each of its assignments is ``deposit · f`` with
        ``f = 1 / (H + W)``.
    nd_width:
        Width attributed to a dummy vertex when computing layer widths and
        the objective (the paper's ``nd_width`` parameter).
    node_width_default:
        Width used for real vertices that carry no explicit width.  Kept for
        completeness; graphs built with :class:`repro.graph.DiGraph` always
        carry an explicit width.
    selection:
        ``"argmax"`` (paper) or ``"roulette"`` (classical sampling).
    q0:
        Optional exploitation probability implementing the Ant Colony System
        *pseudo-random proportional rule*: with probability ``q0`` the ant
        exploits (argmax of τ^α·η^β), otherwise it samples from the
        distribution.  ``None`` (default) keeps the pure behaviour selected
        by *selection* (argmax ⇔ ``q0 = 1``, roulette ⇔ ``q0 = 0``); setting
        an intermediate value blends the two and is used by the exploration
        ablation.
    vertex_order:
        Order in which an ant visits the vertices during its walk:
        ``"random"`` (paper default), ``"bfs"`` (breadth-first from a random
        start, the alternative the paper mentions) or ``"topological"``
        (random topological order, sources first).
    eta_epsilon:
        Floor applied to layer widths before inverting them, so empty layers
        (width 0) yield a large-but-finite heuristic value instead of a
        division by zero.
    engine:
        ``"python"`` makes :class:`~repro.aco.colony.AntColony` run its own
        tour loop with the per-vertex walk on a dense pheromone matrix: the
        independent oracle the tests compare every other path against.
        ``"vectorized"`` (default) runs the colony as a pack of one through
        :func:`repro.aco.runtime.run_packed_colonies` on the walk kernel
        (native, or the NumPy lockstep where no compiler exists).  Packs and
        portfolios always run the kernel.  Identical results either way.
    exchange_every:
        Multi-colony only (see :mod:`repro.aco.runtime`): every
        ``exchange_every`` tours the overall best layering across the
        colonies deposits pheromone on *every* colony's matrix, migrating
        the elite solution between otherwise independent colonies.  ``0``
        (default) disables the exchange, which keeps a multi-colony run
        bit-identical to running the colonies separately.  Ignored by
        single-colony runs.
    seed:
        Optional RNG seed making the whole run deterministic.
    """

    n_ants: int = 10
    n_tours: int = 10
    alpha: float = 1.0
    beta: float = 3.0
    rho: float = 0.5
    tau0: float = 1.0
    tau_min: float = 1e-6
    deposit: float = 1.0
    nd_width: float = 1.0
    node_width_default: float = 1.0
    selection: str = "argmax"
    q0: float | None = None
    vertex_order: str = "random"
    eta_epsilon: float = 0.1
    engine: str = "vectorized"
    exchange_every: int = 0
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.n_ants < 1:
            raise ValidationError(f"n_ants must be >= 1, got {self.n_ants}")
        if self.n_tours < 1:
            raise ValidationError(f"n_tours must be >= 1, got {self.n_tours}")
        if self.alpha < 0 or self.beta < 0:
            raise ValidationError(
                f"alpha and beta must be >= 0, got alpha={self.alpha}, beta={self.beta}"
            )
        if not 0.0 <= self.rho <= 1.0:
            raise ValidationError(f"rho must be in [0, 1], got {self.rho}")
        if self.tau0 <= 0:
            raise ValidationError(f"tau0 must be positive, got {self.tau0}")
        if self.tau_min < 0:
            raise ValidationError(f"tau_min must be >= 0, got {self.tau_min}")
        if self.tau_min > self.tau0:
            raise ValidationError(
                f"tau_min ({self.tau_min}) must not exceed tau0 ({self.tau0})"
            )
        if self.deposit < 0:
            raise ValidationError(f"deposit must be >= 0, got {self.deposit}")
        if self.nd_width < 0:
            raise ValidationError(f"nd_width must be >= 0, got {self.nd_width}")
        if self.node_width_default <= 0:
            raise ValidationError(
                f"node_width_default must be positive, got {self.node_width_default}"
            )
        if self.selection not in SELECTION_RULES:
            raise ValidationError(
                f"selection must be one of {SELECTION_RULES}, got {self.selection!r}"
            )
        if self.q0 is not None and not 0.0 <= self.q0 <= 1.0:
            raise ValidationError(f"q0 must be in [0, 1] or None, got {self.q0}")
        if self.vertex_order not in VERTEX_ORDERS:
            raise ValidationError(
                f"vertex_order must be one of {VERTEX_ORDERS}, got {self.vertex_order!r}"
            )
        if self.eta_epsilon <= 0:
            raise ValidationError(f"eta_epsilon must be positive, got {self.eta_epsilon}")
        if self.engine not in ENGINES:
            raise ValidationError(
                f"engine must be one of {ENGINES}, got {self.engine!r}"
            )
        if self.exchange_every < 0:
            raise ValidationError(
                f"exchange_every must be >= 0, got {self.exchange_every}"
            )

    @property
    def exploitation_probability(self) -> float:
        """The effective ``q0``: explicit value, or 1/0 implied by *selection*."""
        if self.q0 is not None:
            return self.q0
        return 1.0 if self.selection == "argmax" else 0.0

    # ------------------------------------------------------------------ #
    # convenience
    # ------------------------------------------------------------------ #

    def replace(self, **changes: Any) -> "ACOParams":
        """Return a copy with the given fields replaced (validated again)."""
        current = {f.name: getattr(self, f.name) for f in fields(self)}
        current.update(changes)
        return ACOParams(**current)

    def as_dict(self) -> dict[str, Any]:
        """Plain-dict view (used for process-pool serialisation and reporting)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def paper_defaults(cls) -> "ACOParams":
        """The configuration adopted by the paper for its experiments.

        α = 1, β = 3 (the cheaper runner-up of the tuning study), 10 tours,
        dummy-vertex width 1.
        """
        return cls(alpha=1.0, beta=3.0, n_tours=10, nd_width=1.0)

    @classmethod
    def paper_best_quality(cls) -> "ACOParams":
        """The best-quality configuration of the tuning study (α = 3, β = 5, nd_width = 1.1)."""
        return cls(alpha=3.0, beta=5.0, n_tours=10, nd_width=1.1)

"""Experiment registry: maps paper artifact ids to their drivers.

Every module in :mod:`repro.experiments` registers a zero-argument callable
returning an :class:`~repro.core.experiment.ExperimentResult`; the registry
is what the benchmark harness, the parallel runner and the ``examples``
iterate over.

Ids, titles and driver module names come from the static table
:data:`repro.experiments.DRIVERS`, so ``repro list``, id validation and an
all-hit ``repro all`` import no driver (and with them no numpy, no
scipy). :func:`get_experiment` imports the one module it is asked for;
that module's ``@register`` must agree with its table row.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.experiment import ExperimentResult
from repro.experiments import DRIVERS

Driver = Callable[[], ExperimentResult]

_REGISTRY: Dict[str, Driver] = {}


class UnknownExperimentError(KeyError):
    """Lookup of an experiment id that is not registered.

    A ``KeyError`` subclass so existing ``except KeyError`` call sites
    keep working; carries the known ids for a helpful CLI message.
    """

    def __init__(self, exp_id: str, known: List[str]) -> None:
        super().__init__(
            f"unknown experiment {exp_id!r}; known: {known}"
        )
        self.exp_id = exp_id
        self.known = known

    def __str__(self) -> str:
        return f"unknown experiment {self.exp_id!r}; known: {self.known}"


def register(exp_id: str, title: str = "") -> Callable[[Driver], Driver]:
    """Decorator: ``@register("fig08", title="Global HPL")`` on a driver.

    The id, the driver's module and ``title`` must match the id's row in
    :data:`repro.experiments.DRIVERS`, which is what :func:`experiment_title`
    serves without importing the driver; the title must also match the
    ``ExperimentResult`` the driver returns (enforced by a test).
    """

    def deco(fn: Driver) -> Driver:
        if exp_id in _REGISTRY:
            raise ValueError(f"experiment {exp_id!r} registered twice")
        if DRIVERS.get(exp_id) != (fn.__module__, title):
            raise ValueError(
                f"@register({exp_id!r}) in {fn.__module__} with title "
                f"{title!r} disagrees with repro.experiments.DRIVERS: "
                f"{DRIVERS.get(exp_id)}"
            )
        _REGISTRY[exp_id] = fn
        return fn

    return deco


def _row(exp_id: str) -> Tuple[str, str]:
    """``exp_id``'s ``(module, title)`` row of the driver table."""
    try:
        return DRIVERS[exp_id]
    except KeyError:
        raise UnknownExperimentError(exp_id, sorted(DRIVERS)) from None


def driver_module(exp_id: str) -> str:
    """Dotted module name of the driver registered under ``exp_id``."""
    return _row(exp_id)[0]


def get_experiment(exp_id: str) -> Driver:
    """Look up a registered driver, importing its module if needed."""
    importlib.import_module(driver_module(exp_id))
    return _REGISTRY[exp_id]


def experiment_title(exp_id: str) -> str:
    """The registered title of ``exp_id`` — without importing its driver."""
    return _row(exp_id)[1]


def experiment_titles() -> Dict[str, str]:
    """``{exp_id: title}`` for every registered experiment (sorted)."""
    return {exp_id: DRIVERS[exp_id][1] for exp_id in sorted(DRIVERS)}


def all_experiments() -> List[str]:
    """Sorted ids of every registered experiment."""
    return sorted(DRIVERS)


def resolve_ids(requested: Optional[List[str]] = None) -> List[str]:
    """Validate ``requested`` ids against the registry, in registry order.

    ``None`` (or an empty list) means "everything". Unknown ids raise
    :class:`UnknownExperimentError` listing the known ids.
    """
    known = sorted(DRIVERS)
    if not requested:
        return known
    for exp_id in requested:
        if exp_id not in DRIVERS:
            raise UnknownExperimentError(exp_id, known)
    # Registry (sorted) order, independent of how the user listed them,
    # so parallel and serial runs merge results identically.
    want = set(requested)
    return [exp_id for exp_id in known if exp_id in want]


def _ensure_loaded() -> None:
    """Import every driver module, running each ``@register`` once."""
    for exp_id in DRIVERS:
        get_experiment(exp_id)

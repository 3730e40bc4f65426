"""The cross-engine conformance contract: one source of engine lists.

Every multi-engine harness in the suite parametrizes from this module
instead of keeping its own ``ENGINES`` / ``BACKENDS`` tuple, so a newly
registered engine name is picked up by *every* harness automatically —
the drift where a new variant silently missed half the batteries is
structurally impossible.  ``tests/test_engine_contract.py`` runs the
conformance battery proper over :func:`contract_engines` (all names)
and asserts registry coverage, so an engine cannot opt out either.

Lists
-----
:func:`contract_engines`
    Every name in :mod:`repro.engine.registry` — what the conformance
    battery itself runs.
:func:`representative_engines`
    One name per *distinct maintenance code path*: policy/backend
    aliases that only change the initial decomposition or re-run the
    base construction (``-small``/``-large``/``-random``/``-om``, bare
    ``trav``, ``trav-<h>`` beyond the representative hop count) are
    folded away, while genuinely different code (treap backend, each
    order family) stays.  Heavier
    hypothesis harnesses run over this list.
:func:`order_family_engines`
    The order-family subset of the representatives — engines that carry
    the full index (k-order + degrees) and the batch/service contracts
    the service-level suites exercise.

``SEQUENCE_BACKENDS`` is re-exported from :mod:`repro.core.korder` so
backend-parametrized tests track the real backend list too.
"""

from __future__ import annotations

import re

from repro.core.korder import SEQUENCE_BACKENDS  # noqa: F401  (re-export)
from repro.engine.registry import available_engines

#: The one ``trav-<h>`` hop count the representative list keeps (the
#: pattern accepts any ``h >= 2``; they share every code path).
TRAV_REPRESENTATIVE = "trav-2"

#: Alias suffixes that do not change the maintenance code: the three
#: Section VI generation policies only alter the *initial*
#: decomposition, and ``-om`` pins what is already the default backend.
_REDUNDANT_SUFFIXES = ("small", "large", "random", "om")

_TRAV_PATTERN = re.compile(r"^trav-(\d+)$")


def contract_engines() -> tuple[str, ...]:
    """Every registered engine name — the full conformance battery."""
    return available_engines()


def representative_engines() -> tuple[str, ...]:
    """One engine name per distinct maintenance code path."""
    names = set(available_engines())
    reps = []
    for name in sorted(names):
        if name == "trav":  # alias of trav-2
            continue
        if _TRAV_PATTERN.match(name):
            if name == TRAV_REPRESENTATIVE:
                reps.append(name)
            continue
        base, _, suffix = name.rpartition("-")
        if base in names and suffix in _REDUNDANT_SUFFIXES:
            continue
        reps.append(name)
    return tuple(reps)


def order_family_engines() -> tuple[str, ...]:
    """Representative engines of the order family (full-index engines)."""
    return tuple(
        name for name in representative_engines()
        if name.startswith("order")
    )


def mixed_batch_stream(rng, n_batches, batch_size, universe):
    """A base edge list plus valid mixed batches over a growing universe.

    The canonical mixed-workload generator shared by the agreement and
    service-event suites.  Removals always target a currently-present
    edge and inserts a currently-absent one (tracked against the
    evolving edge set), so every batch is valid in op order; later
    batches routinely touch vertices no engine has seen yet.
    """
    from repro.engine.batch import Batch

    base_vertices = max(4, universe // 2)
    present: set = set()
    base = []
    for _ in range(base_vertices * 2):
        a, b = rng.sample(range(base_vertices), 2)
        edge = (min(a, b), max(a, b))
        if edge not in present:
            present.add(edge)
            base.append(edge)
    batches = []
    for index in range(n_batches):
        reachable = base_vertices + (
            (universe - base_vertices) * (index + 1) // n_batches
        )
        ops = []
        pending = set(present)
        for _ in range(batch_size):
            if pending and rng.random() < 0.45:
                edge = rng.choice(sorted(pending))
                ops.append(("remove", edge))
                pending.discard(edge)
            else:
                for _ in range(50):
                    a, b = rng.sample(range(reachable), 2)
                    edge = (min(a, b), max(a, b))
                    if edge not in pending:
                        break
                else:
                    continue
                ops.append(("insert", edge))
                pending.add(edge)
        present = pending
        batches.append(Batch(ops))
    return base, batches

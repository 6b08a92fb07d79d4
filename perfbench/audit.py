"""The correctness audit every repetition must pass.

After the system has quiesced:

- every counter is read back through an update-mode transaction (bound
  like a writer) and compared with the increments whose transactions
  reported *committed* -- a shortfall is a lost write, an excess an
  invented one;
- every leased entry cache's ledger of served reads must be clean;
- where hosts crashed, every ``St`` member of every object must hold
  the same committed version.

:func:`stale_reads` is a separate probe, not a violation: it reads
every counter from every client in read-only mode and counts answers
that differ from the committed value.
"""

from __future__ import annotations

from typing import Iterable

import deploy
from workloads import Outcome, Rep

#: Attempts at each read-back before the audit gives up on an object.
READ_ATTEMPTS = 5


def committed_adds(rep: Rep, outcomes: Iterable[Outcome]) -> list[int]:
    """The sum each counter must hold, from the committed ``add``s."""
    totals = [0] * len(rep.deployment.uids)
    for outcome in outcomes:
        if outcome.committed and outcome.op.kind == "add":
            totals[outcome.op.obj] += outcome.op.amount
    return totals


def _read(rep: Rep, client, obj: int, read_only: bool):
    system = rep.deployment.system
    uid = rep.deployment.uids[obj]
    for _ in range(READ_ATTEMPTS):
        result = system.run_transaction(client, deploy.get(uid),
                                        read_only=read_only, timeout=60.0)
        if result.committed:
            return result.value, None
    return None, result.reason


def audit(rep: Rep, outcomes: Iterable[Outcome] | None = None) -> list[str]:
    """Every violation found; empty when the repetition is correct.

    ``outcomes`` defaults to everything the repetition ran; passing a
    doctored list is how the self-test plants a lost write.
    """
    if outcomes is None:
        outcomes = rep.warmup + rep.outcomes
    deployment = rep.deployment
    system = deployment.system
    violations = []
    for obj, expected in enumerate(committed_adds(rep, outcomes)):
        uid = deployment.uids[obj]
        value, reason = _read(rep, deployment.clients[0], obj,
                              read_only=False)
        if value is None:
            violations.append(f"{uid}: read-back failed ({reason})")
        elif value < expected:
            violations.append(f"{uid}: lost {expected - value} of {expected}")
        elif value > expected:
            violations.append(
                f"{uid}: invented {value - expected} over {expected}")
    for owner, cache in sorted(system.entry_caches.items()):
        for violation in cache.ledger_violations():
            violations.append(f"entry cache {owner}: {violation}")
    if rep.plan.outages:
        for uid in deployment.uids:
            versions = system.store_versions(uid)
            held = {host: versions.get(host) for host in system.db_st(uid)}
            if None in held.values() or len(set(held.values())) != 1:
                violations.append(f"{uid}: St versions disagree: {held}")
    return violations


def stale_reads(rep: Rep) -> int:
    """Read-only read-backs, over every (client, counter) pair, that do
    not return the committed value."""
    expected = committed_adds(rep, rep.warmup + rep.outcomes)
    return sum(1 for client in rep.deployment.clients
               for obj, total in enumerate(expected)
               if _read(rep, client, obj, read_only=True)[0] != total)

"""Network messages.

A :class:`Message` is an opaque envelope: the network layer looks only at
``sender``/``target``; the payload's meaning belongs to the protocol that
sent it (RPC, multicast, ...).
"""

from __future__ import annotations

import itertools
from typing import Any

from repro.sim.metrics import estimate_size

_message_ids = itertools.count(1)


class Message:
    """An addressed datagram.

    The same object travels from the sender's interface to the
    receiver's, so its metered :attr:`size` is computed at most once
    and both ends record the same number.  A sender that already knows
    the size (the RPC agent computes its envelopes by formula) passes
    it in; otherwise it is computed on first use.
    """

    __slots__ = ("sender", "target", "kind", "payload", "msg_id", "_size")

    def __init__(self, sender: str, target: str, kind: str,
                 payload: Any, size: int = -1) -> None:
        self.sender = sender
        self.target = target
        self.kind = kind
        self.payload = payload
        self.msg_id = next(_message_ids)
        self._size = size

    @property
    def size(self) -> int:
        """The payload's wire size, by :func:`estimate_size`."""
        if self._size < 0:
            self._size = estimate_size(self.payload)
        return self._size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Message #{self.msg_id} {self.sender}->{self.target} "
                f"kind={self.kind!r}>")

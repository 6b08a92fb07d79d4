"""Message demultiplexing.

A node runs several protocols over one network interface (RPC, group
multicast).  The :class:`MessageDemux` owns the interface's delivery
callback and routes each message to the protocol that registered its
kind prefix.
"""

from __future__ import annotations

from typing import Callable

from repro.net.message import Message
from repro.net.network import NetworkInterface


class MessageDemux:
    """Routes inbound messages by longest matching kind prefix."""

    def __init__(self, nic: NetworkInterface) -> None:
        self._nic = nic
        self._nic.on_message = self._dispatch
        self._routes: dict[str, Callable[[Message], None]] = {}
        # The resolved handler (or None) per message kind: kinds are a
        # small fixed set, so the prefix scan runs once per kind, not
        # once per message.
        self._by_kind: dict[str, Callable[[Message], None] | None] = {}

    def route(self, kind_prefix: str, handler: Callable[[Message], None]) -> None:
        """Register ``handler`` for messages whose kind starts with the prefix."""
        if kind_prefix in self._routes:
            raise ValueError(f"route already registered: {kind_prefix!r}")
        self._routes[kind_prefix] = handler
        self._by_kind.clear()

    def _lookup(self, kind: str) -> Callable[[Message], None] | None:
        best: Callable[[Message], None] | None = None
        best_len = -1
        for prefix, handler in self._routes.items():
            if kind.startswith(prefix) and len(prefix) > best_len:
                best = handler
                best_len = len(prefix)
        return best

    def _dispatch(self, message: Message) -> None:
        kind = message.kind
        if kind not in self._by_kind:
            self._by_kind[kind] = self._lookup(kind)
        handler = self._by_kind[kind]
        if handler is not None:
            handler(message)

"""Network fault injection for the store's wire-protocol tests.

:class:`ChaosProxy` is a TCP proxy that misbehaves on purpose: it sits in
front of a real :class:`repro.store.server.StoreServer` (or nothing at
all) and scripts the failure modes a client must survive --

``pass``
    Forward faithfully (the control case; also what a connection beyond
    the ``fault_budget`` gets).
``drop``
    Accept the connection and close it immediately without reading --
    the "listener up, service dead" shape (what the old ad-hoc
    ``flaky_listener`` in ``test_store_server.py`` simulated).
``reset``
    Accept, then close with ``SO_LINGER(1, 0)`` so the peer sees a hard
    TCP RST instead of an orderly FIN.
``delay``
    Hold the connection for ``delay`` seconds before forwarding.
``half_close``
    Forward the request, then deliver only the first
    ``half_close_bytes`` bytes of the response and cut the connection --
    the mid-response failure that distinguishes "request may have been
    applied" from "request never arrived".

``fault_budget=N`` makes only the first N connections misbehave and every
later one pass through -- the recovery script ("down, down, then back")
that backoff-retry tests want.  Counters (``connections``, ``faulted``)
record what actually happened so tests can assert the fault really fired.
Clients keep their connections open across requests, so setting a
faulting mode (or closing the proxy) also severs every connection the
proxy is forwarding: a dead service does not keep answering on them.

:func:`crashable_server` complements the proxy with process-level chaos:
a store server that can be killed and brought back *on the same port*,
for replica-failover and crash-recovery tests.

The disk-fault helpers (:func:`flip_bytes`, :func:`truncate_file`,
:func:`delete_file`) are the storage-side counterpart: surgical damage to
store files for the integrity tests (bit rot, torn writes, lost files).
"""

from __future__ import annotations

import contextlib
import os
import socket
import struct
import threading
import time
from typing import Iterator, Optional, Set, Tuple

from repro.store.server import StoreServer

#: Modes ChaosProxy knows how to misbehave in.
MODES = ("pass", "drop", "reset", "delay", "half_close")


# ---------------------------------------------------------------------- #
# Disk faults (storage-side chaos for the integrity tests)
# ---------------------------------------------------------------------- #


def flip_bytes(path: str, offset: int, count: int = 1) -> bytes:
    """Bit-rot ``count`` bytes of ``path`` at ``offset`` (XOR 0xFF) in place.

    A negative ``offset`` counts from the end of the file, like a slice
    index.  Returns the original bytes so a test can undo the damage.
    Raises if the range falls outside the file -- silent no-op damage
    would make a "corruption detected" assertion vacuous.
    """
    size = os.path.getsize(path)
    start = offset if offset >= 0 else size + offset
    if start < 0 or start + count > size:
        raise ValueError(
            f"flip_bytes range [{start}, {start + count}) outside {path!r} "
            f"({size} bytes)"
        )
    with open(path, "r+b") as handle:
        handle.seek(start)
        original = handle.read(count)
        handle.seek(start)
        handle.write(bytes(b ^ 0xFF for b in original))
    return original


def truncate_file(path: str, keep_bytes: Optional[int] = None, drop_bytes: int = 1) -> int:
    """Tear the tail off ``path``: keep ``keep_bytes``, or drop ``drop_bytes``.

    The torn-write shape (a crash mid-append).  Returns the new size.
    """
    size = os.path.getsize(path)
    keep = keep_bytes if keep_bytes is not None else size - drop_bytes
    if keep < 0 or keep > size:
        raise ValueError(f"cannot keep {keep} of {size} bytes of {path!r}")
    os.truncate(path, keep)
    return keep


def delete_file(path: str) -> None:
    """Lose ``path`` entirely (the disk ate it).  Missing files raise."""
    os.unlink(path)


class ChaosProxy:
    """A scriptable TCP proxy injecting transport faults (see module doc).

    Args:
        target: ``(host, port)`` to forward to; optional for the modes
            that never forward (``drop``, ``reset``).
        mode: One of :data:`MODES`; mutable at any time.
        fault_budget: Misbehave for only the first N connections, then
            pass through.  ``None`` faults every connection.
        delay: Seconds ``delay`` mode holds a connection.
        half_close_bytes: Response bytes ``half_close`` lets through.
    """

    def __init__(
        self,
        target: Optional[Tuple[str, int]] = None,
        mode: str = "pass",
        fault_budget: Optional[int] = None,
        delay: float = 0.2,
        half_close_bytes: int = 10,
    ) -> None:
        self.target = target
        self.fault_budget = fault_budget
        self.delay = delay
        self.half_close_bytes = half_close_bytes
        self.connections = 0
        self.faulted = 0
        self._lock = threading.Lock()
        #: Sockets of the connections being forwarded (client side and
        #: upstream), for :meth:`_sever`.
        self._forwarding: Set[socket.socket] = set()
        self.mode = mode
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(16)
        self._closed = False
        self._close_event = threading.Event()
        self._thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._thread.start()

    @property
    def address(self) -> Tuple[str, int]:
        return self._listener.getsockname()[:2]

    @property
    def mode(self) -> str:
        return self._mode

    @mode.setter
    def mode(self, mode: str) -> None:
        if mode not in MODES:
            raise ValueError(f"unknown chaos mode {mode!r} (known: {', '.join(MODES)})")
        with self._lock:
            self._mode = mode
        if mode != "pass":
            self._sever()

    def _sever(self) -> None:
        """Break every forwarded connection, both ways."""
        with self._lock:
            for sock in self._forwarding:
                with contextlib.suppress(OSError):
                    sock.shutdown(socket.SHUT_RDWR)

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            threading.Thread(target=self._handle, args=(conn,), daemon=True).start()

    def _decide(self) -> str:
        """Pick this connection's mode and bump the counters."""
        with self._lock:
            index = self.connections
            self.connections += 1
            budget = self.fault_budget
            mode = self._mode
            if mode != "pass" and (budget is None or index < budget):
                self.faulted += 1
                return mode
            return "pass"

    def _handle(self, conn: socket.socket) -> None:
        mode = self._decide()
        try:
            if mode == "drop":
                conn.close()
                return
            if mode == "reset":
                # SO_LINGER with zero timeout turns close() into a RST.
                conn.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                )
                conn.close()
                return
            if mode == "delay":
                # Deadline wait, not a fixed sleep: closing the proxy
                # releases held connections immediately instead of
                # leaving a teardown stuck behind the full delay.
                self._close_event.wait(self.delay)
            if self.target is None:
                # Nothing to forward to: behave like a dead service.
                conn.close()
                return
            limit = self.half_close_bytes if mode == "half_close" else None
            self._forward(conn, limit)
        except OSError:
            pass  # a torn connection is this proxy's job, not an error
        finally:
            with contextlib.suppress(OSError):
                conn.close()

    def _forward(self, conn: socket.socket, response_limit: Optional[int]) -> None:
        """Pump bytes both ways; optionally cut the response short."""
        upstream = socket.create_connection(self.target, timeout=30)
        with self._lock:
            self._forwarding.update((conn, upstream))

        def pump_request() -> None:
            with contextlib.suppress(OSError):
                while True:
                    chunk = conn.recv(65536)
                    if not chunk:
                        upstream.shutdown(socket.SHUT_WR)
                        return
                    upstream.sendall(chunk)

        requester = threading.Thread(target=pump_request, daemon=True)
        requester.start()
        sent = 0
        try:
            while True:
                chunk = upstream.recv(65536)
                if not chunk:
                    with contextlib.suppress(OSError):
                        conn.shutdown(socket.SHUT_WR)
                    break
                if response_limit is not None:
                    chunk = chunk[: max(response_limit - sent, 0)]
                    if chunk:
                        conn.sendall(chunk)
                        sent += len(chunk)
                    if sent >= response_limit:
                        # Mid-response cut: the client got a prefix and
                        # will never see the rest, nor a clean close from
                        # the server's side.
                        conn.setsockopt(
                            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                        )
                        break
                else:
                    conn.sendall(chunk)
        finally:
            with self._lock:
                self._forwarding.difference_update((conn, upstream))
            with contextlib.suppress(OSError):
                upstream.close()
            # The response side is over.  Shutting the client's read side
            # down wakes the request pump, blocked on a client that waits
            # for the rest of its reply; closing alone would not wake it,
            # and would hold a half_close reset back until the client's
            # own timeout.
            with contextlib.suppress(OSError):
                conn.shutdown(socket.SHUT_RD)
        requester.join(timeout=5)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._close_event.set()
            # Closing a listening socket does not wake a thread blocked in
            # accept(); shutting it down does.
            with contextlib.suppress(OSError):
                self._listener.shutdown(socket.SHUT_RDWR)
            self._listener.close()
            self._sever()
            self._thread.join(timeout=5)

    def __enter__(self) -> "ChaosProxy":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class CrashableServer:
    """A store server that can die and come back on the same port.

    ``crash()`` closes the server (in-flight connections break, new ones
    are refused); ``restart()`` opens a fresh one bound to the recorded
    port -- a fresh snapshot of the same store, which is exactly what a
    recovered shard or a promoted replica serves.
    """

    def __init__(self, store_path: str, **server_kwargs) -> None:
        self.store_path = store_path
        self.server_kwargs = server_kwargs
        self.server: Optional[StoreServer] = StoreServer(store_path, **server_kwargs)
        self.host, self.port = self.server.start()
        self.crashes = 0

    @property
    def address(self) -> Tuple[str, int]:
        return self.host, self.port

    @property
    def url(self) -> str:
        return f"{self.host}:{self.port}"

    def crash(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None
            self.crashes += 1

    def restart(self) -> StoreServer:
        if self.server is not None:
            return self.server
        kwargs = dict(self.server_kwargs)
        kwargs["host"] = self.host
        kwargs["port"] = self.port
        deadline = time.time() + 5.0
        while True:
            # The dying listener's socket may linger briefly even with
            # SO_REUSEADDR; retry the bind until the OS lets go.
            try:
                self.server = StoreServer(self.store_path, **kwargs)
                break
            except OSError:
                if time.time() >= deadline:
                    raise
                time.sleep(0.05)
        self.server.start()
        return self.server

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None


@contextlib.contextmanager
def crashable_server(store_path: str, **server_kwargs) -> Iterator[CrashableServer]:
    """Context-managed :class:`CrashableServer` (closed on exit)."""
    crashable = CrashableServer(store_path, **server_kwargs)
    try:
        yield crashable
    finally:
        crashable.close()

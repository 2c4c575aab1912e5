"""A long-lived, warm query server over one provenance store.

The paper's case studies (debugging slices, DIFT taint, §VIII) hammer the
same provenance graph with many queries; re-opening the store per query
re-parses the manifest, re-merges index deltas, and re-decodes segments
every time.  :class:`StoreServer` amortizes all of that once: a single
process holds one :class:`~repro.store.cache.SegmentCache` and one
:class:`~repro.store.cache.IndexPinner` across any number of concurrent
read-only queries, so repeated questions are answered at memory speed.

**Consistency model: snapshot at open.**  The server opens the store once
and serves every query against that manifest generation -- a consistent,
immutable view (segments are immutable and ids never reused, so the
snapshot cannot be torn by later appends).  Writes that land after the
open become visible only through an explicit ``refresh``, which atomically
swaps in a new snapshot while keeping the warm cache (still-referenced
segments stay hot; superseded ones are unreachable by id).  Requests that
carry ``"follow": true`` (what ``StoreClient(refresh_mode="follow")``
sends) opt into a **bounded-staleness view** instead: before answering,
the server compares a cheap disk token (manifest + segment-log stat) and
refreshes the snapshot only when a writer's flush actually landed --
append-only growth keeps the cache namespace, so the warm entries
survive every follow refresh.  Maintenance (``compact``/``gc``)
concurrent with a serving snapshot follows the store's existing
single-writer stance: run it between snapshots and ``refresh`` afterwards.

**Remote ingest.**  A server started ``writable`` additionally accepts
``begin_run`` / ``append_epoch`` / ``commit_run``: epochs arrive as
base64-encoded segment frames (the store's own on-disk frames), are
appended through one writer handle, and each append is flushed -- one
O(epoch) record to the segment log -- before the reply is written, so
the synchronous protocol *is* the back-pressure on slow flushes.  One
writer per run is structural (``begin_run`` mints the run id), and the
writer shares the readers' segment cache, so a follow-mode reader's
first query over a freshly ingested epoch is already warm.

**Live tails.**  The ``watch`` op streams a page set's lineage as its run
grows: one request, many response lines -- an observation whenever the
run's progress changes, a final one flagged ``done`` when the run
commits (or the watch times out).

**Protocol.**  Newline-delimited JSON over TCP -- one request object per
line, one response object per line, no dependencies beyond the standard
library.  Requests are ``{"op": ..., <params>}``; responses are
``{"ok": true, "result": ..., "stats": {...}}`` or ``{"ok": false,
"error": ...}``.  Node ids travel as ``"tid:index"`` strings (the
serialization module's ``node_key`` form).  Every query response carries
per-query stats: wall time plus the segments read, bytes read, and cache
hits/misses attributable to that query alone (collected through a
:class:`~repro.store.cache.ReadScope`, so concurrent queries do not bleed
into each other's numbers).

**Kept connections.**  A connection carries any number of requests, one
at a time, and the server serves each connection on its own thread.
:class:`StoreClient` keeps its connections open across requests, so a
query pays neither a TCP connect nor a new server thread.  A connection
returns to the client's idle list only after a whole reply line was read,
and any failure closes it, so a late reply is never taken for the next
request's answer.  Before reusing an idle connection the client polls it
with a zero timeout: one that reads as readable was closed by the server
(or holds stray bytes) and is replaced before anything is sent.
:meth:`StoreServer.close` shuts down every connection still open, so a
closed server answers nothing more.  A client that connects once per
request is served the same.

Use :class:`StoreClient` from Python, or ``python -m repro.store serve``
from the command line.
"""

from __future__ import annotations

import base64
import binascii
import contextlib
import json
import os
import select
import socket
import socketserver
import sys
import threading
import time
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.cpg import EdgeKind
from repro.core.serialization import node_key, parse_node_key
from repro.core.thunk import SubComputation
from repro.errors import (
    CorruptSegmentError,
    InspectorError,
    StoreError,
    StoreReadOnlyError,
    StoreUnreachableError,
)

from repro.store.cache import DEFAULT_CACHE_BYTES, IndexPinner, ReadScope, SegmentCache
from repro.store.format import (
    MANIFEST_NAME,
    RUN_COMPLETE,
    SEGMENT_LOG_NAME,
    file_size_crc,
    is_store_file,
)
from repro.store.query import StoreQueryEngine
from repro.store.segment import EdgeTuple, decode_segment, encode_segment
from repro.store.store import ProvenanceStore

#: Ops the server answers (the protocol surface).
SERVER_OPS = (
    "ping",
    "info",
    "runs",
    "slice",
    "lineage",
    "taint",
    "lineage_across_runs",
    "taint_across_runs",
    "compare_lineage",
    "watch",
    "begin_run",
    "append_epoch",
    "commit_run",
    "stats",
    "refresh",
    "manifest_digest",
    "fetch_file",
    "shutdown",
)

#: Ops that mutate the store; a server accepts them only when writable.
INGEST_OPS = ("begin_run", "append_epoch", "commit_run")

#: Ops a client must not blindly resend after the request may have been
#: received: ingest ops mutate state and shutdown stops the server, so a
#: retry could apply them twice.  Read queries are idempotent.
_NON_RETRYABLE_AFTER_SEND = frozenset(INGEST_OPS) | {"shutdown"}

#: Seconds the serve loop waits for a connection before it checks for a
#: shutdown request: :meth:`StoreServer.close` returns within about this.
_SERVE_POLL_INTERVAL_S = 0.05


def _parse_kinds(kinds: Optional[Iterable[str]]) -> Tuple[EdgeKind, ...]:
    if kinds is None:
        return (EdgeKind.DATA,)
    parsed = []
    for kind in kinds:
        try:
            parsed.append(EdgeKind(kind))
        except ValueError as exc:
            known = ", ".join(sorted(member.value for member in EdgeKind))
            raise StoreError(f"unknown edge kind {kind!r} (known kinds: {known})") from exc
    if not parsed:
        raise StoreError("at least one edge kind is required")
    return tuple(parsed)


def _node_list(nodes: Iterable[tuple]) -> List[str]:
    return [node_key(node) for node in sorted(nodes)]


class _RequestHandler(socketserver.StreamRequestHandler):
    """One connection: any number of newline-delimited JSON requests."""

    # Replies are single writes a client waits on; Nagle's algorithm would
    # hold the tail of a reply back until the client acknowledges the rest.
    disable_nagle_algorithm = True

    def handle(self) -> None:
        server: "StoreServer" = self.server.store_server  # type: ignore[attr-defined]
        for line in self.rfile:
            text = line.decode("utf-8").strip()
            if not text:
                continue
            try:
                request = json.loads(text)
            except ValueError:
                response = {
                    "ok": False,
                    "error": "malformed request (not JSON)",
                    "code": "bad_request",
                }
            else:
                if isinstance(request, dict) and request.get("op") == "watch" and request.get("stream"):
                    # The one streaming op: one request line, many response
                    # lines, the last flagged done -- then the connection
                    # goes back to request/response.
                    try:
                        for update in server.watch_responses(request):
                            self.wfile.write(json.dumps(update).encode("utf-8") + b"\n")
                            self.wfile.flush()
                    except (BrokenPipeError, ConnectionResetError):
                        return  # the watcher hung up mid-stream
                    continue
                response = server.handle_request(request)
            self.wfile.write(json.dumps(response).encode("utf-8") + b"\n")
            self.wfile.flush()
            if response.get("bye"):
                # The acknowledgement is flushed *before* the listener
                # stops, so a CLI client never loses the shutdown reply to
                # the process exiting first.  Closing from this handler
                # thread is safe: close() never joins the thread that
                # calls it.
                server.close()
                break


class _TCPServer(socketserver.ThreadingTCPServer):
    """One thread per connection; records the open ones so close() can break them."""

    allow_reuse_address = True
    daemon_threads = True
    # The shutdown op closes the server from inside a handler thread;
    # joining handler threads there would mean joining ourselves.
    block_on_close = False

    def __init__(self, address: Tuple[str, int], handler) -> None:
        super().__init__(address, handler)
        self._connections_lock = threading.Lock()
        #: Open connection -> the thread serving it.  Clients keep their
        #: connections open across requests, so these outlive any request.
        self._connections: Dict[socket.socket, threading.Thread] = {}

    def process_request(self, request, client_address) -> None:
        # Recorded on the accept thread before its handler starts: once
        # serve_forever has returned, the table names every connection.
        thread = threading.Thread(
            target=self.process_request_thread, args=(request, client_address), daemon=True
        )
        with self._connections_lock:
            self._connections[request] = thread
        thread.start()

    def handle_error(self, request, client_address) -> None:
        # A client that hung up, or a closing server that broke the
        # connection, is not worth a traceback.
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)

    def shutdown_request(self, request) -> None:
        # Under the lock, so close_connections never shuts down a socket
        # whose descriptor this close has already released.
        with self._connections_lock:
            self._connections.pop(request, None)
            super().shutdown_request(request)

    @property
    def open_connections(self) -> int:
        with self._connections_lock:
            return len(self._connections)

    def close_connections(self) -> None:
        """Break every open connection, then wait for the threads serving them.

        Shutting a connection down ends its handler's read loop, so a
        client's kept connection gets no answer from a closed server.  The
        calling thread is not joined (the ``shutdown`` op closes the
        server from its own handler).
        """
        with self._connections_lock:
            serving = list(self._connections.items())
            for conn, _ in serving:
                with contextlib.suppress(OSError):
                    conn.shutdown(socket.SHUT_RDWR)
        for _, thread in serving:
            if thread is not threading.current_thread():
                thread.join(timeout=5)


class StoreServer:
    """Serves concurrent read-only store queries from one warm cache.

    Args:
        store_path: Store directory to serve.
        host: Interface to bind (loopback by default; provenance data is
            not something to expose casually).
        port: TCP port; 0 picks a free one (see :attr:`address`).
        cache_bytes: Byte budget of the shared decoded-segment cache.
        writable: Accept the remote-ingest ops (``begin_run`` /
            ``append_epoch`` / ``commit_run``) through a single writer
            handle.  Off by default: a query server should not be a write
            path by accident.
        maintenance: Run the store autopilot inside the server: an
            :class:`~repro.store.autopilot.AutopilotPolicy` (or its dict
            form).  Maintenance actions serialize with remote ingest
            through the write lock and refresh the served snapshot after
            every executed action, so follow-mode readers advance instead
            of faulting on rewritten files.  The decision log is exposed
            as :attr:`autopilot`.
        maintenance_interval_s: Seconds between autopilot cycles.
    """

    def __init__(
        self,
        store_path: str,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        writable: bool = False,
        maintenance: Optional[object] = None,
        maintenance_interval_s: float = 5.0,
    ) -> None:
        self.cache = SegmentCache(max_bytes=cache_bytes)
        # Bounded: a pin re-admitted by an in-flight query racing a
        # gc+refresh would otherwise linger forever (pins have no byte
        # budget); the LRU bound turns that worst case into eventual
        # eviction while still pinning every run of any realistic store.
        self.pinner = IndexPinner(max_runs=256)
        self._store = ProvenanceStore.open(
            store_path, segment_cache=self.cache, index_pinner=self.pinner
        )
        self.store_path = store_path
        self._started = time.time()
        self._opened_at = time.time()
        self._counter_lock = threading.Lock()
        # Reentrant: refresh() locks itself so the explicit ``refresh``
        # op serializes with follow-mode refreshes, which call it while
        # already holding the lock (the double-checked fast path).
        self._refresh_lock = threading.RLock()
        self.queries_served = 0
        self.refreshes = 0
        self.follow_refreshes = 0
        self.epochs_ingested = 0
        self.runs_ingested = 0
        self._namespace_epoch = 0
        self._snapshot_token = self._disk_token()
        #: The single writer handle (writable servers only).  It shares
        #: the readers' segment cache -- same namespace, generation 0 --
        #: so appended payloads are warm for the very first follow query;
        #: it does NOT share the pinner (its in-memory indexes mutate,
        #: pinned objects are read-only-shared).
        self._writer: Optional[ProvenanceStore] = (
            ProvenanceStore.open(store_path, segment_cache=self.cache) if writable else None
        )
        self._write_lock = threading.Lock()
        #: Active remote ingests by run id (single writer per run: the
        #: run id is minted by begin_run and retired by commit_run).
        self._ingests: Dict[int, dict] = {}
        #: The in-server autopilot (``maintenance=``), or ``None``.
        self.autopilot = None
        self._autopilot_daemon = None
        self._maintenance_store: Optional[ProvenanceStore] = None
        if maintenance is not None:
            from repro.store.autopilot import Autopilot, AutopilotDaemon, AutopilotPolicy

            policy = (
                maintenance
                if isinstance(maintenance, AutopilotPolicy)
                else AutopilotPolicy.from_dict(dict(maintenance))
            )
            # Maintenance needs a mutable handle; reuse the writer so
            # ingest and maintenance share one manifest view, else open a
            # dedicated one (sharing the warm cache either way).
            if self._writer is None:
                self._maintenance_store = ProvenanceStore.open(
                    store_path, segment_cache=self.cache
                )
            handle = self._writer if self._writer is not None else self._maintenance_store
            self.autopilot = Autopilot(
                handle,
                policy,
                lock=self._write_lock,
                after_action=lambda _decision: self.refresh(),
            )
            self._autopilot_daemon = AutopilotDaemon(
                self.autopilot, interval_s=maintenance_interval_s
            )
        self._tcp = _TCPServer((host, port), _RequestHandler)
        self._tcp.store_server = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None
        self._serving = False
        #: Set by close(); ends watch streams that would otherwise wait
        #: out their timeout on a closed server.
        self._closing = threading.Event()

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (the real port when 0 was asked)."""
        return self._tcp.server_address[:2]

    @property
    def store(self) -> ProvenanceStore:
        """The current snapshot (swapped atomically by ``refresh``)."""
        return self._store

    @property
    def open_connections(self) -> int:
        """Client connections open now (clients keep theirs between requests)."""
        return self._tcp.open_connections

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> Tuple[str, int]:
        """Serve in a daemon thread; returns the bound address."""
        self._serving = True
        if self._autopilot_daemon is not None:
            self._autopilot_daemon.start()
        self._thread = threading.Thread(
            target=self._tcp.serve_forever,
            args=(_SERVE_POLL_INTERVAL_S,),
            name="store-server",
            daemon=True,
        )
        self._thread.start()
        return self.address

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`close` (the CLI path)."""
        self._serving = True
        if self._autopilot_daemon is not None:
            self._autopilot_daemon.start()
        self._tcp.serve_forever(_SERVE_POLL_INTERVAL_S)

    def close(self) -> None:
        """Stop accepting connections, then break the ones still open.

        The listener closes first; then every connection a client kept
        open is shut down, so a closed server answers nothing more, and
        the threads serving them are joined (not the calling one: the
        ``shutdown`` op closes the server from its own handler).  Safe on
        a server whose serve loop never ran (an in-process-only server
        driven through :meth:`handle_request`): ``shutdown`` waits on an
        event only ``serve_forever`` sets, so it is skipped then.
        """
        self._closing.set()
        if self._autopilot_daemon is not None:
            # Before the sockets: a mid-action autopilot cycle may call
            # refresh(), which must still find a live server.
            self._autopilot_daemon.stop()
        if self._serving:
            self._tcp.shutdown()
        self._tcp.server_close()
        self._tcp.close_connections()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def refresh(self) -> dict:
        """Swap in a fresh snapshot of the store directory.

        The warm cache and pinned indexes normally carry over: within one
        store's history segment ids are never reused, so every
        still-referenced entry stays valid, and a run whose index
        generations did not change re-pins without touching disk.  The
        one case where ids *can* collide is a store that was deleted and
        recreated at the same path (counters restart); the manifest
        carries no identity token, so refresh detects it structurally --
        the old snapshot's segment and run tables must still be present
        verbatim in the new manifest -- and drops the warm state when the
        check fails.  Returns the new snapshot's run/segment counts.

        Serialized through the refresh lock with every other caller (the
        explicit ``refresh`` op, follow-mode queries, watch loops): two
        interleaved refreshes could otherwise install the older of two
        freshly opened snapshots last, briefly regressing the served view.
        """
        with self._refresh_lock:
            old = self._store
            # Token before open: a write landing in between is covered by
            # the snapshot but keeps the token stale, so the next follow
            # query refreshes once more -- the safe direction.
            token = self._disk_token()
            fresh = ProvenanceStore.open(
                self.store_path, segment_cache=self.cache, index_pinner=self.pinner
            )
            if not self._same_store_lineage(old, fresh):
                # Move the fresh handle to a namespace no old handle
                # writes: an in-flight query against the dead snapshot may
                # still cache.put()/pinner.put() *after* any invalidate we
                # issue, and the recreated store's restarted ids could
                # collide with those entries.  A fresh namespace makes
                # them unreachable by construction; invalidating the old
                # one just frees memory.
                with self._counter_lock:
                    self._namespace_epoch += 1
                    fresh.cache_namespace = (
                        f"{self.store_path}#recreated-{self._namespace_epoch}"
                    )
                self.cache.invalidate(old.cache_namespace)
                self.pinner.invalidate(old.cache_namespace)
            else:
                fresh.cache_namespace = old.cache_namespace
                # Same lineage, but runs an external gc dropped would leak
                # their pins forever (the pinner has no byte budget and
                # their generations are never requested again).
                gone = set(old.run_ids()) - set(fresh.run_ids())
                for run_id in gone:
                    self.pinner.invalidate(old.cache_namespace, run_id)
            self._store = fresh
            self._snapshot_token = token
            self._opened_at = time.time()
        with self._counter_lock:
            self.refreshes += 1
        return {
            "runs": len(fresh.run_ids()),
            "segments": fresh.manifest.segment_count,
            "nodes": fresh.manifest.node_count,
        }

    def _disk_token(self) -> Tuple:
        """Cheap change detector: stat of the manifest + segment log.

        Every committed write path touches one of the two files (a log
        append or a checkpoint rename), so an unchanged token proves the
        snapshot is current without opening anything.
        """
        token = []
        for name in (MANIFEST_NAME, SEGMENT_LOG_NAME):
            try:
                stat = os.stat(os.path.join(self.store_path, name))
                token.append((name, stat.st_mtime_ns, stat.st_size))
            except OSError:
                token.append((name, 0, 0))
        return tuple(token)

    def _maybe_follow_refresh(self, scope: Optional[ReadScope] = None) -> None:
        """The follow-mode staleness bound: refresh iff the disk moved on.

        Double-checked under the refresh lock so a burst of follow
        queries behind one writer flush pays for a single reopen.
        """
        if self._disk_token() == self._snapshot_token:
            return
        with self._refresh_lock:
            if self._disk_token() == self._snapshot_token:
                return  # another follow query refreshed while we waited
            self.refresh()
        if scope is not None:
            scope.record_refresh()
        with self._counter_lock:
            self.follow_refreshes += 1

    @staticmethod
    def _same_store_lineage(old: ProvenanceStore, fresh: ProvenanceStore) -> bool:
        """Whether ``fresh`` is the same store ``old`` was, grown append-only.

        True when every segment and run the old snapshot served is still
        described identically by the new manifest and the id counters
        never went backwards -- the only histories one store directory
        can legally have.  A recreated store restarts its counters and
        tables, so anything cached under the old snapshot must go.
        """
        if fresh.manifest.next_segment_id < old.manifest.next_segment_id:
            return False
        if fresh.manifest.next_run_id < old.manifest.next_run_id:
            return False
        new_segments = {
            info.segment_id: (info.run, info.nodes, info.edges, info.stored_bytes)
            for info in fresh.manifest.segments
        }
        for info in old.manifest.segments:
            described = new_segments.get(info.segment_id)
            if described is not None and described != (
                info.run, info.nodes, info.edges, info.stored_bytes
            ):
                return False  # same id, different content: not our lineage
        new_runs = {run.run_id: run.created_at for run in fresh.manifest.runs}
        for run in old.manifest.runs:
            if run.run_id in new_runs and new_runs[run.run_id] != run.created_at:
                return False
        return True

    # ------------------------------------------------------------------ #
    # Request dispatch
    # ------------------------------------------------------------------ #

    def handle_request(self, request: dict) -> dict:
        """Answer one protocol request (also the in-process test surface)."""
        if not isinstance(request, dict) or "op" not in request:
            return {
                "ok": False,
                "error": "request must be an object with an 'op'",
                "code": "bad_request",
            }
        op = request.get("op")
        if op not in SERVER_OPS:
            return {
                "ok": False,
                "error": f"unknown op {op!r} (known: {', '.join(SERVER_OPS)})",
                "code": "bad_request",
            }
        scope = ReadScope()
        start = time.perf_counter()
        try:
            if request.get("follow"):
                # Bounded staleness: catch up with the disk before taking
                # the snapshot this request will be answered from.
                self._maybe_follow_refresh(scope)
            store = self._store  # one snapshot per request
            try:
                result, extra = self._dispatch(op, request, store, scope)
            except (CorruptSegmentError, OSError):
                if op in INGEST_OPS or op in ("shutdown", "refresh"):
                    raise  # never replay a mutation
                # A maintenance action (compact/gc) may have rewritten or
                # dropped segment files out from under this request's
                # snapshot: the store is fine, the snapshot is stale.  One
                # refresh + retry answers from the post-maintenance view;
                # genuine damage fails the retry identically and reports
                # as usual.
                if store is self._store:
                    self.refresh()
                result, extra = self._dispatch(op, request, self._store, scope)
        except InspectorError as exc:
            # StoreError, ProvenanceError (malformed node keys), ...  The
            # ``code`` field is the stable, machine-readable error class
            # ("corrupt_segment", "quarantined", "read_only",
            # "bad_request"); the message is for humans and may change.
            return {
                "ok": False,
                "error": str(exc),
                "code": str(getattr(exc, "code", "bad_request")),
            }
        except (KeyError, TypeError, ValueError) as exc:
            return {
                "ok": False,
                "error": f"bad request parameters: {exc}",
                "code": "bad_request",
            }
        except OSError as exc:
            # Surfaced only when the stale-snapshot retry (or an ingest
            # op) still cannot read the disk: report it instead of tearing
            # the connection down mid-protocol.
            return {"ok": False, "error": f"store I/O failed: {exc}", "code": "io_error"}
        elapsed_ms = (time.perf_counter() - start) * 1e3
        with self._counter_lock:
            self.queries_served += 1
        response = {
            "ok": True,
            "result": result,
            "stats": {"elapsed_ms": round(elapsed_ms, 3), **scope.to_dict()},
        }
        response.update(extra)
        return response

    def _engine(self, store: ProvenanceStore, scope: ReadScope) -> StoreQueryEngine:
        return StoreQueryEngine(store, scope=scope)

    def _dispatch(
        self, op: str, request: dict, store: ProvenanceStore, scope: ReadScope
    ) -> Tuple[object, dict]:
        if op == "ping":
            return {"pong": True}, {}
        if op == "info":
            return store.info(), {}
        if op == "runs":
            return [store.run_summary(run_id) for run_id in store.run_ids()], {}
        if op == "stats":
            return self.server_stats(), {}
        if op == "refresh":
            return self.refresh(), {}
        if op == "manifest_digest":
            return self._manifest_digest(store), {}
        if op == "fetch_file":
            return self._fetch_file(store, str(request["path"])), {}
        if op == "shutdown":
            # The transport layer closes the listener *after* writing the
            # acknowledgement (see _RequestHandler.handle).
            return {"stopping": True}, {"bye": True}
        if op in INGEST_OPS:
            return self._handle_ingest(op, request), {}

        engine = self._engine(store, scope)
        run = request.get("run")
        if op == "watch":
            # One observation of the stream (watch_responses loops this).
            run_id = store.resolve_run(run)
            progress = engine.run_progress(run_id)
            nodes = engine.lineage_of_pages([int(p) for p in request["pages"]], run=run_id)
            return {
                "run": run_id,
                "progress": progress,
                "nodes": _node_list(nodes),
                "done": progress["status"] == RUN_COMPLETE,
            }, {}
        if op == "slice":
            origin = parse_node_key(str(request["node"]))
            kinds = _parse_kinds(request.get("kinds"))
            if request.get("forward", False):
                nodes = engine.forward_slice(origin, kinds=kinds, run=run)
            else:
                nodes = engine.backward_slice(origin, kinds=kinds, run=run)
            return {"run": store.resolve_run(run), "nodes": _node_list(nodes)}, {}
        if op == "lineage":
            nodes = engine.lineage_of_pages([int(p) for p in request["pages"]], run=run)
            return {"run": store.resolve_run(run), "nodes": _node_list(nodes)}, {}
        if op == "taint":
            result = engine.propagate_taint(
                [int(p) for p in request["pages"]],
                through_thread_state=bool(request.get("through_thread_state", False)),
                run=run,
            )
            return {
                "run": store.resolve_run(run),
                "source_pages": sorted(result.source_pages),
                "tainted_pages": sorted(result.tainted_pages),
                "tainted_nodes": _node_list(result.tainted_nodes),
                "mode": engine.last_taint_mode,
            }, {}
        if op == "lineage_across_runs":
            by_run = engine.lineage_across_runs([int(p) for p in request["pages"]])
            return {str(run_id): _node_list(nodes) for run_id, nodes in by_run.items()}, {}
        if op == "taint_across_runs":
            by_run = engine.taint_across_runs(
                [int(p) for p in request["pages"]],
                through_thread_state=bool(request.get("through_thread_state", False)),
            )
            return {
                str(run_id): {
                    "source_pages": sorted(result.source_pages),
                    "tainted_pages": sorted(result.tainted_pages),
                    "tainted_nodes": _node_list(result.tainted_nodes),
                }
                for run_id, result in by_run.items()
            }, {}
        if op == "compare_lineage":
            pages = request["pages"]
            diff = engine.compare_lineage(
                int(request["run_a"]),
                int(request["run_b"]),
                [int(p) for p in pages] if isinstance(pages, list) else int(pages),
            )
            return {
                "run_a": diff.run_a,
                "run_b": diff.run_b,
                "pages": list(diff.pages),
                "only_a": _node_list(diff.only_a),
                "only_b": _node_list(diff.only_b),
                "common": _node_list(diff.common),
                "identical": diff.identical,
            }, {}
        raise StoreError(f"unhandled op {op!r}")  # unreachable: SERVER_OPS gates

    # ------------------------------------------------------------------ #
    # Anti-entropy repair (any server is a repair source)
    # ------------------------------------------------------------------ #

    def _manifest_digest(self, store: ProvenanceStore) -> dict:
        """Per-file ``(size, crc)`` table of the served snapshot.

        This is the comparison unit of replica anti-entropy: a repairer
        diffs its local table against the primary's and fetches exactly
        the files whose checksum differs or that it lacks.  Paths are
        store-relative with ``/`` separators (wire form): the files
        :meth:`~repro.store.format.StoreManifest.files` names.  Checksums
        come from the manifest's own integrity columns where recorded
        (free) and are computed from disk for an index file without one.
        Quarantined segments are *omitted*: a damaged copy is not a
        repair source.
        """
        manifest = store.manifest
        files: Dict[str, List[int]] = {}
        for named in manifest.files():
            if named.segment_id is not None and manifest.is_quarantined(named.segment_id):
                continue
            files[named.path] = (
                list(named.checksum) if named.checksum else self._stat_crc(named.path)
            )
        token = 0
        for rel in sorted(files):
            size, crc = files[rel]
            token = binascii.crc32(f"{rel}:{size}:{crc}\n".encode("utf-8"), token)
        return {
            "store": self.store_path,
            "digest": token & 0xFFFFFFFF,
            "files": files,
            "quarantined": {
                str(segment_id): reason
                for segment_id, reason in manifest.quarantined.items()
            },
            "runs": len(manifest.runs),
            "segments": manifest.segment_count,
        }

    def _stat_crc(self, rel: str) -> List[int]:
        """``(size, crc)`` of one store file read from disk (no recorded checksum)."""
        target = os.path.join(self.store_path, *rel.split("/"))
        try:
            return file_size_crc(target)
        except OSError as exc:
            raise StoreError(f"cannot checksum store file {rel!r}: {exc}") from exc

    def _fetch_file(self, store: ProvenanceStore, rel: str) -> dict:
        """Serve one store file's bytes (base64) for a repairing replica.

        The path comes from a client, so only the store's structural names
        pass (:func:`~repro.store.format.is_store_file`): the manifest,
        the segment log, segments, index generations and the page
        summary -- never ``..`` or a path outside the store directory.
        The repairer verifies the returned ``crc`` before installing the
        file, so a fetch racing a concurrent write on this server is
        detected (mismatch) rather than silently installed half-new.
        """
        if not is_store_file(rel):
            raise StoreError(f"fetch_file path {rel!r} does not name a store file")
        target = os.path.join(self.store_path, *rel.split("/"))
        try:
            with open(target, "rb") as handle:
                data = handle.read()
        except OSError as exc:
            raise StoreError(f"cannot read store file {rel!r}: {exc}") from exc
        return {
            "path": rel,
            "size": len(data),
            "crc": binascii.crc32(data) & 0xFFFFFFFF,
            "data": base64.b64encode(data).decode("ascii"),
        }

    # ------------------------------------------------------------------ #
    # Remote ingest (writable servers)
    # ------------------------------------------------------------------ #

    def _handle_ingest(self, op: str, request: dict) -> dict:
        """Apply one write op through the single writer handle.

        All three ops run under one lock: writes are serialized, and the
        reply is only written after the flush committed -- a slow flush
        stalls exactly the client that caused it (back-pressure), never a
        concurrent reader.
        """
        if self._writer is None:
            raise StoreReadOnlyError(
                "this store server is read-only (start it with serve --writable "
                "to accept remote ingest)"
            )
        with self._write_lock:
            writer = self._writer
            if op == "begin_run":
                run_id = writer.new_run(
                    workload=str(request.get("workload", "")),
                    meta=dict(request.get("meta") or {}),
                )
                writer.flush()  # the run is durable before any epoch lands
                self._ingests[run_id] = {"epochs": 0}
                with self._counter_lock:
                    self.runs_ingested += 1
                return {"run": run_id}
            run_id = int(request["run"])
            if run_id not in self._ingests:
                raise StoreError(
                    f"run {run_id} has no active remote ingest on this server "
                    f"(begin_run mints the id; commit_run retires it)"
                )
            if op == "append_epoch":
                try:
                    data = base64.b64decode(str(request["segment"]), validate=True)
                except (binascii.Error, ValueError) as exc:
                    raise StoreError(f"append_epoch segment is not valid base64: {exc}") from exc
                payload = decode_segment(data)
                segment_id = writer.append_segment(
                    list(payload.nodes.values()),  # insertion order = encode order
                    payload.edges,
                    run=run_id,
                )
                writer.flush()  # one O(epoch) log record; the reply waits on it
                self._ingests[run_id]["epochs"] += 1
                with self._counter_lock:
                    self.epochs_ingested += 1
                return {
                    "run": run_id,
                    "segment": segment_id,
                    "nodes": len(payload.nodes),
                    "edges": len(payload.edges),
                }
            # commit_run
            info = writer.manifest.run_info(run_id)
            info.meta.update(dict(request.get("meta") or {}))
            info.meta.setdefault("epochs", self._ingests[run_id]["epochs"])
            info.status = RUN_COMPLETE
            # Run completion checkpoints (same policy as a local ingest).
            writer.flush(checkpoint=True)
            del self._ingests[run_id]
            return {
                "run": run_id,
                "status": info.status,
                "nodes": info.nodes,
                "edges": info.edges,
                "segments": len(writer.manifest.segments_of_run(run_id)),
            }

    # ------------------------------------------------------------------ #
    # Live tail (watch)
    # ------------------------------------------------------------------ #

    def watch_responses(self, request: dict) -> Iterator[dict]:
        """Stream observations of a page set's lineage as its run grows.

        Yields a response line whenever the watched run's progress
        changed since the last observation, and a final one (``done``)
        when the run completes or ``timeout`` elapses; a server that
        closes ends the stream without one.  Each poll tick is
        a cheap probe -- the follow-mode staleness check (a stat compare
        when nothing changed) plus manifest-only progress; the lineage
        query runs only when the progress tuple actually moved or the
        deadline forces the final observation, so an idle watch over a
        large run burns no query per tick.  Observations themselves are
        ordinary follow-mode requests, riding the same snapshot/refresh
        machinery as every other query.
        """
        interval = max(0.005, float(request.get("interval", 0.05)))
        deadline = time.time() + float(request.get("timeout", 30.0))
        single = {key: value for key, value in request.items() if key != "stream"}
        single["follow"] = True
        last = None
        while True:
            try:
                self._maybe_follow_refresh()
                store = self._store
                run_id = store.resolve_run(single.get("run"))
                info = store.manifest.run_info(run_id)
                probe = (
                    info.status,
                    info.nodes,
                    info.edges,
                    len(store.manifest.segments_of_run(run_id)),
                )
            except (InspectorError, KeyError, TypeError, ValueError) as exc:
                yield {"ok": False, "error": str(exc)}
                return
            timed_out = time.time() >= deadline
            if probe == last and not timed_out:
                if self._closing.wait(interval):
                    return
                continue
            response = self.handle_request(single)
            if not response.get("ok"):
                yield response
                return
            result = response["result"]
            progress = result["progress"]
            observed = (
                progress["status"],
                progress["nodes"],
                progress["edges"],
                progress["segments"],
            )
            if timed_out and not result["done"]:
                result["done"] = True
                result["timed_out"] = True
            if observed != last or result["done"]:
                last = observed
                yield response
            if result["done"] or self._closing.wait(interval):
                return

    def server_stats(self) -> dict:
        """Server-wide counters: uptime, snapshot, cache, pinned indexes."""
        store = self._store
        return {
            "store": self.store_path,
            "uptime_s": round(time.time() - self._started, 3),
            "snapshot_age_s": round(time.time() - self._opened_at, 3),
            "queries_served": self.queries_served,
            "refreshes": self.refreshes,
            "follow_refreshes": self.follow_refreshes,
            "writable": self._writer is not None,
            "active_ingests": len(self._ingests),
            "runs_ingested": self.runs_ingested,
            "epochs_ingested": self.epochs_ingested,
            "runs": len(store.run_ids()),
            "segments": store.manifest.segment_count,
            "quarantined_segments": sorted(store.manifest.quarantined),
            "degraded": bool(store.manifest.quarantined),
            "segment_cache": self.cache.to_dict(),
            "index_pinner": self.pinner.to_dict(),
            "maintenance": (
                None
                if self.autopilot is None
                else {
                    "cycles": self.autopilot.cycles,
                    "decisions": len(self.autopilot.decisions),
                    "policy": self.autopilot.policy.to_dict(),
                }
            ),
        }


class _SentRequestFailed(OSError):
    """The connection broke *after* the request may have reached the server."""


#: Bytes asked of one ``recv`` while reading a reply line.
_RECV_BYTES = 65536


def _has_input(conn: socket.socket) -> bool:
    """Whether ``conn`` reads as readable right now (a zero-timeout poll)."""
    poller = select.poll()
    poller.register(conn, select.POLLIN)
    return bool(poller.poll(0))


def _read_reply(conn: socket.socket) -> bytes:
    """Read one reply line from ``conn``, up to and including its ``\\n``.

    The server sends nothing but the reply to the request it was sent, so
    the line ends the last chunk received.  A close before the newline,
    or bytes after it, break the exchange and raise.
    """
    chunks = []
    while True:
        chunk = conn.recv(_RECV_BYTES)
        if not chunk:
            raise ConnectionError(
                "server closed the connection "
                + ("mid-reply" if chunks else "without replying")
            )
        chunks.append(chunk)
        if chunk.endswith(b"\n"):
            return b"".join(chunks)
        if b"\n" in chunk:
            raise ConnectionError("server sent bytes past the end of its reply")


class StoreClient:
    """Small blocking client for :class:`StoreServer`'s JSON-line protocol.

    Responses with ``ok: false`` raise :class:`~repro.errors.StoreError`;
    node lists come back as ``(tid, index)`` tuples.

    **Kept connections.**  Requests travel over connections the client
    keeps open, so a query pays no TCP connect and the server starts no
    thread for it.  A request takes an idle connection or, when none is
    idle, opens one (``TCP_NODELAY``); so one instance may be shared
    across threads (the hammer tests do), and it never holds more
    connections than it has had requests in flight at once.  A
    connection goes back to the idle list only after a whole reply line
    was read and parsed.  Any failure -- a timeout, a reset, a torn line,
    a reply that does not parse -- closes it, so a late reply is never
    read as the answer to the next request.  Before an idle connection
    is reused it is polled with a zero timeout: one that reads as
    readable was closed by the server (a crash, a restart, a
    ``shutdown``) or holds stray bytes, so it is closed and another taken
    before anything is sent.  :meth:`close` (or a ``with`` block) closes
    the idle connections.

    Transient socket errors (refused/reset/timeout/closed-without-reply)
    are retried with capped exponential backoff; once ``retries`` are
    exhausted the failure surfaces as a :class:`StoreError` naming the
    endpoint, never a raw ``OSError``.  Non-idempotent ops (the ingest
    ops, ``shutdown``) are only retried while the *connection* fails --
    after the request may have reached the server, a blind resend could
    apply it twice, so those fail fast instead.

    Args:
        host: Server host.
        port: Server port.
        timeout: Socket timeout in seconds, per connect and per read.
        retries: Extra attempts after the first failed one.
        backoff: Initial retry delay in seconds (doubles per retry).
        backoff_cap: Upper bound on the retry delay.
        refresh_mode: ``"snapshot"`` (default) queries the server's
            current snapshot as-is; ``"follow"`` tags every request so
            the server catches up with the disk first (bounded
            staleness -- the live-tail reader mode).
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        retries: int = 2,
        backoff: float = 0.05,
        backoff_cap: float = 1.0,
        refresh_mode: str = "snapshot",
    ) -> None:
        if refresh_mode not in ("snapshot", "follow"):
            raise StoreError(
                f"unknown refresh_mode {refresh_mode!r} (known: snapshot, follow)"
            )
        if retries < 0:
            raise StoreError(f"retries must be non-negative, got {retries}")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.backoff_cap = backoff_cap
        self.refresh_mode = refresh_mode
        self._idle: List[socket.socket] = []
        self._idle_lock = threading.Lock()

    @classmethod
    def from_url(cls, url: str, **kwargs) -> "StoreClient":
        """Build a client from ``host:port`` / ``store://host:port``.

        The URL form is what ``run_with_provenance(store_url=...)``
        accepts; extra keyword arguments pass through to the constructor.
        """
        text = url
        if "://" in text:
            scheme, _, text = text.partition("://")
            if scheme not in ("store", "tcp"):
                raise StoreError(
                    f"unsupported store url scheme {scheme!r} in {url!r} "
                    f"(use store://host:port)"
                )
        host, _, port_text = text.rpartition(":")
        if not host or not port_text.isdigit():
            raise StoreError(f"malformed store url {url!r} (expected host:port)")
        return cls(host, int(port_text), **kwargs)

    def close(self) -> None:
        """Close the idle connections (a later request opens a new one)."""
        with self._idle_lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def __enter__(self) -> "StoreClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def _connection(self) -> socket.socket:
        """An idle connection the server has not closed, or a new one.

        Connect failures propagate as plain ``OSError``: nothing was sent.
        """
        while True:
            with self._idle_lock:
                if not self._idle:
                    break
                conn = self._idle.pop()
            if not _has_input(conn):
                return conn
            conn.close()  # closed by the server, or stray bytes: never reuse it
        conn = socket.create_connection((self.host, self.port), timeout=self.timeout)
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return conn

    def _exchange(self, payload: bytes) -> dict:
        """One request and its parsed reply, over a kept or a new connection.

        Failures after the send are wrapped in :class:`_SentRequestFailed`
        so the retry policy can refuse to resend non-idempotent ops.  Only
        a whole, parsed reply returns the connection to the idle list;
        any failure closes it.
        """
        conn = self._connection()
        try:
            try:
                conn.sendall(payload)
                line = _read_reply(conn)
            except OSError as exc:
                raise _SentRequestFailed(str(exc)) from exc
            try:
                response = json.loads(line.decode("utf-8"))
            except ValueError as exc:
                raise StoreError(f"malformed server response: {exc}") from exc
        except BaseException:
            conn.close()
            raise
        with self._idle_lock:
            self._idle.append(conn)
        return response

    def request(self, op: str, **params) -> dict:
        """Send one request; returns the raw response object."""
        if self.refresh_mode == "follow":
            params.setdefault("follow", True)
        payload = json.dumps({"op": op, **params}).encode("utf-8") + b"\n"
        attempts = self.retries + 1
        delay = self.backoff
        last_error: Optional[OSError] = None
        for attempt in range(attempts):
            if attempt:
                # Backoff is paid only *between* attempts -- once the last
                # attempt failed there is no next one to wait for, so
                # exhaustion raises immediately instead of sleeping one
                # final full backoff first.
                time.sleep(delay)
                delay = min(delay * 2, self.backoff_cap)
            try:
                response = self._exchange(payload)
            except _SentRequestFailed as exc:
                # The request was sent: retrying a non-idempotent op could
                # apply it twice -- surface the ambiguity immediately.
                if op in _NON_RETRYABLE_AFTER_SEND:
                    raise StoreError(
                        f"store server at {self.host}:{self.port} dropped the "
                        f"connection after {op!r} was sent ({exc}); not retrying "
                        f"a non-idempotent op (it may already have been applied)"
                    ) from exc
                last_error = exc
            except OSError as exc:
                last_error = exc  # connect-phase: nothing sent, retry freely
            else:
                if not response.get("ok"):
                    error = StoreError(str(response.get("error", "unknown server error")))
                    # Surface the server's stable error class to callers
                    # (``corrupt_segment``, ``quarantined``, ``read_only``,
                    # ``bad_request``) without guessing from the message.
                    error.code = str(response.get("code", "bad_request"))
                    raise error
                return response
        raise StoreUnreachableError(
            f"store server at {self.host}:{self.port} unreachable after "
            f"{attempts} attempt{'s' if attempts != 1 else ''}: {last_error}"
        ) from last_error

    def result(self, op: str, **params):
        """Send one request; returns just the ``result`` payload."""
        return self.request(op, **params)["result"]

    # ------------------------------------------------------------------ #
    # Convenience wrappers (typed results)
    # ------------------------------------------------------------------ #

    def ping(self) -> bool:
        return bool(self.result("ping")["pong"])

    def info(self) -> dict:
        return self.result("info")

    def runs(self) -> List[dict]:
        return self.result("runs")

    def backward_slice(
        self,
        node: tuple,
        run: Optional[int] = None,
        kinds: Optional[Iterable[str]] = None,
    ) -> set:
        result = self.result("slice", node=node_key(node), run=run, kinds=kinds)
        return {parse_node_key(key) for key in result["nodes"]}

    def forward_slice(
        self,
        node: tuple,
        run: Optional[int] = None,
        kinds: Optional[Iterable[str]] = None,
    ) -> set:
        result = self.result(
            "slice", node=node_key(node), run=run, kinds=kinds, forward=True
        )
        return {parse_node_key(key) for key in result["nodes"]}

    def lineage(self, pages: Iterable[int], run: Optional[int] = None) -> set:
        result = self.result("lineage", pages=list(pages), run=run)
        return {parse_node_key(key) for key in result["nodes"]}

    def taint(
        self,
        pages: Iterable[int],
        run: Optional[int] = None,
        through_thread_state: bool = False,
    ) -> dict:
        result = self.result(
            "taint", pages=list(pages), run=run, through_thread_state=through_thread_state
        )
        result["tainted_nodes"] = {parse_node_key(key) for key in result["tainted_nodes"]}
        return result

    def lineage_across_runs(self, pages: Iterable[int]) -> Dict[int, set]:
        result = self.result("lineage_across_runs", pages=list(pages))
        return {
            int(run_id): {parse_node_key(key) for key in nodes}
            for run_id, nodes in result.items()
        }

    def taint_across_runs(
        self, pages: Iterable[int], through_thread_state: bool = False
    ) -> Dict[int, dict]:
        result = self.result(
            "taint_across_runs",
            pages=list(pages),
            through_thread_state=through_thread_state,
        )
        return {
            int(run_id): {
                "source_pages": list(entry["source_pages"]),
                "tainted_pages": list(entry["tainted_pages"]),
                "tainted_nodes": {parse_node_key(key) for key in entry["tainted_nodes"]},
            }
            for run_id, entry in result.items()
        }

    def compare_lineage(self, run_a: int, run_b: int, pages) -> dict:
        result = self.result("compare_lineage", run_a=run_a, run_b=run_b, pages=pages)
        for side in ("only_a", "only_b", "common"):
            result[side] = {parse_node_key(key) for key in result[side]}
        return result

    def stats(self) -> dict:
        return self.result("stats")

    def refresh(self) -> dict:
        return self.result("refresh")

    def manifest_digest(self) -> dict:
        """The server's per-file ``(size, crc)`` table (repair source view)."""
        return self.result("manifest_digest")

    def fetch_file(self, path: str) -> bytes:
        """Fetch one store file's bytes, verifying the transfer checksum."""
        result = self.result("fetch_file", path=path)
        data = base64.b64decode(str(result["data"]), validate=True)
        crc = binascii.crc32(data) & 0xFFFFFFFF
        if len(data) != int(result["size"]) or crc != int(result["crc"]):
            raise StoreError(
                f"fetch_file {path!r} arrived damaged "
                f"({len(data)} bytes crc {crc:#010x}, server said "
                f"{result['size']} bytes crc {int(result['crc']):#010x})"
            )
        return data

    def shutdown(self) -> dict:
        return self.result("shutdown")

    # ------------------------------------------------------------------ #
    # Remote ingest (writable servers)
    # ------------------------------------------------------------------ #

    def begin_run(self, workload: str = "", meta: Optional[dict] = None) -> int:
        """Mint a run on the server; returns its id (the write handle)."""
        return int(self.result("begin_run", workload=workload, meta=meta)["run"])

    def append_epoch(
        self,
        run: int,
        nodes: Sequence[SubComputation],
        edges: Sequence[EdgeTuple] = (),
    ) -> dict:
        """Ship one epoch (nodes + edges) as a segment of ``run``.

        The payload travels as the store's own segment frame (base64 over
        the JSON line); the call returns only after the server flushed
        the epoch durably -- the synchronous reply is the back-pressure.
        """
        framed, _ = encode_segment(nodes, edges)
        return self.result(
            "append_epoch", run=run, segment=base64.b64encode(framed).decode("ascii")
        )

    def commit_run(self, run: int, meta: Optional[dict] = None) -> dict:
        """Mark ``run`` complete; the server checkpoints the manifest."""
        return self.result("commit_run", run=run, meta=meta)

    # ------------------------------------------------------------------ #
    # Live tail (watch)
    # ------------------------------------------------------------------ #

    def watch(
        self,
        pages: Iterable[int],
        run: Optional[int] = None,
        interval: float = 0.05,
        timeout: float = 30.0,
    ) -> Iterator[dict]:
        """Stream lineage observations of ``pages`` as ``run`` grows.

        Yields one dict per server observation (``nodes`` as ``(tid,
        index)`` tuples plus the run's ``progress``); the final one has
        ``done`` set -- the run completed or the watch timed out.
        """
        request = {
            "op": "watch",
            "pages": [int(p) for p in pages],
            "run": run,
            "stream": True,
            "interval": interval,
            "timeout": timeout,
        }
        payload = json.dumps(request).encode("utf-8") + b"\n"
        # The stream only emits on change: the socket must outlive quiet
        # stretches up to the server-side watch timeout.
        with socket.create_connection(
            (self.host, self.port), timeout=max(self.timeout, timeout + 5.0)
        ) as conn:
            conn.sendall(payload)
            with conn.makefile("rb") as reader:
                for line in reader:
                    try:
                        response = json.loads(line.decode("utf-8"))
                    except ValueError as exc:
                        raise StoreError(f"malformed watch update: {exc}") from exc
                    if not response.get("ok"):
                        raise StoreError(str(response.get("error", "unknown server error")))
                    result = response["result"]
                    result["nodes"] = [parse_node_key(key) for key in result["nodes"]]
                    yield result
                    if result.get("done"):
                        return
        raise StoreError(
            f"store server at {self.host}:{self.port} closed the watch stream early"
        )

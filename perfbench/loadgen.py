"""Open- and closed-loop HTTP load generation: two keep-alive connections, two threads.

An *op* is a tuple the workload builds:

* ``("tick", step, values, mask)`` — POST a full-network observation,
  then GET a full-horizon forecast on the same connection;
* ``("observe", step, values, mask)`` — POST a full-network observation
  (pipelined set-up only);
* ``("sensor", step, node, features)`` — POST one sensor's reading;
* ``("poll", horizon)`` — GET a forecast at ``horizon``.

Every request carries an ``X-Bench-Id`` header so a traced server's
spans can be matched to the client's timings.
"""

from __future__ import annotations

import contextlib
import gc
import http.client
import itertools
import json
import socket
import threading
import time

CONNECTIONS = 2
#: requests in flight per window of the pipelined warm-up
PIPELINE_DEPTH = 32


@contextlib.contextmanager
def _no_gc():
    """Keep the generator's own garbage collector out of a timed phase."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class Client:
    """One keep-alive connection that records every request it makes."""

    def __init__(self, host: str, port: int, ids, log: list, lock: threading.Lock):
        self.conn = http.client.HTTPConnection(host, port, timeout=60)
        self._ids = ids
        self._log = log
        self._lock = lock

    def request(self, method, path, payload, kind, phase, due, meta, on_sent=None) -> dict:
        rid = next(self._ids)
        body = json.dumps(payload) if payload is not None else None
        headers = {"X-Bench-Id": str(rid)}
        if body is not None:
            headers["Content-Type"] = "application/json"
        sent = time.perf_counter()
        self.conn.request(method, path, body, headers)
        if on_sent is not None:
            on_sent()
        response = self.conn.getresponse()
        data = response.read()
        done = time.perf_counter()
        record = {
            "rid": rid, "kind": kind, "phase": phase, "due": due, "sent": sent,
            "done": done, "status": response.status, "body": data,
            "degraded": response.getheader("X-Degraded"), **meta,
        }
        with self._lock:
            self._log.append(record)
        return record

    def run(self, op, phase: str, due: float, on_forecast_sent=None) -> None:
        kind = op[0]
        if kind == "tick":
            _, step, values, mask = op
            self.request("POST", "/observe",
                         {"step": step, "values": values, "mask": mask},
                         "observe", phase, due, {"op": op})
            # The forecast falls due once its observation has landed.
            self.request("GET", "/forecast", None, "forecast", phase,
                         time.perf_counter(), {"horizon": None}, on_forecast_sent)
        elif kind == "sensor":
            _, step, node, features = op
            self.request("POST", "/observe",
                         {"step": step, "node": node, "features": features},
                         "observe", phase, due, {"op": op})
        elif kind == "poll":
            self.request("GET", f"/forecast?horizon={op[1]}", None, "forecast",
                         phase, due, {"horizon": op[1]})
        else:
            raise ValueError(f"unknown op {kind!r}")

    def close(self) -> None:
        self.conn.close()


class LoadGenerator:
    """Runs op sequences against one server over ``CONNECTIONS`` connections."""

    def __init__(self, host: str, port: int):
        self.log: list[dict] = []
        self.late: list[float] = []  # open-loop lateness per op, seconds
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.clients = [Client(host, port, self._ids, self.log, self._lock)
                        for _ in range(CONNECTIONS)]

    def _threads(self, target) -> None:
        errors: list[BaseException] = []

        def guarded(client):
            try:
                target(client)
            except BaseException as error:  # re-raised below, after join
                errors.append(error)

        threads = [threading.Thread(target=guarded, args=(c,)) for c in self.clients]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]

    @staticmethod
    def _in_order(ops, index: int, sent: list) -> None:
        """Hold tick ``index`` until tick ``index - 1`` has sent its forecast.

        The feed is one ordered stream: a tick's observation must not
        reach the server before the previous tick's forecast did, or that
        forecast would see the next step (and its successor hit the cache).
        """
        if ops[index][0] == "tick" and index > 0 and ops[index - 1][0] == "tick":
            if not sent[index - 1].wait(timeout=60):
                raise RuntimeError(f"tick {index - 1} never sent its forecast")

    def open_loop(self, ops, dues, phase: str = "open") -> None:
        """Send ``ops[i]`` at ``start + dues[i]`` on whichever connection is free."""
        start = time.perf_counter() + 0.05
        cursor = iter(range(len(ops)))
        sent = [threading.Event() for _ in ops]

        def work(client):
            while True:
                with self._lock:
                    index = next(cursor, None)
                if index is None:
                    return
                due = start + dues[index]
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                self._in_order(ops, index, sent)
                late = max(0.0, time.perf_counter() - due)
                with self._lock:
                    self.late.append(late)
                client.run(ops[index], phase, due, sent[index].set)

        with _no_gc():
            self._threads(work)

    def closed_loop(self, ops, seconds: float, phase: str = "closed") -> float:
        """Send ``ops`` back to back until ``seconds`` pass or they run out.

        Returns the elapsed time.
        """
        start = time.perf_counter()
        stop = start + seconds
        cursor = iter(range(len(ops)))
        sent = [threading.Event() for _ in ops]

        def work(client):
            while time.perf_counter() < stop:
                with self._lock:
                    index = next(cursor, None)
                if index is None:
                    return
                self._in_order(ops, index, sent)
                client.run(ops[index], phase, time.perf_counter(), sent[index].set)

        with _no_gc():
            self._threads(work)
        return time.perf_counter() - start

    def pipeline(self, ops, phase: str = "warm") -> None:
        """Send ``tick``/``observe`` ops pipelined on one extra connection.

        Set-up only: HTTP/1.1 pipelining keeps the server's request
        order while skipping a round trip per request, so a simulated
        day of observations and forecasts (and every plan compile it
        triggers) fits in a few seconds.
        """
        requests = []
        for op in ops:
            payload = json.dumps({"step": op[1], "values": op[2], "mask": op[3]}).encode()
            requests.append(("observe", op, b"POST /observe HTTP/1.1\r\nHost: bench\r\n"
                             b"Content-Type: application/json\r\nContent-Length: "
                             + str(len(payload)).encode() + b"\r\n\r\n" + payload))
            if op[0] == "tick":
                requests.append(("forecast", op, b"GET /forecast HTTP/1.1\r\nHost: bench\r\n\r\n"))
        host, port = self.clients[0].conn.host, self.clients[0].conn.port
        with socket.create_connection((host, port), timeout=60) as sock:
            reader = sock.makefile("rb")
            for begin in range(0, len(requests), PIPELINE_DEPTH):
                window = requests[begin:begin + PIPELINE_DEPTH]
                sent = time.perf_counter()
                sock.sendall(b"".join(raw for _, _, raw in window))
                for kind, op, _ in window:
                    status, body = _read_response(reader)
                    record = {"rid": next(self._ids), "kind": kind, "phase": phase, "due": sent,
                              "sent": sent, "done": time.perf_counter(), "status": status,
                              "body": body, "degraded": None, "op": op}
                    with self._lock:
                        self.log.append(record)
            reader.close()

    def close(self) -> None:
        for client in self.clients:
            client.close()


def _read_response(reader) -> tuple[int, bytes]:
    """Status and body of one HTTP/1.1 response with a Content-Length."""
    status = int(reader.readline().split()[1])
    length = 0
    while True:
        line = reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    return status, reader.read(length)

"""Worker processes and the cluster supervisor.

Each worker is a real OS process (spawn start method — no forked locks)
that loads the bundle from disk, builds its :class:`~.shard.ShardApp`,
binds an ephemeral port and reports it back over a pipe. The
:class:`ClusterSupervisor` owns the worker lifecycle — start, kill (for
chaos), restart with snapshot warm-up from a live replica — and exposes
a :class:`~.router.ClusterRouter` wired to the workers over HTTP.
"""

from __future__ import annotations

import json
import multiprocessing
import time

from ...errors import ServeError
from ..config import ServeConfig
from ..http import bind_http
from .config import ClusterConfig
from .router import ClusterRouter
from .sharding import ShardPlan
from .transport import HTTPShardClient, ShardUnavailable

__all__ = ["ClusterSupervisor", "shard_worker_main"]


def shard_worker_main(
    bundle_path: str,
    plan: ShardPlan,
    shard: int,
    config: ServeConfig,
    conn,
) -> None:
    """Entry point of one shard worker process (spawn-safe, top level).

    ``plan`` and ``config`` arrive pickled by the spawn start method.
    """
    from ..artifact import load_bundle
    from .shard import ShardApp

    try:
        bundle = load_bundle(bundle_path)
        app = ShardApp(bundle, plan, shard, config=config)
        server = bind_http(app, "127.0.0.1", 0)
        app.start()
    except Exception as error:  # surface boot failures to the supervisor
        conn.send(("error", f"{type(error).__name__}: {error}"))
        conn.close()
        raise
    conn.send(("ready", server.server_address[1]))
    conn.close()
    server.serve_forever()


class ClusterSupervisor:
    """Spawn, watch, kill and restart the shard worker fleet."""

    def __init__(
        self,
        bundle_path: str,
        plan: ShardPlan,
        config: ClusterConfig | None = None,
        boot_timeout_s: float = 60.0,
    ):
        self.bundle_path = str(bundle_path)
        self.plan = plan
        self.config = config if config is not None else ClusterConfig(
            num_shards=plan.num_shards
        )
        self.boot_timeout_s = boot_timeout_s
        self._ctx = multiprocessing.get_context("spawn")
        self.processes: list = [None] * plan.num_shards
        self.ports: list[int | None] = [None] * plan.num_shards
        self.router: ClusterRouter | None = None

    # -- lifecycle -----------------------------------------------------
    def _spawn(self, shard: int) -> int:
        parent, child = self._ctx.Pipe()
        process = self._ctx.Process(
            target=shard_worker_main,
            args=(
                self.bundle_path,
                self.plan,
                shard,
                self.config.serve,
                child,
            ),
            daemon=True,
        )
        process.start()
        child.close()
        if not parent.poll(self.boot_timeout_s):
            process.terminate()
            raise ServeError(f"shard {shard} worker did not boot in time")
        kind, value = parent.recv()
        parent.close()
        if kind != "ready":
            process.join(timeout=5.0)
            raise ServeError(f"shard {shard} worker failed to boot: {value}")
        self.processes[shard] = process
        self.ports[shard] = int(value)
        return int(value)

    def start(self) -> "ClusterSupervisor":
        for shard in range(self.plan.num_shards):
            self._spawn(shard)
        clients = [
            HTTPShardClient(
                "127.0.0.1", port,
                default_timeout_s=self.config.shard_deadline_s,
            )
            for port in self.ports
        ]
        self.router = ClusterRouter(self.plan, clients, config=self.config)
        return self

    def stop(self) -> None:
        if self.router is not None:
            self.router.close()
        for shard, process in enumerate(self.processes):
            if process is not None and process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
            self.processes[shard] = None

    def __enter__(self) -> "ClusterSupervisor":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def handle(self, method, path, body, headers=None):
        assert self.router is not None, "supervisor not started"
        return self.router.handle(method, path, body, headers)

    # -- chaos ---------------------------------------------------------
    def kill_shard(self, shard: int) -> None:
        """Hard-kill one worker (SIGTERM), leaving its entry dead."""
        process = self.processes[shard]
        if process is not None and process.is_alive():
            process.terminate()
            process.join(timeout=5.0)
        self.processes[shard] = None

    def restart_shard(self, shard: int, warm: bool = True) -> dict:
        """Respawn a killed worker; optionally warm it from a replica.

        Warm-up is the failover primitive end-to-end: fetch a live
        holder's ``/shard/snapshot`` over HTTP, post it to the fresh
        worker's ``/shard/restore`` (which translates node layouts),
        and only then retarget the router at the new port.
        """
        port = self._spawn(shard)
        client = HTTPShardClient(
            "127.0.0.1", port, default_timeout_s=self.config.shard_deadline_s
        )
        report: dict = {"shard": shard, "port": port, "warmed_from": None}
        if warm and self.router is not None:
            for peer in self.plan.replicas_of(shard):
                if self.processes[peer] is None:
                    continue
                try:
                    snap = self.router.clients[peer].request(
                        "GET", "/shard/snapshot"
                    )
                    if snap.status != 200:
                        continue
                    body = json.dumps({
                        "nodes": snap.body["nodes"],
                        "state": snap.body["state"],
                    }).encode()
                    restored = client.request("POST", "/shard/restore", body=body)
                    if restored.status == 200:
                        report["warmed_from"] = peer
                        report["version"] = restored.body.get("version")
                        break
                except ShardUnavailable:
                    continue
        if self.router is not None:
            self.router.retarget(shard, client)
        return report

    def wait_healthy(self, timeout_s: float = 10.0) -> bool:
        """Poll the aggregate /healthz until every shard answers."""
        assert self.router is not None
        end = time.monotonic() + timeout_s
        while time.monotonic() < end:
            response = self.router.healthz()
            shards = response.body.get("shards", {})
            if all(v.get("status") != "down" for v in shards.values()):
                return True
            time.sleep(0.1)
        return False

"""End-to-end serve smoke: ``python -m repro.serve.smoke`` (make serve-smoke).

Starts a real ``repro serve`` subprocess, drives it with two concurrent
ingest clients plus a query client via the load generator, then sends
SIGINT and asserts the graceful-drain contract: exit code 0, every
admitted edge visible, and a final checkpoint on disk.  This is the CI
gate for the whole live-ingest path — protocol, admission, micro-batch
cutting, the driver thread, queries, heartbeat, and drain.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from .client import run_loadgen


def _wait_for_port(port_file: Path, process: subprocess.Popen,
                   timeout: float = 60.0) -> int:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise AssertionError(
                f"server exited early with code {process.returncode}"
            )
        try:
            text = port_file.read_text(encoding="utf-8").strip()
        except FileNotFoundError:
            text = ""
        if text:
            return int(text)
        time.sleep(0.02)
    raise AssertionError("server did not write its port file in time")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-serve-smoke-") as tmp:
        tmpdir = Path(tmp)
        port_file = tmpdir / "port"
        checkpoint_dir = tmpdir / "ckpt"
        heartbeat = tmpdir / "heartbeat.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(Path(__file__).resolve().parents[2]),
                        env.get("PYTHONPATH")) if p
        )
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "wiki",
                "--port", "0", "--port-file", str(port_file),
                "--serve-batch", "1000",
                "--checkpoint", str(checkpoint_dir), "--every", "2",
                "--heartbeat", str(heartbeat),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            port = _wait_for_port(port_file, process)
            report = asyncio.run(
                run_loadgen(
                    "127.0.0.1", port,
                    clients=2, edges=4000, submit_size=250,
                    query="pagerank_topk", query_interval=0.02,
                )
            )
            assert report["edges_sent"] == 8000, report
            assert report["server"]["lag_edges"] == 0, report["server"]
            assert report["server"]["batches"] >= 8, report["server"]
            assert report["ack_latency_s"]["p99"] >= 0.0

            process.send_signal(signal.SIGINT)
            stdout, __ = process.communicate(timeout=60)
        except BaseException:
            process.kill()
            process.wait()
            raise

        assert process.returncode == 0, (
            f"graceful drain must exit 0, got {process.returncode}\n{stdout}"
        )
        assert "draining" in stdout, stdout
        checkpoints = list(checkpoint_dir.glob("*"))
        assert checkpoints, (
            f"drain must leave a final checkpoint in {checkpoint_dir}\n{stdout}"
        )
        beat = json.loads(heartbeat.read_text(encoding="utf-8"))
        assert beat.get("serve", {}).get("visible_seq", 0) > 0, beat
        print(
            "serve smoke OK: "
            f"{report['edges_sent']} edges via 2 clients at "
            f"{report['edges_per_second']:.0f} edges/s, "
            f"{report.get('queries', {}).get('served', 0)} queries, "
            f"visible p99 "
            f"{report['server']['ingest_to_visible_s']['p99'] * 1e3:.1f} ms, "
            f"graceful drain -> exit 0, "
            f"{len(checkpoints)} checkpoint file(s)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())

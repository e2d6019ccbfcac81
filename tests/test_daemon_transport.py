"""Daemon transports: ordered JSONL sessions over streams and sockets."""

import io
import json
import threading

import pytest

from repro.io import JOB_FORMAT
from repro.network.topology import random_wrsn
from repro.serve import (
    DAEMON_STATUS_FORMAT,
    DaemonConfig,
    DaemonSession,
    PlanJob,
    PlanningDaemon,
    job_to_dict,
    make_socket_server,
    request,
    request_status,
    serve_stream,
)


@pytest.fixture
def net():
    return random_wrsn(num_sensors=15, seed=6)


def _job_lines(net, n=2):
    ids = list(net.all_sensor_ids()[:8])
    first = job_to_dict(
        PlanJob(net, tuple(ids), 2, "Appro", "j0"), network_id="n0"
    )
    lines = [json.dumps(first)]
    for i in range(1, n):
        lines.append(
            json.dumps(
                {
                    "format": JOB_FORMAT,
                    "network_ref": "n0",
                    "requests": ids,
                    "num_chargers": 1 + (i % 2),
                    "planner": "K-EDF",
                    "id": f"j{i}",
                }
            )
        )
    return lines


class TestServeStream:
    def test_one_response_per_line_in_order(self, net):
        lines = _job_lines(net, 3)
        lines.insert(1, "garbage {{{")
        lines.insert(3, json.dumps({"op": "status"}))
        rfile = io.StringIO("\n".join(lines) + "\n")
        wfile = io.StringIO()
        with PlanningDaemon(DaemonConfig(workers=1)) as daemon:
            written = serve_stream(daemon, rfile, wfile)
        rows = [json.loads(x) for x in wfile.getvalue().splitlines()]
        assert written == len(rows) == 5
        assert rows[0]["id"] == "j0" and rows[0]["status"] == "ok"
        assert rows[1]["id"] == "line-2"
        assert rows[1]["status"] == "error"
        assert "malformed JSON" in rows[1]["error"]
        assert rows[2]["id"] == "j1" and rows[2]["status"] == "ok"
        assert rows[3]["format"] == DAEMON_STATUS_FORMAT
        assert rows[4]["id"] == "j2" and rows[4]["status"] == "ok"

    def test_network_ref_scoped_to_session(self, net):
        # A ref with no earlier label in *this* session fails cleanly.
        line = json.dumps(
            {
                "format": JOB_FORMAT,
                "network_ref": "n0",
                "requests": [1],
                "id": "dangling",
            }
        )
        wfile = io.StringIO()
        with PlanningDaemon(DaemonConfig(workers=1)) as daemon:
            serve_stream(daemon, io.StringIO(line + "\n"), wfile)
        (row,) = [json.loads(x) for x in wfile.getvalue().splitlines()]
        assert row["status"] == "error"
        assert "network_ref" in row["error"]

    def test_non_finite_network_gets_line_error(self, net):
        # NaN / ±inf in a network answer with the per-line error
        # record; the session keeps serving the lines after them.
        good, = _job_lines(net, 1)
        lines = []
        for bad in ("NaN", "Infinity", "-Infinity"):
            record = json.loads(good)
            record["network"]["sensors"][0]["x"] = json.loads(bad)
            lines.append(json.dumps(record))
        lines.append(good)
        wfile = io.StringIO()
        with PlanningDaemon(DaemonConfig(workers=1)) as daemon:
            serve_stream(daemon, io.StringIO("\n".join(lines) + "\n"),
                         wfile)
        rows = [json.loads(x) for x in wfile.getvalue().splitlines()]
        assert [r["status"] for r in rows] == ["error"] * 3 + ["ok"]
        for row in rows[:3]:
            assert "sensors[0].x must be finite" in row["error"]

    def test_unknown_op_is_reported(self, net):
        wfile = io.StringIO()
        with PlanningDaemon(DaemonConfig(workers=1)) as daemon:
            serve_stream(
                daemon,
                io.StringIO(json.dumps({"op": "reboot"}) + "\n"),
                wfile,
            )
        (row,) = [json.loads(x) for x in wfile.getvalue().splitlines()]
        assert row["status"] == "error"
        assert "unknown op" in row["error"]

    def test_deadline_reaches_admission(self, net, monkeypatch):
        # A ``deadline_s`` key on the job record flows through the
        # session into the daemon's admission call.
        with PlanningDaemon(DaemonConfig(workers=1)) as daemon:
            seen = {}
            real_submit = daemon.submit

            def spy(job, deadline_s=None):
                seen["deadline_s"] = deadline_s
                return real_submit(job, deadline_s=deadline_s)

            monkeypatch.setattr(daemon, "submit", spy)
            session = DaemonSession(daemon)
            record = job_to_dict(
                PlanJob(net, tuple(net.all_sensor_ids()[:4]), 1,
                        "Appro", "tight")
            )
            record["deadline_s"] = 2.5
            outs = list(session.handle_line(json.dumps(record), 1))
            outs += list(session.drain())
        assert seen["deadline_s"] == 2.5
        (row,) = [json.loads(x) for x in outs]
        assert row["status"] == "ok"


class TestSocketServer:
    def test_round_trip_and_status(self, net, tmp_path):
        path = str(tmp_path / "daemon.sock")
        with PlanningDaemon(DaemonConfig(workers=1)) as daemon:
            server = make_socket_server(daemon, path)
            thread = threading.Thread(
                target=server.serve_forever, daemon=True
            )
            thread.start()
            try:
                rows = [
                    json.loads(x)
                    for x in request(path, _job_lines(net, 2))
                ]
                assert [r["id"] for r in rows] == ["j0", "j1"]
                assert all(r["status"] == "ok" for r in rows)
                status = request_status(path)
                assert status["format"] == DAEMON_STATUS_FORMAT
                assert status["counters"]["completed"] == {"ok": 2}
            finally:
                server.shutdown()
                server.close()

    def test_two_connections_share_warm_contexts(self, net, tmp_path):
        # Connection boundaries do not reset the daemon's caches: the
        # second client's identical network lands on the warm context.
        path = str(tmp_path / "daemon.sock")
        with PlanningDaemon(DaemonConfig(workers=1)) as daemon:
            server = make_socket_server(daemon, path)
            thread = threading.Thread(
                target=server.serve_forever, daemon=True
            )
            thread.start()
            try:
                first = json.loads(
                    request(path, _job_lines(net, 1))[0]
                )
                second = json.loads(
                    request(path, _job_lines(net, 1))[0]
                )
            finally:
                server.shutdown()
                server.close()
        assert first["context_reused"] is False
        assert second["context_reused"] is True

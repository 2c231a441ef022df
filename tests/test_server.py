"""Job-submission HTTP API: submit → queued → running → done lifecycle,
status from live manifests, error isolation."""

import json
import threading
import time
import urllib.request

import pyarrow.parquet as pq
import pytest

from nidaba_ray import synth
from nidaba_ray.server import make_server


@pytest.fixture()
def server():
    srv = make_server()
    t = threading.Thread(target=srv.serve_forever, daemon=True)
    t.start()
    yield f"http://127.0.0.1:{srv.server_address[1]}"
    srv.shutdown()


def _get(url):
    try:
        with urllib.request.urlopen(url, timeout=10) as r:
            return r.status, json.loads(r.read())
    except urllib.error.HTTPError as e:
        return e.code, json.loads(e.read())


def _post(url, payload):
    req = urllib.request.Request(
        url, data=json.dumps(payload).encode(), method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=10) as r:
            return r.status, json.loads(r.read())
    except urllib.error.HTTPError as e:
        return e.code, json.loads(e.read())


def test_job_lifecycle(ray_session, server, tmp_path):
    t = synth.pages_table(n=40).drop_columns(["golden", "doc_id"])
    inp = str(tmp_path / "pages.parquet")
    pq.write_table(t, inp)
    out_dir = str(tmp_path / "out")

    code, h = _get(server + "/health")
    assert code == 200 and h["status"] == "ok"

    code, r = _post(server + "/jobs", {"input": inp, "out_dir": out_dir,
                                       "n_buckets": 8})
    assert code == 201
    job_id = r["job_id"]

    deadline = time.time() + 120
    while time.time() < deadline:
        code, rec = _get(f"{server}/jobs/{job_id}")
        assert code == 200
        if rec["state"] in ("done", "error"):
            break
        time.sleep(0.5)
    assert rec["state"] == "done", rec
    assert rec["summary"]["processed_buckets"] == 8
    assert rec["progress"]["complete"] is True
    assert rec["progress"]["n_rows"] == t.num_rows

    code, listing = _get(server + "/jobs")
    assert code == 200 and any(j["job_id"] == job_id for j in listing["jobs"])


def test_bad_requests_and_error_isolation(ray_session, server, tmp_path):
    code, r = _post(server + "/jobs", {"nope": 1})
    assert code == 400
    code, r = _get(server + "/jobs/doesnotexist")
    assert code == 404
    # a failing job flips to error and the server keeps serving
    code, r = _post(server + "/jobs", {
        "input": str(tmp_path / "missing.parquet"),
        "out_dir": str(tmp_path / "o"), "n_buckets": 4,
    })
    assert code == 201
    job_id = r["job_id"]
    deadline = time.time() + 60
    while time.time() < deadline:
        _, rec = _get(f"{server}/jobs/{job_id}")
        if rec["state"] in ("done", "error"):
            break
        time.sleep(0.3)
    assert rec["state"] == "error" and rec["error"]
    code, h = _get(server + "/health")
    assert code == 200


def test_non_dict_json_body_is_400(ray_session, server):
    code, r = _post(server + "/jobs", 5)
    assert code == 400
    code, r = _post(server + "/jobs", ["input", "out_dir"])
    assert code == 400


def test_job_with_pipeline_body(ray_session, server, tmp_path):
    """POST /jobs with a 'pipeline' stage list runs that registry
    pipeline instead of the flagship; malformed pipelines are 400."""
    src = tmp_path / "pages.parquet"
    pq.write_table(synth.pages_table(n=60), src)
    out = tmp_path / "out"
    code, body = _post(f"{server}/jobs", {
        "input": str(src), "out_dir": str(out), "n_buckets": 4,
        "pipeline": [
            {"stage": "extract.text", "batch_size": 64,
             "concurrency": [1, 2], "fn_constructor_kwargs": {"spell": False}},
            {"stage": "clean.pii"},
        ],
    })
    assert code == 201
    job_id = body["job_id"]
    for _ in range(300):
        code, rec = _get(f"{server}/jobs/{job_id}")
        if rec["state"] in ("done", "error"):
            break
        time.sleep(0.2)
    assert rec["state"] == "done", rec
    assert rec["summary"]["processed_buckets"] == 4
    assert rec["progress"]["complete"]
    # malformed pipeline rejected up front
    code, body = _post(f"{server}/jobs", {
        "input": str(src), "out_dir": str(out) + "2",
        "pipeline": [{"not_stage": "x"}],
    })
    assert code == 400

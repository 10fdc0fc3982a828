"""Client library for the sweep service: submit, watch, fetch.

``repro submit`` and the loadtest harness both go through
:class:`ServiceClient`, and ``repro worker`` through its transport,
:func:`request`.  The client is deliberately boring synchronous
``urllib`` code — one request per connection, matching the daemon's
``Connection: close`` framing — with exactly two interesting behaviors:

* **backpressure-aware submit**: a 429 (queue full or quota exceeded)
  is obeyed by sleeping the server's ``Retry-After`` before retrying,
  so a polite client cooperates with the daemon's flow control instead
  of hammering it; ``retry=False`` surfaces :class:`SubmitRejected`
  for callers (the queue-flood chaos preset) that want the raw verdict;
* **restart-tolerant wait**: :meth:`wait` polls job status and treats
  connection errors as "the daemon is restarting", retrying until the
  deadline — which is what lets a drained-and-restarted daemon finish
  a job for a client that never went away.
"""

import json
import time
import urllib.error
import urllib.request


def request(method, url, payload=None, timeout=60.0):
    """One synchronous JSON request; returns ``(status, headers, body)``.

    HTTP error statuses are returned, not raised; only transport errors
    (connection refused, timeouts) propagate as ``URLError``/``OSError``.
    """
    data = None
    headers = {}
    if payload is not None:
        data = json.dumps(payload).encode("utf-8")
        headers["Content-Type"] = "application/json"
    req = urllib.request.Request(url, data=data, headers=headers,
                                 method=method)
    try:
        with urllib.request.urlopen(req, timeout=timeout) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers or {}), exc.read()


def parse_json(body):
    """A response body's JSON, or ``None`` when it is empty or not JSON."""
    try:
        return json.loads(body.decode("utf-8")) if body else None
    except (UnicodeDecodeError, ValueError):
        return None


class ServiceError(Exception):
    """The daemon answered with an error this client cannot recover."""

    def __init__(self, status, detail):
        super().__init__("HTTP %d: %s" % (status, detail))
        self.status = status
        self.detail = detail


class SubmitRejected(ServiceError):
    """A 429/503 submit verdict, carrying the server's Retry-After."""

    def __init__(self, status, detail, retry_after):
        super().__init__(status, detail)
        self.retry_after = retry_after


class ServiceClient:
    """Talk to one ``repro serve`` daemon on behalf of one client id."""

    def __init__(self, url, client="anonymous", timeout=60.0):
        self.url = url.rstrip("/")
        self.client = client
        self.timeout = timeout

    # -- plumbing --------------------------------------------------------

    def _request(self, method, path, payload=None):
        return request(method, self.url + path, payload, self.timeout)

    @staticmethod
    def _json(body):
        parsed = parse_json(body)
        return {} if parsed is None else parsed

    def _checked(self, method, path, payload=None):
        status, _headers, body = self._request(method, path, payload)
        parsed = self._json(body)
        if status != 200:
            raise ServiceError(status, parsed.get("error", "unexpected"))
        return parsed

    # -- API -------------------------------------------------------------

    def healthz(self):
        return self._checked("GET", "/v1/healthz")

    def stats(self):
        return self._checked("GET", "/v1/stats")

    def submit(self, grid=None, cells=None, scale=None, retry=True,
               deadline=120.0):
        """Submit one sweep job; returns the acceptance record.

        With ``retry=True`` (default) a 429/503 is retried after the
        server's ``Retry-After``; with ``retry=False`` it raises
        :class:`SubmitRejected` immediately.
        """
        payload = {"client": self.client}
        if grid is not None:
            payload["grid"] = grid
        if cells is not None:
            payload["cells"] = cells
        if scale is not None:
            payload["scale"] = scale
        stop_at = time.monotonic() + deadline  # repro: allow-nondeterminism[ND101] (retry deadline)
        while True:
            status, headers, body = self._request("POST", "/v1/sweeps",
                                                  payload)
            parsed = self._json(body)
            if status == 200:
                return parsed
            if status in (429, 503):
                retry_after = float(headers.get("Retry-After", 1))
                if not retry:
                    raise SubmitRejected(
                        status, parsed.get("error", "rejected"),
                        retry_after)
                if time.monotonic() + retry_after > stop_at:  # repro: allow-nondeterminism[ND101] (retry deadline)
                    raise SubmitRejected(
                        status, "still rejected after %.0fs: %s"
                        % (deadline, parsed.get("error", "rejected")),
                        retry_after)
                time.sleep(retry_after)
                continue
            raise ServiceError(status, parsed.get("error", "unexpected"))

    def status(self, job_id):
        return self._checked("GET", "/v1/sweeps/%s" % job_id)

    def events(self, job_id, offset=0):
        """Yield event dicts from the live NDJSON stream (one
        connection; ends when the job completes or the daemon drains)."""
        request = urllib.request.Request(
            "%s/v1/sweeps/%s/events?offset=%d"
            % (self.url, job_id, offset))
        with urllib.request.urlopen(request,
                                    timeout=self.timeout) as response:
            if response.status != 200:
                raise ServiceError(response.status, "event stream refused")
            for line in response:
                line = line.strip()
                if line:
                    yield json.loads(line.decode("utf-8"))

    def wait(self, job_id, deadline=300.0, poll_interval=0.2):
        """Block until the job is done; survives daemon restarts.

        Connection errors are retried (a draining daemon comes back
        with the same persisted job id); raises :class:`ServiceError`
        on timeout.
        """
        stop_at = time.monotonic() + deadline  # repro: allow-nondeterminism[ND101] (poll deadline)
        while time.monotonic() < stop_at:  # repro: allow-nondeterminism[ND101] (poll deadline)
            try:
                record = self.status(job_id)
            except (urllib.error.URLError, OSError, ServiceError) as exc:
                if isinstance(exc, ServiceError) and exc.status == 404:
                    # A restarted daemon replays its journal on start;
                    # 404 here means the journal lost the job — fatal.
                    raise
                time.sleep(poll_interval)
                continue
            if record["state"] == "done":
                return record
            time.sleep(poll_interval)
        raise ServiceError(408, "job %s not done within %.0fs"
                           % (job_id, deadline))

    def result(self, job_id):
        """The merged sweep JSON, byte-identical to a serial run."""
        status, _headers, body = self._request(
            "GET", "/v1/sweeps/%s/result" % job_id)
        if status != 200:
            parsed = self._json(body)
            detail = parsed.get("error", "unexpected")
            if parsed.get("cells"):
                detail += " (%s)" % ", ".join(parsed["cells"])
            raise ServiceError(status, detail)
        return body.decode("utf-8")

    def cache_object(self, key):
        """Raw content-addressed cache bytes for one key (transport
        endpoint; identity stays the sha256 key)."""
        status, _headers, body = self._request("GET", "/v1/cache/%s" % key)
        if status != 200:
            raise ServiceError(status,
                               self._json(body).get("error", "unexpected"))
        return body


__all__ = ["ServiceClient", "ServiceError", "SubmitRejected", "parse_json",
           "request"]

"""Mock chat-completions endpoint for the benchmark, run as its own process.

    python3 perfbench/mockserver.py

It answers every prompt with ``tests/mockllm.rules_literal_answer`` after a
fixed 5 ms delay. The delay is a sleep, so the server spends no CPU while it
"thinks". A prompt whose SHA-256 digest (first 8 bytes, big-endian) is
divisible by 10 gets a 503 on its first attempt, so the
client's retry path runs on a subset of prompts that depends only on the
prompt text. HTTP/1.1 with keep-alive.

The server prints its port on the first line of stdout. ``GET /stats``
returns the counts since the last ``POST /reset``: requests served, 503s
served, retries (requests for a prompt whose previous answer was a 503) and
distinct prompts answered. The server exits when its stdin closes, so it
never outlives the benchmark that started it.
"""

import hashlib
import json
import os
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from mockllm import rules_literal_answer  # noqa: E402

DELAY_S = 0.005
FAIL_EVERY = 10


def fails_first(prompt):
    digest = hashlib.sha256(prompt.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % FAIL_EVERY == 0


class Counts:
    def __init__(self):
        self._lock = threading.Lock()
        self.reset()

    def reset(self):
        with self._lock:
            self.requests = 0
            self.errors_503 = 0
            self.retries = 0
            self._refused = set()
            self._answered = set()

    def admit(self, prompt, fail):
        """Count one request; False means answer it with a 503."""
        with self._lock:
            self.requests += 1
            if prompt in self._refused and prompt not in self._answered:
                self.retries += 1
            if fail and prompt not in self._refused:
                self._refused.add(prompt)
                self.errors_503 += 1
                return False
            self._answered.add(prompt)
            return True

    def snapshot(self):
        with self._lock:
            return {"requests": self.requests, "errors_503": self.errors_503,
                    "retries": self.retries, "distinct_answered": len(self._answered)}


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # headers and body go out in one segment, without Nagle's algorithm,
    # so no keep-alive reply waits on the client's delayed ACK
    disable_nagle_algorithm = True
    wbufsize = -1

    def _reply(self, status, doc):
        payload = json.dumps(doc).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_GET(self):
        if self.path == "/stats":
            self._reply(200, self.server.counts.snapshot())
        else:
            self._reply(404, {"error": "not found"})

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = self.rfile.read(length)
        if self.path == "/reset":
            self.server.counts.reset()
            self._reply(200, {"reset": True})
            return
        if not self.path.endswith("/chat/completions"):
            self._reply(404, {"error": "not found"})
            return
        prompt = json.loads(body)["messages"][0]["content"]
        time.sleep(DELAY_S)
        if not self.server.counts.admit(prompt, fails_first(prompt)):
            self._reply(503, {"error": "overloaded, retry"})
            return
        self._reply(200, {"choices": [{"message": {
            "role": "assistant", "content": rules_literal_answer(prompt)}}]})

    def log_message(self, *args):
        pass


def main():
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    httpd.daemon_threads = True
    httpd.counts = Counts()
    threading.Thread(target=httpd.serve_forever, daemon=True).start()
    print(httpd.server_address[1], flush=True)
    sys.stdin.read()  # returns when the parent closes the pipe or exits
    httpd.shutdown()
    httpd.server_close()


if __name__ == "__main__":
    main()

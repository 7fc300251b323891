"""The four end-to-end workloads: set-up, measured loop and output checks.

Each workload is a class with ``setup``, ``run`` and ``close``.  ``setup``
builds every input from the seed and is timed as ``setup_s``; ``run``
measures for a number of seconds and returns an :class:`Outcome`.
Correctness checks run outside the timed operations, and a failed check
counts as a failed operation.  The loop is the same code with tracing
on or off; with tracing on, calls made inside the repository's own code
are timed through the instrumented subclasses and CLI wrappers in
:mod:`spans`.

Every count and rate below is frozen: it was calibrated once so the
whole benchmark fits its time cap on a 2-CPU machine, and it never
changes at run time.  ``scale`` shrinks the counts for the self-test
only.
"""

from __future__ import annotations

import http.client
import os
import random
import re
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from repro.cli import main as xydiff
from repro.client import ClientError, DiffClient
from repro.core import apply_delta, invert, parse_delta
from repro.core.xid import assign_initial_xids
from repro.simulator import (
    GeneratorConfig,
    SimulatorConfig,
    WebCorpus,
    WebCorpusConfig,
    evolve_site,
    generate_document,
    generate_site_snapshot,
    simulate_changes,
    weekly_change_profile,
)
from repro.storage.sqlite_store import SQLiteBackend
from repro.versioning.repository import BackendRepository
from repro.versioning.version_control import VersionStore
from repro.xmlkit import parse, serialize

from spans import (
    TracedBuldEngine,
    TracedSQLiteBackend,
    TracedRepository,
    traced_cli,
)

#: Web pages of the crawl and history workloads: log-uniform sizes.
PAGE_MIN_BYTES = 400
PAGE_MAX_BYTES = 30_000
#: Serialized bytes per generated node, as ``WebCorpus`` sizes its pages.
BYTES_PER_NODE = 55

# diff-large: three Fig. 4 pairs (10% of each operation), two weekly
# pairs, one site map paired with its successor.
FIG4_NODES = (4_000, 12_000, 36_000)
WEEKLY_NODES = (12_000, 36_000)
SITE_PAGES = 1_500

# crawl-commit: pages created at set-up, then revisited round-robin.
CRAWL_PAGES = 300
#: Weeks of every page the delta size is taken over; the window holds at
#: least this many whole rounds.
CRAWL_DELTA_WEEKS = 4

# history-read: a store of weekly versions, read back at random.
HISTORY_DOCS = 30
HISTORY_VERSIONS = 20
HISTORY_GET_SHARE = 0.7

# serve-mixed: an open loop against the HTTP service.
SERVE_RATE = 80.0
SERVE_WARMUP_S = 2.0
SERVE_SENDERS = 2
SERVE_NODES = 100
SERVE_DIFF_PAIRS = 96
SERVE_COMMIT_DOCS = 16
SERVE_CHAIN = 6
SERVE_MIX = (("diff", 0.60), ("commit", 0.25), ("version", 0.15))
SERVE_STORE = "bench"
SERVE_BOOT_TIMEOUT_S = 60.0

#: Root of the checkout; the server runs from its ``src``.
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@dataclass
class Outcome:
    """What one measured window produced.

    ``xml_bytes`` is the XML the operations carried.  ``delta_bytes``
    over ``delta_base_bytes`` is the delta size per byte of the versions
    it relates.  ``lags`` are how late the generator issued each
    operation after it could have.  ``untimed_s`` is the part of the
    window spent between operations checking results or making inputs,
    and ``callers`` how many callers ran at once.  ``in_child`` is true
    when the work ran in a child process (the server), whose peak memory
    is then the one that counts.
    """

    xml_bytes: int = 0
    callers: int = 1
    lags: list = field(default_factory=list)
    window_s: float = 0.0
    untimed_s: float = 0.0
    delta_bytes: int = 0
    delta_base_bytes: int = 0
    attempted: int = 0
    failed: int = 0
    in_child: bool = False
    layers: dict = field(default_factory=dict)

    @property
    def caller_seconds(self) -> float:
        """The window the layers must account for: every caller's time
        in it, less the untimed work between operations."""
        return (self.window_s - self.untimed_s) * self.callers


class ClosedLoop:
    """Bookkeeping of a single caller that waits for each reply."""

    def __init__(self, seconds: float):
        self.outcome = Outcome()
        self.started = self.ready = time.perf_counter()
        self.deadline = self.started + seconds
        self.count = 0

    def running(self) -> bool:
        return time.perf_counter() < self.deadline

    def done(self, begin: float, xml_bytes: int) -> None:
        outcome = self.outcome
        outcome.lags.append(begin - self.ready)
        outcome.xml_bytes += xml_bytes
        outcome.attempted += 1
        self.count += 1

    def untimed(self, since: float) -> None:
        """Account the work done since ``since`` as outside any operation."""
        self.ready = time.perf_counter()
        self.outcome.untimed_s += self.ready - since

    def check(self, ok: bool, since: float) -> None:
        if not ok:
            self.outcome.failed += 1
        self.untimed(since)

    def finish(self) -> Outcome:
        self.outcome.window_s = time.perf_counter() - self.started
        return self.outcome


def scaled(count: int, scale: float, minimum: int = 1) -> int:
    return max(minimum, round(count * scale))


def utf8_len(text: str) -> int:
    return len(text.encode("utf-8"))


def canonical(document) -> str:
    """A serialization equal for two documents exactly when they are
    deep-equal: attribute order, which a replayed delta may change, is
    left out."""
    if isinstance(document, str):
        document = parse(document)
    return serialize(document, sort_attributes=True)


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def open_store(workdir: str, tracer) -> VersionStore:
    """A fresh ``sqlite://`` version store under ``workdir`` (durability
    ``none``, the default), built from the traced subclasses when tracing.

    Not ``file://``: on the ext4 volume of a VM sharing its host, the
    file backend's syscalls made back-to-back runs drift by half within
    fifteen minutes, where the same loops on SQLite stayed within a few
    percent.
    """
    path = os.path.join(fresh_dir(os.path.join(workdir, "store")), "store.sqlite")
    if not tracer.enabled:
        return VersionStore(BackendRepository(SQLiteBackend(path)))
    return VersionStore(
        TracedRepository(TracedSQLiteBackend(path, tracer), tracer),
        engine=TracedBuldEngine(tracer),
    )


class EvenCorpus(WebCorpus):
    """A web corpus whose page sizes are spread evenly over the
    log-uniform range instead of drawn at random.

    Page ``i`` sits at quantile ``(i + 0.5) * golden ratio mod 1`` and is
    generated from ``i`` alone, so every seed starts from the same pages,
    and every prefix of the pages is an even sample of sizes.  The seed
    draws the weekly changes (``weekly_versions`` seeds them from
    ``document_seeds``).  Both keep the workload's cost comparable
    across seeds and window lengths.
    """

    def generate(self, index):
        config = self.config
        rng = random.Random(index)
        quantile = ((index + 0.5) * 0.6180339887498949) % 1.0
        target_bytes = config.min_bytes * (
            config.max_bytes / config.min_bytes) ** quantile
        return generate_document(GeneratorConfig(
            target_nodes=max(8, int(target_bytes / BYTES_PER_NODE)),
            max_depth=rng.randint(4, 10),
            max_fanout=rng.randint(3, 10),
            labels_per_depth=rng.randint(2, 6),
            text_probability=rng.uniform(0.3, 0.6),
            long_text_probability=rng.uniform(0.02, 0.15),
            seed=index,
        ))


def store_delta_bytes(store: VersionStore, doc_id: str, base: int) -> int:
    """Stored size of the delta ``base -> base + 1`` (documented layout)."""
    key = f"{doc_id}/delta-{base:04d}-{base + 1:04d}.xml"
    return store.repository.backend.size(key)


# ---------------------------------------------------------------------------
# diff-large
# ---------------------------------------------------------------------------


class DiffLarge:
    """One-shot ``xydiff diff`` on pairs of large files.

    The old document of pair ``i`` is generated from ``i`` alone and the
    seed draws its changes, so every seed does comparable work: with the
    documents drawn from the seed too, the generator's random shape alone
    moved the diff time of one 12k-node Fig. 4 pair between 240 and
    370 ms across seeds.
    """

    def setup(self, seed: int, scale: float, workdir: str, tracer):
        rng = random.Random(seed)

        def generated(nodes, index):
            return generate_document(GeneratorConfig(
                target_nodes=scaled(nodes, scale, 40), seed=index))

        def fig4(nodes, index):
            old = generated(nodes, index)
            profile = SimulatorConfig(seed=rng.randrange(2**31))
            return old, simulate_changes(old, profile).new_document

        def weekly(nodes, index):
            old = generated(nodes, index)
            profile = weekly_change_profile(rng.randrange(2**31))
            return old, simulate_changes(old, profile).new_document

        def site(pages, index):
            old = generate_site_snapshot(
                pages=scaled(pages, scale, 4), seed=index)
            return old, evolve_site(old, seed=rng.randrange(2**31))

        specs = ([(fig4, nodes) for nodes in FIG4_NODES]
                 + [(weekly, nodes) for nodes in WEEKLY_NODES]
                 + [(site, SITE_PAGES)])
        fresh_dir(workdir)
        self.pairs = []
        # One pair in memory at a time, so set-up peaks below the diff.
        for index, (make, size) in enumerate(specs):
            pair = {"out": os.path.join(workdir, f"pair{index}-delta.xml"),
                    "reference": None, "bytes": 0}
            for side, document in zip(("old", "new"), make(size, index)):
                pair[side] = os.path.join(workdir, f"pair{index}-{side}.xml")
                data = serialize(document).encode("utf-8")
                with open(pair[side], "wb") as handle:
                    handle.write(data)
                pair["bytes"] += len(data)
            self.pairs.append(pair)
        self.tracer = tracer

    def _diff(self, pair) -> bool:
        # The command's own time (argument parsing, file reads and
        # writes) is the self time of this span.
        with self.tracer.span("cli.main"):
            argv = ["diff", pair["old"], pair["new"], "-o", pair["out"]]
            return xydiff(argv) == 0

    def run(self, seconds: float) -> Outcome:
        with self.tracer.pause():
            self._diff(self.pairs[0])  # warm-up, untimed
        with traced_cli(self.tracer):
            return self._run(seconds)

    def _run(self, seconds: float) -> Outcome:
        loop = ClosedLoop(seconds)
        # At least one whole pass: each pair's first delta is the one
        # checked and measured.
        while loop.running() or loop.count < len(self.pairs):
            pair = self.pairs[loop.count % len(self.pairs)]
            with self.tracer.op(loop.count, "diff"):
                begin = time.perf_counter()
                ok = self._diff(pair)
                end = time.perf_counter()
            loop.done(begin, pair["bytes"])
            with open(pair["out"], "rb") as handle:
                produced = handle.read()
            if pair["reference"] is None:
                pair["reference"] = produced
            loop.check(ok and produced == pair["reference"], end)
        outcome = loop.finish()
        for pair in self.pairs:
            outcome.delta_bytes += len(pair["reference"])
            outcome.delta_base_bytes += pair["bytes"]
            if not self._round_trips(pair):
                outcome.failed += 1
        return outcome

    @staticmethod
    def _round_trips(pair) -> bool:
        """apply(delta, old) == new and apply(invert(delta), new) == old.

        This is the library path on compact XML: the CLI's ``apply``
        re-parses without stripping whitespace, which compact inputs
        never hit.
        """
        texts = {}
        for side in ("old", "new"):
            with open(pair[side], encoding="utf-8") as handle:
                texts[side] = handle.read()
        delta = parse_delta(pair["reference"].decode("utf-8"))
        old = parse(texts["old"])
        assign_initial_xids(old)
        forward = apply_delta(delta, old)
        if not forward.deep_equal(parse(texts["new"])):
            return False
        backward = apply_delta(invert(delta), forward)
        return backward.deep_equal(parse(texts["old"]))

    def close(self):
        pass


# ---------------------------------------------------------------------------
# crawl-commit
# ---------------------------------------------------------------------------


class CrawlCommit:
    """A weekly crawl committed page by page to a ``sqlite://`` store.

    Week 0 of every page is created at set-up.  The window then visits
    the pages round-robin; each visit crawls the page's next week, untimed
    as a crawler's fetch would be, then parses and commits it.  Every
    commit is therefore a forward weekly change, however many the window
    holds.
    """

    def setup(self, seed: int, scale: float, workdir: str, tracer):
        pages = scaled(CRAWL_PAGES, scale, 4)
        corpus = EvenCorpus(WebCorpusConfig(
            documents=pages, min_bytes=PAGE_MIN_BYTES,
            max_bytes=PAGE_MAX_BYTES, seed=seed))
        self.seeds = corpus.document_seeds()
        self.documents = [corpus.generate(i) for i in range(pages)]
        self.texts = [serialize(document) for document in self.documents]
        #: Serialized size of every week crawled so far, per page.
        self.sizes = [[utf8_len(text)] for text in self.texts]
        self.store = open_store(workdir, tracer)
        with tracer.pause():
            for index, text in enumerate(self.texts):
                self.store.create(f"page-{index}", parse(text))
        self.tracer = tracer

    def _crawl(self, page: int) -> str:
        """The page's next week, as ``WebCorpus.weekly_versions`` makes it."""
        week = len(self.sizes[page]) - 1
        profile = weekly_change_profile(self.seeds[page] + 7_000 + week)
        self.documents[page] = simulate_changes(
            self.documents[page], profile).new_document
        text = self.texts[page] = serialize(self.documents[page])
        self.sizes[page].append(utf8_len(text))
        return text

    def run(self, seconds: float) -> Outcome:
        tracer = self.tracer
        pages = len(self.texts)
        loop = ClosedLoop(seconds)
        while loop.running() or loop.count < pages * CRAWL_DELTA_WEEKS:
            page = loop.count % pages
            crawled = time.perf_counter()
            text = self._crawl(page)
            loop.untimed(crawled)
            with tracer.op(loop.count, "commit"):
                begin = time.perf_counter()
                with tracer.span("xmlkit.parse"):
                    document = parse(text)
                with tracer.span("versioning.commit"):
                    self.store.commit(f"page-{page}", document)
            loop.done(begin, self.sizes[page][-1])
        outcome = loop.finish()
        for page, sizes in enumerate(self.sizes):
            for base in range(1, CRAWL_DELTA_WEEKS + 1):
                outcome.delta_bytes += store_delta_bytes(
                    self.store, f"page-{page}", base)
                outcome.delta_base_bytes += sizes[base - 1] + sizes[base]
        outcome.failed += self._check()
        return outcome

    def _check(self) -> int:
        """verify() finds nothing; every page's current is its last crawl."""
        with self.tracer.pause():
            failed = len(self.store.repository.verify())
            for page, text in enumerate(self.texts):
                current = self.store.get_current(f"page-{page}")
                if not current.deep_equal(parse(text)):
                    failed += 1
        return failed

    def close(self):
        self.store.repository.close()


# ---------------------------------------------------------------------------
# history-read
# ---------------------------------------------------------------------------


class HistoryRead:
    """Random reads of old versions and version ranges from a store."""

    def setup(self, seed: int, scale: float, workdir: str, tracer):
        docs = scaled(HISTORY_DOCS, scale, 2)
        corpus = EvenCorpus(WebCorpusConfig(
            documents=docs, min_bytes=PAGE_MIN_BYTES,
            max_bytes=PAGE_MAX_BYTES, seed=seed))
        self.store = open_store(workdir, tracer)
        self.versions = []  # canonical text per version; index 0 = version 1
        with tracer.pause():
            for index in range(docs):
                doc_id = f"doc-{index}"
                texts = [
                    serialize(v)
                    for v in corpus.weekly_versions(index, HISTORY_VERSIONS - 1)
                ]
                self.store.create(doc_id, parse(texts[0]))
                for text in texts[1:]:
                    self.store.commit(doc_id, parse(text))
                self.versions.append([canonical(t) for t in texts])
        self.sizes = [[utf8_len(t) for t in texts] for texts in self.versions]
        self.rng = random.Random(seed)
        self.tracer = tracer

    def run(self, seconds: float) -> Outcome:
        tracer = self.tracer
        rng = self.rng
        count = len(self.versions[0])
        loop = ClosedLoop(seconds)
        while loop.running():
            doc = rng.randrange(len(self.versions))
            if rng.random() < HISTORY_GET_SHARE:
                kind = "get_version"
                version = rng.randint(1, count - 1)
                args = (f"doc-{doc}", version)
                size = self.sizes[doc][version - 1]
            else:
                kind = "changes_between"
                low = rng.randint(1, count - 1)
                high = rng.randint(low + 1, count)
                args = (f"doc-{doc}", low, high)
                size = self.sizes[doc][low - 1] + self.sizes[doc][high - 1]
            with tracer.op(loop.count, kind):
                begin = time.perf_counter()
                with tracer.span("versioning." + kind):
                    result = getattr(self.store, kind)(*args)
                end = time.perf_counter()
            loop.done(begin, size)
            loop.check(self._correct(doc, args, result), end)
        outcome = loop.finish()
        for doc, sizes in enumerate(self.sizes):
            for base in range(1, count):
                outcome.delta_bytes += store_delta_bytes(
                    self.store, f"doc-{doc}", base)
                outcome.delta_base_bytes += sizes[base - 1] + sizes[base]
        return outcome

    def _correct(self, doc, args, result) -> bool:
        """The result matches the version kept at set-up."""
        texts = self.versions[doc]
        if len(args) == 2:
            return canonical(result) == texts[args[1] - 1]
        doc_id, low, high = args
        with self.tracer.pause():
            base = self.store.get_version(doc_id, low)
        return canonical(apply_delta(result, base)) == texts[high - 1]

    def close(self):
        self.store.repository.close()


# ---------------------------------------------------------------------------
# serve-mixed
# ---------------------------------------------------------------------------


class ServeMixed:
    """An open loop of diffs, commits and reads against ``xydiff serve``."""

    def __init__(self):
        self.server = None

    def setup(self, seed: int, scale: float, workdir: str, tracer):
        rng = random.Random(seed)
        nodes = scaled(SERVE_NODES, scale, 20)
        self.pairs = []
        for _ in range(scaled(SERVE_DIFF_PAIRS, scale, 2)):
            old = generate_document(GeneratorConfig(
                target_nodes=nodes, seed=rng.randrange(2**31)))
            new = simulate_changes(
                old, SimulatorConfig(seed=rng.randrange(2**31))).new_document
            self.pairs.append((serialize(old), serialize(new)))
        self.chains = []
        for _ in range(scaled(SERVE_COMMIT_DOCS, scale, SERVE_SENDERS)):
            versions = [generate_document(GeneratorConfig(
                target_nodes=nodes, seed=rng.randrange(2**31)))]
            for _ in range(SERVE_CHAIN - 1):
                versions.append(simulate_changes(
                    versions[-1],
                    weekly_change_profile(rng.randrange(2**31))).new_document)
            self.chains.append([serialize(v) for v in versions])
        self.expected = [[canonical(t) for t in chain] for chain in self.chains]
        self.rng = rng
        self.tracer = tracer
        fresh_dir(workdir)
        self._start_server(os.path.join(workdir, "store.sqlite"))
        # Every commit document exists at version 1 before the window;
        # history[doc][v - 1] is the chain index stored as version v.
        self.history = []
        with DiffClient(self.url, retries=0) as client:
            for index, chain in enumerate(self.chains):
                client.commit(SERVE_STORE, f"doc-{index}", chain[0])
                self.history.append([0])

    def _start_server(self, store_path: str) -> None:
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--repo", f"{SERVE_STORE}=sqlite://{store_path}",
             "--workers", "2"],
            cwd=ROOT, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        line = self.server.stderr.readline()
        # Keep reading stderr so the server never blocks writing to it.
        self._drain = threading.Thread(target=self.server.stderr.read)
        self._drain.start()
        match = re.search(r"http://([\d.]+):(\d+)", line)
        if match is None:
            raise RuntimeError(f"server did not start: {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))
        self.url = f"http://{self.host}:{self.port}"
        deadline = time.perf_counter() + SERVE_BOOT_TIMEOUT_S
        with DiffClient(self.url, retries=0) as client:
            while True:
                try:
                    client.healthz()
                    return
                except ClientError:
                    if time.perf_counter() > deadline:
                        raise
                    time.sleep(0.01)

    def _schedule(self, seconds: float):
        """A Poisson arrival process conditioned on its count, so the
        offered rate is exactly ``SERVE_RATE`` on every seed."""
        rng = self.rng
        count = max(1, round(SERVE_RATE * seconds))
        times = sorted(rng.uniform(0.0, seconds) for _ in range(count))
        kinds = [name for name, _ in SERVE_MIX]
        weights = [share for _, share in SERVE_MIX]
        return [(t, rng.choices(kinds, weights)[0], rng.random()) for t in times]

    def _send(self, client, sender, kind, pick, seen):
        """One request; returns (XML bytes carried, response correct).

        Versions read back are kept in ``seen["version"]`` and compared
        after the window, so no check runs inside a timed request.
        """
        if kind == "diff":
            index = int(pick * len(self.pairs))
            old, new = self.pairs[index]
            body = client.diff(old, new)
            seen["diff"][index] = body["stats"]["delta_bytes"]
            return utf8_len(old) + utf8_len(new), "delta" in body
        # Each sender owns its own documents, so its commits to one
        # document are sequential and their versions must count up.
        owned = range(sender, len(self.chains), SERVE_SENDERS)
        doc = owned[int(pick * len(owned))]
        history = self.history[doc]
        if kind == "commit":
            step = (history[-1] + 1) % SERVE_CHAIN
            text = self.chains[doc][step]
            body = client.commit(SERVE_STORE, f"doc-{doc}", text)
            history.append(step)
            return utf8_len(text), body["version"] == len(history)
        version = 1 + int(pick * len(history))
        body = client.get_version(SERVE_STORE, f"doc-{doc}", version)
        seen["version"].append((self.expected[doc][history[version - 1]],
                                body["xml"]))
        return utf8_len(body["xml"]), True

    def _loop(self, schedule, seen):
        """Send the schedule from every sender; one keep-alive client each.

        Returns rows ``(kind, lag, duration, end, bytes, ok)``: duration
        runs from the send, and lag is how late the send was after it was
        due and the sender was free to make it.
        """
        started = time.perf_counter()
        results = [[] for _ in range(SERVE_SENDERS)]

        def sender(number):
            rows = results[number]
            free = started
            with DiffClient(self.url, retries=0) as client:
                for index in range(number, len(schedule), SERVE_SENDERS):
                    due_at, kind, pick = schedule[index]
                    due = started + due_at
                    delay = due - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    with self.tracer.op(index, kind):
                        begin = time.perf_counter()
                        try:
                            with self.tracer.span("client.request", route=kind):
                                size, ok = self._send(
                                    client, number, kind, pick, seen)
                        except (ClientError, KeyError, ValueError) as error:
                            size, ok = 0, False
                            print(f"serve-mixed {kind}: {error!r}",
                                  file=sys.stderr)
                        end = time.perf_counter()
                    rows.append((kind, begin - max(due, free), end - begin,
                                 end, size, ok))
                    free = end

        threads = [
            threading.Thread(target=sender, args=(n,))
            for n in range(SERVE_SENDERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return started, [row for rows in results for row in rows]

    def _scrape(self) -> dict:
        """``GET /metrics`` as ``{series: value}``."""
        connection = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            connection.request("GET", "/metrics")
            text = connection.getresponse().read().decode("utf-8")
        finally:
            connection.close()
        samples = {}
        for line in text.splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                samples[name] = float(value)
        return samples

    def run(self, seconds: float) -> Outcome:
        seen = {"diff": {}, "version": []}
        _, warmup = self._loop(self._schedule(SERVE_WARMUP_S), seen)
        before = self._scrape()
        self.tracer.spans.clear()
        started, rows = self._loop(self._schedule(seconds), seen)
        finished = max(row[3] for row in rows)
        after = self._scrape()
        outcome = Outcome(
            attempted=len(rows) + len(warmup),
            failed=sum(1 for row in rows + warmup if not row[5]),
            window_s=finished - started,
            callers=SERVE_SENDERS,
            in_child=True,
            xml_bytes=sum(row[4] for row in rows),
            lags=[row[1] for row in rows],
        )
        outcome.failed += sum(
            1 for expected, xml in seen["version"] if canonical(xml) != expected)
        for index, delta_bytes in seen["diff"].items():
            old, new = self.pairs[index]
            outcome.delta_bytes += delta_bytes
            outcome.delta_base_bytes += utf8_len(old) + utf8_len(new)
        outcome.layers = self._server_layers(rows, before, after)
        return outcome

    @staticmethod
    def _server_layers(rows, before, after) -> dict:
        def grew(name):
            return after.get(name, 0.0) - before.get(name, 0.0)

        client_s = {kind: 0.0 for kind, _ in SERVE_MIX}
        for kind, _, duration, _, _, _ in rows:
            client_s[kind] += duration
        layers = {}
        server_s = 0.0
        for kind in client_s:
            seconds = grew(f'repro_server_request_seconds_sum{{route="{kind}"}}')
            server_s += seconds
            layers[f"server.request_share.{kind}"] = (
                seconds / client_s[kind] if client_s[kind] else 0.0)
        batches = grew("repro_server_pool_batch_size_count")
        layers["server.batch_size_mean"] = (
            grew("repro_server_pool_batch_size_sum") / batches if batches else 0.0)
        layers["server.rejected"] = sum(
            grew(name) for name in after
            if name.startswith("repro_server_rejected_total"))
        total_s = sum(client_s.values())
        layers["client.transport_share"] = (
            1.0 - server_s / total_s if total_s else 0.0)
        return layers

    def close(self):
        if self.server is None:
            return
        self.server.terminate()
        try:
            self.server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()
        self._drain.join()
        self.server = None


WORKLOADS = {
    "diff-large": DiffLarge,
    "crawl-commit": CrawlCommit,
    "history-read": HistoryRead,
    "serve-mixed": ServeMixed,
}

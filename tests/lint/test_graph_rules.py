"""Fixture tests for the graph-powered rules (RPR011–RPR014, RPR016).

Each rule gets a bad/good pair written into the harness's fake repo
tree; the bad fixtures exercise the *transitive* machinery (violations
reached only through cross-module call chains), and the good fixtures
pin the degrade-to-unknown contract — dynamic dispatch and sanctioned
patterns must stay clean.
"""

from __future__ import annotations

import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def rule_ids(findings):
    return {finding.rule for finding in findings}


class TestRPR011Transitive:
    def test_blocking_two_sync_hops_away_is_flagged(self, harness):
        # Regression: the pre-graph RPR011 only scanned calls written
        # directly inside ``async def`` bodies, so this exact shape —
        # coroutine -> sync helper -> sync helper -> time.sleep, with
        # the helpers in a different module — passed clean.  The
        # transitive walk must flag it and show the chain.
        harness.write(
            "src/repro/net/server.py",
            """
            from repro.net.backoff import pause

            async def handle(request):
                pause(request)
                return request
            """,
        )
        harness.write(
            "src/repro/net/backoff.py",
            """
            import time

            def pause(request):
                settle(request)

            def settle(request):
                time.sleep(0.05)
            """,
        )
        report = harness.lint_tree(rules=["RPR011"])
        findings = list(report.new)
        assert rule_ids(findings) == {"RPR011"}
        (finding,) = findings
        assert "in async def handle" in finding.message
        assert "time.sleep" in finding.message
        # The message carries the full call path to the sink.
        assert (
            "repro.net.server.handle -> repro.net.backoff.pause "
            "-> repro.net.backoff.settle" in finding.message
        )
        # Flagged AT the blocking site, not at the coroutine.
        assert finding.path.endswith("backoff.py")

    def test_aliased_import_of_blocking_helper_is_flagged(self, harness):
        findings = harness.lint(
            "src/repro/service/poller.py",
            """
            from time import sleep as snooze

            async def poll():
                snooze(1.0)
            """,
            rules=["RPR011"],
        )
        assert rule_ids(findings) == {"RPR011"}
        assert "time.sleep" in findings[0].message

    def test_chain_through_coroutine_is_not_followed(self, harness):
        # ``await other()`` hands off to another coroutine — that
        # coroutine is its own entry and its own (clean) body; the
        # sync-only walk must not cross the async boundary and then
        # double-report.
        harness.write(
            "src/repro/net/relay.py",
            """
            import asyncio

            async def outer():
                await inner()

            async def inner():
                await asyncio.sleep(0.1)
            """,
        )
        report = harness.lint_tree(rules=["RPR011"])
        assert list(report.new) == []

    def test_executor_reference_stays_clean(self, harness):
        # Handing the blocking helper to run_in_executor by reference
        # is the sanctioned pattern — no call edge, no finding.
        harness.write(
            "src/repro/net/offload.py",
            """
            import asyncio
            import time

            def blocking_backend(query):
                time.sleep(0.01)
                return query

            async def handle(query):
                loop = asyncio.get_running_loop()
                return await loop.run_in_executor(
                    None, lambda: blocking_backend(query)
                )
            """,
        )
        report = harness.lint_tree(rules=["RPR011"])
        assert list(report.new) == []


class TestRPR012LockOrder:
    def test_opposite_order_across_modules_is_flagged(self, harness):
        # a.py holds membership while (transitively) acquiring the
        # stats lock; b.py holds stats while reaching back into a
        # membership-locked method.  The cycle only exists across the
        # module boundary — each file alone is consistent.
        harness.write(
            "src/repro/service/a.py",
            """
            import threading

            from repro.service.b import Stats

            class Service:
                def __init__(self):
                    self._membership_lock = threading.Lock()
                    self._stats = Stats()

                def add_host(self, host):
                    with self._membership_lock:
                        self._stats.record(host)

                def locked_refresh(self):
                    with self._membership_lock:
                        pass
            """,
        )
        harness.write(
            "src/repro/service/b.py",
            """
            import threading

            class Stats:
                def __init__(self):
                    self._stats_lock = threading.Lock()

                def record(self, host):
                    with self._stats_lock:
                        pass

                def flush(self, service):
                    with self._stats_lock:
                        service.locked_refresh()
            """,
        )
        report = harness.lint_tree(rules=["RPR012"])
        findings = list(report.new)
        assert rule_ids(findings) == {"RPR012"}
        assert any("lock order cycle" in f.message for f in findings)
        # The transitive edge carries the call path that closes it.
        assert any("via" in f.message for f in findings)

    def test_consistent_global_order_is_clean(self, harness):
        harness.write(
            "src/repro/service/ordered.py",
            """
            import threading

            class Service:
                def __init__(self):
                    self._outer = threading.Lock()
                    self._inner = threading.Lock()

                def add(self):
                    with self._outer:
                        with self._inner:
                            pass

                def remove(self):
                    with self._outer:
                        with self._inner:
                            pass
            """,
        )
        report = harness.lint_tree(rules=["RPR012"])
        assert list(report.new) == []

    def test_rlock_reentrancy_is_not_a_cycle(self, harness):
        # adopt() -> build() under the same RLock re-acquires the same
        # identity — deliberate reentrancy, not an ordering edge.
        harness.write(
            "src/repro/core/reentrant.py",
            """
            import threading

            class Substrate:
                def __init__(self):
                    self._lock = threading.RLock()

                def adopt(self):
                    with self._lock:
                        return self.build()

                def build(self):
                    with self._lock:
                        return object()
            """,
        )
        report = harness.lint_tree(rules=["RPR012"])
        assert list(report.new) == []


EXCEPTIONS_MODULE = """
class ReproError(Exception):
    code = 1


class ServiceError(ReproError):
    code = 7
"""


class TestRPR013WireContract:
    def test_uncoded_raise_two_hops_from_handler_is_flagged(
        self, harness
    ):
        harness.write("src/repro/exceptions.py", EXCEPTIONS_MODULE)
        harness.write(
            "src/repro/net/server.py",
            """
            from repro.service.backend import run

            async def handle(payload):
                return run(payload)
            """,
        )
        harness.write(
            "src/repro/service/backend.py",
            """
            def run(payload):
                return check(payload)

            def check(payload):
                if not payload:
                    raise ValueError("empty payload")
                return payload
            """,
        )
        report = harness.lint_tree(rules=["RPR013"])
        findings = list(report.new)
        assert rule_ids(findings) == {"RPR013"}
        (finding,) = findings
        assert "ValueError" in finding.message
        assert "reachable via" in finding.message
        assert finding.path.endswith("backend.py")

    def test_project_exception_without_code_is_flagged(self, harness):
        harness.write("src/repro/exceptions.py", EXCEPTIONS_MODULE)
        harness.write(
            "src/repro/net/framing.py",
            """
            class FrameTooBig(Exception):
                pass
            """,
        )
        harness.write(
            "src/repro/net/protocol.py",
            """
            from repro.net.framing import FrameTooBig

            def decode(frame):
                if len(frame) > 1024:
                    raise FrameTooBig("oversized")
                return frame
            """,
        )
        report = harness.lint_tree(rules=["RPR013"])
        findings = list(report.new)
        assert rule_ids(findings) == {"RPR013"}
        assert "FrameTooBig" in findings[0].message
        assert "stable wire code" in findings[0].message

    def test_coded_raises_and_control_flow_are_clean(self, harness):
        harness.write("src/repro/exceptions.py", EXCEPTIONS_MODULE)
        harness.write(
            "src/repro/net/server.py",
            """
            import asyncio

            from repro.exceptions import ServiceError as Boom

            async def handle(payload):
                if payload is None:
                    raise asyncio.CancelledError()
                if not payload:
                    raise Boom("empty")  # aliased import: still coded
                return payload
            """,
        )
        report = harness.lint_tree(rules=["RPR013"])
        assert list(report.new) == []

    def test_unreachable_raise_is_not_flagged(self, harness):
        harness.write("src/repro/exceptions.py", EXCEPTIONS_MODULE)
        harness.write(
            "src/repro/net/server.py",
            """
            async def handle(payload):
                return payload
            """,
        )
        harness.write(
            "src/repro/datasets/loader.py",
            """
            def load(path):
                raise ValueError("not on any wire path")
            """,
        )
        report = harness.lint_tree(rules=["RPR013"])
        assert list(report.new) == []


SUBSTRATE_MODULE = """
import threading


class AggregationSubstrate:
    def __init__(self, hosts):
        self._lock = threading.RLock()
        self._hosts = hosts

    def build(self):
        with self._lock:
            self._hosts = list(self._hosts)

    def adopt_view(self):
        with self._lock:
            return object()

    def adopt(self):
        with self._lock:
            return object()
"""


class TestRPR014SnapshotDiscipline:
    def test_mutation_on_query_path_is_flagged(self, harness):
        harness.write(
            "src/repro/core/decentralized.py", SUBSTRATE_MODULE
        )
        harness.write(
            "src/repro/service/core.py",
            """
            from repro.core.decentralized import AggregationSubstrate

            class Service:
                def __init__(self, hosts):
                    self._substrate = AggregationSubstrate(hosts)

                def submit(self, query):
                    self._substrate.build()
                    return self._substrate.adopt_view()
            """,
        )
        report = harness.lint_tree(rules=["RPR014"])
        findings = list(report.new)
        assert rule_ids(findings) == {"RPR014"}
        (finding,) = findings
        assert "mutating substrate call .build()" in finding.message
        assert "adopt_view()" in finding.message

    def test_mutation_via_helper_chain_is_flagged_with_path(
        self, harness
    ):
        harness.write(
            "src/repro/core/decentralized.py", SUBSTRATE_MODULE
        )
        harness.write(
            "src/repro/service/core.py",
            """
            from repro.service.helpers import refresh

            class Service:
                def __init__(self, substrate):
                    self._substrate = substrate

                def submit(self, query):
                    return refresh(self._substrate, query)
            """,
        )
        harness.write(
            "src/repro/service/helpers.py",
            """
            def refresh(substrate, query):
                substrate.build()
                return substrate.adopt_view()
            """,
        )
        report = harness.lint_tree(rules=["RPR014"])
        findings = list(report.new)
        assert rule_ids(findings) == {"RPR014"}
        (finding,) = findings
        assert finding.path.endswith("helpers.py")
        assert "reachable via" in finding.message

    def test_view_rebinding_is_flagged(self, harness):
        harness.write(
            "src/repro/core/decentralized.py", SUBSTRATE_MODULE
        )
        harness.write(
            "src/repro/service/core.py",
            """
            from repro.core.decentralized import AggregationSubstrate

            class Service:
                def __init__(self, hosts):
                    self._substrate = AggregationSubstrate(hosts)

                def submit(self, query):
                    view = self._substrate.adopt_view()
                    view.csr = None
                    return view
            """,
        )
        report = harness.lint_tree(rules=["RPR014"])
        findings = list(report.new)
        assert rule_ids(findings) == {"RPR014"}
        assert "adopted KernelView state" in findings[0].message

    def test_membership_path_may_mutate(self, harness):
        harness.write(
            "src/repro/core/decentralized.py", SUBSTRATE_MODULE
        )
        harness.write(
            "src/repro/service/core.py",
            """
            from repro.core.decentralized import AggregationSubstrate

            class Service:
                def __init__(self, hosts):
                    self._substrate = AggregationSubstrate(hosts)

                def add_host(self, host):
                    self._substrate.build()

                def submit(self, query):
                    return self._substrate.adopt_view()
            """,
        )
        report = harness.lint_tree(rules=["RPR014"])
        assert list(report.new) == []

    def test_typed_memo_beats_name_heuristic(self, harness):
        # Regression: ``self._substrate`` here is a GenerationMemo
        # *holding* a substrate — the name heuristic alone would flag
        # ``.get_or_build()``, but the inferred constructor type must
        # win and keep it clean.
        harness.write(
            "src/repro/core/decentralized.py", SUBSTRATE_MODULE
        )
        harness.write(
            "src/repro/service/memo.py",
            """
            class GenerationMemo:
                def __init__(self):
                    self._value = None

                def get_or_build(self, build):
                    if self._value is None:
                        self._value = build()
                    return self._value
            """,
        )
        harness.write(
            "src/repro/service/core.py",
            """
            from repro.service.memo import GenerationMemo

            class Service:
                def __init__(self):
                    self._substrate = GenerationMemo()

                def submit(self, query):
                    return self._substrate.get_or_build(object)
            """,
        )
        report = harness.lint_tree(rules=["RPR014"])
        assert list(report.new) == []


MEMO_MODULE = """
class AnswerTableMemo:
    def __init__(self):
        self._entries = {}

    def get(self, snapped, generation):
        return self._entries.get((snapped, generation))

    def put(self, snapped, generation, value):
        self._entries[(snapped, generation)] = value

    def patch(self, generation, patcher):
        return 0
"""


class TestRPR016ChurnPatchDiscipline:
    def test_memo_patch_on_query_path_is_flagged(self, harness):
        harness.write("src/repro/service/cache.py", MEMO_MODULE)
        harness.write(
            "src/repro/service/core.py",
            """
            from repro.service.cache import AnswerTableMemo

            class Service:
                def __init__(self):
                    self._answer_tables = AnswerTableMemo()

                def submit(self, query):
                    self._answer_tables.patch(1, lambda s, t: t)
                    return self._answer_tables.get(30.0, 1)
            """,
        )
        report = harness.lint_tree(rules=["RPR016"])
        findings = list(report.new)
        assert rule_ids(findings) == {"RPR016"}
        (finding,) = findings
        assert "churn patch .patch()" in finding.message
        assert "membership lock" in finding.message

    def test_csr_splice_via_helper_chain_is_flagged_with_path(
        self, harness
    ):
        harness.write(
            "src/repro/service/core.py",
            """
            from repro.service.helpers import refresh

            class Service:
                def submit(self, query):
                    return refresh(query)
            """,
        )
        harness.write(
            "src/repro/service/helpers.py",
            """
            def refresh(query):
                csr = query.view.csr
                csr.patch_join(query.host, 0, query.distances)
                csr.parent[0] = -1
                return csr
            """,
        )
        report = harness.lint_tree(rules=["RPR016"])
        findings = list(report.new)
        assert rule_ids(findings) == {"RPR016"}
        assert len(findings) == 2
        splice, write = sorted(findings, key=lambda f: f.line)
        assert ".patch_join()" in splice.message
        assert "reachable via" in splice.message
        assert splice.path.endswith("helpers.py")
        assert "write to compiled CSR state (.parent)" in write.message

    def test_membership_path_may_patch(self, harness):
        harness.write("src/repro/service/cache.py", MEMO_MODULE)
        harness.write(
            "src/repro/service/core.py",
            """
            from repro.service.cache import AnswerTableMemo

            class Service:
                def __init__(self):
                    self._answer_tables = AnswerTableMemo()

                def add_host(self, host):
                    self._answer_tables.patch(1, lambda s, t: t)

                def submit(self, query):
                    # Lazily building and memoizing a table is
                    # sanctioned query-path work.
                    table = self._answer_tables.get(30.0, 1)
                    if table is None:
                        self._answer_tables.put(30.0, 1, object())
                    return table
            """,
        )
        report = harness.lint_tree(rules=["RPR016"])
        assert list(report.new) == []

    def test_typed_receiver_beats_name_heuristic(self, harness):
        # ``self._answer_tables`` here is an LRU cache that happens to
        # expose .patch(); the inferred constructor type must win over
        # the memo-ish name and keep it clean.
        harness.write(
            "src/repro/service/lru.py",
            """
            class LRUCache:
                def patch(self, generation, patcher):
                    return 0
            """,
        )
        harness.write(
            "src/repro/service/core.py",
            """
            from repro.service.lru import LRUCache

            class Service:
                def __init__(self):
                    self._answer_tables = LRUCache()

                def submit(self, query):
                    return self._answer_tables.patch(1, lambda s, t: t)
            """,
        )
        report = harness.lint_tree(rules=["RPR016"])
        assert list(report.new) == []


class TestFullRepoBudget:
    def test_full_repo_lint_stays_fast(self):
        # The graph is built once per run and resolution is memoized;
        # linting the real tree (all rules, graph rules included) must
        # stay interactive.  Generous ceiling for slow CI runners —
        # typical local wall-clock is ~2s.
        from repro.lint import lint_paths
        from repro.lint.baseline import Baseline

        start = time.perf_counter()
        report = lint_paths(
            [REPO_ROOT / "src", REPO_ROOT / "scripts"],
            baseline=Baseline.load(REPO_ROOT / "lint_baseline.json"),
        )
        elapsed = time.perf_counter() - start
        assert list(report.new) == []
        assert elapsed < 20.0, f"full-repo lint took {elapsed:.1f}s"

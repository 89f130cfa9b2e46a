"""O501 observability-gating rule over the engine hot modules."""

from __future__ import annotations

from .conftest import rule_ids


class TestUngatedFlagged:
    def test_ungated_counter_update_flagged(self, lint_tree):
        report = lint_tree(
            {
                "src/repro/core/fastpath.py": """\
                def run(requests, rec_serves):
                    for i in requests:
                        rec_serves[i] += 1
                """
            }
        )
        assert rule_ids(report) == ["O501"]

    def test_ungated_trace_call_flagged(self, lint_tree):
        report = lint_tree(
            {
                "src/repro/core/engine.py": """\
                def run(requests, trace_emit):
                    for i in requests:
                        trace_emit(i)
                """
            }
        )
        assert rule_ids(report) == ["O501"]

    def test_ungated_observer_method_flagged(self, lint_tree):
        report = lint_tree(
            {
                "src/repro/core/engine.py": """\
                def run(requests, observer):
                    for i in requests:
                        observer.on_request(i)
                """
            }
        )
        assert rule_ids(report) == ["O501"]

    def test_unrelated_guard_does_not_gate(self, lint_tree):
        # An `if` must test a *sink* name to count as the gate.
        report = lint_tree(
            {
                "src/repro/core/fastpath.py": """\
                def run(requests, rec_serves, measured):
                    for i in requests:
                        if measured:
                            rec_serves[i] += 1
                """
            }
        )
        assert rule_ids(report) == ["O501"]

    def test_unrelated_gate_around_loop_does_not_gate(self, lint_tree):
        report = lint_tree(
            {
                "src/repro/core/fastpath.py": """\
                def account(nodes, counts, rec_serves):
                    if counts:
                        for node in nodes:
                            rec_serves[node] += 1
                """
            }
        )
        assert rule_ids(report) == ["O501"]

    def test_gate_around_def_does_not_cover_its_loops(self, lint_tree):
        report = lint_tree(
            {
                "src/repro/core/fastpath.py": """\
                def run(requests, observing):
                    if observing:
                        def count(rec_serves):
                            for i in requests:
                                rec_serves[i] += 1
                        return count
                """
            }
        )
        assert rule_ids(report) == ["O501"]

    def test_while_loop_also_covered(self, lint_tree):
        report = lint_tree(
            {
                "src/repro/core/fastpath.py": """\
                def drain(queue, rec_evicts):
                    while queue:
                        queue.pop()
                        rec_evicts[0] += 1
                """
            }
        )
        assert rule_ids(report) == ["O501"]

    def test_ungated_copy_count_in_node_filter_flagged(self, lint_tree):
        # The per-node filter cascade: a filter loop over one node's
        # requests must gate its copy counts like the decide loop does.
        report = lint_tree(
            {
                "src/repro/core/fastpath.py": """\
                def cascade(groups, caches, rec):
                    for node, objects in groups:
                        for obj in objects:
                            if not caches[node].lookup(obj):
                                rec.copies[node] += 1
                """
            }
        )
        assert rule_ids(report) == ["O501"]


class TestGatedAllowed:
    def test_gated_per_node_counts_allowed(self, lint_tree):
        # Counting once per node group, behind the gate, is the
        # cascade's pattern.
        report = lint_tree(
            {
                "src/repro/core/fastpath.py": """\
                def cascade(groups, node_filter, observing, admit, rec_copies):
                    for node, objects in groups:
                        misses = node_filter(node, objects)
                        if observing and admit:
                            rec_copies[node] += misses
                """
            }
        )
        assert rule_ids(report) == []

    def test_bool_gate_allowed(self, lint_tree):
        report = lint_tree(
            {
                "src/repro/core/fastpath.py": """\
                def run(requests, rec_serves, observing):
                    for i in requests:
                        if observing:
                            rec_serves[i] += 1
                """
            }
        )
        assert rule_ids(report) == []

    def test_is_not_none_gate_allowed(self, lint_tree):
        report = lint_tree(
            {
                "src/repro/core/engine.py": """\
                def run(requests, rec):
                    for i in requests:
                        if rec is not None:
                            rec.serves[i] += 1
                """
            }
        )
        assert rule_ids(report) == []

    def test_sampler_call_in_gate_test_allowed(self, lint_tree):
        # The gate's own test may read the sink (`trace_wants(i)`): that
        # is the one permitted per-iteration cost.
        report = lint_tree(
            {
                "src/repro/core/engine.py": """\
                def run(requests, trace_wants, trace_emit):
                    for i in requests:
                        if trace_wants is not None and trace_wants(i):
                            trace_emit(i)
                """
            }
        )
        assert rule_ids(report) == []

    def test_outer_gate_covers_inner_loop(self, lint_tree):
        report = lint_tree(
            {
                "src/repro/core/fastpath.py": """\
                def run(requests, rec_evicts, observing):
                    for i in requests:
                        if observing:
                            while rec_evicts[i] > 0:
                                rec_evicts[i] -= 1
                """
            }
        )
        assert rule_ids(report) == []

    def test_gate_around_loop_covers_it(self, lint_tree):
        # A loop that only runs with a sink attached costs nothing when
        # observability is off (per-block trace emission).
        report = lint_tree(
            {
                "src/repro/core/fastpath.py": """\
                def account(sampled, tracer):
                    if tracer is not None:
                        for k in sampled:
                            tracer.emit_request(k)
                """
            }
        )
        assert rule_ids(report) == []

    def test_outside_loop_allowed(self, lint_tree):
        # Straight-line setup/teardown costs one branch per run, not
        # one per request; only loop bodies are in scope.
        report = lint_tree(
            {
                "src/repro/core/engine.py": """\
                def run(requests, observer):
                    rec = observer.start_run()
                    total = 0
                    for i in requests:
                        total += i
                    observer.finish_run(rec, total)
                    return total
                """
            }
        )
        assert rule_ids(report) == []

    def test_non_sink_names_ignored(self, lint_tree):
        report = lint_tree(
            {
                "src/repro/core/fastpath.py": """\
                def run(requests, record_table):
                    for i in requests:
                        record_table[i] += 1
                """
            }
        )
        assert rule_ids(report) == []

    def test_other_modules_out_of_scope(self, lint_tree):
        # O501 is an engine hot-loop contract; repro.obs itself (and
        # everything else) may call its own sinks freely.
        report = lint_tree(
            {
                "src/repro/obs/sink.py": """\
                def flush(rec_serves, items):
                    for i in items:
                        rec_serves[i] += 1
                """
            }
        )
        assert rule_ids(report) == []

    def test_inline_suppression_honored(self, lint_tree):
        report = lint_tree(
            {
                "src/repro/core/engine.py": """\
                def run(requests, trace_emit):
                    for i in requests:
                        trace_emit(i)  # lint: disable=O501 -- traced build
                """
            }
        )
        assert rule_ids(report) == []
        assert report.suppressed == 1

"""Worker fault plans: the harness-chaos spec grammar and its routing.

These faults target the *real worker processes* behind the sharded
runtime (``--chaos-workers``), not the simulated world — the grammar
must round-trip exactly and route each entry to the right side of the
pipe (parent-side kills vs worker-side hangs/slows).
"""

import contextlib
import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.faults import WorkerFault, WorkerFaultPlan
from repro.faults.worker import ACTIONS, DEFAULT_SLOW_S, SCOPES

pytestmark = pytest.mark.quick


class TestSpecGrammar:
    def test_parse_round_trips_exactly(self):
        spec = "kill:shard:0:2,hang:shard:1:3,slow:cloud:0:1:0.2"
        plan = WorkerFaultPlan.parse(spec)
        assert len(plan) == 3
        assert plan.armed
        assert plan.spec() == spec

    def test_empty_spec_is_unarmed(self):
        plan = WorkerFaultPlan.parse("")
        assert not plan.armed
        assert len(plan) == 0
        assert plan.spec() == ""

    def test_blank_entries_and_whitespace_ignored(self):
        plan = WorkerFaultPlan.parse(" kill:shard:0:2 , ,hang:cloud:1:4,")
        assert [f.action for f in plan.faults] == ["kill", "hang"]

    def test_slow_without_delay_gets_the_default(self):
        plan = WorkerFaultPlan.parse("slow:shard:0:1")
        assert plan.faults[0].delay_s == DEFAULT_SLOW_S

    @pytest.mark.parametrize("bad", [
        "kill:shard:0",             # too few fields
        "kill:shard:0:2:0.5",       # delay on a non-slow action
        "boom:shard:0:1",           # unknown action
        "kill:edge:0:1",            # unknown scope
        "kill:shard:x:1",           # non-integer worker
        "kill:shard:0:zero",        # non-integer op
        "kill:shard:0:0",           # op indices are 1-based
        "kill:shard:-1:1",          # negative worker
        "slow:shard:0:1:-0.5",      # negative delay
    ])
    def test_bad_entries_rejected(self, bad):
        with pytest.raises(ValueError):
            WorkerFaultPlan.parse(bad)

    @pytest.mark.parametrize("delay", ["nan", "inf", "-inf"])
    def test_non_finite_delay_rejected_everywhere(self, delay, capsys):
        from repro.experiments.__main__ import main
        spec = f"slow:shard:0:1:{delay}"
        with pytest.raises(ValueError) as parsed:
            WorkerFaultPlan.parse(spec)
        with pytest.raises(ValueError) as built:
            WorkerFault("slow", "shard", 0, 1, delay_s=float(delay))
        with pytest.raises(SystemExit) as cli:
            main(["--chaos-workers", spec])
        assert cli.value.code == 2
        assert "finite and non-negative" in str(parsed.value)
        assert str(parsed.value) == str(built.value)
        assert f"error: {parsed.value}\n" in capsys.readouterr().err


_DELAYS = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)


@st.composite
def _faults(draw):
    action = draw(st.sampled_from(ACTIONS))
    return WorkerFault(
        action=action, scope=draw(st.sampled_from(SCOPES)),
        worker=draw(st.integers(0, 64)), op=draw(st.integers(1, 10**6)),
        delay_s=draw(_DELAYS) if action == "slow" else DEFAULT_SLOW_S)


_FIELD = st.text(alphabet="abcdefghiklmnorstuwxy0123456789.+-e",
                 max_size=8)


@st.composite
def _malformed_entries(draw):
    """One entry with a single flaw: a wrong field count, an unknown
    action or scope, a non-integer or out-of-range index, or a delay
    that is misplaced, unparsable, negative or non-finite."""
    fields = [draw(st.sampled_from(ACTIONS)), draw(st.sampled_from(SCOPES)),
              str(draw(st.integers(0, 64))), str(draw(st.integers(1, 99)))]
    flaw = draw(st.integers(0, 7))
    if flaw == 0:
        fields = draw(st.one_of(
            st.lists(_FIELD.filter(bool), min_size=1, max_size=3),
            st.lists(_FIELD, min_size=6, max_size=8)))
    elif flaw == 1:
        fields[0] = draw(_FIELD.filter(lambda f: f not in ACTIONS))
    elif flaw == 2:
        fields[1] = draw(_FIELD.filter(lambda f: f not in SCOPES))
    elif flaw == 3:
        index = draw(st.sampled_from((2, 3)))
        fields[index] = draw(_FIELD.filter(
            lambda f: not f.strip().lstrip("+-").isdigit()))
    elif flaw == 4:
        fields[2] = str(draw(st.integers(max_value=-1)))
    elif flaw == 5:
        fields[3] = str(draw(st.integers(max_value=0)))
    elif flaw == 6:
        fields[0] = draw(st.sampled_from(("kill", "hang")))
        fields.append(str(draw(_DELAYS)))
    else:
        fields[0] = "slow"
        fields.append(draw(st.one_of(
            st.sampled_from(("nan", "inf", "-inf")),
            st.floats(max_value=-1e-9).map(str),
            _FIELD.filter(lambda f: not _is_float(f)))))
    return ":".join(fields)


def _is_float(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


class TestSpecProperties:
    @given(st.lists(_faults(), max_size=6))
    def test_spec_round_trips(self, faults):
        plan = WorkerFaultPlan(faults=tuple(faults))
        assert WorkerFaultPlan.parse(plan.spec()) == plan

    @given(_malformed_entries())
    def test_parse_and_cli_reject_with_one_message(self, entry):
        from repro.experiments.__main__ import main
        with pytest.raises(ValueError) as parsed:
            WorkerFaultPlan.parse(entry)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), \
                pytest.raises(SystemExit) as cli:
            main([f"--chaos-workers={entry}"])
        assert cli.value.code == 2
        assert f"error: {parsed.value}\n" in stderr.getvalue()


class TestRouting:
    PLAN = WorkerFaultPlan.parse(
        "kill:shard:0:2,kill:shard:0:5,kill:cloud:0:2,"
        "hang:shard:1:3,slow:shard:1:6:0.2")

    def test_kill_ops_filter_by_scope_and_worker(self):
        assert self.PLAN.kill_ops("shard", 0) == frozenset({2, 5})
        assert self.PLAN.kill_ops("cloud", 0) == frozenset({2})
        assert self.PLAN.kill_ops("shard", 1) == frozenset()

    def test_worker_side_carries_only_hang_and_slow(self):
        triples = self.PLAN.worker_side("shard", 1)
        assert ("hang", 3, DEFAULT_SLOW_S) in triples
        assert ("slow", 6, 0.2) in triples
        assert all(action != "kill" for action, _, _ in triples)
        assert self.PLAN.worker_side("shard", 0) == ()

    def test_fault_validation_on_direct_construction(self):
        with pytest.raises(ValueError):
            WorkerFault("kill", "shard", 0, 0)
        with pytest.raises(ValueError):
            WorkerFault("hang", "nowhere", 0, 1)

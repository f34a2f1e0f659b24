"""Fixture-driven positive + negative tests, one block per rule.

The D2 and D6 blocks keep their historical names: those checks are now
part of F2 (determinism-taint) and F3 (loss-typestate), and the
findings carry the F ids.

Each rule gets at least one snippet it must flag and one idiomatic
snippet it must stay silent on; zone scoping is exercised by linting the
same source under different virtual ``repro/...`` paths.
"""

import pytest

from repro.lint import RULES, LintConfig, lint_source

CORE = "repro/core/_snippet.py"
GF = "repro/gf/_snippet.py"
WORKLOADS = "repro/workloads/_snippet.py"
ANALYSIS = "repro/analysis/_snippet.py"


def rules_of(findings):
    return sorted({f.rule for f in findings})


# ---------------------------------------------------------------------------
# D1 -- set iteration

#: module-level set literals in the fixtures would also trip D5; the
#: select isolates the rule under test
D1_ONLY = LintConfig(select=frozenset({"D1"}))


class TestD1SetIteration:
    def test_for_loop_over_set_literal_flagged(self):
        found = lint_source("for x in {1, 2, 3}:\n    print(x)\n", CORE)
        assert rules_of(found) == ["D1"]
        assert found[0].line == 1

    def test_for_loop_over_set_typed_name_flagged(self):
        src = "s: set[int] = make()\nfor x in s:\n    use(x)\n"
        assert rules_of(lint_source(src, CORE)) == ["D1"]

    def test_assignment_propagates_set_type(self):
        src = "a = {1, 2}\nb = a\nfor x in b:\n    use(x)\n"
        assert rules_of(lint_source(src, CORE, D1_ONLY)) == ["D1"]

    def test_set_operator_result_is_a_set(self):
        src = "a = {1}\nb = {2}\nxs = list(a | b)\n"
        assert rules_of(lint_source(src, CORE, D1_ONLY)) == ["D1"]

    def test_annotated_parameter_tracked(self):
        src = (
            "def f(s: set[int]) -> list[int]:\n"
            "    return [x for x in s]\n"
        )
        assert rules_of(lint_source(src, CORE)) == ["D1"]

    def test_sorted_iteration_clean(self):
        src = "s = {3, 1, 2}\nfor x in sorted(s):\n    use(x)\n"
        assert lint_source(src, CORE, D1_ONLY) == []

    def test_order_insensitive_consumers_clean(self):
        src = (
            "s = {1, 2}\n"
            "n = len(s)\n"
            "t = sum(v for v in s)\n"
            "ok = all(v > 0 for v in s)\n"
            "m = min(s)\n"
        )
        assert lint_source(src, CORE, D1_ONLY) == []

    def test_set_comprehension_over_set_clean(self):
        # building a set from a set is order-insensitive
        src = "s = {1, 2}\nt = {x + 1 for x in s}\n"
        assert lint_source(src, CORE, D1_ONLY) == []

    def test_list_comprehension_over_set_flagged(self):
        src = "s = {1, 2}\nxs = [x for x in s]\n"
        assert rules_of(lint_source(src, CORE, D1_ONLY)) == ["D1"]

    def test_outside_deterministic_zone_clean(self):
        src = "for x in {1, 2, 3}:\n    print(x)\n"
        assert lint_source(src, ANALYSIS) == []

    def test_dict_iteration_not_flagged(self):
        # dicts are insertion-ordered; only sets are hazards
        src = "d = {1: 2}\nfor k in d:\n    use(k)\n"
        assert lint_source(src, CORE, D1_ONLY) == []


# ---------------------------------------------------------------------------
# D2 -- unseeded randomness / wall clock (reported as F2)


class TestD2UnseededRandomness:
    def test_global_random_flagged(self):
        src = "import random\nx = random.random()\n"
        assert rules_of(lint_source(src, CORE)) == ["F2"]

    def test_seeded_random_instance_clean(self):
        src = "import random\nrng = random.Random(42)\nx = rng.random()\n"
        assert lint_source(src, CORE) == []

    def test_numpy_legacy_global_flagged(self):
        src = "import numpy as np\nx = np.random.rand(4)\n"
        assert rules_of(lint_source(src, CORE)) == ["F2"]

    def test_seeded_default_rng_clean(self):
        src = "import numpy as np\nrng = np.random.default_rng(7)\n"
        assert lint_source(src, CORE) == []

    def test_unseeded_default_rng_flagged(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert rules_of(lint_source(src, CORE)) == ["F2"]

    @pytest.mark.parametrize("call", [
        "np.random.SeedSequence([3, 1])",
        "np.random.SeedSequence(entropy=3)",
        "np.random.PCG64(1)",
        "np.random.PCG64DXSM(seed=1)",
        "np.random.Philox(1)",
        "np.random.SFC64(1)",
        "np.random.MT19937(1)",
        "np.random.Generator(np.random.PCG64(1))",
    ])
    def test_seeded_bit_generators_clean(self, call):
        src = f"import numpy as np\nbits = {call}\n"
        assert lint_source(src, CORE) == []

    @pytest.mark.parametrize("call", [
        "SeedSequence()", "SeedSequence(pool_size=8)", "PCG64()",
        "PCG64DXSM()", "Philox()", "SFC64()", "MT19937()",
    ])
    def test_unseeded_bit_generators_flagged(self, call):
        src = f"import numpy as np\nbits = np.random.{call}\n"
        found = lint_source(src, CORE)
        assert rules_of(found) == ["F2"]
        assert "without a seed" in found[0].message

    def test_wall_clock_flagged(self):
        src = "import time\nt = time.time()\n"
        assert rules_of(lint_source(src, CORE)) == ["F2"]

    def test_perf_counter_clean(self):
        # duration measurement is legal; it never feeds simulation state
        src = "import time\nt = time.perf_counter()\n"
        assert lint_source(src, CORE) == []

    def test_workloads_function_scope_relaxed(self):
        src = (
            "import random\n"
            "def plan(seed):\n"
            "    return random.random()\n"
        )
        assert lint_source(src, WORKLOADS) == []

    def test_workloads_module_level_still_flagged(self):
        src = "import random\nX = random.random()\n"
        assert rules_of(lint_source(src, WORKLOADS)) == ["F2"]

    def test_from_import_binding_flagged(self):
        src = "from random import randrange\nx = randrange(10)\n"
        assert rules_of(lint_source(src, CORE)) == ["F2"]

    def test_module_imported_from_its_package_flagged(self):
        src = "from numpy import random as npr\nx = npr.rand(4)\n"
        assert rules_of(lint_source(src, CORE)) == ["F2"]

    @pytest.mark.parametrize("src", [
        "import os\nx = os.urandom(8)\n",
        "import uuid\nx = uuid.uuid4()\n",
        "import secrets\nx = secrets.token_hex()\n",
        "from datetime import datetime\nx = datetime.now()\n",
        "import datetime as dt\nx = dt.date.today()\n",
        "from time import gmtime\nx = gmtime()\n",
    ])
    def test_other_entropy_and_clock_sources_flagged(self, src):
        assert rules_of(lint_source(src, CORE)) == ["F2"]

    @pytest.mark.parametrize("src", [
        "import time\nx = time.gmtime(0)\n",
        "import numpy as np\ndef f(bits):\n    return np.random.Generator(bits)\n",
        "import uuid\nx = uuid.uuid5(uuid.NAMESPACE_DNS, 'a')\n",
        "def f(clock):\n    return clock.time()\n",
    ])
    def test_seeded_or_supplied_inputs_clean(self, src):
        assert lint_source(src, CORE) == []

    def test_environment_read_in_deterministic_zone_flagged(self):
        src = "import os\ndef f():\n    return os.environ['X']\n"
        found = lint_source(src, CORE)
        assert rules_of(found) == ["F2"]
        assert "process environment" in found[0].message


# ---------------------------------------------------------------------------
# D3 -- float arithmetic in field zones


class TestD3FloatArithmetic:
    def test_true_division_flagged(self):
        assert rules_of(lint_source("x = a / b\n", GF)) == ["D3"]

    def test_float_literal_flagged(self):
        assert rules_of(lint_source("x = 0.5\n", GF)) == ["D3"]

    def test_float_call_flagged(self):
        assert rules_of(lint_source("x = float(n)\n", GF)) == ["D3"]

    def test_aug_div_flagged(self):
        assert rules_of(lint_source("x /= 2\n", GF)) == ["D3"]

    def test_floor_division_clean(self):
        assert lint_source("x = a // b\n", GF) == []

    def test_outside_field_zone_clean(self):
        assert lint_source("x = a / b\n", CORE) == []

    def test_noqa_suppresses(self):
        assert lint_source("x = 1.5  # noqa: D3\n", GF) == []


# ---------------------------------------------------------------------------
# D4 -- observability through the emission API only


class TestD4UnguardedObs:
    """D4 is an allow-list: in a deterministic zone, a call into
    ``repro.obs`` other than ``span``, ``emit``, ``enabled``, the
    ``set_*`` installers and the record types is a finding, guarded or
    not; an allowed call is clean wherever it sits."""

    OBS_IMPORT = "import repro.obs as _obs\n"

    def test_unguarded_chain_flagged(self):
        found = lint_source(self.OBS_IMPORT + "_obs.tracer().event('x')\n", CORE)
        assert rules_of(found) == ["D4"]
        assert (found[0].line, found[0].col) == (2, 0)

    def test_guarded_chain_clean(self):
        src = self.OBS_IMPORT + (
            "if _obs.enabled():\n"
            "    _obs.emit(_obs.BatchRecord(**cols))\n"
        )
        assert lint_source(src, CORE) == []

    def test_guard_variable_recognized(self):
        src = self.OBS_IMPORT + (
            "obs_on = _obs.enabled()\n"
            "if obs_on:\n"
            "    _obs.emit(_obs.KvRecord('get', (), v, 1))\n"
        )
        assert lint_source(src, CORE) == []

    def test_early_return_guard_clean(self):
        src = self.OBS_IMPORT + (
            "def emit(rec):\n"
            "    if not _obs.enabled():\n"
            "        return\n"
            "    _obs.emit(rec)\n"
        )
        assert lint_source(src, CORE) == []

    def test_bound_tracer_name_flagged(self):
        # flagged where the handle is fetched, not where it is used
        src = self.OBS_IMPORT + (
            "def emit():\n"
            "    tr = _obs.tracer()\n"
            "    tr.event('x')\n"
        )
        found = lint_source(src, CORE)
        assert rules_of(found) == ["D4"] and found[0].line == 3

    def test_walrus_guard_variable_recognized(self):
        src = self.OBS_IMPORT + (
            "if (obs_on := _obs.enabled()):\n"
            "    _obs.emit(rec)\n"
        )
        assert lint_source(src, CORE) == []

    def test_walrus_guard_reused_later_clean(self):
        src = self.OBS_IMPORT + (
            "def emit():\n"
            "    if not (obs_on := _obs.enabled()):\n"
            "        return\n"
            "    if obs_on:\n"
            "        _obs.emit(rec)\n"
        )
        assert lint_source(src, CORE) == []

    def test_attribute_chain_guard_variable_recognized(self):
        src = self.OBS_IMPORT + (
            "class Core:\n"
            "    def __init__(self):\n"
            "        self._on = _obs.enabled()\n"
            "    def emit(self, rec):\n"
            "        if self._on:\n"
            "            _obs.emit(rec)\n"
        )
        assert lint_source(src, CORE) == []

    def test_attribute_bound_tracer_unguarded_flagged(self):
        src = self.OBS_IMPORT + (
            "class Core:\n"
            "    def __init__(self):\n"
            "        self._tr = _obs.tracer()\n"
            "    def emit(self):\n"
            "        self._tr.event('x')\n"
        )
        assert rules_of(lint_source(src, CORE)) == ["D4"]

    def test_walrus_bound_tracer_unguarded_flagged(self):
        src = self.OBS_IMPORT + (
            "def emit():\n"
            "    (tr := _obs.tracer()).event('x')\n"
        )
        assert rules_of(lint_source(src, CORE)) == ["D4"]

    def test_no_obs_import_no_findings(self):
        src = "tracer().event('x')\n"
        assert lint_source(src, CORE) == []

    def test_outside_zone_clean(self):
        src = self.OBS_IMPORT + "_obs.tracer().event('x')\n"
        assert lint_source(src, ANALYSIS) == []

    def test_unguarded_publish_flagged(self):
        src = self.OBS_IMPORT + "_obs.publish('mem.op', var=1)\n"
        assert rules_of(lint_source(src, CORE)) == ["D4"]

    def test_guarded_publish_flagged(self):
        # only repro.obs publishes: a guard does not make it legal
        src = self.OBS_IMPORT + (
            "if _obs.enabled():\n"
            "    _obs.publish('mem.op', var=1)\n"
        )
        assert rules_of(lint_source(src, CORE)) == ["D4"]

    def test_unguarded_bus_chain_flagged(self):
        src = self.OBS_IMPORT + "_obs.bus().publish('x', {})\n"
        assert rules_of(lint_source(src, CORE)) == ["D4"]

    def test_bound_bus_name_flagged(self):
        src = self.OBS_IMPORT + (
            "def emit():\n"
            "    b = _obs.bus()\n"
            "    b.publish('x', {})\n"
        )
        assert rules_of(lint_source(src, CORE)) == ["D4"]

    def test_bound_bus_name_guarded_flagged(self):
        src = self.OBS_IMPORT + (
            "def emit():\n"
            "    if not _obs.enabled():\n"
            "        return\n"
            "    b = _obs.bus()\n"
            "    if b is not None:\n"
            "        b.publish('x', {})\n"
        )
        assert rules_of(lint_source(src, CORE)) == ["D4"]

    def test_emit_is_self_guarded(self):
        src = self.OBS_IMPORT + "_obs.emit(_obs.KvRecord('get', (), v, 1))\n"
        assert lint_source(src, CORE) == []

    def test_dual_guard_early_return_clean(self):
        src = self.OBS_IMPORT + (
            "def emit(rec):\n"
            "    if not _obs.enabled() or rec is None:\n"
            "        return\n"
            "    _obs.emit(rec)\n"
        )
        assert lint_source(src, CORE) == []

    @pytest.mark.parametrize("call", [
        "_obs.metrics().counter('x').inc()",
        "_obs.metrics_enabled()",
        "_obs.on_mpc_step(1, 1, 1)",
    ])
    def test_other_side_channels_flagged(self, call):
        found = lint_source(self.OBS_IMPORT + call + "\n", CORE)
        assert rules_of(found) == ["D4"]

    @pytest.mark.parametrize("body", [
        # a guarded side channel is still a side channel
        "    if _obs.enabled():\n        _obs.tracer().event('x')\n",
        "    tr = _obs.tracer()\n"
        "    if not tr.enabled and _obs.ledger() is None:\n"
        "        return\n"
        "    tr.event('mem.op', var=1)\n",
        "    if _obs.metrics_enabled():\n"
        "        _obs.metrics().counter('x').inc()\n",
    ])
    def test_guard_does_not_make_a_side_channel_legal(self, body):
        src = self.OBS_IMPORT + "def f():\n" + body
        assert rules_of(lint_source(src, CORE)) == ["D4"]

    def test_from_import_flagged(self):
        src = "from repro.obs import tracer as tr\ntr().event('x')\n"
        assert rules_of(lint_source(src, CORE)) == ["D4"]

    def test_package_import_flagged(self):
        src = "import repro.obs\nrepro.obs.metrics()\n"
        assert rules_of(lint_source(src, CORE)) == ["D4"]

    def test_module_imported_from_its_package_flagged(self):
        src = "from repro import obs\nobs.tracer().event('x')\n"
        assert rules_of(lint_source(src, CORE)) == ["D4"]

    def test_from_import_of_allowed_names_clean(self):
        src = "from repro.obs import emit, span\nemit(rec)\nspan('x')\n"
        assert lint_source(src, CORE) == []

    def test_spans_and_installers_clean(self):
        src = self.OBS_IMPORT + (
            "def run(bus, t, led):\n"
            "    with _obs.span('protocol.access', op='read') as sp:\n"
            "        sp.add(rounds=1)\n"
            "    _obs.set_bus(_obs.set_bus(bus))\n"
            "    _obs.set_tracer(t)\n"
            "    _obs.set_ledger(led)\n"
        )
        assert lint_source(src, CORE) == []

    def test_noqa_suppresses(self):
        src = self.OBS_IMPORT + "_obs.metrics()  # noqa: D4\n"
        assert lint_source(src, CORE) == []


class TestD4LedgerEmission:
    """The ledger is fed only by the record handed to ``obs.emit``;
    fetching it with ``obs.ledger()`` is a finding, guarded or not."""

    OBS_IMPORT = "import repro.obs as _obs\n"

    def test_unguarded_ledger_chain_flagged(self):
        src = self.OBS_IMPORT + "_obs.ledger().count('addr.computed')\n"
        assert rules_of(lint_source(src, CORE)) == ["D4"]

    def test_unguarded_bound_ledger_flagged(self):
        src = self.OBS_IMPORT + (
            "def emit():\n"
            "    led = _obs.ledger()\n"
            "    led.record_batch(op='read')\n"
        )
        assert rules_of(lint_source(src, CORE)) == ["D4"]

    def test_conditional_binding_with_none_check_clean(self):
        # the record builders' idiom: build the record under the guard,
        # hand it to emit, which feeds the ledger
        src = self.OBS_IMPORT + (
            "def emit(cols):\n"
            "    rec = _obs.BatchRecord(**cols) if _obs.enabled() else None\n"
            "    if rec is not None:\n"
            "        _obs.emit(rec)\n"
        )
        assert lint_source(src, CORE) == []

    def test_enabled_block_binding_clean(self):
        src = self.OBS_IMPORT + (
            "def emit(v):\n"
            "    if _obs.enabled():\n"
            "        rec = _obs.KvRecord('get', (), v, 1)\n"
            "        _obs.emit(rec)\n"
        )
        assert lint_source(src, CORE) == []
        # a ledger fetched in the same block is still a side channel
        bare = self.OBS_IMPORT + (
            "def emit():\n"
            "    if _obs.enabled():\n"
            "        led = _obs.ledger()\n"
            "        if led is not None:\n"
            "            led.count('protocol.batches')\n"
        )
        assert rules_of(lint_source(bare, CORE)) == ["D4"]

    def test_none_check_alone_suffices(self):
        # emit guards itself: no enabled() check is needed around it
        src = self.OBS_IMPORT + (
            "def emit(rec):\n"
            "    if rec is not None:\n"
            "        _obs.emit(rec)\n"
        )
        assert lint_source(src, CORE) == []
        # a None check on a fetched ledger does not make it legal
        old = self.OBS_IMPORT + (
            "def emit():\n"
            "    led = _obs.ledger() if _obs.enabled() else None\n"
            "    if led is not None:\n"
            "        led.note_addressing(4, {})\n"
        )
        assert rules_of(lint_source(old, CORE)) == ["D4"]

    def test_ordinary_count_method_not_confused(self):
        src = self.OBS_IMPORT + (
            "def f(xs):\n"
            "    return xs.count(1)\n"
        )
        assert lint_source(src, CORE) == []


# ---------------------------------------------------------------------------
# D5 -- mutable shared state


class TestD5MutableSharedState:
    def test_mutable_default_arg_flagged(self):
        src = "def f(xs=[]):\n    return xs\n"
        assert rules_of(lint_source(src, ANALYSIS)) == ["D5"]

    def test_kwonly_mutable_default_flagged(self):
        src = "def f(*, xs={}):\n    return xs\n"
        assert rules_of(lint_source(src, ANALYSIS)) == ["D5"]

    def test_none_default_clean(self):
        src = "def f(xs=None):\n    return xs or []\n"
        assert lint_source(src, ANALYSIS) == []

    def test_module_level_empty_accumulator_flagged(self):
        src = "_cache = {}\n"
        assert rules_of(lint_source(src, ANALYSIS)) == ["D5"]

    def test_upper_case_empty_accumulator_flagged(self):
        # an empty UPPER_CASE container is an accumulator, not a table
        src = "REGISTRY = {}\n"
        assert rules_of(lint_source(src, ANALYSIS)) == ["D5"]

    def test_upper_case_populated_table_clean(self):
        src = "TABLE = {1: 'a', 2: 'b'}\n"
        assert lint_source(src, ANALYSIS) == []

    def test_dunder_all_clean(self):
        src = "__all__ = ['f']\n"
        assert lint_source(src, ANALYSIS) == []

    def test_function_local_mutable_clean(self):
        src = "def f():\n    acc = []\n    return acc\n"
        assert lint_source(src, ANALYSIS) == []


# ---------------------------------------------------------------------------
# D6 -- exception hygiene (reported as F3)


class TestD6ExceptionHygiene:
    def test_bare_except_on_protocol_path_flagged(self):
        src = "try:\n    go()\nexcept:\n    pass\n"
        assert "F3" in rules_of(lint_source(src, CORE))

    def test_broad_except_without_reraise_flagged(self):
        src = "try:\n    go()\nexcept Exception:\n    x = 1\n"
        assert rules_of(lint_source(src, CORE)) == ["F3"]

    def test_broad_except_with_reraise_clean(self):
        src = (
            "try:\n    go()\n"
            "except Exception:\n    log()\n    raise\n"
        )
        assert lint_source(src, CORE) == []

    def test_specific_except_clean(self):
        src = "try:\n    go()\nexcept ValueError:\n    x = 1\n"
        assert lint_source(src, CORE) == []

    def test_swallowed_quorum_lost_flagged_everywhere(self):
        src = (
            "try:\n    go()\n"
            "except QuorumLostError:\n    pass\n"
        )
        found = lint_source(src, ANALYSIS)  # outside protocol zones
        assert rules_of(found) == ["F3"]
        assert "swallowed" in found[0].message

    def test_handled_quorum_lost_clean_outside_protocol(self):
        src = (
            "try:\n    go()\n"
            "except QuorumLostError:\n    report()\n"
        )
        assert lint_source(src, ANALYSIS) == []

    def test_broad_except_outside_protocol_clean(self):
        src = "try:\n    go()\nexcept Exception:\n    x = 1\n"
        assert lint_source(src, ANALYSIS) == []


# ---------------------------------------------------------------------------
# engine mechanics shared across rules


class TestEngineMechanics:
    def test_syntax_error_yields_e0(self):
        found = lint_source("def f(:\n", CORE)
        assert rules_of(found) == ["E0"]

    def test_bare_noqa_suppresses_all(self):
        src = "for x in {1, 2}:  # noqa\n    use(x)\n"
        assert lint_source(src, CORE) == []

    def test_noqa_for_other_rule_does_not_suppress(self):
        src = "for x in {1, 2}:  # noqa: D3\n    use(x)\n"
        assert rules_of(lint_source(src, CORE)) == ["D1"]

    def test_select_limits_rules(self):
        src = "import random\nx = random.random()\nfor y in {1}:\n    use(y)\n"
        cfg = LintConfig(select=frozenset({"D1"}))
        assert rules_of(lint_source(src, CORE, cfg)) == ["D1"]

    def test_ignore_drops_rules(self):
        src = "import random\nx = random.random()\nfor y in {1}:\n    use(y)\n"
        cfg = LintConfig(ignore=frozenset({"D1"}))
        assert rules_of(lint_source(src, CORE, cfg)) == ["F2"]

    def test_zone_override_rescopes_rule(self):
        cfg = LintConfig(zone_overrides={"D3": ("repro/analysis",)})
        assert rules_of(lint_source("x = 0.5\n", ANALYSIS, cfg)) == ["D3"]
        assert lint_source("x = 0.5\n", GF, cfg) == []

    def test_rule_ids_unique(self):
        ids = [r.id for r in RULES]
        assert len(ids) == len(set(ids)), ids
        assert ids == sorted(ids)

    def test_findings_sorted_and_fingerprinted(self):
        src = "x = 0.5\ny = a / b\n"
        found = lint_source(src, GF)
        assert [f.line for f in found] == [1, 2]
        f = found[0]
        assert f.fingerprint == ("D3", "repro/gf/_snippet.py", "x = 0.5")
        assert f.describe().startswith("repro/gf/_snippet.py:1:")

"""Tests for the match engines, including oracle-equivalence properties."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.nic.match_engine as match_engine
from repro.errors import ControlPlaneError, UnknownEntryError
from repro.ir.actions import noop_action
from repro.ir.entries import (
    ExactValue,
    LpmValue,
    RangeValue,
    TableEntry,
    TernaryValue,
)
from repro.ir.tables import MatchKey, MatchType, TableNode
from repro.nic.match_engine import (
    ExactEngine,
    LpmEngine,
    RangeEngine,
    TernaryEngine,
    build_engine,
)
from repro.nic.table_runtime import RuntimeTable

u32 = st.integers(min_value=0, max_value=0xFFFFFFFF)


def keys(*specs):
    return tuple(MatchKey(f, t) for f, t in specs)


class TestBuildEngine:
    def test_exact(self):
        engine = build_engine(keys(("a", MatchType.EXACT)))
        assert isinstance(engine, ExactEngine)

    def test_single_lpm(self):
        engine = build_engine(
            keys(("a", MatchType.EXACT), ("b", MatchType.LPM))
        )
        assert isinstance(engine, LpmEngine)

    def test_two_lpm_falls_back_to_ternary(self):
        engine = build_engine(
            keys(("a", MatchType.LPM), ("b", MatchType.LPM))
        )
        assert isinstance(engine, TernaryEngine)

    def test_ternary(self):
        engine = build_engine(keys(("a", MatchType.TERNARY)))
        assert isinstance(engine, TernaryEngine)

    def test_range(self):
        engine = build_engine(
            keys(("a", MatchType.RANGE), ("b", MatchType.EXACT))
        )
        assert isinstance(engine, RangeEngine)

    def test_no_keys_is_exact(self):
        assert isinstance(build_engine(()), ExactEngine)


class TestExactEngine:
    def test_lookup_hit_and_miss(self):
        engine = ExactEngine(keys(("a", MatchType.EXACT)))
        entry = TableEntry((ExactValue(5),), "act")
        engine.add(entry)
        assert engine.lookup((5,)) is entry
        assert engine.lookup((6,)) is None

    def test_duplicate_key_rejected(self):
        engine = ExactEngine(keys(("a", MatchType.EXACT)))
        engine.add(TableEntry((ExactValue(5),), "act"))
        with pytest.raises(ControlPlaneError):
            engine.add(TableEntry((ExactValue(5),), "other"))
        assert len(engine) == 1  # failed add didn't leak

    def test_wrong_value_kind_rejected(self):
        engine = ExactEngine(keys(("a", MatchType.EXACT)))
        with pytest.raises(ControlPlaneError):
            engine.add(TableEntry((TernaryValue(1, 1),), "act"))

    def test_arity_mismatch_rejected(self):
        engine = ExactEngine(
            keys(("a", MatchType.EXACT), ("b", MatchType.EXACT))
        )
        with pytest.raises(ControlPlaneError):
            engine.add(TableEntry((ExactValue(1),), "act"))

    def test_remove(self):
        engine = ExactEngine(keys(("a", MatchType.EXACT)))
        entry = TableEntry((ExactValue(5),), "act")
        engine.add(entry)
        engine.remove(entry.entry_id)
        assert engine.lookup((5,)) is None
        with pytest.raises(UnknownEntryError):
            engine.remove(entry.entry_id)

    def test_memory_accesses_constant(self):
        engine = ExactEngine(keys(("a", MatchType.EXACT)))
        assert engine.memory_accesses == 1
        for i in range(10):
            engine.add(TableEntry((ExactValue(i),), "act"))
        assert engine.memory_accesses == 1


class TestLpmEngine:
    def make(self):
        return LpmEngine(
            keys(("port", MatchType.EXACT), ("dst", MatchType.LPM))
        )

    def test_longest_prefix_wins(self):
        engine = self.make()
        short = TableEntry(
            (ExactValue(1), LpmValue(0x0A000000, 8)), "short"
        )
        long = TableEntry(
            (ExactValue(1), LpmValue(0x0A010000, 16)), "long"
        )
        engine.add(short)
        engine.add(long)
        assert engine.lookup((1, 0x0A010203)) is long
        assert engine.lookup((1, 0x0A990203)) is short

    def test_exact_key_must_match(self):
        engine = self.make()
        engine.add(TableEntry((ExactValue(1), LpmValue(0, 0)), "any"))
        assert engine.lookup((2, 1234)) is None
        assert engine.lookup((1, 1234)) is not None

    def test_memory_accesses_tracks_prefix_lengths(self):
        engine = self.make()
        assert engine.memory_accesses == 1
        engine.add(TableEntry((ExactValue(1), LpmValue(0, 8)), "a"))
        engine.add(
            TableEntry((ExactValue(1), LpmValue(0x0A000000, 16)), "b")
        )
        engine.add(
            TableEntry((ExactValue(1), LpmValue(0x0B000000, 16)), "c")
        )
        assert engine.memory_accesses == 2
        for entry in list(engine.entries()):
            engine.remove(entry.entry_id)
        assert engine.memory_accesses == 1

    def test_requires_exactly_one_lpm(self):
        with pytest.raises(ControlPlaneError):
            LpmEngine(keys(("a", MatchType.EXACT)))

    def test_default_route(self):
        engine = self.make()
        default = TableEntry((ExactValue(1), LpmValue(0, 0)), "default")
        engine.add(default)
        assert engine.lookup((1, 0xDEADBEEF)) is default

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(u32, st.integers(min_value=0, max_value=32)),
            min_size=1,
            max_size=12,
        ),
        u32,
    )
    def test_agrees_with_oracle(self, rows, probe):
        """Property: LPM lookup == longest matching prefix by scan."""
        engine = LpmEngine(keys(("dst", MatchType.LPM)))
        seen = set()
        for value, plen in rows:
            lpm = LpmValue(value, plen)
            key = (plen, value & lpm.mask)
            if key in seen:
                continue
            seen.add(key)
            engine.add(TableEntry((lpm,), "act", priority=plen))
        got = engine.lookup((probe,))
        expected = engine.oracle_lookup((probe,))
        if expected is None:
            assert got is None
        else:
            # Both must match; the engine returns the longest prefix,
            # the oracle the highest priority (= prefix length here).
            assert got is not None
            got_len = got.match_values[0].prefix_len
            exp_len = expected.match_values[0].prefix_len
            assert got_len == exp_len


    @pytest.mark.parametrize("width", [32, 48, 128])
    def test_prefix_mask_follows_the_value_width(self, width):
        """``LpmValue.width_bits`` places the prefix: a /24 of a 48-bit
        field covers its top 24 bits, not bits 31..8."""
        engine = LpmEngine(keys(("eth.dst", MatchType.LPM)))
        top = 0xAABBCC << (width - 24)
        long = TableEntry((LpmValue(top, 24, width),), "long", priority=24)
        short = TableEntry((LpmValue(top, 8, width),), "short", priority=8)
        default = TableEntry((LpmValue(0, 0, width),), "any", priority=0)
        for entry in (short, default, long):
            engine.add(entry)
        assert engine.memory_accesses == 3
        expected = {
            top | 0x33: long,
            top ^ (1 << (width - 20)): short,  # leaves the /24 only
            0x112233: default,
            -1: default,
        }
        for probe, entry in expected.items():
            assert engine.lookup((probe,)) is entry
            assert engine.oracle_lookup((probe,)) is entry
        # The matrix form carries what int64 can: every probe of a
        # 32/48-bit field, the low ones of a 128-bit field — whose
        # masks have no int64 form, so its rows take the scalar loop.
        probes = [p for p in expected if -(2**63) <= p < 2**63]
        found = found_entries(
            engine, np.array(probes, dtype=np.int64)[:, None]
        )
        assert [found[i] is expected[p] for i, p in enumerate(probes)] == [
            True
        ] * len(probes)
        assert engine.scalar_rows == (len(probes) if width == 128 else 0)


class TestTernaryEngine:
    def test_priority_wins(self):
        engine = TernaryEngine(keys(("f", MatchType.TERNARY)))
        low = TableEntry((TernaryValue(0, 0),), "low", priority=0)
        high = TableEntry(
            (TernaryValue(0x10, 0xF0),), "high", priority=5
        )
        engine.add(low)
        engine.add(high)
        assert engine.lookup((0x12,)) is high
        assert engine.lookup((0x22,)) is low

    def test_mixed_exact_and_ternary_keys(self):
        engine = TernaryEngine(
            keys(("a", MatchType.EXACT), ("b", MatchType.TERNARY))
        )
        entry = TableEntry(
            (ExactValue(7), TernaryValue(0x100, 0xF00)), "act"
        )
        engine.add(entry)
        assert engine.lookup((7, 0x123)) is entry
        assert engine.lookup((8, 0x123)) is None

    def test_memory_accesses_counts_mask_groups(self):
        engine = TernaryEngine(keys(("f", MatchType.TERNARY)))
        assert engine.memory_accesses == 1
        for i in range(4):
            engine.add(
                TableEntry(
                    (TernaryValue(i, 0xFF << (4 * i)),), "act"
                )
            )
        assert engine.memory_accesses == 4

    def test_remove_cleans_groups(self):
        engine = TernaryEngine(keys(("f", MatchType.TERNARY)))
        entry = TableEntry((TernaryValue(1, 0xFF),), "act")
        engine.add(entry)
        engine.remove(entry.entry_id)
        assert engine.memory_accesses == 1
        assert engine.lookup((1,)) is None

    def test_range_values_rejected(self):
        engine = TernaryEngine(keys(("f", MatchType.TERNARY)))
        with pytest.raises(ControlPlaneError):
            engine.add(TableEntry((RangeValue(1, 2),), "act"))

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                u32, u32, st.integers(min_value=0, max_value=100)
            ),
            max_size=12,
        ),
        u32,
    )
    def test_agrees_with_oracle(self, rows, probe):
        """Property: ternary lookup == highest-priority linear scan."""
        engine = TernaryEngine(keys(("f", MatchType.TERNARY)))
        for value, mask, priority in rows:
            engine.add(
                TableEntry(
                    (TernaryValue(value, mask),), "act", priority=priority
                )
            )
        got = engine.lookup((probe,))
        expected = engine.oracle_lookup((probe,))
        if expected is None:
            assert got is None
        else:
            assert got is not None
            assert got.priority == expected.priority


class TestRangeEngine:
    def test_range_lookup(self):
        engine = RangeEngine(keys(("p", MatchType.RANGE)))
        entry = TableEntry((RangeValue(1000, 2000),), "act")
        engine.add(entry)
        assert engine.lookup((1500,)) is entry
        assert engine.lookup((2001,)) is None

    def test_memory_accesses_capped(self):
        engine = RangeEngine(keys(("p", MatchType.RANGE)))
        for i in range(20):
            engine.add(
                TableEntry((RangeValue(i * 10, i * 10 + 5),), "act")
            )
        assert engine.memory_accesses == 8


# ---------------------------------------------------------------------------
# lookup_many against the scalar lookup, the scalar lookup against the oracle
# ---------------------------------------------------------------------------


def found_entries(engine, matrix) -> np.ndarray:
    """``lookup_many`` as one entry (or None) per row."""
    table, slots = engine.lookup_many(matrix)
    assert table[-1] is None  # slot -1 reads as a miss
    return table[slots]


#: Values and masks that make installed entries, probes and near-misses
#: meet; ``u32`` beside them keeps the packed words honest.
POOL = [0, 1, 2, 0x0A000000, 0x0A010000, 0x0A010203, 0xC0A80001, 0xFFFFFFFF]
MASKS = [0, 0xFF, 0xFF00, 0xFFFF0000, 0xFF000000, 0xFFFFFFFF]
values = st.one_of(st.sampled_from(POOL), u32)


def match_values(match_type: MatchType):
    if match_type is MatchType.EXACT:
        return values.map(ExactValue)
    if match_type is MatchType.LPM:
        return st.builds(
            LpmValue, values, st.sampled_from([0, 8, 16, 24, 31, 32])
        )
    return st.builds(
        TernaryValue, values, st.one_of(st.sampled_from(MASKS), u32)
    )


@st.composite
def engine_scripts(draw):
    """A key shape, a script of table mutations and some probe rows."""
    types = draw(
        st.lists(
            st.sampled_from(
                [MatchType.EXACT, MatchType.LPM, MatchType.TERNARY]
            ),
            max_size=4,
        )
    )
    entry = st.tuples(
        st.tuples(*(match_values(t) for t in types)),
        st.integers(min_value=0, max_value=2),  # few priorities: ties
    )
    which = st.integers(min_value=0, max_value=40)
    add = st.tuples(st.just("add"), entry)
    ops = draw(
        st.lists(
            st.one_of(
                add,
                add,
                add,
                st.tuples(st.just("remove"), which),
                st.tuples(st.just("modify"), which, entry),
                st.just(("clear",)),
            ),
            max_size=20,
        )
    )
    probes = draw(
        st.lists(st.tuples(*(values for _ in types)), min_size=1, max_size=6)
    )
    return types, ops, probes


def runtime_table(types) -> RuntimeTable:
    return RuntimeTable(
        TableNode(
            name="t",
            keys=keys(*((f"f{i}", t) for i, t in enumerate(types))),
            actions={"act": noop_action("act")},
            default_action="act",
            next_map={},
        )
    )


def make_entry(engine, match, priority) -> TableEntry:
    if isinstance(engine, LpmEngine):
        # The file's convention: an LPM entry's priority is its length.
        priority = match[engine._lpm_index].prefix_len
    return TableEntry(match, "act", priority=priority)


def probe_rows(engine, probes) -> list[tuple]:
    """``probes`` plus, per installed entry, a row it matches and
    near-misses one bit away in each column (what int64 can carry)."""
    rows = list(probes)
    for entry in engine.entries():
        hit = tuple(
            mv.value | (0x5A if isinstance(mv, LpmValue) else 0)
            for mv in entry.match_values
        )
        rows.append(hit)
        for column in range(len(hit)):
            for bit in (0, 31):
                near = list(hit)
                near[column] ^= 1 << bit
                rows.append(tuple(near))
    return [r for r in rows if all(-(2**63) <= v < 2**63 for v in r)]


def assert_engine_agrees(engine, probes) -> None:
    rows = probe_rows(engine, probes)
    matrix = np.array(rows, dtype=np.int64).reshape(
        len(rows), len(engine.keys)
    )
    found = found_entries(engine, matrix)
    for i, row in enumerate(rows):
        got = engine.lookup(row)
        assert found[i] is got, (row, found[i], got)
        expected = engine.oracle_lookup(row)
        if isinstance(engine, TernaryEngine):
            # An exact column of a ternary engine compares 32 bits.
            assert (got is None) == (expected is None)
            if got is not None:
                assert got.priority == expected.priority
        else:
            assert got is expected, (row, got, expected)


class TestLookupMany:
    @settings(max_examples=250, deadline=None)
    @given(engine_scripts())
    def test_every_row_is_the_scalar_lookup(self, script):
        """Before and after every mutation (the lazy rebuild), row by
        row the same entry object: longest-prefix order and the
        ``(priority, -entry_id)`` tie-break are pinned by identity."""
        types, ops, probes = script
        runtime = runtime_table(types)
        engine = runtime.engine
        assert_engine_agrees(engine, probes)
        installed: list[int] = []
        for op in ops:
            try:
                if op[0] == "add":
                    entry = make_entry(engine, *op[1])
                    runtime.insert(entry)
                    installed.append(entry.entry_id)
                elif op[0] == "clear":
                    runtime.clear()
                    installed.clear()
                elif installed:
                    victim = installed.pop(op[1] % len(installed))
                    if op[0] == "remove":
                        runtime.delete(victim)
                    else:
                        entry = make_entry(engine, *op[2])
                        installed.append(entry.entry_id)
                        runtime.modify(victim, entry)
            except ControlPlaneError:
                # A duplicate key; ``modify`` has removed its victim by
                # then and the new entry is not in.
                installed = [e.entry_id for e in engine.entries()]
            assert_engine_agrees(engine, probes)
        assert engine.scalar_rows == 0  # u32 values: always the arrays

    @pytest.mark.parametrize(
        "types",
        [
            (),
            (MatchType.EXACT, MatchType.EXACT),
            (MatchType.EXACT, MatchType.LPM),
            (MatchType.TERNARY, MatchType.LPM),
        ],
    )
    def test_empty_engine(self, types):
        engine = runtime_table(types).engine
        matrix = np.zeros((3, len(types)), dtype=np.int64)
        assert list(found_entries(engine, matrix)) == [None] * 3
        assert engine.scalar_rows == 0

    def test_zero_column_key(self):
        engine = build_engine(())
        entry = TableEntry((), "act")
        engine.add(entry)
        found = found_entries(engine, np.zeros((4, 0), dtype=np.int64))
        assert [e is entry for e in found] == [True] * 4
        assert engine.lookup(()) is entry

    @pytest.mark.parametrize(
        "types, small, wide",
        [
            ((MatchType.EXACT,), (ExactValue(5),), (ExactValue(2**63),)),
            (
                (MatchType.EXACT, MatchType.LPM),
                (ExactValue(5), LpmValue(0, 0)),
                (ExactValue(5), LpmValue(1 << 63, 1, 64)),
            ),
            (
                (MatchType.TERNARY,),
                (TernaryValue(5, 0xFF),),
                (TernaryValue(5, 2**64 - 1),),
            ),
        ],
    )
    def test_value_outside_int64_takes_the_scalar_loop(
        self, types, small, wide
    ):
        """One entry the arrays cannot hold exactly and the whole
        engine answers row by row — still exactly, negative probes
        included — until that entry is gone again."""
        engine = runtime_table(types).engine
        probes = [(-1,) * len(types), (5,) * len(types)]
        engine.add(make_entry(engine, small, 0))
        assert_engine_agrees(engine, probes)
        assert engine.scalar_rows == 0
        unfit = make_entry(engine, wide, 1)
        engine.add(unfit)
        assert_engine_agrees(engine, probes)
        assert engine.scalar_rows > 0
        engine.remove(unfit.entry_id)
        rows = engine.scalar_rows
        assert_engine_agrees(engine, probes)
        assert engine.scalar_rows == rows

    def test_negative_probes_stay_on_the_arrays(self):
        engine = runtime_table((MatchType.TERNARY, MatchType.LPM)).engine
        engine.add(
            TableEntry(
                (TernaryValue(0xFF, 0xFF), LpmValue(0xFF000000, 8)), "act"
            )
        )
        matrix = np.array([[-1, -1], [-256, -1], [-1, 0]], dtype=np.int64)
        found = found_entries(engine, matrix)
        for row, entry in zip(matrix.tolist(), found):
            assert entry is engine.lookup(tuple(row))
        assert found[0] is not None and found[1] is None
        assert engine.scalar_rows == 0

    def test_packed_key_collisions_never_pick_a_wrong_entry(
        self, monkeypatch
    ):
        """With the packing multiplier at 0 a row packs to its last
        column alone. Installed rows that then share a word send the
        engine to the scalar loop; a probe that shares one with an
        installed row is told apart by the full-row compare."""
        monkeypatch.setattr(match_engine, "_PACK_MULTIPLIER", 0)
        engine = runtime_table((MatchType.EXACT, MatchType.EXACT)).engine
        first = TableEntry((ExactValue(1), ExactValue(5)), "act")
        engine.add(first)
        assert_engine_agrees(engine, [(2, 5), (1, 6)])
        assert found_entries(engine, np.array([[2, 5]]))[0] is None
        assert engine.scalar_rows == 0
        engine.add(TableEntry((ExactValue(2), ExactValue(5)), "act"))
        assert_engine_agrees(engine, [(3, 5)])
        assert engine.scalar_rows > 0
        for types in (
            (MatchType.EXACT, MatchType.LPM),
            (MatchType.TERNARY, MatchType.EXACT),
        ):
            engine = runtime_table(types).engine
            for head in (1, 2, 3):
                match = (
                    TernaryValue(head, 0xFF)
                    if types[0] is MatchType.TERNARY
                    else ExactValue(head),
                    LpmValue(0x0A000000, 8)
                    if types[1] is MatchType.LPM
                    else ExactValue(9),
                )
                engine.add(make_entry(engine, match, head))
            assert_engine_agrees(engine, [(4, 0x0A000001), (4, 9)])
            assert engine.scalar_rows > 0

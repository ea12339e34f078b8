"""Combinational netlists with area and static-timing estimation.

A :class:`Circuit` is a DAG of primitive gates (:mod:`repro.hardware.gates`)
stored as structure-of-arrays columns: an int8 gate-kind code, up to three
fan-in ids (padded with −1), the cell area, and the arrival time, set when
the gate is inserted (latest fan-in arrival plus the gate's delay).  Gates
only ever reference earlier ids, so the ids are a topological order.  Area
is a column sum in AND2 equivalents and delay the latest arrival at a marked
output — the two quantities Table 3 reports.

Logic is built in blocks: :meth:`Circuit.gates` adds one gate per element of
its fan-in arrays, :meth:`Circuit.trees` reduces many signal groups with
balanced 2-input trees one level at a time, and
:meth:`Circuit.match_constants` builds a bank of H-column-match
comparators.  :meth:`~Circuit.gate`, :meth:`~Circuit.tree`,
:meth:`~Circuit.match_constant` and :meth:`~Circuit.rom` are the scalar
forms for irregular logic (ripple adders, constant folding).

:meth:`Circuit.enable_sharing` turns on greedy common-subexpression
elimination for the efficient design points: identical (kind, fan-in)
gates are merged.  Merging is structural, so a block merges its duplicates
onto their first occurrence and then looks each key up among the existing
gates — the merged DAG is the one gate-at-a-time insertion would build.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hardware.gates import GATE_SPECS, ROM_AREA_PER_BIT, ROM_DELAY_NS, GateKind

__all__ = ["Circuit", "CircuitStats"]

#: Gate-kind codes: ``_KINDS[code]`` is the kind stored as ``code``.
_KINDS: tuple[GateKind, ...] = tuple(GateKind)
_CODE: dict[GateKind, int] = {kind: code for code, kind in enumerate(_KINDS)}
_ARITY: tuple[int, ...] = tuple(GATE_SPECS[kind].fanin for kind in _KINDS)
_INPUT, _CONST0, _CONST1, _ROM = (
    _CODE[kind]
    for kind in (GateKind.INPUT, GateKind.CONST0, GateKind.CONST1, GateKind.ROM)
)
_MAX_FANIN = 3


@dataclass(frozen=True)
class CircuitStats:
    """Synthesis summary of one circuit (a Table 3 cell pair)."""

    name: str
    area: float
    delay_ns: float
    gate_count: int

    def area_overhead(self, baseline: "CircuitStats") -> float:
        return self.area / baseline.area - 1.0

    def delay_overhead(self, baseline: "CircuitStats") -> float:
        return self.delay_ns / baseline.delay_ns - 1.0


def _share_key(fanin) -> int:
    """Hash-consing key of one gate's fan-in ids (the kind picks the table)."""
    key = 0
    for position, node in enumerate(fanin):
        key |= int(node) << (32 * position)
    return key


class Circuit:
    """A gate-level netlist under construction.

    ``area_scale``/``delay_scale`` model cell sizing: an area-time-efficient
    synthesis run relaxes timing and maps to smaller, slower drive strengths
    (scales < 1 area, > 1 delay), while a performance-constrained run does
    the opposite.  They apply uniformly to every gate added.
    """

    def __init__(self, name: str, *, area_scale: float = 1.0,
                 delay_scale: float = 1.0) -> None:
        self.name = name
        self.area_scale = area_scale
        self.delay_scale = delay_scale
        self._size = 0
        self._kind = np.empty(0, dtype=np.int8)
        self._fanin = np.empty((0, _MAX_FANIN), dtype=np.int64)
        self._area = np.empty(0, dtype=np.float64)
        self._arrival = np.empty(0, dtype=np.float64)
        self._cell_area = tuple(GATE_SPECS[k].area * area_scale for k in _KINDS)
        self._cell_delay = tuple(
            GATE_SPECS[k].delay_ns * delay_scale for k in _KINDS
        )
        #: ROM side map: block id -> (address ids, contents or None);
        #: tap id -> the bit of its block's word it extracts.
        self._roms: dict[int, tuple[tuple[int, ...], tuple[int, ...] | None] | int] = {}
        self._share: list[dict[int, int]] = [{} for _ in _KINDS]
        self._sharing = False
        self.outputs: dict[str, int] = {}

    # -- storage -----------------------------------------------------------
    def _reserve(self, count: int) -> int:
        """Make room for ``count`` more nodes; returns the first new id."""
        start = self._size
        need = start + count
        capacity = len(self._kind)
        if need > capacity:
            capacity = max(need, 2 * capacity, 256)
            self._kind = np.resize(self._kind, capacity)
            fanin = np.full((capacity, _MAX_FANIN), -1, dtype=np.int64)
            fanin[:start] = self._fanin[:start]
            self._fanin = fanin
            self._area = np.resize(self._area, capacity)
            self._arrival = np.resize(self._arrival, capacity)
        return start

    def _push(self, code: int, fanin, area: float, delay: float) -> int:
        """Append one node (at most three fan-ins); returns its id."""
        node = self._reserve(1)
        ready = 0.0
        arrival = self._arrival
        row = self._fanin[node]
        for position, source in enumerate(fanin):
            row[position] = source
            if arrival[source] > ready:
                ready = arrival[source]
        self._kind[node] = code
        self._area[node] = area
        arrival[node] = ready + delay
        self._size = node + 1
        return node

    def _push_block(self, code: int, columns, count: int, area: float,
                    delay: float) -> np.ndarray:
        """Append ``count`` nodes; ``columns`` holds one id array per fan-in."""
        start = self._reserve(count)
        stop = start + count
        self._kind[start:stop] = code
        ready = 0.0
        for position, column in enumerate(columns):
            self._fanin[start:stop, position] = column
            ready = np.maximum(ready, self._arrival[column])
        self._area[start:stop] = area
        self._arrival[start:stop] = ready + delay
        self._size = stop
        return np.arange(start, stop, dtype=np.int64)

    def _insert_block(self, code: int, columns) -> np.ndarray:
        """Add one ``code`` gate per element of the 1-D fan-in ``columns``,
        hash-consed when sharing is on."""
        area, delay = self._cell_area[code], self._cell_delay[code]
        count = len(columns[0])
        if not self._sharing or not count:
            return self._push_block(code, columns, count, area, delay)
        if len(columns) < _MAX_FANIN:
            keys = columns[0].copy()
            for position, column in enumerate(columns[1:], 1):
                keys |= column << (32 * position)
        else:
            keys = np.array([_share_key(row) for row in zip(*columns)],
                            dtype=object)
        unique, first, inverse = np.unique(
            keys, return_index=True, return_inverse=True
        )
        table = self._share[code]
        ids = np.array([table.get(key, -1) for key in unique.tolist()],
                       dtype=np.int64)
        fresh = np.flatnonzero(ids < 0)
        if fresh.size:
            fresh = fresh[np.argsort(first[fresh])]  # first-occurrence order
            rows = first[fresh]
            ids[fresh] = self._push_block(
                code, [column[rows] for column in columns], len(rows), area,
                delay,
            )
            table.update(zip(unique[fresh].tolist(), ids[fresh].tolist()))
        return ids[inverse.reshape(-1)]

    # -- construction -----------------------------------------------------
    def enable_sharing(self, enabled: bool = True) -> None:
        """Merge structurally identical gates (the "Eff." design points)."""
        self._sharing = enabled

    def add_input(self, count: int = 1) -> list[int]:
        """Add primary inputs; returns their node ids."""
        return self._push_block(_INPUT, (), count, 0.0, 0.0).tolist()

    def const(self, value: int) -> int:
        kind = GateKind.CONST1 if value else GateKind.CONST0
        return self.gate(kind)

    def gate(self, kind: GateKind, *fanin: int) -> int:
        """Add one primitive gate."""
        code = _CODE[kind]
        arity = _ARITY[code]
        if arity and len(fanin) != arity:
            raise ValueError(f"{kind.value} takes {arity} inputs")
        if not self._sharing:
            return self._push(code, fanin, self._cell_area[code],
                              self._cell_delay[code])
        table = self._share[code]
        key = fanin[0] | fanin[1] << 32 if arity == 2 else _share_key(fanin)
        node = table.get(key)
        if node is None:
            node = table[key] = self._push(
                code, fanin, self._cell_area[code], self._cell_delay[code]
            )
        return node

    def gates(self, kind: GateKind, *fanin) -> np.ndarray:
        """One ``kind`` gate per element of the broadcast fan-in arrays.

        Returns the new (or, when sharing, merged) ids in the broadcast
        shape; element ``i`` of every fan-in array feeds gate ``i``.
        """
        code = _CODE[kind]
        if not fanin or len(fanin) != _ARITY[code]:
            raise ValueError(f"{kind.value} blocks take {_ARITY[code]} fan-in arrays")
        columns = [np.asarray(f, dtype=np.int64) for f in fanin]
        shape = columns[0].shape
        if any(column.shape != shape for column in columns):
            columns = np.broadcast_arrays(*columns)
            shape = columns[0].shape
        return self._insert_block(
            code, [column.reshape(-1) for column in columns]
        ).reshape(shape)

    def rom(self, address_bits: list[int], data_width: int,
            contents: list[int] | None = None) -> list[int]:
        """A combinational lookup table (e.g. the DLogα block).

        Modelled as one block whose area scales with the stored bit count;
        returns one node per output bit (all share the block's delay).
        ``contents`` (one word per address, LSB-first address bits) makes
        the block functionally simulable by :meth:`evaluate`.
        """
        address = tuple(int(bit) for bit in address_bits)
        words = 1 << len(address)
        if contents is not None and len(contents) != words:
            raise ValueError(f"ROM contents must have {words} words")
        area = words * data_width * ROM_AREA_PER_BIT * self.area_scale
        block = self._push(_ROM, (), area, 0.0)
        self._arrival[block] = (
            self._arrival[list(address)].max(initial=0.0)
            + ROM_DELAY_NS * self.delay_scale
        )
        self._roms[block] = (
            address, tuple(contents) if contents is not None else None
        )
        # Output bits are free taps on the block.
        taps = self._push_block(
            _ROM, (np.full(data_width, block),), data_width, 0.0, 0.0
        ).tolist()
        self._roms.update((tap, bit) for bit, tap in enumerate(taps))
        return taps

    def mark_output(self, name: str, node: int) -> None:
        self.outputs[name] = int(node)

    def const_value(self, node: int) -> int | None:
        """0/1 if ``node`` is a constant cell, else None.

        Generators use this to fold gates whose inputs are known — e.g. the
        constant channel LLRs feeding the top of an unrolled SC datapath —
        so the cost model does not charge for logic synthesis would remove.
        """
        code = self._kind[node]
        if code == _CONST0:
            return 0
        if code == _CONST1:
            return 1
        return None

    # -- reduction trees ---------------------------------------------------
    def trees(self, kind: GateKind, values, lengths) -> np.ndarray:
        """Balanced 2-input ``kind`` trees over many signal groups at once.

        The groups are CSR-packed: ``values`` holds every group's signals
        back to back and ``lengths`` each group's size.  Each level pairs
        (0, 1), (2, 3), … within every group and carries an odd tail up, so
        a group reduces exactly as :meth:`tree` reduces it; a one-signal
        group is that signal.  Returns one root per group.
        """
        values = np.asarray(values, dtype=np.int64).reshape(-1)
        lengths = np.asarray(lengths, dtype=np.int64).reshape(-1)
        if lengths.size and lengths.min() < 1:
            raise ValueError("cannot reduce an empty signal list")
        if lengths.sum() != values.size:
            raise ValueError("group lengths do not cover the values")
        code = _CODE[kind]
        # per signal: its group's size and its position in the group; the
        # signal at position p moves to position p // 2 one level up
        size = np.repeat(lengths, lengths)
        position = np.arange(values.size) - np.repeat(
            np.cumsum(lengths) - lengths, lengths)
        while values.size > lengths.size:
            even = (position & 1) == 0
            paired = even & (position + 1 < size)
            left = np.flatnonzero(paired)
            reduced = self._insert_block(code, (values[left], values[left + 1]))
            values = values[even]
            values[paired[even]] = reduced
            position, size = position[even] >> 1, (size[even] + 1) >> 1
        return values

    def tree(self, kind: GateKind, nodes: list[int], *,
             balanced: bool = True) -> int:
        """Reduce a list of signals with a 2-input gate tree.

        ``balanced=False`` builds a linear chain instead (same area, worse
        delay).
        """
        if not len(nodes):
            raise ValueError("cannot reduce an empty signal list")
        if balanced:
            return int(self.trees(kind, nodes, [len(nodes)])[0])
        accumulator = nodes[0]
        for node in nodes[1:]:
            accumulator = self.gate(kind, accumulator, node)
        return int(accumulator)

    def xor_tree(self, nodes: list[int], *, balanced: bool = True) -> int:
        return self.tree(GateKind.XOR2, nodes, balanced=balanced)

    def and_tree(self, nodes: list[int], *, balanced: bool = True) -> int:
        return self.tree(GateKind.AND2, nodes, balanced=balanced)

    def or_tree(self, nodes: list[int], *, balanced: bool = True) -> int:
        return self.tree(GateKind.OR2, nodes, balanced=balanced)

    def match_constants(self, bits, constants) -> np.ndarray:
        """A bank of comparators asserting ``bits == constant`` (the HCMs).

        ``bits`` has shape ``(..., width)`` and ``constants`` broadcasts
        against ``bits.shape[:-1]``; bit ``i`` of a constant is compared
        with ``bits[..., i]``.  Each comparator inverts its zero positions
        and ANDs the terms in a balanced tree.
        """
        bits = np.asarray(bits, dtype=np.int64)
        constants = np.asarray(constants, dtype=np.int64)
        width = bits.shape[-1]
        shape = np.broadcast_shapes(bits.shape[:-1], constants.shape)
        terms = np.broadcast_to(bits, shape + (width,)).copy()
        zeros = ((constants[..., None] >> np.arange(width)) & 1) == 0
        zeros = np.broadcast_to(zeros, terms.shape)
        terms[zeros] = self.gates(GateKind.NOT, terms[zeros])
        return self.trees(
            GateKind.AND2, terms.reshape(-1), np.full(terms.size // width, width)
        ).reshape(shape)

    def match_constant(self, bits: list[int], constant: int) -> int:
        """A comparator asserting ``bits == constant`` — the HCM circuit."""
        return int(self.match_constants(bits, constant))

    # -- analysis -----------------------------------------------------------
    def area(self) -> float:
        return float(self._area[: self._size].sum())

    def gate_count(self) -> int:
        # Inputs and constants are free, and so are ROM taps.
        return int(np.count_nonzero(self._area[: self._size] > 0))

    def kind_counts(self) -> dict[GateKind, int]:
        """Number of nodes of each kind (inputs, constants and taps too)."""
        counts = np.bincount(self._kind[: self._size], minlength=len(_KINDS))
        return {kind: int(count) for kind, count in zip(_KINDS, counts)
                if count}

    def delay_ns(self) -> float:
        """Critical-path delay to any marked output (static timing)."""
        if self.outputs:
            return float(self._arrival[list(self.outputs.values())].max())
        return float(self._arrival[: self._size].max(initial=0.0))

    def evaluate(self, input_values: list[int]) -> dict[str, int]:
        """Functionally simulate the netlist.

        ``input_values`` are the primary-input bits in creation order.  The
        return value maps each marked output to 0/1.  Supports every gate,
        ROM blocks included when they were built with ``contents`` — so
        the encoders/decoders are fully simulable, which the test-suite
        uses to prove the cost model builds *working* ECC logic, not just
        plausible gate counts.
        """
        kinds = self._kind[: self._size].tolist()
        num_inputs = kinds.count(_INPUT)
        if len(input_values) != num_inputs:
            raise ValueError(
                f"expected {num_inputs} input bits, got {len(input_values)}"
            )
        fanins = self._fanin[: self._size].tolist()
        values: list[int] = [0] * self._size
        inputs = iter(input_values)
        for index, (code, (a, b, c)) in enumerate(zip(kinds, fanins)):
            kind = _KINDS[code]
            if kind is GateKind.INPUT:
                values[index] = int(next(inputs)) & 1
            elif kind is GateKind.CONST0:
                values[index] = 0
            elif kind is GateKind.CONST1:
                values[index] = 1
            elif kind is GateKind.NOT:
                values[index] = values[a] ^ 1
            elif kind is GateKind.AND2:
                values[index] = values[a] & values[b]
            elif kind is GateKind.OR2:
                values[index] = values[a] | values[b]
            elif kind is GateKind.NAND2:
                values[index] = (values[a] & values[b]) ^ 1
            elif kind is GateKind.NOR2:
                values[index] = (values[a] | values[b]) ^ 1
            elif kind is GateKind.XOR2:
                values[index] = values[a] ^ values[b]
            elif kind is GateKind.XNOR2:
                values[index] = values[a] ^ values[b] ^ 1
            elif kind is GateKind.MUX2:
                values[index] = values[c] if values[a] else values[b]
            elif kind is GateKind.ROM:
                payload = self._roms[index]
                if isinstance(payload, int):
                    # A tap: extract one bit of the block's looked-up word.
                    values[index] = (values[a] >> payload) & 1
                    continue
                address_bits, contents = payload
                if contents is None:
                    raise NotImplementedError(
                        "ROM block was built without contents; pass "
                        "`contents=` to Circuit.rom to simulate it"
                    )
                address = 0
                for bit, source in enumerate(address_bits):
                    address |= values[source] << bit
                values[index] = int(contents[address])
            else:  # pragma: no cover - exhaustive over GateKind
                raise NotImplementedError(f"cannot evaluate {kind}")
        return {name: values[node] for name, node in self.outputs.items()}

    def stats(self) -> CircuitStats:
        return CircuitStats(
            name=self.name,
            area=self.area(),
            delay_ns=self.delay_ns(),
            gate_count=self.gate_count(),
        )

"""Read-only array-backed netlist: flat vectors + CSR connectivity.

:class:`ArrayNetlist` is the out-of-core counterpart of
:class:`~repro.netlist.netlist.Netlist`: the whole design lives in flat
id-indexed vectors (``array('q')`` — cell kind, eq-class, output net,
CSR fanin spans, net driver, CSR sink spans) loaded from a
:class:`~repro.netlist.store.NetlistStore` in one pass.  It exposes the
read-only interface the placer, router and STA consume — ``cells`` /
``nets`` mappings, ``fanin_cells`` / ``fanout_pins`` / ``fanout_count``,
``combinational_order`` — with **identical iteration orders** to the
object netlist it was stored from, so every downstream decision (SA move
order, topological order, routing net order) is bit-identical with and
without the store.

Two deliberate design points:

* **Lazy materialization.**  ``cells[i]`` / ``nets[i]`` build real
  :class:`Cell` / :class:`Net` instances on demand and cache them, so
  code that indexes into the dicts keeps working with stable object
  identity, while the hot connectivity queries (``fanin_cells``,
  ``fanout_pins``, ``combinational_order``) are answered straight from
  the CSR vectors without touching a single Python object.
* **No edit methods.**  There is no ``add_lut``/``connect``/``unify``
  here: mutation requires the object form, obtained exactly via
  :meth:`to_netlist` (``clone()`` is an alias, so a
  :class:`~repro.bench.runner.BaselineRun` holding an array netlist
  hands :func:`~repro.bench.runner.run_variant` a mutable copy the same
  way an object baseline does).
"""

from __future__ import annotations

from array import array
from collections import deque
from collections.abc import Iterator, Mapping

from repro.netlist.cells import Cell, CellType
from repro.netlist.netlist import Netlist, NetlistError
from repro.netlist.nets import Net, Pin

#: Stable integer codes for cell kinds as stored in the SQLite store.
KIND_ORDER: tuple[CellType, ...] = (
    CellType.INPUT,
    CellType.OUTPUT,
    CellType.LUT,
    CellType.FF,
)
KIND_CODE: dict[CellType, int] = {kind: i for i, kind in enumerate(KIND_ORDER)}
_INPUT, _OUTPUT, _LUT, _FF = range(4)


class _CellMap(Mapping):
    """Ordered id->Cell view over the flat vectors (lazy, cached)."""

    __slots__ = ("_nl",)

    def __init__(self, nl: "ArrayNetlist") -> None:
        self._nl = nl

    def __getitem__(self, cell_id: int) -> Cell:
        return self._nl._materialize_cell(cell_id)

    def __iter__(self) -> Iterator[int]:
        return iter(self._nl._cell_ids)

    def __len__(self) -> int:
        return len(self._nl._cell_ids)

    def __contains__(self, cell_id) -> bool:
        return cell_id in self._nl._cell_row


class _NetMap(Mapping):
    """Ordered id->Net view over the flat vectors (lazy, cached)."""

    __slots__ = ("_nl",)

    def __init__(self, nl: "ArrayNetlist") -> None:
        self._nl = nl

    def __getitem__(self, net_id: int) -> Net:
        return self._nl._materialize_net(net_id)

    def __iter__(self) -> Iterator[int]:
        return iter(self._nl._net_ids)

    def __len__(self) -> int:
        return len(self._nl._net_ids)

    def __contains__(self, net_id) -> bool:
        return net_id in self._nl._net_row


class ArrayNetlist:
    """A read-only netlist over flat vectors (see module docstring).

    Construct via :meth:`repro.netlist.store.NetlistStore.load_array`
    (or :meth:`from_netlist` in tests).  All ``array('q')`` vectors are
    row-indexed (row = insertion order); ``-1`` encodes ``None``.
    """

    def __init__(
        self,
        *,
        name: str,
        next_cell_id: int,
        next_net_id: int,
        cell_ids: array,
        cell_names: list[str],
        cell_kind: array,
        cell_eq: array,
        cell_output: array,
        fanin_ptr: array,
        fanin_net: array,
        truth_tables: list[int | None],
        net_ids: array,
        net_names: list[str],
        net_driver: array,
        sink_ptr: array,
        sink_cell: array,
        sink_pin: array,
        extra_names: list[str] | None = None,
    ) -> None:
        self.name = name
        self._next_cell_id = next_cell_id
        self._next_net_id = next_net_id
        self._cell_ids = cell_ids
        self._cell_names = cell_names
        self._cell_kind = cell_kind
        self._cell_eq = cell_eq
        self._cell_output = cell_output
        self._fanin_ptr = fanin_ptr
        self._fanin_net = fanin_net
        self._truth_tables = truth_tables
        self._net_ids = net_ids
        self._net_names = net_names
        self._net_driver = net_driver
        self._sink_ptr = sink_ptr
        self._sink_cell = sink_cell
        self._sink_pin = sink_pin
        self._cell_row = {cid: row for row, cid in enumerate(cell_ids)}
        self._net_row = {nid: row for row, nid in enumerate(net_ids)}
        self._names: set[str] = (
            set(cell_names) | set(net_names) | set(extra_names or ())
        )
        self._cell_cache: dict[int, Cell] = {}
        self._net_cache: dict[int, Net] = {}
        self._listeners: list = []
        self.cells = _CellMap(self)
        self.nets = _NetMap(self)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_netlist(cls, netlist: Netlist) -> "ArrayNetlist":
        """Flatten an object netlist (tests; the store loader is the
        production path)."""
        cell_ids = array("q")
        cell_names: list[str] = []
        cell_kind = array("b")
        cell_eq = array("q")
        cell_output = array("q")
        fanin_ptr = array("q", [0])
        fanin_net = array("q")
        truth_tables: list[int | None] = []
        for cell in netlist.cells.values():
            cell_ids.append(cell.cell_id)
            cell_names.append(cell.name)
            cell_kind.append(KIND_CODE[cell.ctype])
            cell_eq.append(cell.eq_class)
            cell_output.append(-1 if cell.output is None else cell.output)
            truth_tables.append(cell.truth_table)
            for net_id in cell.inputs:
                fanin_net.append(-1 if net_id is None else net_id)
            fanin_ptr.append(len(fanin_net))
        net_ids = array("q")
        net_names: list[str] = []
        net_driver = array("q")
        sink_ptr = array("q", [0])
        sink_cell = array("q")
        sink_pin = array("q")
        for net in netlist.nets.values():
            net_ids.append(net.net_id)
            net_names.append(net.name)
            net_driver.append(-1 if net.driver is None else net.driver)
            for cid, pin in net.sinks:
                sink_cell.append(cid)
                sink_pin.append(pin)
            sink_ptr.append(len(sink_cell))
        derived = {c.name for c in netlist.cells.values()} | {
            n.name for n in netlist.nets.values()
        }
        extra = sorted(netlist._names - derived)
        return cls(
            name=netlist.name,
            next_cell_id=netlist._next_cell_id,
            next_net_id=netlist._next_net_id,
            cell_ids=cell_ids,
            cell_names=cell_names,
            cell_kind=cell_kind,
            cell_eq=cell_eq,
            cell_output=cell_output,
            fanin_ptr=fanin_ptr,
            fanin_net=fanin_net,
            truth_tables=truth_tables,
            net_ids=net_ids,
            net_names=net_names,
            net_driver=net_driver,
            sink_ptr=sink_ptr,
            sink_cell=sink_cell,
            sink_pin=sink_pin,
            extra_names=extra,
        )

    # ------------------------------------------------------------------
    # Lazy materialization
    # ------------------------------------------------------------------

    def _materialize_cell(self, cell_id: int) -> Cell:
        cached = self._cell_cache.get(cell_id)
        if cached is not None:
            return cached
        try:
            row = self._cell_row[cell_id]
        except KeyError:
            raise KeyError(cell_id) from None
        lo, hi = self._fanin_ptr[row], self._fanin_ptr[row + 1]
        inputs = [
            None if net < 0 else net for net in self._fanin_net[lo:hi]
        ]
        output = self._cell_output[row]
        cell = Cell(
            cell_id=cell_id,
            name=self._cell_names[row],
            ctype=KIND_ORDER[self._cell_kind[row]],
            inputs=inputs,
            output=None if output < 0 else output,
            truth_table=self._truth_tables[row],
            eq_class=self._cell_eq[row],
        )
        self._cell_cache[cell_id] = cell
        return cell

    def _materialize_net(self, net_id: int) -> Net:
        cached = self._net_cache.get(net_id)
        if cached is not None:
            return cached
        try:
            row = self._net_row[net_id]
        except KeyError:
            raise KeyError(net_id) from None
        lo, hi = self._sink_ptr[row], self._sink_ptr[row + 1]
        driver = self._net_driver[row]
        net = Net(
            net_id,
            self._net_names[row],
            None if driver < 0 else driver,
            [
                (self._sink_cell[i], self._sink_pin[i])
                for i in range(lo, hi)
            ],
        )
        self._net_cache[net_id] = net
        return net

    def _row_of(self, cell: Cell | int) -> int:
        cell_id = cell.cell_id if isinstance(cell, Cell) else cell
        try:
            return self._cell_row[cell_id]
        except KeyError:
            raise NetlistError(f"no cell with id {cell_id}") from None

    # ------------------------------------------------------------------
    # Edit listeners (accepted for interface parity; no edits ever fire)
    # ------------------------------------------------------------------

    def add_listener(self, listener) -> None:
        if listener not in self._listeners:
            self._listeners.append(listener)

    def remove_listener(self, listener) -> None:
        if listener in self._listeners:
            self._listeners.remove(listener)

    def notify_bulk(self) -> None:
        for listener in self._listeners:
            listener.nl_bulk()

    # ------------------------------------------------------------------
    # Connectivity queries (array fast paths)
    # ------------------------------------------------------------------

    def fanin_cells(self, cell: Cell | int) -> list[int | None]:
        """Driver cell id per input pin (``None`` for unconnected pins)."""
        row = self._row_of(cell)
        net_row = self._net_row
        driver = self._net_driver
        result: list[int | None] = []
        for net in self._fanin_net[self._fanin_ptr[row]:self._fanin_ptr[row + 1]]:
            if net < 0:
                result.append(None)
            else:
                d = driver[net_row[net]]
                result.append(None if d < 0 else d)
        return result

    def fanout_pins(self, cell: Cell | int) -> list[Pin]:
        """Sink pins fed by the cell's output net (empty for OUTPUT pads)."""
        row = self._row_of(cell)
        out = self._cell_output[row]
        if out < 0:
            return []
        net_row = self._net_row[out]
        lo, hi = self._sink_ptr[net_row], self._sink_ptr[net_row + 1]
        return [(self._sink_cell[i], self._sink_pin[i]) for i in range(lo, hi)]

    def fanout_count(self, cell: Cell | int) -> int:
        row = self._row_of(cell)
        out = self._cell_output[row]
        if out < 0:
            return 0
        net_row = self._net_row[out]
        return self._sink_ptr[net_row + 1] - self._sink_ptr[net_row]

    # ------------------------------------------------------------------
    # Accessors mirroring Netlist
    # ------------------------------------------------------------------

    def cell_by_name(self, name: str) -> Cell:
        for row, cell_name in enumerate(self._cell_names):
            if cell_name == name:
                return self._materialize_cell(self._cell_ids[row])
        raise NetlistError(f"no cell named {name!r}")

    @property
    def num_cells(self) -> int:
        return len(self._cell_ids)

    @property
    def num_luts(self) -> int:
        return sum(1 for k in self._cell_kind if k == _LUT)

    @property
    def num_ffs(self) -> int:
        return sum(1 for k in self._cell_kind if k == _FF)

    @property
    def num_pads(self) -> int:
        return sum(1 for k in self._cell_kind if k in (_INPUT, _OUTPUT))

    @property
    def num_logic_blocks(self) -> int:
        return self.num_luts + self.num_ffs

    def _cells_of_kind(self, code: int) -> list[Cell]:
        return [
            self._materialize_cell(self._cell_ids[row])
            for row, kind in enumerate(self._cell_kind)
            if kind == code
        ]

    def primary_inputs(self) -> list[Cell]:
        return self._cells_of_kind(_INPUT)

    def primary_outputs(self) -> list[Cell]:
        return self._cells_of_kind(_OUTPUT)

    def flip_flops(self) -> list[Cell]:
        return self._cells_of_kind(_FF)

    def luts(self) -> list[Cell]:
        return self._cells_of_kind(_LUT)

    def equivalent_cells(self, cell: Cell | int) -> list[Cell]:
        row = self._row_of(cell)
        eq = self._cell_eq[row]
        me = self._cell_ids[row]
        return [
            self._materialize_cell(self._cell_ids[r])
            for r, cls in enumerate(self._cell_eq)
            if cls == eq and self._cell_ids[r] != me
        ]

    # ------------------------------------------------------------------
    # Topological traversal (identical order to Netlist.combinational_order)
    # ------------------------------------------------------------------

    def combinational_order(self) -> list[int]:
        """Same algorithm — and therefore the same order — as the object
        netlist's :meth:`~repro.netlist.netlist.Netlist.combinational_order`,
        answered from the CSR vectors."""
        kind = self._cell_kind
        ids = self._cell_ids
        cell_row = self._cell_row
        fanin_ptr, fanin_net = self._fanin_ptr, self._fanin_net
        indegree: dict[int, int] = {}
        for row, cid in enumerate(ids):
            if kind[row] in (_INPUT, _FF):  # timing start
                indegree[cid] = 0
            else:
                count = 0
                for net in fanin_net[fanin_ptr[row]:fanin_ptr[row + 1]]:
                    if net >= 0:
                        count += 1
                indegree[cid] = count
        queue = deque(sorted(cid for cid, deg in indegree.items() if deg == 0))
        order: list[int] = []
        while queue:
            cid = queue.popleft()
            order.append(cid)
            row = cell_row[cid]
            if kind[row] == _OUTPUT:  # timing end that is not a start
                continue
            out = self._cell_output[row]
            if out < 0:
                continue
            net_row = self._net_row[out]
            for i in range(self._sink_ptr[net_row], self._sink_ptr[net_row + 1]):
                sink_id = self._sink_cell[i]
                if kind[cell_row[sink_id]] in (_INPUT, _FF):
                    continue  # FF D edge: sequential boundary
                indegree[sink_id] -= 1
                if indegree[sink_id] == 0:
                    queue.append(sink_id)
        if len(order) != len(ids):
            missing = set(ids) - set(order)
            raise NetlistError(f"combinational cycle among cells {sorted(missing)}")
        return order

    # ------------------------------------------------------------------
    # Conversion
    # ------------------------------------------------------------------

    def to_netlist(self) -> Netlist:
        """Materialize the exact object form: ids, names, dict orders and
        id-allocation cursors all match the netlist this was stored from
        (``netlist_to_dict`` equality is the tested contract)."""
        netlist = Netlist(self.name)
        netlist._next_cell_id = self._next_cell_id
        netlist._next_net_id = self._next_net_id
        netlist._names = set(self._names)
        for row, cid in enumerate(self._cell_ids):
            lo, hi = self._fanin_ptr[row], self._fanin_ptr[row + 1]
            output = self._cell_output[row]
            netlist.cells[cid] = Cell(
                cell_id=cid,
                name=self._cell_names[row],
                ctype=KIND_ORDER[self._cell_kind[row]],
                inputs=[None if n < 0 else n for n in self._fanin_net[lo:hi]],
                output=None if output < 0 else output,
                truth_table=self._truth_tables[row],
                eq_class=self._cell_eq[row],
            )
        for row, nid in enumerate(self._net_ids):
            lo, hi = self._sink_ptr[row], self._sink_ptr[row + 1]
            driver = self._net_driver[row]
            netlist.nets[nid] = Net(
                nid,
                self._net_names[row],
                None if driver < 0 else driver,
                [(self._sink_cell[i], self._sink_pin[i]) for i in range(lo, hi)],
            )
        return netlist

    def clone(self) -> Netlist:
        """A mutable deep copy (the object form) preserving all ids."""
        return self.to_netlist()

    def __iter__(self) -> Iterator[Cell]:
        return iter(self.cells.values())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ArrayNetlist({self.name!r}, cells={self.num_cells}, "
            f"nets={len(self._net_ids)}, luts={self.num_luts}, "
            f"ffs={self.num_ffs}, pads={self.num_pads})"
        )

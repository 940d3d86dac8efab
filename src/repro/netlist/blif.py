"""Minimal BLIF-subset reader/writer.

MCNC circuits circulate as BLIF; our synthetic suite can be exported and
re-imported in the same format so downstream users can plug in real BLIF
netlists (e.g., actual MCNC designs) without touching the flow.  The
supported subset is what VPR's `.net`-era flow consumed: ``.model``,
``.inputs``, ``.outputs``, ``.names`` (LUTs, single-output cover) and
``.latch`` (DFF, clock ignored).
"""

from __future__ import annotations

from repro.netlist.netlist import Netlist, NetlistError


def write_blif(netlist: Netlist) -> str:
    """Serialize a netlist to BLIF text."""
    lines: list[str] = [f".model {netlist.name}"]
    pis = sorted(netlist.primary_inputs(), key=lambda c: c.name)
    pos = sorted(netlist.primary_outputs(), key=lambda c: c.name)
    lines.append(".inputs " + " ".join(c.name for c in pis))
    lines.append(".outputs " + " ".join(c.name for c in pos))

    def signal_name(net_id: int) -> str:
        net = netlist.nets[net_id]
        driver = netlist.cells[net.driver] if net.driver is not None else None
        if driver is not None and driver.is_input_pad:
            return driver.name
        return net.name

    for cell in sorted(netlist.cells.values(), key=lambda c: c.cell_id):
        if cell.is_ff:
            d_net = cell.inputs[0]
            if d_net is None or cell.output is None:
                raise NetlistError(f"FF {cell.name!r} not fully connected")
            lines.append(f".latch {signal_name(d_net)} {signal_name(cell.output)} re clk 0")
        elif cell.is_lut:
            assert cell.output is not None and cell.truth_table is not None
            ins = [signal_name(n) for n in cell.inputs if n is not None]
            lines.append(".names " + " ".join(ins + [signal_name(cell.output)]))
            width = len(ins)
            for minterm in range(1 << width):
                if (cell.truth_table >> minterm) & 1:
                    bits = "".join(str((minterm >> b) & 1) for b in range(width))
                    lines.append(f"{bits} 1")
    for po in pos:
        net_id = po.inputs[0]
        if net_id is None:
            raise NetlistError(f"output pad {po.name!r} unconnected")
        src = signal_name(net_id)
        if src != po.name:
            # BLIF has no explicit output pad; emit a buffer LUT.
            lines.append(f".names {src} {po.name}")
            lines.append("1 1")
    lines.append(".end")
    return "\n".join(lines) + "\n"


def read_blif(text: str) -> Netlist:
    """Parse the BLIF subset produced by :func:`write_blif`."""
    tokens_per_line = [
        line.split("#", 1)[0].split() for line in _joined_lines(text)
    ]
    tokens_per_line = [t for t in tokens_per_line if t]

    model = "blif"
    pi_names: list[str] = []
    po_names: list[str] = []
    luts: list[tuple[list[str], str, list[str]]] = []  # (inputs, output, cover rows)
    latches: list[tuple[str, str]] = []  # (input signal, output signal)

    index = 0
    while index < len(tokens_per_line):
        tokens = tokens_per_line[index]
        keyword = tokens[0]
        if keyword == ".model":
            model = tokens[1] if len(tokens) > 1 else model
        elif keyword == ".inputs":
            pi_names.extend(tokens[1:])
        elif keyword == ".outputs":
            po_names.extend(tokens[1:])
        elif keyword == ".latch":
            latches.append((tokens[1], tokens[2]))
        elif keyword == ".names":
            ins, out = tokens[1:-1], tokens[-1]
            rows: list[str] = []
            index += 1
            while index < len(tokens_per_line) and not tokens_per_line[index][0].startswith("."):
                row = tokens_per_line[index]
                if len(ins) == 0:
                    rows.append("" if row[0] == "1" else None)  # constant
                elif row[-1] == "1":
                    rows.append(row[0])
                index += 1
            luts.append((list(ins), out, rows))
            continue
        elif keyword == ".end":
            break
        index += 1
    if not (pi_names or po_names or latches or luts):
        raise NetlistError(
            f"BLIF model {model!r} has no cells (no .inputs, .outputs, "
            ".latch or .names)"
        )

    netlist = Netlist(model)
    signal_driver: dict[str, int] = {}  # signal name -> net id

    for name in pi_names:
        pi = netlist.add_input(name)
        assert pi.output is not None
        signal_driver[name] = pi.output
    for d_sig, q_sig in latches:
        ff = netlist.add_ff(f"ff_{q_sig}")
        assert ff.output is not None
        signal_driver[q_sig] = ff.output
    lut_cells = []
    for ins, out, rows in luts:
        width = max(len(ins), 1)
        table = 0
        for row in rows:
            if row is None:
                continue
            for minterm in range(1 << len(ins)):
                match = all(
                    bit == "-" or str((minterm >> pos) & 1) == bit
                    for pos, bit in enumerate(row)
                )
                if match:
                    table |= 1 << minterm
        lut = netlist.add_lut(f"lut_{out}", width, table)
        assert lut.output is not None
        signal_driver[out] = lut.output
        lut_cells.append((lut, ins))

    def resolve(signal: str) -> int:
        if signal not in signal_driver:
            raise NetlistError(f"undriven signal {signal!r}")
        return signal_driver[signal]

    for lut, ins in lut_cells:
        if not ins:  # constant generator: tie to itself via no pins — model as 1-input
            raise NetlistError(f"constant .names for {lut.name!r} unsupported")
        for pin, signal in enumerate(ins):
            netlist.connect_net(resolve(signal), lut, pin)
    for (d_sig, q_sig), ff in zip(latches, netlist.flip_flops()):
        netlist.connect_net(resolve(d_sig), ff, 0)
    for name in po_names:
        po = netlist.add_output(name)
        netlist.connect_net(resolve(name), po, 0)
    return netlist


def _joined_lines(text: str) -> list[str]:
    """Resolve BLIF backslash line continuations."""
    joined: list[str] = []
    pending = ""
    for raw in text.splitlines():
        line = pending + raw
        if line.rstrip().endswith("\\"):
            pending = line.rstrip()[:-1] + " "
            continue
        pending = ""
        joined.append(line)
    if pending:
        joined.append(pending)
    return joined

"""The 20-circuit benchmark suite calibrated to Table I.

Each spec carries the MCNC circuit's LUT and I/O counts from Table I; a
common ``scale`` shrinks every circuit identically so the whole suite
runs in reasonable Python time (Section VII ran C code on full-size
netlists).  Sequential MCNC designs get an FF share; depth grows gently
with size, and the dsip/des/bigkey trio keeps its hallmark low density
via the same min-square + pad-bound sizing rule the paper uses.
"""

from __future__ import annotations

import argparse
import math

from repro.arch.fpga import FpgaArch
from repro.bench.generator import CircuitSpec, generate_circuit
from repro.netlist.netlist import Netlist

#: Table I calibration: (luts, ios_in, ios_out, ff_fraction, depth).
#: I/O splits follow the known MCNC interfaces (approximately); what the
#: tables report is measured from the generated netlists anyway.
SUITE_SPECS: list[CircuitSpec] = [
    CircuitSpec("ex5p", 1064, 8, 63, 0.0, depth=9),
    CircuitSpec("tseng", 1047, 52, 122, 0.35, depth=9),
    CircuitSpec("apex4", 1262, 9, 19, 0.0, depth=10),
    CircuitSpec("misex3", 1397, 14, 14, 0.0, depth=10),
    CircuitSpec("alu4", 1522, 14, 8, 0.0, depth=10),
    CircuitSpec("diffeq", 1497, 64, 39, 0.30, depth=10),
    CircuitSpec("dsip", 1370, 229, 197, 0.20, depth=8),
    CircuitSpec("seq", 1750, 41, 35, 0.0, depth=10),
    CircuitSpec("apex2", 1878, 38, 3, 0.0, depth=11),
    CircuitSpec("s298", 1931, 4, 6, 0.07, depth=12),
    CircuitSpec("des", 1591, 256, 245, 0.0, depth=8),
    CircuitSpec("bigkey", 1707, 262, 164, 0.13, depth=8),
    CircuitSpec("frisc", 3556, 20, 116, 0.25, depth=13),
    CircuitSpec("spla", 3690, 16, 46, 0.0, depth=12),
    CircuitSpec("elliptic", 3604, 131, 114, 0.30, depth=12),
    CircuitSpec("ex1010", 4598, 10, 10, 0.0, depth=13),
    CircuitSpec("pdc", 4575, 16, 40, 0.0, depth=13),
    CircuitSpec("s38417", 6406, 28, 107, 0.25, depth=14),
    CircuitSpec("s38584.1", 6447, 38, 304, 0.22, depth=14),
    CircuitSpec("clma", 8383, 62, 82, 0.08, depth=15),
]

SPEC_BY_NAME = {spec.name: spec for spec in SUITE_SPECS}

#: Circuits the paper classifies as large (>= 3K cells at full scale).
LARGE_CIRCUITS = {"frisc", "spla", "elliptic", "ex1010", "pdc", "s38417", "s38584.1", "clma"}


def _float_or_nan(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def positive_scale(text: str) -> float:
    """``argparse`` type of every ``--scale`` flag: a finite number > 0.

    The ``repro`` CLI and the benchmark runner share it, so a bad scale
    exits 2 with a usage line before any store or directory is created.
    """
    value = _float_or_nan(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be a positive number, got {text!r}"
        )
    return value


def non_negative_effort(text: str) -> float:
    """``argparse`` type of every ``--effort``/``--place-effort`` flag:
    a finite number >= 0, checked before any file is written."""
    value = _float_or_nan(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite number >= 0, got {text!r}"
        )
    return value


def suite_circuit(
    name: str, scale: float = 1.0, lut_size: int = 4
) -> tuple[Netlist, FpgaArch]:
    """Generate one suite circuit and its min-square FPGA (Section VII).

    The FPGA side matches the paper's protocol: the minimum square able
    to contain the logic *and* the perimeter pads.
    """
    spec = SPEC_BY_NAME[name]
    netlist = generate_circuit(spec, scale=scale, lut_size=lut_size)
    arch = FpgaArch.min_square_for(
        num_logic_blocks=netlist.num_logic_blocks,
        num_pads=netlist.num_pads,
        lut_size=lut_size,
    )
    return netlist, arch


def stream_suite_circuit(store, name: str, scale: float = 1.0) -> dict:
    """Stream one 4-LUT suite circuit straight into a netlist store.

    The circuit never exists as Python objects: the generator writes
    cells/nets/pins through a
    :class:`~repro.netlist.store.NetlistStreamBuilder`, which is how
    ``--scale 10``/``100`` designs that would not fit in memory get
    built.  Returns the stored design's count summary.
    """
    from repro.bench.generator import generate_into
    from repro.netlist.store import design_key

    spec = SPEC_BY_NAME[name]
    key = design_key(name, scale)
    with store.stream_builder(key, spec.name) as builder:
        generate_into(builder, spec, scale=scale)
    return store.design_info(key)


def ensure_suite_design(store, name: str, scale: float) -> str:
    """Make sure ``store`` holds the suite circuit; return its design key."""
    from repro.netlist.store import design_key

    key = design_key(name, scale)
    if not store.has_design(key):
        stream_suite_circuit(store, name, scale=scale)
    return key


def suite_names(subset: str = "all") -> list[str]:
    """Circuit names: 'all', 'small' (< 3K cells), or 'large'."""
    if subset == "all":
        return [spec.name for spec in SUITE_SPECS]
    if subset == "large":
        return [spec.name for spec in SUITE_SPECS if spec.name in LARGE_CIRCUITS]
    if subset == "small":
        return [spec.name for spec in SUITE_SPECS if spec.name not in LARGE_CIRCUITS]
    raise ValueError(f"unknown subset {subset!r}")


def resolve_names(spec: str | list[str]) -> list[str]:
    """Validate a ``--circuits`` value into a list of suite names.

    Accepts the subset keywords (``all``/``small``/``large``), a CSV
    string, or an already-split list.  Unknown names raise a
    :class:`ValueError` that lists every valid name, so a typo fails
    before the experiment starts instead of mid-suite.
    """
    if isinstance(spec, str):
        if spec in ("all", "small", "large"):
            return suite_names(spec)
        names = [token.strip() for token in spec.split(",")]
    else:
        names = list(spec)
    names = [name for name in names if name]
    if not names:
        raise ValueError("empty circuit list")
    unknown = sorted(set(names) - set(SPEC_BY_NAME))
    if unknown:
        valid = ", ".join(spec.name for spec in SUITE_SPECS)
        raise ValueError(
            f"unknown circuit(s): {', '.join(unknown)}; "
            f"valid names: {valid} (or 'all', 'small', 'large')"
        )
    return names

"""Design persistence in a bookshelf-style text format.

Generated benchmarks can be written to disk and reloaded bit-exactly —
useful for freezing a benchmark suite, diffing placements, or feeding
the same netlist to external tooling.  The format is line-oriented with
explicit sections, in the spirit of the bookshelf ``.nodes/.nets/.pl``
files classic placers consume, but self-contained in one file:

.. code-block:: text

    REPRO-NETLIST v1
    DESIGN <name>
    DEVICE <cols> <rows> <tile_cols> <tile_rows> <short_cap> <global_cap>
    COLUMNS <CLB|DSP|BRAM|URAM|IO>...
    INSTANCE <name> <resource> <movable:0|1> <res>=<amount>...
    NET <weight> <pin_index>...
    CASCADE <inst_index>...
    REGION <xlo> <ylo> <xhi> <yhi> <inst_index>...
    PLACE <inst_index> <x> <y>
    END
"""

from __future__ import annotations

import os

from .._durable import write_durably
from ..arch import CascadeShape, FPGADevice, RegionConstraint, ResourceType, SiteType
from .design import Design, Instance, Net

__all__ = ["save_design", "load_design"]

_FORMAT_HEADER = "REPRO-NETLIST v1"


def save_design(design: Design, path: str | os.PathLike) -> str:
    """Serialize a design (netlist + constraints + placement) to ``path``."""
    device = design.device
    lines = [
        _FORMAT_HEADER,
        f"DESIGN {design.name}",
        f"DEVICE {device.num_cols} {device.num_rows} "
        f"{device.tile_cols} {device.tile_rows} "
        f"{device.short_capacity:g} {device.global_capacity:g}",
        "COLUMNS " + " ".join(t.value for t in device.column_types),
    ]
    for key, value in design.nominal_stats.items():
        lines.append(f"NOMINAL {key} {value}")
    for inst in design.instances:
        demand = " ".join(
            f"{res.value}={amount:.17g}" for res, amount in inst.demand.items()
        )
        lines.append(
            f"INSTANCE {inst.name} {inst.resource.value} "
            f"{int(inst.movable)} {demand}"
        )
    for net in design.nets:
        pins = " ".join(str(p) for p in net.pins)
        lines.append(f"NET {net.weight:.17g} {pins}")
    for cascade in design.cascades:
        lines.append("CASCADE " + " ".join(str(i) for i in cascade.instances))
    for region in design.regions:
        members = " ".join(str(i) for i in sorted(region.instances))
        lines.append(
            f"REGION {region.xlo:.17g} {region.ylo:.17g} "
            f"{region.xhi:.17g} {region.yhi:.17g} {members}".rstrip()
        )
    for idx in range(design.num_instances):
        lines.append(f"PLACE {idx} {design.x[idx]:.17g} {design.y[idx]:.17g}")
    lines.append("END")
    # Frozen benchmark files are durable artifacts: a crash never
    # leaves a torn netlist at the final name.
    data = ("\n".join(lines) + "\n").encode()
    return str(write_durably(path, lambda fh: fh.write(data)))


def load_design(path: str | os.PathLike) -> Design:
    """Reload a design written by :func:`save_design`."""
    with open(path) as handle:
        lines = [line.rstrip("\n") for line in handle]
    if not lines or lines[0] != _FORMAT_HEADER:
        raise ValueError(f"{path}: not a {_FORMAT_HEADER} file")

    name = "unnamed"
    device: FPGADevice | None = None
    device_params: tuple | None = None
    nominal: dict[str, int] = {}
    instances: list[Instance] = []
    nets: list[Net] = []
    cascades: list[CascadeShape] = []
    regions: list[RegionConstraint] = []
    placements: list[tuple[int, int, float, float]] = []

    for lineno, line in enumerate(lines[1:], start=2):
        if not line or line.startswith("#"):
            continue
        if line == "END":
            break
        keyword, _, rest = line.partition(" ")
        fields = rest.split()
        try:
            if keyword == "DESIGN":
                name = rest.strip()
            elif keyword == "DEVICE":
                device_params = (
                    int(fields[0]), int(fields[1]), int(fields[2]),
                    int(fields[3]), float(fields[4]), float(fields[5]),
                )
            elif keyword == "COLUMNS":
                if device_params is None:
                    raise ValueError("COLUMNS before DEVICE")
                cols, rows, tc, tr, sc, gc = device_params
                device = FPGADevice(
                    num_cols=cols, num_rows=rows,
                    column_types=tuple(SiteType(v) for v in fields),
                    tile_cols=tc, tile_rows=tr,
                    short_capacity=sc, global_capacity=gc,
                    name=f"loaded:{name}",
                )
            elif keyword == "NOMINAL":
                nominal[fields[0]] = int(fields[1])
            elif keyword == "INSTANCE":
                demand = {}
                for token in fields[3:]:
                    res_name, _, amount = token.partition("=")
                    demand[ResourceType(res_name)] = float(amount)
                instances.append(
                    Instance(
                        name=fields[0],
                        resource=ResourceType(fields[1]),
                        demand=demand or None,
                        movable=bool(int(fields[2])),
                    )
                )
            elif keyword == "NET":
                nets.append(
                    Net(tuple(int(p) for p in fields[1:]), weight=float(fields[0]))
                )
            elif keyword == "CASCADE":
                cascades.append(CascadeShape(tuple(int(i) for i in fields)))
            elif keyword == "REGION":
                regions.append(
                    RegionConstraint(
                        float(fields[0]), float(fields[1]),
                        float(fields[2]), float(fields[3]),
                        frozenset(int(i) for i in fields[4:]),
                    )
                )
            elif keyword == "PLACE":
                placements.append(
                    (lineno, int(fields[0]), float(fields[1]), float(fields[2]))
                )
            else:
                raise ValueError(f"unknown keyword {keyword!r}")
        except (IndexError, KeyError) as exc:
            raise ValueError(f"{path}:{lineno}: malformed line: {line!r}") from exc

    if device is None:
        raise ValueError(f"{path}: missing DEVICE/COLUMNS sections")

    # Instance() replaces an empty demand with the default; preserve
    # explicitly-empty demand (IO pads) via a zero entry.
    for inst in instances:
        if not inst.demand:
            inst.demand = {inst.resource: 1.0}

    design = Design(
        name=name,
        device=device,
        instances=instances,
        nets=nets,
        cascades=cascades,
        regions=regions,
        nominal_stats=nominal,
    )
    if placements:
        x = design.x.copy()
        y = design.y.copy()
        for lineno, idx, px, py in placements:
            if not 0 <= idx < len(instances):
                raise ValueError(
                    f"{path}:{lineno}: PLACE index {idx} out of range "
                    f"for {len(instances)} instances"
                )
            x[idx] = px
            y[idx] = py
        design.set_placement(x, y)
    return design

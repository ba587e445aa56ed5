"""Electrostatic density model (ePlace/elfPlace style).

Each resource *field* (CLB, DSP, BRAM, URAM) is an independent
electrostatic system, as in elfPlace/DREAMPlaceFPGA: instances are
positive charges with charge = their site-unit area, the per-bin
capacity acts as the neutralizing background, and the density penalty is
the field energy.  The potential is obtained by solving Poisson's
equation with Neumann boundary conditions via a type-II DCT
(``scipy.fft``), and the force on every instance is the field at its
bin, times its charge.

Instances are deposited with bilinear weights over the four bins nearest
their center, scaled by their (possibly inflated) area, so the
congestion-driven inflation of Eqs. 11–13 directly raises local density
and pushes neighbours away.

The fields stay independent but are computed together: one ``bincount``
deposits every field into an ``(F, bins, bins)`` stack, one DCT pair
solves all F Poisson problems (the denominator is built once per
system), and one bilinear gather and one ``bincount`` per axis turn the
fields into forces.  Each step adds in the same order as the former
per-field loop, so energies and forces are bitwise unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import fft as sp_fft

from ..arch import FPGADevice, ResourceType, SiteType
from ..netlist import Design

__all__ = ["DensityField", "ElectrostaticSystem", "FIELD_GROUPS"]

# Which netlist resources share one electrostatic field.  LUT+FF share
# the CLB fabric, so (as in elfPlace) they form a single field whose
# site-unit area is max(LUT/8, FF/16).
FIELD_GROUPS: dict[str, tuple[ResourceType, ...]] = {
    "CLB": (ResourceType.LUT, ResourceType.FF),
    "DSP": (ResourceType.DSP,),
    "BRAM": (ResourceType.BRAM,),
    "URAM": (ResourceType.URAM,),
}

_SITE_UNITS = {
    ResourceType.LUT: 8.0,
    ResourceType.FF: 16.0,
    ResourceType.DSP: 1.0,
    ResourceType.BRAM: 1.0,
    ResourceType.URAM: 1.0,
}

_FIELD_SITE = {
    "CLB": SiteType.CLB,
    "DSP": SiteType.DSP,
    "BRAM": SiteType.BRAM,
    "URAM": SiteType.URAM,
}


def _site_area(design: Design, field: str) -> np.ndarray:
    """Per-instance area in site units for one field (0 when not in field)."""
    areas = np.zeros(design.num_instances)
    for res in FIELD_GROUPS[field]:
        col = list(ResourceType).index(res)
        areas = np.maximum(areas, design.demand_matrix[:, col] / _SITE_UNITS[res])
    return areas


@dataclass
class DensityField:
    """One resource field: member instances, areas and bin capacities."""

    name: str
    members: np.ndarray  # instance indices with area > 0
    areas: np.ndarray  # site-unit area per member (mutable: inflation)
    capacity: np.ndarray  # (bins, bins) available sites per bin
    bins: int

    @property
    def total_capacity(self) -> float:
        return float(self.capacity.sum())

    @property
    def total_area(self) -> float:
        return float(self.areas.sum())


class ElectrostaticSystem:
    """Multi-field electrostatics over a ``bins × bins`` grid.

    Parameters
    ----------
    design:
        The netlist; field membership and initial areas derive from its
        demand matrix.
    bins:
        Density grid resolution.  The grid spans the whole device.
    """

    def __init__(self, design: Design, bins: int = 32) -> None:
        self.design = design
        self.device: FPGADevice = design.device
        self.bins = bins
        self.bin_w = self.device.width / bins
        self.bin_h = self.device.height / bins
        self.fields: dict[str, DensityField] = {}
        for name, resources in FIELD_GROUPS.items():
            areas = _site_area(design, name)
            members = np.flatnonzero(areas > 0)
            if members.size == 0:
                continue
            capacity = self._site_capacity_map(name)
            self.fields[name] = DensityField(
                name=name,
                members=members,
                # Fancy indexing already yields a fresh private array;
                # inflation may later mutate it without aliasing `areas`.
                areas=areas[members],
                capacity=capacity,
                bins=bins,
            )
        # Poisson denominator of the DCT modes, shared by every solve.
        kx = np.pi * np.arange(bins) / bins
        ky = np.pi * np.arange(bins) / bins
        self._denom = (
            (2.0 - 2.0 * np.cos(kx))[:, None] / (self.bin_w**2)
            + (2.0 - 2.0 * np.cos(ky))[None, :] / (self.bin_h**2)
        )
        self._denom[0, 0] = 1.0  # zero mode: potential defined up to a constant

    def _site_capacity_map(self, field: str) -> np.ndarray:
        """Sites of the field's type per bin (site units, not resources)."""
        site_type = _FIELD_SITE[field]
        cap = np.zeros((self.bins, self.bins))
        col_width = self.device.num_cols / self.bins
        rows_per_bin = self.device.num_rows / self.bins
        for x, col_type in enumerate(self.device.column_types):
            if col_type is not site_type:
                continue
            lo = int(x / col_width)
            hi = int((x + 1 - 1e-9) / col_width)
            for b in range(lo, hi + 1):
                left = max(x, b * col_width)
                right = min(x + 1, (b + 1) * col_width)
                cap[b, :] += max(0.0, right - left) * rows_per_bin
        return cap

    # -- deposition --------------------------------------------------------------

    def _deposit(
        self, field: DensityField, x: np.ndarray, y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Bilinear scatter of one field's member areas into the bin grid.

        Returns ``(density, flat, fx, fy)`` as :meth:`_deposit_fields`
        does, with ``density`` a single ``(bins, bins)`` grid.
        """
        density, flat, fx, fy = self._deposit_fields([field], x, y)
        return density[0], flat, fx, fy

    def _deposit_fields(
        self, fields: list[DensityField], x: np.ndarray, y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Bilinear scatter of several fields into an ``(F, bins, bins)`` stack.

        Returns ``(density, flat, fx, fy)``: per member (the fields'
        members concatenated in ``fields`` order) the flat index
        ``field·bins² + ix·bins + iy`` of its lower bin and its fractional
        offsets, reused by the force gather.  One ``bincount`` adds the
        four corner weights corner by corner; fields own disjoint bins,
        so every bin sums in the order four ``np.add.at`` calls per field
        would, bitwise alike.
        """
        n = self.bins
        members = np.concatenate([f.members for f in fields])
        mx = x[members] / self.bin_w - 0.5
        my = y[members] / self.bin_h - 0.5
        mx = np.clip(mx, 0.0, n - 1.0 - 1e-9)
        my = np.clip(my, 0.0, n - 1.0 - 1e-9)
        ix = mx.astype(np.int64)
        iy = my.astype(np.int64)
        fx = mx - ix
        fy = my - iy

        sizes = [f.members.size for f in fields]
        flat = np.repeat(np.arange(len(fields)) * n * n, sizes) + ix * n + iy
        a = np.concatenate([f.areas for f in fields])
        density = np.bincount(
            np.concatenate([flat, flat + n, flat + 1, flat + n + 1]),
            weights=np.concatenate([
                a * (1 - fx) * (1 - fy),
                a * fx * (1 - fy),
                a * (1 - fx) * fy,
                a * fx * fy,
            ]),
            minlength=len(fields) * n * n,
        ).reshape(len(fields), n, n)
        return density, flat, fx, fy

    # -- Poisson solve ------------------------------------------------------------

    def _solve_poisson(self, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Solve ∇²φ = -ρ with Neumann boundaries; return (φ, Ex, Ey).

        ``rho`` is one ``(bins, bins)`` grid or an ``(F, bins, bins)``
        stack; the DCT pair runs over the last two axes.
        """
        axes = (-2, -1)
        rho_hat = sp_fft.dctn(rho, type=2, norm="ortho", axes=axes)
        phi_hat = rho_hat / self._denom
        phi_hat[..., 0, 0] = 0.0
        phi = sp_fft.idctn(phi_hat, type=2, norm="ortho", axes=axes)
        # Electric field E = -∇φ via central differences.
        ex = np.zeros_like(phi)
        ey = np.zeros_like(phi)
        ex[..., 1:-1, :] = (phi[..., :-2, :] - phi[..., 2:, :]) / (2.0 * self.bin_w)
        ex[..., 0, :] = (phi[..., 0, :] - phi[..., 1, :]) / self.bin_w
        ex[..., -1, :] = (phi[..., -2, :] - phi[..., -1, :]) / self.bin_w
        ey[..., 1:-1] = (phi[..., :-2] - phi[..., 2:]) / (2.0 * self.bin_h)
        ey[..., 0] = (phi[..., 0] - phi[..., 1]) / self.bin_h
        ey[..., -1] = (phi[..., -2] - phi[..., -1]) / self.bin_h
        return phi, ex, ey

    def _solve_fields(
        self, x: np.ndarray, y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Deposit, solve and gather every field in one pass.

        Returns ``(rho, phi, exm, eym)``: the charge-neutral residual and
        potential stacks ``(F, bins, bins)`` in ``self.fields`` order, and
        per member (fields concatenated) the field gathered with the
        deposition's bilinear weights, term for term.
        """
        fields = list(self.fields.values())
        n = self.bins
        density, flat, fx, fy = self._deposit_fields(fields, x, y)
        # Charge-neutral residual: subtract the scaled capacity so a
        # perfectly spread placement has zero field.
        scale = np.array(
            [f.total_area / max(f.total_capacity, 1e-12) for f in fields]
        )
        capacity = np.stack([f.capacity for f in fields])
        rho = density - capacity * scale[:, None, None]
        phi, ex, ey = self._solve_poisson(rho)
        ex, ey = ex.ravel(), ey.ravel()
        exm = (
            ex[flat] * (1 - fx) * (1 - fy)
            + ex[flat + n] * fx * (1 - fy)
            + ex[flat + 1] * (1 - fx) * fy
            + ex[flat + n + 1] * fx * fy
        )
        eym = (
            ey[flat] * (1 - fx) * (1 - fy)
            + ey[flat + n] * fx * (1 - fy)
            + ey[flat + 1] * (1 - fx) * fy
            + ey[flat + n + 1] * fx * fy
        )
        return rho, phi, exm, eym

    # -- public API ---------------------------------------------------------------------

    def overflow(self, x: np.ndarray, y: np.ndarray) -> dict[str, float]:
        """Per-field density overflow: Σ max(0, demand − cap) / Σ demand.

        This is the quantity the Fig. 6 flow gates on
        (``Overflow_t < 0.25`` for macros, ``< 0.15`` for LUT/FF).

        Macro fields are measured *after* snapping each member to its
        nearest legal column: legalization will do exactly that snap, so
        a macro hovering one bin away from a DSP column is not actually
        overflowing anything.
        """
        result: dict[str, float] = {}
        for name, field in self.fields.items():
            total = field.areas.sum()
            if total <= 0:
                result[name] = 0.0
                continue
            if name != "CLB":
                # Column-level feasibility: snap each macro to its nearest
                # legal column and measure per-column over-subscription
                # (legalization spreads freely in y within a column).
                cols = self.device.columns_of_type(_FIELD_SITE[name])
                if cols.size == 0:
                    result[name] = 1.0
                    continue
                member_x = x[field.members]
                nearest = np.argmin(
                    np.abs(member_x[:, None] - (cols[None, :] + 0.5)), axis=1
                )
                per_col = np.bincount(
                    nearest, weights=field.areas, minlength=cols.size
                )
                over = np.maximum(
                    0.0, per_col - float(self.device.num_rows)
                ).sum()
                result[name] = float(over / total)
                continue
            density, *_ = self._deposit(field, x, y)
            over = np.maximum(0.0, density - field.capacity).sum()
            result[name] = float(over / total)
        return result

    def energy_and_forces(
        self, x: np.ndarray, y: np.ndarray, field_weights: dict[str, float] | None = None
    ) -> tuple[dict[str, float], np.ndarray, np.ndarray]:
        """Field energies and per-instance forces (negative penalty gradient).

        Returns ``(energy_by_field, force_x, force_y)`` where forces are
        accumulated over all fields an instance belongs to.  The density
        *penalty gradient* used by the optimizer is ``-force``.
        ``field_weights`` rescales each field's force — elfPlace-style
        per-field multipliers, so sparse fields (URAM) still feel a pull
        comparable to the dense CLB field.
        """
        num = self.design.num_instances
        if not self.fields:
            return {}, np.zeros(num), np.zeros(num)
        fields = self.fields.values()
        rho, phi, exm, eym = self._solve_fields(x, y)
        energies = {
            name: float(0.5 * (rho[k] * phi[k]).sum())
            for k, name in enumerate(self.fields)
        }
        weights = [
            1.0 if field_weights is None else field_weights.get(name, 1.0)
            for name in self.fields
        ]
        sizes = [f.members.size for f in fields]
        charge = np.repeat(weights, sizes) * np.concatenate([f.areas for f in fields])
        members = np.concatenate([f.members for f in fields])
        force_x = np.bincount(members, weights=charge * exm, minlength=num)
        force_y = np.bincount(members, weights=charge * eym, minlength=num)
        return energies, force_x, force_y

    def field_force_norms(self, x: np.ndarray, y: np.ndarray) -> dict[str, float]:
        """RMS force per field at the current placement (for λ balancing)."""
        if not self.fields:
            return {}
        _, _, exm, eym = self._solve_fields(x, y)
        areas = np.concatenate([f.areas for f in self.fields.values()])
        fx_m = areas * exm
        fy_m = areas * eym
        sq = fx_m**2 + fy_m**2
        norms: dict[str, float] = {}
        lo = 0
        for name, field in self.fields.items():
            hi = lo + field.members.size
            norms[name] = float(np.sqrt(np.mean(sq[lo:hi])) + 1e-12)
            lo = hi
        return norms

    def inflate(self, field_name: str, member_scale: np.ndarray) -> None:
        """Multiply member areas of one field (instance-inflation hook)."""
        field = self.fields[field_name]
        if member_scale.shape != field.areas.shape:
            raise ValueError("member_scale must match field member count")
        field.areas *= member_scale

    def set_areas(self, field_name: str, areas: np.ndarray) -> None:
        """Replace member areas of one field."""
        field = self.fields[field_name]
        if areas.shape != field.areas.shape:
            raise ValueError("areas must match field member count")
        field.areas = areas.astype(np.float64).copy()

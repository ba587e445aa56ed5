"""The all-field electrostatic pass against the per-field loop it replaced.

``_reference`` is the per-field deposit / Poisson / gather loop
``ElectrostaticSystem`` ran before every field went through one
``bincount`` and one DCT pair.  Results must match bit for bit
(``np.array_equal``, never ``allclose``): the golden flow run depends on
it.
"""

import numpy as np
import pytest
from scipy import fft as sp_fft

from repro.arch import ResourceType
from repro.netlist import Design, Instance, Net
from repro.placement import ElectrostaticSystem


def _reference(system, x, y, field_weights=None):
    """Per-field energies, forces and force norms, one field at a time."""
    n = system.bins
    energies, norms = {}, {}
    force_x = np.zeros(system.design.num_instances)
    force_y = np.zeros(system.design.num_instances)
    for name, field in system.fields.items():
        weight = 1.0 if field_weights is None else field_weights.get(name, 1.0)
        mx = np.clip(x[field.members] / system.bin_w - 0.5, 0.0, n - 1.0 - 1e-9)
        my = np.clip(y[field.members] / system.bin_h - 0.5, 0.0, n - 1.0 - 1e-9)
        ix = mx.astype(np.int64)
        iy = my.astype(np.int64)
        fx = mx - ix
        fy = my - iy
        density = np.zeros((n, n))
        a = field.areas
        np.add.at(density, (ix, iy), a * (1 - fx) * (1 - fy))
        np.add.at(density, (ix + 1, iy), a * fx * (1 - fy))
        np.add.at(density, (ix, iy + 1), a * (1 - fx) * fy)
        np.add.at(density, (ix + 1, iy + 1), a * fx * fy)
        scale = field.total_area / max(field.total_capacity, 1e-12)
        rho = density - field.capacity * scale

        rho_hat = sp_fft.dctn(rho, type=2, norm="ortho")
        k = np.pi * np.arange(n) / n
        denom = (
            (2.0 - 2.0 * np.cos(k))[:, None] / (system.bin_w**2)
            + (2.0 - 2.0 * np.cos(k))[None, :] / (system.bin_h**2)
        )
        denom[0, 0] = 1.0
        phi_hat = rho_hat / denom
        phi_hat[0, 0] = 0.0
        phi = sp_fft.idctn(phi_hat, type=2, norm="ortho")
        ex = np.zeros_like(phi)
        ey = np.zeros_like(phi)
        ex[1:-1, :] = (phi[:-2, :] - phi[2:, :]) / (2.0 * system.bin_w)
        ex[0, :] = (phi[0, :] - phi[1, :]) / system.bin_w
        ex[-1, :] = (phi[-2, :] - phi[-1, :]) / system.bin_w
        ey[:, 1:-1] = (phi[:, :-2] - phi[:, 2:]) / (2.0 * system.bin_h)
        ey[:, 0] = (phi[:, 0] - phi[:, 1]) / system.bin_h
        ey[:, -1] = (phi[:, -2] - phi[:, -1]) / system.bin_h

        energies[name] = float(0.5 * (rho * phi).sum())
        exm = (
            ex[ix, iy] * (1 - fx) * (1 - fy)
            + ex[ix + 1, iy] * fx * (1 - fy)
            + ex[ix, iy + 1] * (1 - fx) * fy
            + ex[ix + 1, iy + 1] * fx * fy
        )
        eym = (
            ey[ix, iy] * (1 - fx) * (1 - fy)
            + ey[ix + 1, iy] * fx * (1 - fy)
            + ey[ix, iy + 1] * (1 - fx) * fy
            + ey[ix + 1, iy + 1] * fx * fy
        )
        np.add.at(force_x, field.members, weight * field.areas * exm)
        np.add.at(force_y, field.members, weight * field.areas * eym)
        fx_m = field.areas * exm
        fy_m = field.areas * eym
        norms[name] = float(np.sqrt(np.mean(fx_m**2 + fy_m**2)) + 1e-12)
    return energies, force_x, force_y, norms


def _assert_matches(system, x, y, field_weights=None):
    want_e, want_fx, want_fy, want_norms = _reference(system, x, y, field_weights)
    got_e, got_fx, got_fy = system.energy_and_forces(x, y, field_weights)
    assert got_e == want_e
    assert np.array_equal(got_fx, want_fx)
    assert np.array_equal(got_fy, want_fy)
    assert system.field_force_norms(x, y) == want_norms


def _scattered(design, seed):
    rng = np.random.default_rng(seed)
    dev = design.device
    # Include points past the device edge: deposition clips them.
    x = rng.uniform(-1.0, dev.width + 1.0, design.num_instances)
    y = rng.uniform(-1.0, dev.height + 1.0, design.num_instances)
    return x, y


@pytest.mark.parametrize("bins", [8, 16, 32])
@pytest.mark.parametrize("seed", range(4))
def test_matches_per_field_loop(fresh_tiny_design, bins, seed):
    system = ElectrostaticSystem(fresh_tiny_design, bins=bins)
    x, y = _scattered(fresh_tiny_design, seed)
    _assert_matches(system, x, y)
    weights = {name: 0.5 + k for k, name in enumerate(system.fields)}
    _assert_matches(system, x, y, weights)


def test_matches_after_inflate_and_set_areas(fresh_tiny_design):
    system = ElectrostaticSystem(fresh_tiny_design, bins=16)
    x, y = _scattered(fresh_tiny_design, 7)
    rng = np.random.default_rng(7)
    clb = system.fields["CLB"]
    system.inflate("CLB", rng.uniform(1.0, 2.0, clb.members.size))
    _assert_matches(system, x, y)
    dsp = system.fields["DSP"]
    system.set_areas("DSP", rng.uniform(0.5, 3.0, dsp.members.size))
    _assert_matches(system, x, y, {"DSP": 3.0})


def test_matches_with_missing_fields(manual_design):
    design = manual_design
    system = ElectrostaticSystem(design, bins=8)
    assert "URAM" not in system.fields
    for seed in range(3):
        x, y = _scattered(design, seed)
        _assert_matches(system, x, y)


def test_stacked_poisson_matches_single_solves(fresh_tiny_design):
    system = ElectrostaticSystem(fresh_tiny_design, bins=16)
    rho = np.random.default_rng(3).normal(size=(4, 16, 16))
    stacked = system._solve_poisson(rho)
    for k in range(4):
        for got, want in zip(stacked, system._solve_poisson(rho[k])):
            assert np.array_equal(got[k], want)


def test_design_without_fields(tiny_device):
    pads = [Instance(f"io{k}", ResourceType.LUT, {ResourceType.LUT: 0.0}) for k in range(2)]
    system = ElectrostaticSystem(Design("pads", tiny_device, pads, [Net((0, 1))]), bins=8)
    assert not system.fields
    x = y = np.ones(2)
    _assert_matches(system, x, y)

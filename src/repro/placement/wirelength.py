"""Smooth wirelength models and gradients.

Global placement minimizes the weighted-average (WA) wirelength, the
differentiable HPWL surrogate used by DREAMPlaceFPGA/elfPlace.  For a
net with pin coordinates :math:`x_i` the WA span along x is

.. math::
    WA_x = \\frac{\\sum_i x_i e^{x_i/\\gamma}}{\\sum_i e^{x_i/\\gamma}}
         - \\frac{\\sum_i x_i e^{-x_i/\\gamma}}{\\sum_i e^{-x_i/\\gamma}}

which approaches ``max(x) - min(x)`` as the smoothing parameter
``gamma`` shrinks.  Everything is evaluated with per-net segment
reductions (``np.bincount`` sums, ``np.maximum.at`` / ``np.minimum.at``
extrema) so the cost is one pass over the pin arrays.  A weighted
``np.bincount`` adds in index order, exactly as ``np.add.at`` on zeros,
so the sums are bitwise those of the scatter it replaces.
"""

from __future__ import annotations

import numpy as np

from ..netlist import Design

__all__ = [
    "hpwl",
    "wa_wirelength",
    "wa_wirelength_grad",
    "lse_wirelength",
    "lse_wirelength_grad",
]


def hpwl(design: Design, x: np.ndarray, y: np.ndarray) -> float:
    """Half-perimeter wirelength of placement ``(x, y)``."""
    px = x[design.pin_inst]
    py = y[design.pin_inst]
    num = design.num_nets
    max_x = np.full(num, -np.inf)
    min_x = np.full(num, np.inf)
    max_y = np.full(num, -np.inf)
    min_y = np.full(num, np.inf)
    np.maximum.at(max_x, design.pin_net, px)
    np.minimum.at(min_x, design.pin_net, px)
    np.maximum.at(max_y, design.pin_net, py)
    np.minimum.at(min_y, design.pin_net, py)
    spans = (max_x - min_x) + (max_y - min_y)
    return float((spans * design.net_weights).sum())


def _wa_axis(
    coords: np.ndarray,
    pin_net: np.ndarray,
    num_nets: int,
    gamma: float,
) -> tuple[np.ndarray, np.ndarray]:
    """WA span and per-pin gradient along one axis.

    Returns ``(span_per_net, grad_per_pin)``.
    """
    # Stabilize the exponentials with per-net max/min shifts.
    net_max = np.full(num_nets, -np.inf)
    net_min = np.full(num_nets, np.inf)
    np.maximum.at(net_max, pin_net, coords)
    np.minimum.at(net_min, pin_net, coords)

    ep = coords - net_max[pin_net]  # for the max side
    ep /= gamma
    np.exp(ep, out=ep)
    em = net_min[pin_net] - coords  # for the min side
    em /= gamma
    np.exp(em, out=em)

    sum_ep = np.bincount(pin_net, weights=ep, minlength=num_nets)
    sum_xep = np.bincount(pin_net, weights=coords * ep, minlength=num_nets)
    sum_em = np.bincount(pin_net, weights=em, minlength=num_nets)
    sum_xem = np.bincount(pin_net, weights=coords * em, minlength=num_nets)

    wa_max = sum_xep / sum_ep
    wa_min = sum_xem / sum_em
    span = wa_max - wa_min

    # d(wa_max)/dx_i = e_i/S * (1 + (x_i - wa_max)/gamma)
    # d(wa_min)/dx_i = m_i/T * (1 - (x_i - wa_min)/gamma)
    ep /= sum_ep[pin_net]
    ep *= 1.0 + (coords - wa_max[pin_net]) / gamma
    em /= sum_em[pin_net]
    em *= 1.0 - (coords - wa_min[pin_net]) / gamma
    ep -= em
    return span, ep


def wa_wirelength(
    design: Design, x: np.ndarray, y: np.ndarray, gamma: float
) -> float:
    """Weighted-average wirelength of placement ``(x, y)``."""
    span_x, _ = _wa_axis(x[design.pin_inst], design.pin_net, design.num_nets, gamma)
    span_y, _ = _wa_axis(y[design.pin_inst], design.pin_net, design.num_nets, gamma)
    return float(((span_x + span_y) * design.net_weights).sum())


def _lse_axis(
    coords: np.ndarray,
    pin_net: np.ndarray,
    num_nets: int,
    gamma: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Log-sum-exp span and per-pin gradient along one axis.

    ``LSE_x = γ·log Σ e^{x/γ} + γ·log Σ e^{-x/γ}`` — the other classic
    smooth HPWL surrogate (NTUplace/ePlace lineage).  Unlike WA it is a
    guaranteed *upper* bound of the true span.
    """
    net_max = np.full(num_nets, -np.inf)
    net_min = np.full(num_nets, np.inf)
    np.maximum.at(net_max, pin_net, coords)
    np.minimum.at(net_min, pin_net, coords)

    ep = np.exp((coords - net_max[pin_net]) / gamma)
    em = np.exp((net_min[pin_net] - coords) / gamma)
    sum_ep = np.bincount(pin_net, weights=ep, minlength=num_nets)
    sum_em = np.bincount(pin_net, weights=em, minlength=num_nets)

    span = (
        net_max - net_min + gamma * (np.log(sum_ep) + np.log(sum_em))
    )
    grad = ep / sum_ep[pin_net] - em / sum_em[pin_net]
    return span, grad


def lse_wirelength(
    design: Design, x: np.ndarray, y: np.ndarray, gamma: float
) -> float:
    """Log-sum-exp wirelength (upper-bound smooth HPWL surrogate)."""
    span_x, _ = _lse_axis(x[design.pin_inst], design.pin_net, design.num_nets, gamma)
    span_y, _ = _lse_axis(y[design.pin_inst], design.pin_net, design.num_nets, gamma)
    return float(((span_x + span_y) * design.net_weights).sum())


def lse_wirelength_grad(
    design: Design, x: np.ndarray, y: np.ndarray, gamma: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """LSE wirelength with its per-instance gradient."""
    pin_x = x[design.pin_inst]
    pin_y = y[design.pin_inst]
    span_x, pin_gx = _lse_axis(pin_x, design.pin_net, design.num_nets, gamma)
    span_y, pin_gy = _lse_axis(pin_y, design.pin_net, design.num_nets, gamma)
    weights = design.net_weights[design.pin_net]
    grad_x = np.bincount(design.pin_inst, weights=pin_gx * weights, minlength=x.size)
    grad_y = np.bincount(design.pin_inst, weights=pin_gy * weights, minlength=y.size)
    total = float(((span_x + span_y) * design.net_weights).sum())
    return total, grad_x, grad_y


def wa_wirelength_grad(
    design: Design, x: np.ndarray, y: np.ndarray, gamma: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """WA wirelength with its gradient w.r.t. every instance position.

    Returns ``(wirelength, grad_x, grad_y)`` where the gradients have one
    entry per instance (pin gradients of an instance are summed).
    """
    pin_x = x[design.pin_inst]
    pin_y = y[design.pin_inst]
    span_x, pin_gx = _wa_axis(pin_x, design.pin_net, design.num_nets, gamma)
    span_y, pin_gy = _wa_axis(pin_y, design.pin_net, design.num_nets, gamma)

    weights = design.net_weights[design.pin_net]
    grad_x = np.bincount(design.pin_inst, weights=pin_gx * weights, minlength=x.size)
    grad_y = np.bincount(design.pin_inst, weights=pin_gy * weights, minlength=y.size)
    total = float(((span_x + span_y) * design.net_weights).sum())
    return total, grad_x, grad_y

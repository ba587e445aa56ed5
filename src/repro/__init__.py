"""repro — reproduction of "Multiscale Feature Attention and Transformer
Based Congestion Prediction for Routability-Driven FPGA Macro Placement"
(DATE 2025).

Subpackages
-----------
Each loads on first use (``from repro import nn``, ``import repro.nn``);
``import repro`` alone imports none of them.

``repro.nn``
    Pure-numpy deep-learning substrate (autograd, conv/attention layers,
    Adam) — the PyTorch substitute.
``repro.arch``
    XCVU3P-like device model: site columns, interconnect tiles,
    cascade-shape and region constraints.
``repro.netlist``
    Netlist containers and the synthetic MLCAD-2023-like benchmark
    generator (the ten Table-I designs).
``repro.placement``
    Electrostatics-based routability-driven macro placement flow
    (Fig. 6), incl. Eq. 11-13 instance inflation and legalization.
``repro.routing``
    Global router with negotiated congestion, the Fig. 1 congestion
    levels, and the detailed-routing effort model.
``repro.features``
    The six grid-based input feature maps (Section III-B).
``repro.models``
    The MFA+transformer model (Figs. 2-5) and the U-Net / PGNN /
    PROS 2.0 baselines.
``repro.train``
    Dataset generation with rotation augmentation, the training loop and
    the ACC/R2/NRMS metrics of Table I.
``repro.contest``
    MLCAD 2023 scoring (Eqs. 1-3), the Table-II teams, and the
    evaluation harness.
``repro.resilience``
    Fault tolerance: atomic resumable checkpoints, divergence
    recovery, estimator fallback, and deterministic fault injection.
``repro.analysis``
    Feature-congestion correlation analysis and report export.

Quickstart
----------
>>> from repro.netlist import generate_design, MLCAD2023_SPECS
>>> from repro.placement import place_design
>>> from repro.routing import route_design, congestion_report
>>> design = generate_design(MLCAD2023_SPECS["Design_116"], scale=1 / 256)
>>> outcome = place_design(design)
>>> report = congestion_report(route_design(design))
"""

__version__ = "1.0.0"

__all__ = ["__version__"]

"""Probabilistic message-passing graph neural networks for distribution grids.

Submodules:

* ``diffcore``   layers and their backward kernels, MLPs, Adam
* ``gridgraph``  topology hierarchy and per-node feature schemas
* ``mpnn``       the encode / message-pass / decode model
* ``training``   sample assembly, Gaussian NLL, training loop
* ``imputation`` missing-data imputation by one forward inference
* ``gridsim``    synthetic grid simulator and exact Gaussian oracle
* ``baselines``  centralized MLP/AE benchmarks and metrics
* ``services``   congestion detection and flexibility-bid estimation
* ``cli``        command-line pipeline
"""

__version__ = "0.1.0"

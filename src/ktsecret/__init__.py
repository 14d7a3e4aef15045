"""Reconstruction toolkit for undersampled dynamic (k,t)-space data.

Subpackages/modules:
    numerics   - unitary 2D DFT and finite-difference operators
    encoding   - (k,t) sampling masks and the encoding operator
    phantom    - synthetic contrast-enhanced phantoms with known kinetics
    cs         - total-variation compressed-sensing baseline
    net        - small conv net with hand-written backprop and Adam
    recon      - unrolled supervised (MoDL) and self-supervised (SECRET) paths
    kinetics   - Patlak quantification and PSNR/SSIM/NRMSE metrics
    container  - every file format: tensors, weights, masks, phantoms, PGM and CSV
    pipeline   - the end-to-end pipeline run and the config checks
    cli        - command-line argument parsing and subcommands
"""

__version__ = "0.1.0"

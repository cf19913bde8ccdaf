"""Spectral solver and verification battery for a frictional Schrodinger
equation with truncated Newton self-interaction on a periodic box."""

__version__ = "0.1.0"

from .errors import DivergenceDetected, NonConvergence
from .grid import (Field, GridSpec, boundary_decay, from_spectral,
                   gaussian_field, h1_norm, inner, l2_norm, laplacian, lp_norm,
                   make_grid, random_band_limited, scaled_gaussian, to_spectral,
                   zero_field)
from .kernel import (KernelSpec, apply_kernel, default_radius,
                     direct_convolution_oracle, kernel_table, tail_norm_bound,
                     tail_norm_estimate)
from .nonlinear import (PhysParams, big_g1, density, g1, g2, nonlinear_part,
                        potential, rhs)
from .propagate import free_evolve, free_gaussian_exact
from .trajectory import Trajectory, norm_law_residuals, sup_h1_distance
from .picard import (ContractionReport, ConvergenceReport, PicardConfig,
                     contraction_report, duhamel_map, march_solve,
                     picard_solve)
from .stepper import RunReport, StepConfig, evolve, ifrk4_step
from .experiments import VerifyResult, verify_battery
from .config import (ConfigError, ExperimentConfig, build_initial, config_hash,
                     parse_config, serialize_config)
from .io import read_csv, read_field, write_csv, write_field, write_manifest

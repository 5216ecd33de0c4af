//! # neon-experiments
//!
//! One harness per table/figure of the paper's evaluation (§5), plus
//! the §3 throughput comparison, the §6.3 channel-DoS experiment, and
//! ablation sweeps over the design's calibration constants.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`table1`] | Table 1 — per-app round and request times |
//! | [`fig2`] | Figure 2 — request inter-arrival / service CDFs |
//! | [`sec3`] | §3 — direct vs trap-per-request throughput |
//! | [`fig4`] | Figure 4 — standalone slowdown per scheduler |
//! | [`fig5`] | Figure 5 — standalone Throttle slowdown vs request size |
//! | [`fig6`] | Figure 6 — pairwise fairness (normalized runtimes) |
//! | [`fig7`] | Figure 7 — concurrency efficiency of the Figure 6 runs |
//! | [`fig8`] | Figure 8 — four-way fairness and efficiency |
//! | [`fig9`] | Figure 9 — nonsaturating fairness |
//! | [`fig10`] | Figure 10 — nonsaturating efficiency |
//! | [`sec63`] | §6.3 — channel/context exhaustion DoS and the C/D policy |
//! | [`figp`] | Figure P (beyond the paper) — placement quality on symmetric vs heterogeneous multi-GPU topologies |
//! | [`ablation`] | design-choice sweeps (free-run multiplier, sampling budget, trap cost, polling period) |
//! | [`pairwise`] | the §5.3 methodology the multiprogrammed harnesses share: Throttle group, direct-access baseline cell, slowdown/efficiency comparison |
//!
//! Each harness module exposes `run(&Config) -> Vec<Row>` (pure data)
//! and a `render` function producing the table printed by the
//! corresponding binary in `src/bin/`. Figures 7 and 10 have no runs of
//! their own: [`fig7::from_fig6`] and [`fig10::from_fig9`] project the
//! Figure 6 and Figure 9 rows, and the `fig6` and `fig9` binaries print
//! both tables. Every harness builds its runs as `neon-scenario` cells
//! and executes them through the parallel sweep runner; only §6.3,
//! which drives the device layer directly, does not.

pub mod ablation;
pub mod fig10;
pub mod fig2;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod figp;
pub mod pairwise;
pub mod sec3;
pub mod sec63;
pub mod table1;

//! Benchmark harnesses regenerating every table and figure of the HULK-V
//! paper.
//!
//! Each module computes one experiment's data, and the `src/bin` binaries
//! print them as tables ([`obs`] adds their sink flags). The simulator's
//! own speed is measured by the separate `bench/` package at the
//! repository root. The mapping to the paper:
//!
//! | module | regenerates |
//! |---|---|
//! | [`table1`] | Table I — state-of-the-art comparison |
//! | [`table2`] | Table II — per-block power/area/frequency |
//! | [`fig6`] | Figure 6 — PMCA-vs-CVA6 speedup and energy efficiency |
//! | [`fig7`] | Figure 7 — LLC sweep on the synthetic benchmark |
//! | [`fig8`] | Figure 8 — LLC effect on the IoT benchmarks |
//! | [`fig9`] | Figure 9 — GOps and efficiency vs `CCR_hyper` |
//! | [`ablations`] | design-space ablations (LLC size, HyperBUS width/latency, team scaling, offload amortization) |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod obs;
pub mod table1;
pub mod table2;

/// Formats a floating-point cell with a sensible precision for tables.
pub fn fmt(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

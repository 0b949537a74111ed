//! Prints Figure 9: GOps and relative energy efficiency vs CCR_hyper.

use hulkv_bench::fig9;
use hulkv_kernels::suite::KernelParams;

fn main() {
    let obs = hulkv_bench::obs::args();
    let mut rows = fig9::ccr_table(&KernelParams::small()).expect("figure 9");
    rows.sort_by(|a, b| a.ccr_hyper.total_cmp(&b.ccr_hyper));
    println!("Figure 9: HULK-V energy efficiency vs CCR_hyper");
    println!("(CCR < 1: memory-bound | CCR > 1: compute-bound)");
    println!(
        "{:<16} {:>10} {:>11} {:>11} {:>12} {:>12} {:>8}",
        "workload", "CCR_hyper", "GOps Hyper", "GOps LPDDR", "eff Hyper", "eff LPDDR", "rel eff"
    );
    for r in &rows {
        println!(
            "{:<16} {:>10.2} {:>11.3} {:>11.3} {:>12.2} {:>12.2} {:>8.2}",
            r.name,
            r.ccr_hyper,
            r.gops_hyper,
            r.gops_lpddr,
            r.eff_hyper,
            r.eff_lpddr,
            r.relative_efficiency
        );
    }
    hulkv_bench::obs::finish(&obs, &[]);
}

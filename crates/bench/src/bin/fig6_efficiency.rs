//! Prints Figure 6 (right): energy efficiency on PMCA vs CVA6.

use hulkv_bench::fig6;
use hulkv_kernels::suite::KernelParams;

fn main() {
    let obs = hulkv_bench::obs::args();
    let rows = fig6::speedup_table(&KernelParams::small()).expect("figure 6");
    println!("Figure 6 (right): Energy efficiency at max block frequency (Table II powers)");
    println!(
        "{:<14} {:>11} {:>11} {:>14} {:>14} {:>8}",
        "kernel", "CVA6 GOps", "PMCA GOps", "CVA6 GOps/W", "PMCA GOps/W", "ratio"
    );
    for r in &rows {
        println!(
            "{:<14} {:>11.3} {:>11.2} {:>14.2} {:>14.1} {:>8.1}",
            r.kernel,
            r.host_gops,
            r.cluster_gops,
            r.host_gops_per_w,
            r.cluster_gops_per_w,
            r.cluster_gops_per_w / r.host_gops_per_w
        );
    }
    let best = rows
        .iter()
        .map(|r| r.cluster_gops_per_w)
        .fold(0.0, f64::max);
    hulkv_bench::obs::finish(&obs, &[("fig6_max_cluster_gops_per_w", best)]);
}

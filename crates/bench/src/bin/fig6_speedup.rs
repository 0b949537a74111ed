//! Prints Figure 6 (left): PMCA speedup over CVA6, x1 and x1000 executions.

use hulkv_bench::fig6;
use hulkv_kernels::suite::KernelParams;

fn main() {
    let obs = hulkv_bench::obs::args();
    let rows = fig6::speedup_table(&KernelParams::small()).expect("figure 6");
    println!("Figure 6 (left): Speedup on PMCA vs CVA6 (wall-clock, ASIC frequencies)");
    println!(
        "{:<14} {:>6} {:>12} {:>14} {:>11} {:>13} {:>9}",
        "kernel", "type", "host cycles", "PMCA cycles", "speedup x1", "speedup x1000", "verified"
    );
    for r in &rows {
        println!(
            "{:<14} {:>6} {:>12} {:>14} {:>11.2} {:>13.1} {:>9}",
            r.kernel,
            if r.float { "float" } else { "int" },
            r.host_cycles,
            r.cluster_cycles,
            r.speedup_x1,
            r.speedup_x1000,
            r.verified
        );
    }
    let best = rows.iter().map(|r| r.speedup_x1000).fold(0.0, f64::max);
    hulkv_bench::obs::finish(&obs, &[("fig6_max_speedup_x1000", best)]);
}

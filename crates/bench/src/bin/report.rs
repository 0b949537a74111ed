//! Runs every experiment and prints the full paper-reproduction report.
//! Stops with status 1 at the first experiment that fails.

use std::process::{exit, Command};

fn main() {
    let obs = hulkv_bench::obs::args();
    let exe = std::env::current_exe().expect("path of the running binary");
    let dir = exe.parent().expect("binary directory");
    for bin in [
        "table1",
        "table2",
        "fig6_speedup",
        "fig6_efficiency",
        "fig7_llc_sweep",
        "fig8_llc_effect",
        "fig9_ccr",
        "ablations",
    ] {
        let title = if bin == "table1" { "Table I" } else { bin };
        println!("\n=== {title} ===\n");
        match Command::new(dir.join(bin)).status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("report: {bin} failed ({status})");
                exit(1);
            }
            Err(e) => {
                eprintln!("report: cannot run {bin}: {e}");
                exit(1);
            }
        }
    }
    hulkv_bench::obs::finish(&obs, &[]);
}

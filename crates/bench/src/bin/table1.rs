//! Prints Table I (state-of-the-art comparison).

use hulkv::SocConfig;
use hulkv_bench::table1;

fn main() {
    let obs = hulkv_bench::obs::args();
    println!("Table I: Comparison with State-of-Art");
    println!(
        "{:<18} {:<11} {:<28} {:<10} {:<26} {:<12}",
        "Platform", "OS", "Memory", "ASIC/FPGA", "Host CPU", "Accelerators"
    );
    for r in table1::rows(&SocConfig::default()) {
        println!(
            "{:<18} {:<11} {:<28} {:<10} {:<26} {:<12}",
            r.platform, r.os, r.memory, r.asic_fpga, r.host_cpu, r.accelerators
        );
    }
    hulkv_bench::obs::finish(&obs, &[]);
}

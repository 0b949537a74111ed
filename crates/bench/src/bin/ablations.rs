//! Prints the design-space ablation studies.

use hulkv_bench::ablations;
use hulkv_kernels::suite::KernelParams;

fn main() {
    let obs = hulkv_bench::obs::args();
    println!("Ablation A: LLC capacity (synthetic benchmark, 37% miss knob)");
    println!("{:>10} {:>14}", "LLC (kB)", "cycles/read");
    for p in ablations::llc_size_sweep().expect("llc sweep") {
        println!("{:>10} {:>14.1}", p.size_bytes / 1024, p.cycles_per_read);
    }

    println!("\nAblation B: HyperBUS configuration (64 kB DMA tile)");
    println!("{:<22} {:>12} {:>14}", "config", "cycles", "bytes/cycle");
    for p in ablations::hyperbus_sweep().expect("hyperbus sweep") {
        println!(
            "{:<22} {:>12} {:>14.2}",
            p.config, p.tile_cycles, p.bytes_per_cycle
        );
    }

    println!("\nAblation C: PMCA team scaling (matmul-int8)");
    println!("{:>6} {:>14} {:>12}", "cores", "cycles", "efficiency");
    for p in ablations::team_scaling(&KernelParams::small()).expect("team scaling") {
        println!(
            "{:>6} {:>14} {:>11.0}%",
            p.cores,
            p.kernel_cycles,
            p.efficiency * 100.0
        );
    }

    println!("\nAblation D: offload amortization (fir-int16)");
    println!("{:>8} {:>18}", "times", "SoC cycles/run");
    for p in ablations::offload_amortization(&KernelParams::small()).expect("amortization") {
        println!("{:>8} {:>18.0}", p.times, p.soc_cycles_per_run);
    }
    hulkv_bench::obs::finish(&obs, &[]);
}

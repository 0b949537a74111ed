//! Prints Figure 7: the Last-Level-Cache sweep on the synthetic benchmark.

use hulkv::MemorySetup;
use hulkv_bench::fig7;

fn main() {
    let obs = hulkv_bench::obs::args();
    let points = fig7::llc_sweep(64).expect("figure 7");
    println!("Figure 7: Sweep on Last Level Cache (cycles per read vs L1D miss ratio)");
    println!(
        "{:>10} {:>10} | {:>10} {:>10} {:>10} {:>10}",
        "miss knob", "L1D miss", "DDR4+LLC", "Hyper+LLC", "DDR4", "Hyper"
    );
    for chunk in points.chunks(4) {
        let by = |s: MemorySetup| chunk.iter().find(|p| p.setup == s).expect("setup present");
        let l1 = by(MemorySetup::HyperWithLlc).l1d_miss_ratio;
        println!(
            "{:>10.2} {:>10.2} | {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
            chunk[0].miss_fraction,
            l1,
            by(MemorySetup::DdrWithLlc).cycles_per_read,
            by(MemorySetup::HyperWithLlc).cycles_per_read,
            by(MemorySetup::DdrOnly).cycles_per_read,
            by(MemorySetup::HyperOnly).cycles_per_read,
        );
    }
    hulkv_bench::obs::finish(&obs, &[]);
}

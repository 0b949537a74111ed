//! Prints Figure 8: the Last-Level-Cache effect on the IoT benchmarks.

use hulkv_bench::fig8;
use hulkv_kernels::iot::Scale;

fn main() {
    let obs = hulkv_bench::obs::args();
    let rows = fig8::llc_effect(Scale(1)).expect("figure 8");
    println!("Figure 8: Last Level Cache effect (cycles, normalized to DDR4+LLC)");
    println!(
        "{:<10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "benchmark", "DDR4+LLC", "Hyper+LLC", "DDR4", "Hyper", "verified"
    );
    for r in &rows {
        let n = r.normalized_cycles();
        println!(
            "{:<10} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>10}",
            r.bench,
            n[0],
            n[1],
            n[2],
            n[3],
            r.runs.iter().all(|x| x.verified)
        );
    }
    hulkv_bench::obs::finish(&obs, &[]);
}

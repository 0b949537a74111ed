//! Prints Table II (power consumption at 25C, 0.8V, TT).

use hulkv_bench::table2;

fn main() {
    let obs = hulkv_bench::obs::args();
    println!("Table II: Power consumption at 25C, 0.8V, TT");
    println!(
        "{:<10} {:>10} {:>12} {:>16} {:>12} {:>14}",
        "Block", "Area(mm2)", "Leakage(mW)", "Dynamic(uW/MHz)", "MaxFreq(MHz)", "MaxPower(mW)"
    );
    let (rows, total) = table2::rows();
    for r in &rows {
        println!(
            "{:<10} {:>10.2} {:>12.2} {:>16.1} {:>12.0} {:>14.2}",
            r.block, r.area_mm2, r.leakage_mw, r.dyn_uw_per_mhz, r.max_freq_mhz, r.max_power_mw
        );
    }
    println!(
        "{:<10} {:>10.2} {:>12.2} {:>16.1} {:>12} {:>14.2}",
        total.block,
        total.area_mm2,
        total.leakage_mw,
        total.dyn_uw_per_mhz,
        "-",
        total.max_power_mw
    );
    hulkv_bench::obs::finish(&obs, &[("table2_total_max_power_mw", total.max_power_mw)]);
}

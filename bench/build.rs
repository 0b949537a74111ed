//! Records the compiler version and build profile for result provenance.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".into());
    let var = |k: &str| std::env::var(k).unwrap_or_default();
    println!("cargo:rustc-env=HULKV_PERF_RUSTC={version}");
    println!(
        "cargo:rustc-env=HULKV_PERF_PROFILE={} opt-level={} debug={}",
        var("PROFILE"),
        var("OPT_LEVEL"),
        var("DEBUG")
    );
    println!("cargo:rerun-if-changed=build.rs");
}

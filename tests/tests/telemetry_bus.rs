//! Integration tests of the live telemetry bus (`hulkv-obs`) against a
//! real SoC run: attaching the observability stack — timeline, engine
//! self-profile, HTTP endpoint and all — must leave guest cycles, the
//! state digest and every `Stats` counter bit-identical, and a live
//! `/metrics` scrape must reconcile exactly with the published
//! `MetricsSnapshot`.

use hulkv::{HulkV, SocConfig};
use hulkv_obs::{get, prom, TelemetryBus};
use hulkv_rv::{csr, Asm, Reg, Xlen};
use hulkv_sim::{EngineProfile, Fnv64, MetricsSnapshot, Stats};

fn host_program() -> Vec<u32> {
    let mut p = Asm::new(Xlen::Rv64);
    p.li(Reg::A0, 0);
    p.li(Reg::T0, 2000);
    let top = p.label();
    p.bind(top);
    p.addi(Reg::A0, Reg::A0, 1);
    p.bne(Reg::A0, Reg::T0, top);
    p.ebreak();
    p.assemble().unwrap()
}

fn cluster_kernel() -> Vec<u32> {
    let mut k = Asm::new(Xlen::Rv32);
    k.csrr(Reg::T0, csr::addr::MHARTID);
    k.slli(Reg::T1, Reg::T0, 2);
    k.add(Reg::T1, Reg::A0, Reg::T1);
    k.addi(Reg::T0, Reg::T0, 100);
    k.sw(Reg::T0, Reg::T1, 0);
    k.ebreak();
    k.assemble().unwrap()
}

/// Host loop plus two cluster offloads — enough to touch both
/// subsystems, the decode caches, and several timeline windows.
fn drive(soc: &mut HulkV) {
    soc.run_host_program(&host_program(), |_| {}, 1_000_000)
        .unwrap();
    let buf = soc.hulk_malloc(8 * 4).unwrap();
    let kernel = soc.register_kernel(&cluster_kernel()).unwrap();
    soc.offload(kernel, &[(Reg::A0, buf)], 8, 1_000_000)
        .unwrap();
    soc.offload(kernel, &[(Reg::A0, buf)], 8, 1_000_000)
        .unwrap();
}

fn fingerprint(soc: &HulkV) -> (u64, u64, String) {
    (
        soc.host().core().cycles().get(),
        soc.state_digest(),
        soc.metrics_snapshot().to_json().to_string(),
    )
}

/// The hard guarantee from the design: enabling the whole observability
/// stack — timeline, engine self-profile, live HTTP endpoint being
/// scraped mid-run — changes nothing the guest can see.
#[test]
fn telemetry_bus_is_guest_cycle_neutral() {
    let plain = {
        let mut soc = HulkV::new(SocConfig::default()).unwrap();
        soc.enable_timeline(1_000);
        drive(&mut soc);
        fingerprint(&soc)
    };

    let bus = TelemetryBus::new();
    let server = bus.serve("127.0.0.1:0").unwrap();
    let mut soc = HulkV::new(SocConfig::default()).unwrap();
    soc.enable_timeline(1_000);
    soc.cluster_mut().set_profile(EngineProfile::new());
    drive(&mut soc);

    // Scrape while the SoC is still live, then publish the final state.
    let (code, _) = get(server.addr(), "/metrics").unwrap();
    assert_eq!(code, 200);
    bus.publish_snapshot(&soc.metrics_snapshot());

    assert_eq!(fingerprint(&soc), plain);
    let profile = soc.cluster().profile().unwrap().snapshot();
    assert!(profile.rounds > 0, "profile saw no engine rounds");
    server.shutdown();
}

/// Every counter in the final `MetricsSnapshot` must come back exactly
/// from a TCP scrape of `/metrics`, and `/snapshot` must serve the same
/// JSON the bus holds.
#[test]
fn live_scrape_reconciles_with_final_snapshot() {
    let bus = TelemetryBus::new();
    let mut soc = HulkV::new(SocConfig::default()).unwrap();
    soc.enable_timeline(1_000);
    drive(&mut soc);
    let snap = soc.metrics_snapshot();
    bus.publish_snapshot(&snap);

    let server = bus.serve("127.0.0.1:0").unwrap();
    let (code, text) = get(server.addr(), "/metrics").unwrap();
    assert_eq!(code, 200);
    let exp = prom::parse(&text).unwrap();

    let mut checked = 0usize;
    for block in &snap.blocks {
        for (k, v) in block.iter() {
            let got = exp.value("hulkv_stats", &[("block", block.name()), ("counter", k)]);
            assert_eq!(
                got,
                Some(v as f64),
                "scrape disagrees on {}/{k}",
                block.name()
            );
            checked += 1;
        }
    }
    assert!(checked > 20, "only {checked} counters reconciled");
    assert_eq!(exp.value("hulkv_snapshot_publishes_total", &[]), Some(1.0));

    let (code, body) = get(server.addr(), "/snapshot").unwrap();
    assert_eq!(code, 200);
    assert_eq!(body.trim_end(), bus.snapshot_json().trim_end());
    server.shutdown();
}

/// Pins the `/metrics` exposition and the `/snapshot` JSON of one real
/// SoC snapshot published on a fresh bus, byte for byte: how the bus
/// stores and renders a snapshot may change, what a scraper reads may
/// not.
#[test]
fn exposition_of_a_published_snapshot_is_pinned() {
    let mut soc = HulkV::new(SocConfig::default()).unwrap();
    drive(&mut soc);
    let mut snap = soc.metrics_snapshot();
    snap.set_power_mw("pmca", 88.5);
    snap.set_energy("total_mj", 1.75);
    snap.set_figure("wall_seconds", 0.5);
    let bus = TelemetryBus::new();
    bus.publish_snapshot(&snap);

    let fnv = |s: String| Fnv64::new().write(s.as_bytes()).finish();
    let metrics = fnv(bus.render_metrics());
    let json = fnv(bus.snapshot_json());
    println!("render_metrics {metrics:#018x}, snapshot_json {json:#018x}");
    assert_eq!(metrics, 0x74f2_8741_36da_2bdd, "/metrics exposition moved");
    assert_eq!(json, 0xe59b_debc_0d6a_1bc7, "/snapshot JSON moved");
}

/// `/metrics` serves the last published snapshot and nothing older: a
/// block that the newer snapshot no longer carries drops out of the
/// scrape, and every `hulkv_stats` series matches `/snapshot`.
#[test]
fn metrics_follow_the_latest_snapshot() {
    let bus = TelemetryBus::new();
    let publish = |block: &str, value: u64| {
        let mut snap = MetricsSnapshot::new();
        let mut s = Stats::new(block);
        s.set("x", value);
        snap.push_block(s);
        bus.publish_snapshot(&snap);
    };
    publish("first", 1);
    publish("second", 2);

    let server = bus.serve("127.0.0.1:0").unwrap();
    let (code, text) = get(server.addr(), "/metrics").unwrap();
    assert_eq!(code, 200);
    let (code, body) = get(server.addr(), "/snapshot").unwrap();
    assert_eq!(code, 200);
    server.shutdown();

    let exp = prom::parse(&text).unwrap();
    let scraped: Vec<(String, String, f64)> = exp
        .samples
        .iter()
        .filter(|s| s.name == "hulkv_stats")
        .map(|s| (s.labels[0].1.clone(), s.labels[1].1.clone(), s.value))
        .collect();
    let served: Vec<(String, String, f64)> = MetricsSnapshot::parse(&body)
        .unwrap()
        .blocks
        .iter()
        .flat_map(|b| {
            b.iter()
                .map(|(k, v)| (b.name().to_owned(), k.to_owned(), v as f64))
        })
        .collect();
    assert!(
        !scraped.iter().any(|(block, _, _)| block == "first"),
        "scrape still serves the superseded snapshot: {scraped:?}"
    );
    assert_eq!(scraped, served);
    assert_eq!(exp.value("hulkv_snapshot_publishes_total", &[]), Some(2.0));
}

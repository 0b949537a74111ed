//! Randomized (seeded, deterministic) tests of the memory substrate: data
//! transparency of every timed device against a plain shadow buffer, DMA
//! equivalence with `memcpy`, and timing monotonicity of the DRAM models.

use hulkv_mem::{
    shared, Cache, CacheConfig, Ddr, DdrConfig, DmaEngine, HyperRam, HyperRamConfig, Llc,
    LlcConfig, MemoryDevice, SharedMem, Sram, Transfer1d, Transfer2d, WritePolicy,
};
use hulkv_sim::{Cycles, Snapshot, SplitMix64};

const CASES: u64 = 24;

/// Drives `dev` and a shadow `Vec<u8>` with the same random access stream
/// and checks every read agrees.
fn data_transparent(dev: &mut dyn MemoryDevice, size: u64, seed: u64) {
    let mut shadow = vec![0u8; size as usize];
    let mut rng = SplitMix64::new(seed);
    for _ in 0..300 {
        let len = 1 + rng.next_below(16) as usize;
        let addr = rng.next_below(size - len as u64);
        if rng.next_below(2) == 0 {
            let mut data = vec![0u8; len];
            rng.fill_bytes(&mut data);
            dev.write(addr, &data).unwrap();
            shadow[addr as usize..addr as usize + len].copy_from_slice(&data);
        } else {
            let mut got = vec![0u8; len];
            dev.read(addr, &mut got).unwrap();
            assert_eq!(&got[..], &shadow[addr as usize..addr as usize + len]);
        }
    }
}

#[test]
fn hyperram_is_data_transparent() {
    for seed in 0..CASES {
        let mut ram = HyperRam::new(HyperRamConfig {
            chips_per_bus: 2,
            chip_bytes: 1 << 16,
            ..HyperRamConfig::default()
        });
        data_transparent(&mut ram, 1 << 17, 0x11aa_0000 + seed);
    }
}

#[test]
fn ddr_is_data_transparent() {
    for seed in 0..CASES {
        let mut ddr = Ddr::new(DdrConfig {
            size_bytes: 1 << 17,
            ..DdrConfig::default()
        });
        data_transparent(&mut ddr, 1 << 17, 0x22bb_0000 + seed);
    }
}

#[test]
fn cache_is_data_transparent_across_geometries() {
    let mut rng = SplitMix64::new(0x33cc_0000);
    for seed in 0..CASES {
        let ways_log = rng.next_below(3) as u32;
        let sets_log = 1 + rng.next_below(4) as u32;
        let write_back = rng.next_below(2) == 1;
        let backing = shared(Sram::new("b", 1 << 14, Cycles::new(20)));
        let cfg = CacheConfig {
            name: "c".into(),
            ways: 1 << ways_log,
            sets: 1 << sets_log,
            line_bytes: 32,
            hit_latency: Cycles::new(1),
            write_policy: if write_back {
                WritePolicy::WriteBack
            } else {
                WritePolicy::WriteThrough
            },
            write_allocate: write_back,
            write_buffer: !write_back,
        };
        let mut cache = Cache::new(cfg.clone(), backing).unwrap();
        data_transparent(&mut cache, 1 << 14, 0x33cc_1000 + seed);
        // After a flush, the backing store is fully coherent.
        cache.flush().unwrap();
        // The same geometry over a fresh backing store, now with fetch
        // probes, flushes and snapshot round trips in the stream.
        let backing = shared(Sram::new("b", 1 << 14, Cycles::new(20)));
        let mut cache = Cache::new(cfg.clone(), backing.clone()).unwrap();
        cache_stream(&mut cache, &cfg, &backing, 1 << 14, 0x33cc_1000 + seed);
        cache.flush().unwrap();
    }
}

/// Like [`data_transparent`], with fetch probes, flushes and snapshot
/// round trips interleaved into the access stream. A probe that hits
/// must count exactly one read hit; one that misses must change nothing.
/// A round trip restores into a fresh cache over the same backing store,
/// which must agree on digest and counters and then carries on.
fn cache_stream(cache: &mut Cache, cfg: &CacheConfig, backing: &SharedMem, size: u64, seed: u64) {
    let mut shadow = vec![0u8; size as usize];
    let mut rng = SplitMix64::new(seed);
    let mut last = 0u64;
    for _ in 0..600 {
        match rng.next_below(10) {
            0..=3 => {
                let len = 1 + rng.next_below(16) as usize;
                let addr = rng.next_below(size - len as u64);
                let mut data = vec![0u8; len];
                rng.fill_bytes(&mut data);
                cache.write(addr, &data).unwrap();
                shadow[addr as usize..addr as usize + len].copy_from_slice(&data);
                last = addr;
            }
            4..=6 => {
                let len = 1 + rng.next_below(16) as usize;
                let addr = rng.next_below(size - len as u64);
                let mut got = vec![0u8; len];
                cache.read(addr, &mut got).unwrap();
                assert_eq!(&got[..], &shadow[addr as usize..addr as usize + len]);
                last = addr;
            }
            7 => {
                // Mostly the line just touched, so most probes hit.
                let addr = if rng.next_below(4) == 0 {
                    rng.next_below(size - 4)
                } else {
                    last & !3
                };
                let (hits, misses, bytes) = (
                    cache.stats().get("hits"),
                    cache.stats().get("misses"),
                    cache.stats().get("bytes_read"),
                );
                let digest = cache.state_digest();
                if cache.probe_fetch(addr, 4) {
                    assert_eq!(cache.stats().get("hits"), hits + 1);
                    assert_eq!(cache.stats().get("bytes_read"), bytes + 4);
                    // A hit is a hit for the real read, too.
                    let mut got = [0u8; 4];
                    cache.read(addr, &mut got).unwrap();
                    assert_eq!(cache.stats().get("misses"), misses);
                    assert_eq!(&got[..], &shadow[addr as usize..addr as usize + 4]);
                } else {
                    assert_eq!(cache.state_digest(), digest);
                    assert_eq!(cache.stats().get("hits"), hits);
                    assert_eq!(cache.stats().get("bytes_read"), bytes);
                }
                assert_eq!(cache.stats().get("misses"), misses);
            }
            8 => {
                cache.flush().unwrap();
            }
            _ => {
                let mut snap = Snapshot::new();
                let j = cache.snapshot_into(&mut snap);
                let mut restored = Cache::new(cfg.clone(), backing.clone()).unwrap();
                restored.restore_from(&snap, &j).unwrap();
                assert_eq!(restored.state_digest(), cache.state_digest());
                assert_eq!(restored.stats(), cache.stats());
                *cache = restored;
            }
        }
    }
}

#[test]
fn llc_bypass_window_is_data_transparent() {
    for seed in 0..CASES {
        let backing = shared(Sram::new("b", 1 << 15, Cycles::new(30)));
        let mut llc = Llc::new(
            LlcConfig {
                lines: 8,
                ways: 2,
                cacheable_start: 0x1000,
                cacheable_end: 0x5000,
                ..LlcConfig::default()
            },
            backing,
        )
        .unwrap();
        // Accesses inside, outside and across the window all stay correct.
        data_transparent(&mut llc, 1 << 15, 0x44dd_0000 + seed);
    }
}

#[test]
fn dma_1d_equals_memcpy() {
    let mut rng = SplitMix64::new(0x55ee_0000);
    for _ in 0..CASES {
        let bytes = 1 + rng.next_below(1499) as usize;
        let src = shared(Sram::new("src", 4096, Cycles::new(1)));
        let dst = shared(Sram::new("dst", 4096, Cycles::new(1)));
        let mut data = vec![0u8; bytes];
        rng.fill_bytes(&mut data);
        src.borrow_mut().write(100, &data).unwrap();

        let mut dma = DmaEngine::new("dma", Cycles::new(8), 64);
        dma.run_1d(
            &src,
            &dst,
            Transfer1d {
                src: 100,
                dst: 200,
                bytes,
            },
        )
        .unwrap();
        let mut got = vec![0u8; bytes];
        dst.borrow_mut().read(200, &mut got).unwrap();
        assert_eq!(got, data);
    }
}

#[test]
fn dma_2d_equals_strided_copy() {
    let mut rng = SplitMix64::new(0x66ff_0000);
    for _ in 0..CASES {
        let rows = 1 + rng.next_below(7) as usize;
        let row_bytes = 1 + rng.next_below(63) as usize;
        let pad = rng.next_below(32);
        let src_stride = row_bytes as u64 + pad;
        let src = shared(Sram::new("src", 8192, Cycles::new(1)));
        let dst = shared(Sram::new("dst", 8192, Cycles::new(1)));
        let mut image = vec![0u8; (src_stride as usize) * rows];
        rng.fill_bytes(&mut image);
        src.borrow_mut().write(0, &image).unwrap();

        let mut dma = DmaEngine::new("dma", Cycles::new(8), 32);
        dma.run_2d(
            &src,
            &dst,
            Transfer2d {
                src: 0,
                dst: 0,
                row_bytes,
                rows,
                src_stride,
                dst_stride: row_bytes as u64,
            },
        )
        .unwrap();

        let mut got = vec![0u8; row_bytes * rows];
        dst.borrow_mut().read(0, &mut got).unwrap();
        for r in 0..rows {
            assert_eq!(
                &got[r * row_bytes..(r + 1) * row_bytes],
                &image[r * src_stride as usize..r * src_stride as usize + row_bytes]
            );
        }
    }
}

#[test]
fn hyperram_latency_monotone_in_length() {
    let mut rng = SplitMix64::new(0x7700_0000);
    for _ in 0..CASES {
        let len_a = 1 + rng.next_below(255) as usize;
        let len_b = 1 + rng.next_below(255) as usize;
        let (small, large) = if len_a <= len_b {
            (len_a, len_b)
        } else {
            (len_b, len_a)
        };
        let mut ram = HyperRam::new(HyperRamConfig::default());
        let mut buf = vec![0u8; large];
        let lat_small = ram.read(0, &mut buf[..small]).unwrap();
        let lat_large = ram.read(0, &mut buf[..large]).unwrap();
        assert!(lat_large >= lat_small);
    }
}

#[test]
fn hyperram_crossing_burst_decomposes_into_segments() {
    // Timing identity at chip (CS-decode) boundaries: a burst crossing the
    // boundary costs exactly what its two per-chip segments cost as
    // separate transactions, minus the one duplicated controller
    // front-end. Random lengths and offsets around random boundaries.
    let mut rng = SplitMix64::new(0x7701_0000);
    for _ in 0..CASES {
        let cfg = HyperRamConfig {
            chips_per_bus: 4,
            chip_bytes: 4096,
            dual_bus: rng.next_below(2) == 1,
            ..HyperRamConfig::default()
        };
        let span = if cfg.dual_bus {
            cfg.chip_bytes * 2
        } else {
            cfg.chip_bytes
        };
        let boundary = span * (1 + rng.next_below(2));
        let before = 1 + rng.next_below(64);
        let after = 1 + rng.next_below(64) as usize;
        let start = boundary - before;
        let len = before as usize + after;
        let mut ram = HyperRam::new(cfg.clone());
        let mut buf = vec![0u8; len];
        let whole = ram.read(start, &mut buf).unwrap();
        let seg0 = ram.read(start, &mut buf[..before as usize]).unwrap();
        let seg1 = ram.read(boundary, &mut buf[before as usize..]).unwrap();
        assert_eq!(
            whole + Cycles::new(cfg.frontend_cycles),
            seg0 + seg1,
            "start {start:#x} len {len} dual {}",
            cfg.dual_bus
        );
    }
}

#[test]
fn clock_bridge_preserves_data() {
    use hulkv_mem::ClockBridge;
    use hulkv_sim::Freq;
    for seed in 0..CASES {
        let inner = shared(Sram::new("i", 1 << 12, Cycles::new(3)));
        let mut bridge = ClockBridge::new(inner, Freq::mhz(450), Freq::mhz(900));
        data_transparent(&mut bridge, 1 << 12, 0x8811_0000 + seed);
    }
}

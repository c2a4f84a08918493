//! Run the serving load test and write `BENCH_serving.json`.
//!
//! Usage: `cargo run --release -p af-bench --bin serve_load
//! [--quick] [--packed] [--shards N] [--replicas R] [--connections C]
//! [--requests P] [--out PATH]`
//!
//! `--packed` restricts the run to dequantize-vs-fused twins of the same
//! model (the packed-weights comparison mode; skips the fleet sweep).
//! `--shards/--replicas/--connections/--requests` reshape the fleet
//! scaling sweep (defaults: 4 shards × 2 replicas; 32 connections quick,
//! 256 full — the high-connection closed-loop mode).
//! The reactor's connection ladder runs 64/512 connections quick and
//! 64/256/1024 full, with every rung's probe checked bit for bit
//! against direct evaluation.

fn arg_usize(args: &[String], flag: &str) -> Option<usize> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| panic!("bad {flag} value: {v}"))
        })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let packed = args.iter().any(|a| a == "--packed");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_serving.json".to_string());
    let mut fleet_opts = af_bench::fleet::FleetOpts::for_mode(quick);
    if let Some(n) = arg_usize(&args, "--shards") {
        fleet_opts.max_shards = n;
    }
    if let Some(r) = arg_usize(&args, "--replicas") {
        fleet_opts.replicas = r;
    }
    if let Some(c) = arg_usize(&args, "--connections") {
        fleet_opts.connections = c;
    }
    if let Some(p) = arg_usize(&args, "--requests") {
        fleet_opts.per_conn = p;
    }
    let serving = if packed {
        af_bench::serving::run_packed(quick)
    } else {
        af_bench::serving::run_with_fleet(quick, fleet_opts)
    };
    println!("{}", serving.rendered);
    if let Some(s) = &serving.store {
        println!(
            "\ndurable store: {} variants, cold register {} us, \
             warm open (wal) {} us, warm open (checkpoint) {} us, bit-identical: {}",
            s.variants,
            s.cold_register_us,
            s.warm_open_wal_us,
            s.warm_open_ckpt_us,
            s.bit_identical
        );
    }
    if let Some(f) = &serving.fleet {
        println!(
            "\nfleet: {} shards x {} replicas, {} connections — aggregate throughput \
             {:.2}x from 1 -> {} shards",
            f.opts.max_shards,
            f.opts.replicas,
            f.opts.connections,
            f.speedup_1_to_max,
            f.opts.max_shards,
        );
    }
    if let Some(r) = &serving.reactor {
        if let Some(c) = r.cells.iter().max_by_key(|c| c.connections) {
            println!(
                "\nreactor: {} connections on one epoll thread — {}/{} completed, \
                 {} failed, p99 {} us, bit-identical to direct evaluation: {}",
                c.connections, c.completed, c.requests, c.failed, c.p99_us, r.bit_identical,
            );
        }
    }
    std::fs::write(&out, &serving.json).expect("write BENCH_serving.json");
    println!("\nwrote {out} ({} cells)", serving.cells.len());
}

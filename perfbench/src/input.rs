//! Seeded inputs and the `workload` ingest layer.
//!
//! Every input is made from its seed alone, written out in the public
//! coflow-benchmark text format and read back through
//! `read_coflow_benchmark` — the path a user's trace file takes.

use saath_simcore::{Bytes, CoflowId, DetRng, Duration, NodeId, Rate, Time};
use saath_workload::{gen, CoflowSpec, FlowSpec, Trace};
use std::path::Path;
use std::time::Instant;

/// The paper's testbed-scale workload, grown as `repro epoch` grows it:
/// FB-like on 150 machines (300 ports), arrivals compressed into 100 s,
/// CoFlows added 100 at a time until the trace carries 10k flows.
pub fn fb150(seed: u64) -> Trace {
    let mut cfg = gen::fb_like(seed);
    cfg.span = Duration::from_secs(100);
    let mut trace = gen::generate(&cfg);
    while trace.num_flows() < 10_000 {
        cfg.num_coflows += 100;
        trace = gen::generate(&cfg);
    }
    trace
}

/// The runtime workload: 60 CoFlows on 20 machines (40 ports), each an
/// M × R shuffle (M, R ∈ {1, 2}, all machines distinct) whose flows
/// carry 800–2000 MB apiece, with Poisson arrivals 2.8 s apart on
/// average (about half the fabric's capacity). Sizes and widths are
/// uniform rather than heavy-tailed, so the run's cost depends on the
/// runtime rather than on which giant CoFlow the seed drew.
pub fn emu(seed: u64) -> Trace {
    let nodes = 20u64;
    let mut rng = DetRng::derive(seed, "perfbench/emu");
    let mut at = 0u64;
    let coflows = (0..60u32)
        .map(|id| {
            at += rng.exp_gap(2.8e9);
            let (m, r) = (rng.range_inclusive(1, 2), rng.range_inclusive(1, 2));
            let mut machines: Vec<u64> = (0..nodes).collect();
            rng.shuffle(&mut machines);
            let size = Bytes::mb(rng.range_inclusive(800, 2000));
            let flows = machines[..m as usize]
                .iter()
                .flat_map(|&src| {
                    machines[m as usize..(m + r) as usize]
                        .iter()
                        .map(move |&dst| {
                            FlowSpec::new(NodeId(src as u32), NodeId(dst as u32), size)
                        })
                })
                .collect();
            // Whole milliseconds, as the text format carries them.
            CoflowSpec::new(CoflowId(id), Time::from_millis(at / 1_000_000), flows)
        })
        .collect();
    Trace {
        num_nodes: nodes as usize,
        port_rate: Rate::gbps(1),
        coflows,
    }
}

/// Builds `count` traces with `make` (generator seeds `64·seed + i`),
/// writes each to `work`, and ingests each `times` times. Returns the
/// last ingest of every trace and every ingest's duration.
pub fn prepare(
    make: fn(u64) -> Trace,
    seed: u64,
    count: u64,
    times: usize,
    work: &Path,
) -> (Vec<Trace>, Vec<std::time::Duration>) {
    let mut took = Vec::new();
    let traces = (0..count)
        .map(|i| {
            let source = make(seed * 64 + i);
            let text = work.join(format!("trace{i}.txt"));
            write(&source, &text);
            let mut last = None;
            for _ in 0..times {
                let (t, d) = ingest(&text, &source);
                took.push(d);
                last = Some(t);
            }
            last.expect("at least one ingest")
        })
        .collect();
    (traces, took)
}

/// Writes `trace` to `path` in coflow-benchmark text format.
fn write(trace: &Trace, path: &Path) {
    std::fs::write(path, saath_workload::io::write_coflow_benchmark(trace))
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

/// Reads and validates the trace at `path`: the ingest layer. Returns
/// the trace and the time ingest took.
fn ingest(path: &Path, like: &Trace) -> (Trace, std::time::Duration) {
    let t0 = Instant::now();
    let trace = saath_workload::io::read_coflow_benchmark(path, like.port_rate)
        .unwrap_or_else(|e| panic!("ingest {}: {e}", path.display()));
    trace
        .validate()
        .unwrap_or_else(|e| panic!("ingested trace is invalid: {e}"));
    (trace, t0.elapsed())
}

//! The runtime workload, `emu-tcp`: `emulate` over loopback TCP with
//! every agent multiplexed on one `run_agent_host` thread and a Saath
//! coordinator on the calling thread — two threads, one connection.
//!
//! Emulated time runs at `scale` × wall time, so an emulation lasts
//! about the trace's makespan ÷ scale whatever the coordinator does;
//! what the coordinator's speed decides is how many δ epochs fit in
//! that time. A run emulates its traces one after another until
//! `--seconds` have passed (each at least once).

use crate::input;
use crate::oracle;
use crate::probe::{SchedProbe, SchedStats};
use crate::prom::Page;
use crate::report::Report;
use crate::stats::{median, median_s, process_cpu, quantile};
use saath_core::CoflowScheduler;
use saath_runtime::proto::{FlowStat, Message, RateAssignment};
use saath_runtime::{emulate, EmulationConfig, TransportKind};
use saath_telemetry::MechCounters;
use saath_workload::Trace;
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Distinct traces per run (CCT metrics pool their records).
pub const TRACES: u64 = 4;

/// Times each trace is ingested (set-up reports the median).
const INGESTS: usize = 5;

/// One emulation.
struct Emulation {
    epochs: u64,
    /// `emulate` call to the coordinator's first `make_sched`.
    setup: Duration,
    /// First `make_sched` to return.
    run: Duration,
    cpu: Duration,
    records: Vec<saath_metrics::CoflowRecord>,
    timed_out: bool,
    sched: SchedStats,
    page: Option<String>,
}

fn emulate_once(trace: &Trace, traced: bool) -> Emulation {
    let cfg = EmulationConfig {
        transport: TransportKind::Tcp,
        multiplex: trace.num_nodes,
        wall_deadline: Duration::from_secs(120),
        metrics_addr: traced.then(|| "127.0.0.1:0".to_string()),
        ..EmulationConfig::default()
    };
    let first_sched: OnceLock<Instant> = OnceLock::new();
    let deposit = Arc::new(Mutex::new(Vec::new()));
    let make_sched = || -> Box<dyn CoflowScheduler> {
        first_sched.get_or_init(Instant::now);
        Box::new(
            SchedProbe::new(Box::new(saath_core::Saath::with_defaults()), traced)
                .depositing(Arc::clone(&deposit))
                .with_wall_gaps(),
        )
    };
    let cpu0 = process_cpu();
    let t0 = Instant::now();
    let report = emulate(trace, &make_sched, &cfg);
    let end = Instant::now();
    let cpu = process_cpu() - cpu0;
    let started = *first_sched
        .get()
        .expect("the coordinator built a scheduler");
    let mut stats = deposit
        .lock()
        .expect("probe deposit")
        .drain(..)
        .collect::<Vec<_>>();
    Emulation {
        epochs: report.coordinator.epochs,
        setup: started - t0,
        run: end - started,
        cpu,
        records: report.coordinator.records,
        timed_out: report.coordinator.timed_out,
        sched: stats.pop().unwrap_or_default(),
        page: report.metrics,
    }
}

/// Nanoseconds per call of `f`, the median of five timed batches.
fn ns_per_call(iters: u32, mut f: impl FnMut()) -> f64 {
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_nanos() as f64 / f64::from(iters)
        })
        .collect();
    median(&batches)
}

/// Times `Message::encode` and `decode_stream` on one schedule push
/// and one stats report shaped like the run's (mean rates per push,
/// mean flows per reporting machine). Returns ns per message.
fn proto_costs(rates: usize, flows: usize) -> Result<(f64, f64), String> {
    let msgs = [
        Message::Schedule {
            epoch: 7,
            rates: (0..rates as u32)
                .map(|i| RateAssignment {
                    flow: i,
                    rate: 125_000_000 / (1 + u64::from(i)),
                })
                .collect(),
        },
        Message::Stats {
            node: 3,
            now_ns: 1_234_567_890,
            flows: (0..flows as u32)
                .map(|i| FlowStat {
                    flow: i,
                    sent: 1_000_000 * u64::from(i),
                    finished: i % 3 == 0,
                    ready: true,
                })
                .collect(),
        },
    ];
    let frames: Vec<Vec<u8>> = msgs
        .iter()
        .map(|m| {
            m.encode()
                .map(|b| b.as_ref().to_vec())
                .map_err(|e| format!("encode: {e:?}"))
        })
        .collect::<Result<_, _>>()?;
    for (m, f) in msgs.iter().zip(&frames) {
        let mut buf = bytes::BytesMut::from(f.as_slice());
        match Message::decode_stream(&mut buf) {
            Ok(Some(d)) if d == *m && buf.is_empty() => {}
            other => return Err(format!("frame does not round-trip: {other:?}")),
        }
    }
    let encode = ns_per_call(20_000, || {
        for m in &msgs {
            std::hint::black_box(m.encode().ok());
        }
    }) / msgs.len() as f64;
    let decode = ns_per_call(20_000, || {
        for f in &frames {
            let mut buf = bytes::BytesMut::from(f.as_slice());
            std::hint::black_box(Message::decode_stream(&mut buf).ok());
        }
    }) / msgs.len() as f64;
    Ok((encode, decode))
}

/// Runs `emu-tcp` for `seconds` and reports end-to-end metrics (or,
/// with `traced`, per-layer metrics).
pub fn run(seed: u64, seconds: f64, traced: bool, work: &Path) -> Report {
    let mut rep = Report::default();
    let (traces, ingests) = input::prepare(input::emu, seed, TRACES, INGESTS, work);
    let expects: Vec<_> = traces.iter().map(oracle::expectations).collect();

    let started = Instant::now();
    let mut runs: Vec<Emulation> = Vec::new();
    let mut ccts: Vec<Vec<f64>> = vec![Vec::new(); traces.len()];
    let mut sums = (0u128, 0u128);
    while runs.len() < traces.len() || started.elapsed().as_secs_f64() < seconds {
        let k = runs.len() % traces.len();
        let e = emulate_once(&traces[k], traced);
        if e.timed_out {
            rep.fatal("emulation hit its wall deadline".into());
        }
        if e.sched.overallocated_rounds > 0 {
            rep.fatal(format!(
                "{} over-allocated rounds; first: {}",
                e.sched.overallocated_rounds,
                e.sched.first_overallocation.as_deref().unwrap_or("?")
            ));
        }
        // The coordinator stamps a completion with the start of the
        // epoch whose drain received it, so a stamp may precede the
        // completion by up to one epoch: the check allows the longest
        // interval between epochs that the run showed.
        let v = oracle::check(&e.records, &expects[k], e.sched.max_round_gap);
        rep.tally(&v);
        sums.0 += v.cct_sum_ns;
        sums.1 += v.bound_sum_ns;
        ccts[k].extend(e.records.iter().map(|r| r.cct().as_secs_f64()));
        eprintln!(
            "[perfbench] emulation {k}: {} coflows, {} epochs in {:.3} s, set-up {:.2} ms, cpu {:.3} s",
            e.records.len(),
            e.epochs,
            e.run.as_secs_f64(),
            e.setup.as_secs_f64() * 1e3,
            e.cpu.as_secs_f64()
        );
        runs.push(e);
    }

    let run_s: f64 = runs.iter().map(|e| e.run.as_secs_f64()).sum();
    // Set-up of the first emulation of each trace, a fixed sample.
    let setups: Vec<Duration> = runs[..traces.len()].iter().map(|e| e.setup).collect();
    if traced {
        runtime_layers(&mut rep, &runs, &traces, &ingests, run_s);
        crate::sim::quality(&mut rep, &ccts, sums.0, sums.1);
        rep.fill_absent_layers();
        return rep;
    }
    // The cadence while CoFlows are active: idle stretches of a trace
    // hold no epochs and must not dilute the rate.
    let gaps: Vec<f64> = runs
        .iter()
        .flat_map(|e| e.sched.wall_gaps_ns.iter().map(|&g| g as f64))
        .collect();
    let cadence = 1e9 / median(&gaps);
    // The coordinator loops at that cadence whether or not there is
    // anything to schedule, and the agent host ticks all along, so CPU
    // is charged per coordinator round: wall time × cadence.
    let cpu_s: f64 = runs.iter().map(|e| e.cpu.as_secs_f64()).sum();
    rep.metric("rounds_per_s", cadence, "1/s");
    rep.metric("setup_s", median_s(&ingests) + median_s(&setups), "s");
    rep.metric("peak_rss_mb", crate::stats::peak_rss_mb(), "MB");
    rep.metric("cpu_ms_per_round", cpu_s * 1e3 / (run_s * cadence), "ms");
    rep
}

/// Per-layer metrics from the traced emulations' metrics pages.
fn runtime_layers(
    rep: &mut Report,
    runs: &[Emulation],
    traces: &[Trace],
    ingests: &[Duration],
    run_s: f64,
) {
    if let (Ok(path), Some(page)) = (std::env::var("PERFBENCH_SAVE_PAGE"), &runs[0].page) {
        // Captures a page for the parser's test fixture.
        std::fs::write(&path, page).unwrap_or_else(|e| panic!("write {path}: {e}"));
    }
    let mut pages = Vec::new();
    for e in runs {
        match e.page.as_deref().map(Page::parse) {
            Some(Ok(p)) => pages.push(p),
            Some(Err(err)) => rep.fatal(format!("metrics page: {err}")),
            None => rep.fatal("the traced emulation returned no metrics page".into()),
        }
    }
    let total = |f: &dyn Fn(&Page) -> f64| pages.iter().map(f).sum::<f64>();
    let epochs = total(&|p| p.sum("saath_coord_epochs_total", "")).max(1.0);
    let rounds: u64 = runs.iter().map(|e| e.sched.rounds).sum();
    let compute_ns: Vec<f64> = runs
        .iter()
        .flat_map(|e| e.sched.compute_ns.iter().map(|&n| n as f64))
        .collect();
    let rates: u64 = runs.iter().map(|e| e.sched.rates_emitted).sum();
    let active: u64 = runs.iter().map(|e| e.sched.active_sum).sum();
    let saturated: u64 = runs.iter().map(|e| e.sched.saturated_sum).sum();
    let unchanged: u64 = runs.iter().map(|e| e.sched.unchanged_rounds).sum();
    let flows: usize = traces.iter().map(Trace::num_flows).sum();
    let nodes: usize = traces.iter().map(|t| t.num_nodes).sum();
    let per_round = |x: f64| x / epochs;

    rep.metric("workload.ingest_s", median_s(ingests), "s");
    rep.metric("core.compute_s", compute_ns.iter().sum::<f64>() / 1e9, "s");
    rep.metric(
        "core.compute_us_p50",
        quantile(&compute_ns, 0.5) / 1e3,
        "us",
    );
    rep.metric(
        "core.compute_us_p99",
        quantile(&compute_ns, 0.99) / 1e3,
        "us",
    );
    rep.metric(
        "core.active_coflows_mean",
        active as f64 / rounds.max(1) as f64,
        "count",
    );
    rep.metric("core.rates_emitted", rates as f64, "count");
    let mech = |f: fn(&MechCounters) -> u64| {
        runs.iter()
            .filter_map(|e| e.sched.mech.as_ref())
            .map(f)
            .sum::<u64>() as f64
    };
    rep.metric("core.gang_admissions", mech(|m| m.gang_admissions), "count");
    rep.metric("core.gang_rejections", mech(|m| m.gang_rejections), "count");
    rep.metric("core.wc_backfills", mech(|m| m.wc_backfills), "count");
    rep.metric("core.schedule_unchanged_rounds", unchanged as f64, "count");
    rep.metric(
        "core.lcof_comparisons",
        mech(|m| m.lcof_comparisons),
        "count",
    );
    rep.metric("core.order_rekeys", mech(|m| m.order_rekeys), "count");
    rep.metric(
        "core.contention_deltas",
        mech(|m| m.contention_deltas),
        "count",
    );
    rep.metric(
        "core.queue_transitions",
        mech(|m| m.queue_transitions),
        "count",
    );
    rep.metric(
        "fabric.saturated_ports_mean",
        saturated as f64 / rounds.max(1) as f64,
        "count",
    );

    let obs = total(&|p| p.phase_s("coord_obs_recv"));
    rep.metric("runtime.coord_obs_recv_s", obs, "s");
    rep.metric(
        "runtime.recv_timeouts_per_round",
        per_round(total(&|p| {
            p.sum("saath_transport_recv_timeouts_total", "link=\"agent\"")
        })),
        "count",
    );
    rep.metric(
        "runtime.coord_schedule_s",
        total(&|p| p.phase_s("coord_schedule")),
        "s",
    );
    rep.metric(
        "runtime.coord_broadcast_s",
        total(&|p| p.phase_s("coord_broadcast")),
        "s",
    );
    rep.metric(
        "runtime.agent_apply_s",
        total(&|p| p.phase_s("agent_apply")),
        "s",
    );
    rep.metric(
        "runtime.bytes_sent_per_round",
        per_round(total(&|p| {
            p.sum("saath_transport_bytes_sent_total", "link=\"agent\"")
        })),
        "B/round",
    );
    rep.metric(
        "runtime.bytes_recv_per_round",
        per_round(total(&|p| {
            p.sum("saath_transport_bytes_recv_total", "link=\"agent\"")
        })),
        "B/round",
    );
    rep.metric(
        "runtime.host_ready_events",
        total(&|p| p.sum("saath_host_ready_events_total", "")),
        "count",
    );
    let rates_per_push = (rates as f64 / rounds.max(1) as f64).round() as usize;
    let flows_per_report = flows.div_ceil(nodes.max(1));
    match proto_costs(rates_per_push.max(1), flows_per_report.max(1)) {
        Ok((enc, dec)) => {
            rep.metric("runtime.proto_encode_ns", enc, "ns");
            rep.metric("runtime.proto_decode_ns", dec, "ns");
        }
        Err(e) => rep.fatal(e),
    }
    rep.metric(
        "trace.probe_s",
        runs.iter().map(|e| e.sched.probe_ns).sum::<u64>() as f64 / 1e9,
        "s",
    );
    eprintln!(
        "[perfbench] coordinator obs-recv spans {:.3} s of {:.3} s emulated wall time",
        obs, run_s
    );
}

//! Checks computed from the trace alone, apart from the program.
//!
//! The isolation lower bound of a CoFlow is the time it would need on
//! an otherwise idle fabric: no schedule can finish it sooner than (a)
//! the busiest of its ports needs to carry its bytes, nor (b) its
//! slowest flow needs to become ready and then send at line rate. It
//! is the trivial bound beneath the LP relaxations of Qiu, Stein and
//! Zhong (arXiv:1603.07981), and feeds both the per-record check and
//! the `quality.cct_bound_ratio` metric.

use saath_metrics::CoflowRecord;
use saath_simcore::{Bytes, CoflowId, Duration, PortId, Rate};
use saath_workload::Trace;
use std::collections::HashMap;

/// Nanoseconds to move `bytes` at `rate`, rounded down (a lower bound
/// on any integer-nanosecond schedule).
fn floor_ns(bytes: Bytes, rate: Rate) -> u64 {
    (bytes.as_u64() as u128 * 1_000_000_000 / rate.as_u64().max(1) as u128) as u64
}

/// Per-CoFlow facts the checks compare records against.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Expect {
    /// Isolation lower bound on the CoFlow's completion time.
    pub bound: Duration,
    /// Bytes the CoFlow moves.
    pub total_bytes: Bytes,
    /// Number of flows.
    pub width: usize,
}

/// The isolation lower bound and byte total of every CoFlow in `trace`.
pub fn expectations(trace: &Trace) -> HashMap<CoflowId, Expect> {
    let n = trace.num_nodes;
    let rate = trace.port_rate;
    let mut load: HashMap<PortId, Bytes> = HashMap::new();
    trace
        .coflows
        .iter()
        .map(|c| {
            load.clear();
            let mut longest = 0u64;
            let mut total = Bytes::ZERO;
            for f in &c.flows {
                *load.entry(PortId::uplink(f.src)).or_default() += f.size;
                *load.entry(PortId::downlink(f.dst, n)).or_default() += f.size;
                longest = longest.max(f.available_after.as_nanos() + floor_ns(f.size, rate));
                total += f.size;
            }
            let busiest = load.values().map(|&b| floor_ns(b, rate)).max().unwrap_or(0);
            let e = Expect {
                bound: Duration(busiest.max(longest)),
                total_bytes: total,
                width: c.flows.len(),
            };
            (c.id, e)
        })
        .collect()
}

/// The outcome of checking one run's records against the trace.
#[derive(Clone, Debug, Default)]
pub struct Verdict {
    /// CoFlows in the trace.
    pub attempted: u64,
    /// CoFlows that did not complete or whose record fails a check.
    pub failed: u64,
    /// Σ CCT over completed CoFlows, nanoseconds.
    pub cct_sum_ns: u128,
    /// Σ isolation bound over the same CoFlows, nanoseconds.
    pub bound_sum_ns: u128,
    /// First few failures, for the report on standard error.
    pub notes: Vec<String>,
}

impl Verdict {
    fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 5 {
            self.notes.push(note);
        }
    }
}

/// Checks `records` against `expect`: every CoFlow completes exactly
/// once, moves the trace's bytes over the trace's flows, and never
/// finishes faster than its isolation bound. `slack` widens the bound
/// check for drivers whose timestamps are quantized (the emulator
/// observes completions at δ-granular epochs).
pub fn check(
    records: &[CoflowRecord],
    expect: &HashMap<CoflowId, Expect>,
    slack: Duration,
) -> Verdict {
    let mut v = Verdict {
        attempted: expect.len() as u64,
        ..Verdict::default()
    };
    let mut seen: HashMap<CoflowId, ()> = HashMap::with_capacity(records.len());
    for r in records {
        let Some(e) = expect.get(&r.id) else {
            v.notes
                .push(format!("record for unknown coflow {}", r.id.0));
            continue;
        };
        if seen.insert(r.id, ()).is_some() {
            v.fail(format!("coflow {} recorded twice", r.id.0));
            continue;
        }
        let cct = r.cct();
        v.cct_sum_ns += cct.as_nanos() as u128;
        v.bound_sum_ns += e.bound.as_nanos() as u128;
        if r.total_bytes != e.total_bytes {
            v.fail(format!(
                "coflow {}: total_bytes {} != trace {}",
                r.id.0,
                r.total_bytes.as_u64(),
                e.total_bytes.as_u64()
            ));
        } else if r.width != e.width {
            v.fail(format!(
                "coflow {}: width {} != trace {}",
                r.id.0, r.width, e.width
            ));
        } else if cct.as_nanos() + slack.as_nanos() < e.bound.as_nanos() {
            v.fail(format!(
                "coflow {}: CCT {} ns beats its isolation bound {} ns",
                r.id.0,
                cct.as_nanos(),
                e.bound.as_nanos()
            ));
        }
    }
    let missing = expect.len() - seen.len();
    for _ in 0..missing {
        v.fail("coflow did not complete".into());
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use saath_simcore::{CoflowId, NodeId, Time};
    use saath_workload::{CoflowSpec, FlowSpec};

    fn trace(flows: Vec<FlowSpec>) -> Trace {
        Trace {
            num_nodes: 4,
            port_rate: Rate(1_000_000), // 1 MB/s: 1 MB takes 1 s
            coflows: vec![CoflowSpec::new(CoflowId(7), Time::ZERO, flows)],
        }
    }

    fn bound_of(t: &Trace) -> Duration {
        expectations(t)[&CoflowId(7)].bound
    }

    #[test]
    fn one_flow_needs_its_size_over_rate() {
        let t = trace(vec![FlowSpec::new(NodeId(0), NodeId(1), Bytes::mb(3))]);
        assert_eq!(bound_of(&t), Duration::from_secs(3));
        assert_eq!(expectations(&t)[&CoflowId(7)].total_bytes, Bytes::mb(3));
    }

    #[test]
    fn two_flows_sharing_an_uplink_add_up() {
        // Both leave node 0: its uplink carries 2 + 3 MB.
        let t = trace(vec![
            FlowSpec::new(NodeId(0), NodeId(1), Bytes::mb(2)),
            FlowSpec::new(NodeId(0), NodeId(2), Bytes::mb(3)),
        ]);
        assert_eq!(bound_of(&t), Duration::from_secs(5));
        // Disjoint ports: the larger flow alone bounds it.
        let t = trace(vec![
            FlowSpec::new(NodeId(0), NodeId(1), Bytes::mb(2)),
            FlowSpec::new(NodeId(2), NodeId(3), Bytes::mb(3)),
        ]);
        assert_eq!(bound_of(&t), Duration::from_secs(3));
    }

    #[test]
    fn two_flows_sharing_a_downlink_add_up() {
        let t = trace(vec![
            FlowSpec::new(NodeId(0), NodeId(3), Bytes::mb(1)),
            FlowSpec::new(NodeId(1), NodeId(3), Bytes::mb(1)),
        ]);
        assert_eq!(bound_of(&t), Duration::from_secs(2));
    }

    #[test]
    fn a_delayed_ready_flow_adds_its_offset() {
        let mut late = FlowSpec::new(NodeId(2), NodeId(3), Bytes::mb(1));
        late.available_after = Duration::from_secs(4);
        let t = trace(vec![
            FlowSpec::new(NodeId(0), NodeId(1), Bytes::mb(3)),
            late,
        ]);
        assert_eq!(bound_of(&t), Duration::from_secs(5));
    }

    fn record(id: u32, cct_ms: u64, total: Bytes, width: usize) -> CoflowRecord {
        CoflowRecord {
            id: CoflowId(id),
            job: None,
            arrival: Time::ZERO,
            released: Time::ZERO,
            finish: Time::from_millis(cct_ms),
            width,
            total_bytes: total,
            flow_fcts: vec![],
            flow_sizes: vec![],
        }
    }

    #[test]
    fn check_flags_fast_missing_and_wrong_bytes() {
        let t = trace(vec![FlowSpec::new(NodeId(0), NodeId(1), Bytes::mb(3))]);
        let e = expectations(&t);
        let ok = check(&[record(7, 3000, Bytes::mb(3), 1)], &e, Duration::ZERO);
        assert_eq!((ok.attempted, ok.failed), (1, 0));
        assert_eq!(ok.cct_sum_ns, ok.bound_sum_ns);
        let fast = check(&[record(7, 2999, Bytes::mb(3), 1)], &e, Duration::ZERO);
        assert_eq!(fast.failed, 1);
        let slack = check(
            &[record(7, 2999, Bytes::mb(3), 1)],
            &e,
            Duration::from_millis(1),
        );
        assert_eq!(slack.failed, 0);
        assert_eq!(
            check(&[record(7, 3000, Bytes::mb(2), 1)], &e, Duration::ZERO).failed,
            1
        );
        assert_eq!(check(&[], &e, Duration::ZERO).failed, 1);
    }
}

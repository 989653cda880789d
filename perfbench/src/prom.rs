//! A reader for the runtime's Prometheus text page
//! (`EmulationReport::metrics`): sample lines only, integer or float
//! values, labels kept verbatim.

use std::collections::BTreeMap;

/// Samples of one page, keyed by `(metric name, label body)`.
#[derive(Debug, Default)]
pub struct Page {
    samples: BTreeMap<(String, String), f64>,
}

impl Page {
    /// Parses `text`; comment lines and blank lines are skipped, and a
    /// malformed sample line is an error.
    pub fn parse(text: &str) -> Result<Page, String> {
        let mut samples = BTreeMap::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (series, value) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("line {}: no value: {line}", i + 1))?;
            let value: f64 = value
                .parse()
                .map_err(|e| format!("line {}: bad value {value:?}: {e}", i + 1))?;
            let (name, labels) = match series.split_once('{') {
                Some((n, rest)) => (
                    n,
                    rest.strip_suffix('}')
                        .ok_or_else(|| format!("line {}: unclosed labels", i + 1))?,
                ),
                None => (series, ""),
            };
            samples.insert((name.to_string(), labels.to_string()), value);
        }
        Ok(Page { samples })
    }

    /// Σ of every series of `name` whose label body contains `filter`
    /// (`""` matches all); 0 when the page has none.
    pub fn sum(&self, name: &str, filter: &str) -> f64 {
        self.samples
            .range((name.to_string(), String::new())..)
            .take_while(|((n, _), _)| n == name)
            .filter(|((_, l), _)| l.contains(filter))
            .map(|(_, v)| v)
            .sum()
    }

    /// Σ of a phase's span latencies, in seconds.
    pub fn phase_s(&self, phase: &str) -> f64 {
        self.sum("saath_epoch_phase_ns_sum", &format!("phase=\"{phase}\"")) / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The final page of a small TCP emulation (20 machines on one
    /// multiplexed host, Saath coordinator), as `emulate` returned it.
    const PAGE: &str = include_str!("../fixtures/emu_tcp_page.prom");

    fn phase_count(p: &Page, phase: &str) -> f64 {
        p.sum("saath_epoch_phase_ns_count", &format!("phase=\"{phase}\""))
    }

    #[test]
    fn parses_a_captured_runtime_page() {
        let p = Page::parse(PAGE).expect("the captured page parses");
        let epochs = p.sum("saath_coord_epochs_total", "");
        assert!(epochs > 0.0);
        assert_eq!(phase_count(&p, "coord_schedule"), epochs);
        // Every epoch drains the host link at least once.
        assert!(phase_count(&p, "coord_obs_recv") >= epochs);
        assert!(p.phase_s("coord_obs_recv") > 0.0);
        assert!(p.phase_s("agent_apply") > 0.0);
        assert!(p.sum("saath_transport_recv_timeouts_total", "link=\"agent\"") > 0.0);
        assert!(p.sum("saath_transport_bytes_sent_total", "link=\"agent\"") > 0.0);
        assert!(p.sum("saath_host_ready_events_total", "") > 0.0);
        assert_eq!(p.sum("saath_host_agents", ""), 20.0);
        assert_eq!(p.sum("no_such_family", ""), 0.0);
    }

    #[test]
    fn rejects_malformed_samples() {
        assert!(Page::parse("saath_x{a=\"1\" 3").is_err());
        assert!(Page::parse("saath_x three").is_err());
        assert!(Page::parse("saath_x").is_err());
        let p = Page::parse("# HELP x y\n\nx 2\nx{l=\"a\"} 3\n").unwrap();
        assert_eq!(p.sum("x", ""), 5.0);
        assert_eq!(p.sum("x", "l=\"a\""), 3.0);
    }
}

//! The metric catalogue — every name the benchmark prints, with its unit,
//! direction and (for end-to-end metrics) regression bound — and the
//! result line, the printed table and the run history built from it.
//!
//! `BENCHMARK.json` declares the same names; a unit test and `ci.sh`
//! hold the two to each other.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

use crate::json::{number, quote};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees, on every workload, never zero.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("op_p50_us", "us", Lower, 0.25),
    e2e("io_bytes_per_op", "bytes", Lower, 0.06),
    e2e("space_amp", "ratio", Lower, 0.05),
    e2e("reopen_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.2),
];

/// Single layers, measured from outside; the layers are the crates.
pub const PER_LAYER: &[MetricDef] = &[
    // corion-client: what the load generator sees, 2 connections.
    layer("client.commits_per_s", "1/s", Higher),
    layer("client.commit_p50_ms", "ms", Lower),
    layer("client.commit_p99_ms", "ms", Lower),
    layer("client.reads_per_s", "1/s", Higher),
    layer("client.read_p99_us", "us", Lower),
    layer("client.round_trips_per_commit", "count", Lower),
    layer("client.rtt_begin_p50_us", "us", Lower),
    layer("client.rtt_make_p50_us", "us", Lower),
    layer("client.rtt_set_attr_p50_us", "us", Lower),
    layer("client.rtt_commit_p50_us", "us", Lower),
    layer("client.rtt_subtree_p50_us", "us", Lower),
    layer("client.rtt_components_p50_us", "us", Lower),
    layer("client.rtt_ancestors_p50_us", "us", Lower),
    layer("client.rtt_get_p50_us", "us", Lower),
    layer("client.retry_share", "share", Lower),
    layer("client.fail_share", "share", Lower),
    // corion-protocol: captured frames replayed through the codec.
    layer("protocol.encode_req_ns", "ns", Lower),
    layer("protocol.decode_req_ns", "ns", Lower),
    layer("protocol.encode_resp_ns", "ns", Lower),
    layer("protocol.decode_resp_ns", "ns", Lower),
    layer("protocol.req_bytes_per_op", "bytes", Lower),
    layer("protocol.resp_bytes_per_op", "bytes", Lower),
    layer("protocol.codec_share", "share", Lower),
    // corion-server: wire depth minus concurrent depth, one connection.
    layer("server.ping_rtt_p50_us", "us", Lower),
    layer("server.overhead_us_per_commit", "us", Lower),
    layer("server.overhead_us_per_read", "us", Lower),
    layer("server.error_responses", "count", Lower),
    layer("server.stream_lag_p50_ms", "ms", Lower),
    layer("server.stream_events_per_commit", "count", Higher),
    layer("server.stream_gap_free", "bool", Higher),
    // corion-concurrent: the same operations through ConcurrentDb.
    layer("concurrent.begin_write_ns", "ns", Lower),
    layer("concurrent.op_ns", "ns", Lower),
    layer("concurrent.commit_ns", "ns", Lower),
    layer("concurrent.begin_read_ns", "ns", Lower),
    layer("concurrent.subtree_ns", "ns", Lower),
    layer("concurrent.components_ns", "ns", Lower),
    layer("concurrent.ancestors_ns", "ns", Lower),
    layer("concurrent.get_ns", "ns", Lower),
    layer("concurrent.overhead_us_per_commit", "us", Lower),
    layer("concurrent.scaling_2c", "ratio", Higher),
    layer("concurrent.latch_wait_share", "share", Lower),
    layer("concurrent.versions_published_per_commit", "count", Lower),
    layer("concurrent.version_chains_end", "count", Lower),
    // corion-lock: registry deltas over the 2-connection phase.
    layer("lock.acquires_per_commit", "count", Lower),
    layer("lock.conflict_share", "share", Lower),
    layer("lock.wait_us_per_commit", "us", Lower),
    layer("lock.deadlocks_per_kcommit", "count", Lower),
    // corion-core: the same operations through Database.
    layer("core.txn_ns", "ns", Lower),
    layer("core.subtree_ns", "ns", Lower),
    layer("core.components_ns", "ns", Lower),
    layer("core.ancestors_ns", "ns", Lower),
    layer("core.get_ns", "ns", Lower),
    layer("core.traversal_cache_hit_share", "share", Higher),
    // corion-storage: WAL, checkpoints, buffer pool.
    layer("storage.wal_bytes_per_commit", "bytes", Lower),
    layer("storage.wal_records_per_commit", "count", Lower),
    layer("storage.wal_delta_share", "share", Higher),
    layer("storage.checkpoints", "count", Lower),
    layer("storage.checkpoint_mean_ms", "ms", Lower),
    layer(
        "storage.checkpoint_rewrite_bytes_per_commit",
        "bytes",
        Lower,
    ),
    layer("storage.buffer_hit_share", "share", Higher),
    layer("storage.buffer_evictions_per_read", "count", Lower),
    layer("storage.page_writes_per_commit", "count", Lower),
    layer("storage.write_amp", "ratio", Lower),
    // The device wrappers.
    layer("device.log_append_ns", "ns", Lower),
    layer("device.log_sync_ns", "ns", Lower),
    layer("device.log_sync_share", "share", Lower),
    layer("device.log_syncs_per_commit", "count", Lower),
    layer("device.page_read_ns", "ns", Lower),
    layer("device.page_write_ns", "ns", Lower),
    layer("device.page_reads_per_read", "count", Lower),
    layer("device.page_syncs_per_commit", "count", Lower),
    // The harness itself; the c1 counts come from the one-connection
    // pass and repeat exactly for a seed.
    layer("bench.trace_overhead_share", "share", Lower),
    layer("bench.op_sequence_hash", "id", Higher),
    layer("bench.c1_wal_bytes", "bytes", Lower),
    layer("bench.c1_wal_records", "count", Lower),
    layer("bench.c1_log_syncs", "count", Lower),
    layer("bench.c1_page_reads", "count", Lower),
    layer("bench.c1_page_writes", "count", Lower),
];

/// Metric values by catalogue name.
pub type Values = BTreeMap<&'static str, f64>;

/// `a / b`, or 0 when there is nothing to divide by (a per-commit metric
/// on a workload that commits nothing).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// What the process reports about one workload run.
pub struct RunResult {
    pub workload: &'static str,
    pub trace: bool,
    pub seed: u64,
    pub seconds: f64,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
    /// Context recorded with the run: op counts, machine, commit policy.
    pub context: Vec<(&'static str, String)>,
}

impl RunResult {
    pub fn catalogue(&self) -> &'static [MetricDef] {
        if self.trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Every metric of this mode by name with its unit, as a table.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for def in self.catalogue() {
            let v = self.values.get(def.name).copied().unwrap_or(f64::NAN);
            out.push_str(&format!("{:<46} {:>16.4} {}\n", def.name, v, def.unit));
        }
        out
    }

    fn metrics_json(&self, with_units: bool) -> String {
        let fields: Vec<String> = self
            .catalogue()
            .iter()
            .map(|def| {
                let v = number(self.values.get(def.name).copied().unwrap_or(f64::NAN));
                if with_units {
                    format!(
                        "{}:{{\"value\":{v},\"unit\":{}}}",
                        quote(def.name),
                        quote(def.unit)
                    )
                } else {
                    format!("{}:{v}", quote(def.name))
                }
            })
            .collect();
        format!("{{{}}}", fields.join(","))
    }

    /// The line the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            self.metrics_json(true)
        )
    }

    /// One line of run history.
    pub fn history_line(&self, set: &str) -> String {
        let context: Vec<String> = self
            .context
            .iter()
            .map(|(k, v)| format!("{}:{}", quote(k), quote(v)))
            .collect();
        format!(
            "{{\"set\":{},\"workload\":{},\"trace\":{},\"seed\":{},\"seconds\":{},\"correct\":{},\
             \"attempted\":{},\"failed\":{},\"context\":{{{}}},\"metrics\":{}}}",
            quote(set),
            quote(self.workload),
            u8::from(self.trace),
            self.seed,
            number(self.seconds),
            self.correct,
            self.attempted,
            self.failed,
            context.join(","),
            self.metrics_json(false)
        )
    }
}

/// Appends `line` to the history file, creating it if needed.
pub fn append_history(path: &Path, line: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{line}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};
    use crate::workload::Workload;

    fn declared(list: &Json) -> Vec<(String, String, String, Option<f64>)> {
        list.as_arr()
            .expect("a metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (
                    s("name"),
                    s("unit"),
                    s("better"),
                    m.get("bound").and_then(Json::as_f64),
                )
            })
            .collect()
    }

    fn catalogue(defs: &[MetricDef]) -> Vec<(String, String, String, Option<f64>)> {
        defs.iter()
            .map(|d| {
                (
                    d.name.to_string(),
                    d.unit.to_string(),
                    d.better.name().to_string(),
                    d.bound,
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc =
            parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON");
        assert_eq!(
            declared(doc.get("end_to_end").unwrap()),
            catalogue(END_TO_END)
        );
        assert_eq!(
            declared(doc.get("per_layer").unwrap()),
            catalogue(PER_LAYER)
        );
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d.bound.is_none_or(|b| b <= 0.25), "{}", d.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut values = Values::new();
        for d in END_TO_END {
            values.insert(d.name, 1.5);
        }
        let r = RunResult {
            workload: "ingest",
            trace: false,
            seed: 1,
            seconds: 1.0,
            correct: true,
            attempted: 10,
            failed: 0,
            values,
            context: vec![("nproc", "2".into())],
        };
        let doc = parse(&r.result_line()).unwrap();
        let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let metrics = doc.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(metrics["setup_s"].get("unit").unwrap().as_str(), Some("s"));
        assert!(parse(&r.history_line("a")).is_ok());
    }
}

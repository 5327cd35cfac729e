//! The four workloads and every constant their load depends on.
//!
//! Rates, deadlines, write cadences and query-space sizes are fixed here;
//! none is derived from a measurement taken during a run, so two builds
//! of the program always receive identical load.

use std::time::Duration;

use datagen::dataset::{BenchDataset, DatasetSpec};
use datagen::workload::{chain_query, produced_workload, q117_variants, soccer_query, BenchQuery};

/// Shards in the deployment every workload serves from.
pub const SHARDS: usize = 2;
/// Times set-up (dataset build, create, open, warm-up) runs per process;
/// `setup_s` is the median.
pub const SETUP_REPS: usize = 5;
/// Answer-cache and plan-cache capacities of `SchedConfig::default()`,
/// recorded next to the distinct-query counts they are compared with.
pub const CACHE_CAPACITY: usize = 256;
/// Deadline the TBQ layer probe runs under on every workload (the
/// `bounded` workload's request deadline).
pub const TBQ_DEADLINE: Duration = Duration::from_micros(250);
/// Generous deadline of the workloads that expect exact answers.
const GENEROUS: Duration = Duration::from_secs(1);

/// Which query space a workload draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Space {
    /// Every `q117_variants`, `produced_workload`, `chain_query` and
    /// `soccer_query` query of the dataset.
    Mixed,
    /// One Simple (`q117_variants`, variant `i % 4`), one Medium
    /// (`chain_query(i)`) and one Complex (`soccer_query(i)`) query per
    /// country `i`.
    Thirds,
    /// `Thirds` without its Simple queries.
    MediumComplex,
}

/// How requests are drawn from the space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Draw {
    /// `datagen::workload::RequestMix::default()`.
    RequestMix,
    /// Uniform over the space.
    Uniform,
}

/// A writer applying `datagen::churn::churn_stream` ops beside the reads.
#[derive(Debug, Clone, Copy)]
pub struct Writer {
    /// Ops applied per second (open loop).
    pub op_rate: f64,
    /// Ops per `commit()`.
    pub commit_every: usize,
    /// Commits per `compact()`.
    pub compact_every: usize,
}

/// The `churn` workload's writer; traced runs of the read-only workloads
/// end with a short write probe under the same constants.
pub const CHURN_WRITER: Writer = Writer {
    op_rate: 2000.0,
    commit_every: 50,
    compact_every: 20,
};

/// Offered rate ladder for `sustained_qps`.
#[derive(Debug, Clone, Copy)]
pub struct Ladder {
    /// Offered rates, ascending, q/s.
    pub rates: &'static [f64],
    /// Seconds each rate is offered.
    pub step_s: f64,
    /// The p99 latency a rate must meet, ms.
    pub p99_limit_ms: f64,
}

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Countries of the dbpedia-like dataset at scale 1.0.
    pub countries: usize,
    pub space: Space,
    pub draw: Draw,
    /// Open-loop offered rate (q/s); `None` runs one closed-loop reader.
    pub rate_qps: Option<f64>,
    /// Deadline every request carries.
    pub deadline: Duration,
    /// Closed-loop requests sent during set-up before timing starts.
    pub warmup_requests: usize,
    /// The rate ladder climbed after the fixed-rate phase, if any.
    pub ladder: Option<Ladder>,
    pub writer: Option<Writer>,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "repeat",
        countries: 8,
        space: Space::Mixed,
        draw: Draw::RequestMix,
        rate_qps: Some(2000.0),
        deadline: GENEROUS,
        warmup_requests: 6000,
        ladder: Some(Ladder {
            rates: &[
                2000.0, 3000.0, 4000.0, 6000.0, 8000.0, 10000.0, 12000.0, 14000.0, 16000.0,
                20000.0, 24000.0,
            ],
            step_s: 0.4,
            p99_limit_ms: 5.0,
        }),
        writer: None,
    },
    Workload {
        name: "cold",
        countries: 1024,
        space: Space::Thirds,
        draw: Draw::Uniform,
        rate_qps: Some(400.0),
        deadline: GENEROUS,
        warmup_requests: 2000,
        ladder: Some(Ladder {
            rates: &[
                400.0, 600.0, 800.0, 1000.0, 1250.0, 1500.0, 2000.0, 2500.0, 3000.0, 3500.0, 4000.0,
            ],
            step_s: 0.5,
            p99_limit_ms: 20.0,
        }),
        writer: None,
    },
    Workload {
        name: "churn",
        countries: 8,
        space: Space::Mixed,
        draw: Draw::RequestMix,
        rate_qps: None,
        deadline: GENEROUS,
        warmup_requests: 6000,
        ladder: None,
        writer: Some(CHURN_WRITER),
    },
    Workload {
        name: "bounded",
        countries: 1024,
        space: Space::MediumComplex,
        draw: Draw::Uniform,
        rate_qps: Some(400.0),
        deadline: TBQ_DEADLINE,
        warmup_requests: 2000,
        ladder: None,
        writer: None,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    pub fn dataset(&self) -> DatasetSpec {
        DatasetSpec {
            countries: self.countries,
            ..DatasetSpec::dbpedia_like(1.0)
        }
    }

    /// Whether every answer must come back `Exact` (generous deadlines).
    pub fn expects_exact(&self) -> bool {
        self.deadline >= GENEROUS
    }

    /// The workload's constants as one JSON object (for the result stamp).
    pub fn constants_json(&self) -> String {
        let mut out = format!(
            "{{\"countries\":{},\"space\":\"{:?}\",\"draw\":\"{:?}\",\"deadline_us\":{},\
             \"warmup_requests\":{},\"shards\":{SHARDS},\"setup_reps\":{SETUP_REPS},\
             \"tbq_deadline_us\":{}",
            self.countries,
            self.space,
            self.draw,
            self.deadline.as_micros(),
            self.warmup_requests,
            TBQ_DEADLINE.as_micros()
        );
        match self.rate_qps {
            Some(rate) => out.push_str(&format!(",\"open_loop_qps\":{rate}")),
            None => out.push_str(",\"closed_loop_readers\":1"),
        }
        if let Some(l) = self.ladder {
            let rates: Vec<String> = l.rates.iter().map(|r| r.to_string()).collect();
            out.push_str(&format!(
                ",\"ladder_qps\":[{}],\"ladder_step_s\":{},\"p99_limit_ms\":{}",
                rates.join(","),
                l.step_s,
                l.p99_limit_ms
            ));
        }
        if let Some(w) = self.writer {
            out.push_str(&format!(
                ",\"write_ops_per_s\":{},\"commit_every_ops\":{},\"compact_every_commits\":{}",
                w.op_rate, w.commit_every, w.compact_every
            ));
        }
        out.push('}');
        out
    }
}

/// The workload's query space over `ds`, in a fixed order.
pub fn query_space(space: Space, ds: &BenchDataset) -> Vec<BenchQuery> {
    match space {
        Space::Mixed => {
            let n = ds.countries.len();
            let mut out: Vec<BenchQuery> = ds
                .countries
                .iter()
                .flat_map(|c| q117_variants(ds, c))
                .collect();
            out.extend(produced_workload(ds));
            out.extend((0..n).map(|i| chain_query(ds, i)));
            out.extend((0..n).map(|i| soccer_query(ds, i).0));
            out
        }
        Space::Thirds | Space::MediumComplex => {
            let n = ds.countries.len();
            let mut out = Vec::with_capacity(3 * n);
            if space == Space::Thirds {
                out.extend(
                    ds.countries
                        .iter()
                        .enumerate()
                        .map(|(i, c)| q117_variants(ds, c).swap_remove(i % 4)),
                );
            }
            out.extend((0..n).map(|i| chain_query(ds, i)));
            out.extend((0..n).map(|i| soccer_query(ds, i).0));
            out
        }
    }
}

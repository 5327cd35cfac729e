//! Statistics, the result line, the host stamp and scrape parsing.

use std::collections::BTreeMap;
use std::path::Path;

/// The `q`-quantile (0..=1) of `values` by nearest rank; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Named metrics with units, kept in insertion order.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.entries.retain(|(n, _, _)| n != name);
        self.entries.push((name.to_string(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    pub fn unit(&self, name: &str) -> Option<&'static str> {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, _, u)| *u)
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` restricted to `names`
    /// (in that order), or every entry when `names` is `None`.
    pub fn to_json(&self, names: Option<&[String]>) -> String {
        let pick: Vec<&(String, f64, &'static str)> = match names {
            Some(names) => names
                .iter()
                .filter_map(|want| self.entries.iter().find(|(n, _, _)| n == want))
                .collect(),
            None => self.entries.iter().collect(),
        };
        let body: Vec<String> = pick
            .iter()
            .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", num(*v)))
            .collect();
        format!("{{{}}}", body.join(","))
    }

    /// One `name  value unit` line per entry, for people reading the log.
    pub fn table(&self) -> String {
        self.entries
            .iter()
            .map(|(n, v, u)| format!("  {n:<32} {:>14.6} {u}", v))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// A JSON number; non-finite values (which JSON cannot hold) become 0.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// A JSON string literal.
pub fn text(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The host stamp: parallelism, compiler, source revision.
pub fn host_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"nproc\":{nproc},\"rustc\":{},\"git_rev\":{},\"source_digest\":{}}}",
        text(&rustc),
        text(&git_rev().unwrap_or_else(|| "none".into())),
        text(&format!("{:016x}", source_digest()))
    )
}

/// The checked-out commit, read from `.git` in the working directory
/// (a plain source tree has none).
fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .ok()
            .map(|s| s.trim().to_string())
            .or_else(|| packed_ref(reference)),
        None => Some(head.to_string()),
    }
}

fn packed_ref(reference: &str) -> Option<String> {
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| {
        let (rev, name) = l.split_once(' ')?;
        (name == reference).then(|| rev.to_string())
    })
}

/// FNV-1a over the paths and bytes of every file under `crates/` plus
/// `Cargo.lock`, so a result names the sources it measured even where no
/// git metadata exists.
fn source_digest() -> u64 {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    files.push("Cargo.lock".into());
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in files {
        feed(f.to_string_lossy().as_bytes());
        if let Ok(bytes) = std::fs::read(&f) {
            feed(&bytes);
        }
    }
    h
}

/// Peak resident set size of this process, MB: `VmHWM` of
/// `/proc/self/status`. (`getrusage` would also count the launching
/// process, whose peak carries over `exec`.)
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A parsed Prometheus text scrape: `name{labels}` → value.
pub struct Scrape(BTreeMap<String, f64>);

impl Scrape {
    pub fn parse(text: &str) -> Self {
        Self(
            text.lines()
                .filter(|l| !l.starts_with('#'))
                .filter_map(|l| {
                    let (key, value) = l.rsplit_once(' ')?;
                    Some((key.to_string(), value.parse().ok()?))
                })
                .collect(),
        )
    }

    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    /// `self − earlier` for a cumulative counter.
    pub fn delta(&self, earlier: &Scrape, key: &str) -> f64 {
        self.get(key) - earlier.get(key)
    }
}

//! Result assembly: the metric list, the provenance block, and the JSON
//! lines the harness prints.

use std::fmt::Write as _;

/// Environment variables the measured program reads for its defaults.
/// The harness pins every knob itself and refuses to run with these set.
pub const PROGRAM_ENV: [&str; 3] = ["ATS_TEST_SHARDS", "ATS_TEST_TBLOCKS", "ATS_TEST_SYNOPSIS"];

/// Names of the program's knob variables that are set, if any.
pub fn program_env_set() -> Vec<&'static str> {
    PROGRAM_ENV
        .iter()
        .copied()
        .filter(|k| std::env::var_os(k).is_some())
        .collect()
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (i, m) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            );
        }
        s.push('}');
        s
    }
}

/// A JSON number with every digit Rust's shortest round-trip form gives;
/// non-finite values (which JSON cannot carry) become `null`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Machine and build facts every result is reported with.
pub fn provenance() -> String {
    let cpus = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"available_parallelism\": {cpus}, \"cpu_model\": {}, \"rustc\": {}, \
         \"profile\": {}, \"commit\": {}}}",
        json_str(&cpu_model),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
        json_str(&commit()),
    )
}

/// The checkout's commit, read from `.git` when the working directory is
/// a git checkout; `unknown` otherwise.
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The environment block: the program's knob variables (all unset, or
/// the run was refused) and the build-affecting variables, as seen.
pub fn environment() -> String {
    let mut s = String::from("{");
    let keys = PROGRAM_ENV
        .iter()
        .copied()
        .chain(["RUSTFLAGS", "CARGO_TARGET_DIR"]);
    for (i, k) in keys.enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let v = std::env::var(k).map_or("null".to_string(), |v| json_str(&v));
        let _ = write!(s, "{sep}\"{k}\": {v}");
    }
    s.push('}');
    s
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Total size of the regular files under `dir`, recursively.
pub fn dir_bytes(dir: &std::path::Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_render_as_contract_json() {
        let mut m = Metrics::default();
        m.push("setup_s", 0.25, "s");
        m.push("x", f64::NAN, "count");
        assert_eq!(
            m.to_json(),
            "{\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"x\": {\"value\": null, \"unit\": \"count\"}}"
        );
        assert_eq!(json_str("a\"b\n"), "\"a\\\"b\\u000a\"");
    }
}

//! What a run reports: its metrics, its operation counts, and the record
//! of the host and inputs it ran on.

use std::fmt::Write as _;

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one workload run produces.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (measured operations plus output checks).
    pub attempted: u64,
    /// Operations that failed: errors and output-check mismatches.
    pub failed: u64,
    /// Human-readable reasons for each failure (capped).
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Workload parameters, recorded with the host record.
    pub params: Vec<(&'static str, String)>,
    /// Numbers the run measured beyond the manifest's list for its kind
    /// of run; they go to the run record, not the result.
    pub extras: Vec<Metric>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Whether a metric of this name has been reported.
    pub fn has(&self, name: &str) -> bool {
        self.metrics.iter().any(|m| m.name == name)
    }

    pub fn param(&mut self, key: &'static str, value: impl ToString) {
        self.params.push((key, value.to_string()));
    }

    /// Count `n` attempted operations.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Count one attempted output check, failing it unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Count one failed operation (already counted as attempted).
    pub fn fail(&mut self, why: String) {
        self.fail_n(1, why);
    }

    /// Count `n` failed operations (already counted as attempted) with
    /// one reason.
    pub fn fail_n(&mut self, n: u64, why: String) {
        self.failed += n;
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }
}

/// Escape a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`. A non-finite metric cannot be written as JSON, so it is
/// reported as a failure and written as -1.
pub fn result_line(report: &mut Report) -> String {
    let bad: Vec<String> = report
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name.clone())
        .collect();
    for name in bad {
        report.attempt(1);
        report.fail(format!("metric {name} is not finite"));
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { -1.0 };
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(v),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    )
}

/// A float as a JSON number with every digit Rust's shortest round-trip
/// form gives it.
pub fn json_num(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// Process high-water resident set, MiB (`VmHWM`), or 0 when the kernel
/// does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Worker threads the host offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit of the checkout, read from `.git` when there is one.
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (no .git in checkout)".into(),
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
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

/// The host and run record printed (and written beside the trace) with
/// every result.
pub fn run_record(workload: &str, seed: u64, seconds: u64, trace: bool, report: &Report) -> String {
    let params: Vec<String> = report
        .params
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let extras: Vec<String> = report
        .extras
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                if m.value.is_finite() {
                    json_num(m.value)
                } else {
                    "null".into()
                },
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"run\": {{\"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \
         \"nproc\": {}, \"cpu_model\": {}, \"rustc\": {}, \"git_commit\": {}, \"params\": {{{}}}, \
         \"extras\": {{{}}}}}}}",
        json_str(workload),
        nproc(),
        json_str(&cpu_model()),
        json_str(env!("COLOCBENCH_RUSTC")),
        json_str(&git_commit()),
        params.join(", "),
        extras.join(", "),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.attempt(3);
        r.metric("setup_s", 0.25, "s");
        r.metric("scen_per_s", 12345.0, "1/s");
        let line = result_line(&mut r);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"scen_per_s\": {\"value\": 12345.0, \"unit\": \"1/s\"}}}"
        );
    }

    #[test]
    fn non_finite_metrics_fail_the_run() {
        let mut r = Report::default();
        r.metric("p99_ms", f64::INFINITY, "ms");
        let line = result_line(&mut r);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 1, \"failed\": 1"));
    }
}

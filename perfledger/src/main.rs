//! perfledger: one benchmark for the Morpheus-Oracle stack, end to end and
//! layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfledger/Cargo.toml -- \
//!     --workload register-stream --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads (see README.md for why each exists): `register-stream`,
//! `ingress-open`, `mixed-closed`. `--trace 0` measures with tracing off and
//! prints the end-to-end metrics; `--trace 1` runs the workload once
//! untraced and once traced, adds the per-layer probes, writes a span file
//! under `perfledger/out/` and prints the per-layer metrics. The last line
//! of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.

mod inputs;
mod layers;
mod probe;
mod replay;
mod setup;
mod stats;
mod trace;
mod workloads;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// One named metric with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // JSON has no infinity: a percentile that failures pushed to
                // +inf prints as 1e300.
                let v = if m.value.is_finite() { m.value } else { 1e300 };
                format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfledger: {e}");
            std::process::exit(2);
        }
    };
    let report = match args.workload.as_str() {
        "register-stream" => workloads::register_stream(&args),
        "ingress-open" => workloads::ingress_open(&args),
        "mixed-closed" => workloads::mixed_closed(&args),
        other => {
            eprintln!("perfledger: unknown workload {other} (register-stream, ingress-open, mixed-closed)");
            std::process::exit(2);
        }
    };
    println!("{}", report.to_json());
}

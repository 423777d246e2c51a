//! Small shared pieces: order statistics, the seed mixer, peak RSS, the host
//! fingerprint and a minimal JSON writer for the result lines.

use std::fmt::Write as _;
use std::time::Instant;

/// SplitMix64 step: every input of every workload is derived from the
/// benchmark seed through this mixer.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seconds elapsed since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// order statistics; `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Geometric mean of strictly positive values.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// The highest percentile of `n` samples that still has at least ten
/// samples above it, capped at 99.
pub fn tail_percentile(n: usize) -> f64 {
    if n <= 10 {
        return 50.0;
    }
    (100.0 * (1.0 - 10.0 / n as f64)).clamp(50.0, 99.0).floor()
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// What a result was measured on: CPU model, hardware threads, ISA flags,
/// compiled features and compiler version.
pub fn host_fingerprint() -> Json {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |name: &str| {
        cpuinfo
            .lines()
            .find(|line| line.starts_with(name))
            .and_then(|line| line.split_once(':'))
            .map(|(_, value)| value.trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let flags = field("flags");
    const ISA: [&str; 10] = [
        "sse4_2", "avx", "avx2", "fma", "bmi2", "avx512f", "avx512dq", "avx512vl", "neon", "asimd",
    ];
    let isa: Vec<Json> = ISA
        .iter()
        .filter(|flag| flags.split_whitespace().any(|f| f == **flag))
        .map(|flag| Json::str(flag))
        .collect();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj(vec![
        ("cpu_model", Json::str(&field("model name"))),
        ("nproc", Json::Num(nproc as f64)),
        ("isa", Json::Arr(isa)),
        (
            "features",
            Json::Arr(vec![
                Json::str("ncgws-core/parallel"),
                Json::str("ncgws-serve/parallel"),
            ]),
        ),
        ("rustc", Json::str(env!("PERFBENCH_RUSTC_VERSION"))),
        ("arch", Json::str(std::env::consts::ARCH)),
    ])
}

/// A JSON value, enough for the benchmark's own output.
#[derive(Debug, Clone)]
pub enum Json {
    Num(f64),
    Bool(bool),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Compact serialization; numbers keep every digit (shortest
    /// round-trip form), non-finite numbers become `null`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Num(v) if v.is_finite() => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    let _ = write!(out, "{}", *v as i64);
                } else {
                    let _ = write!(out, "{v}");
                }
            }
            Json::Num(_) => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, key);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_above() {
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(5), 50.0);
    }

    #[test]
    fn json_renders_compactly() {
        let j = Json::obj(vec![
            ("a", Json::Num(1.5)),
            ("b", Json::Num(2.0)),
            ("c", Json::Arr(vec![Json::str("x\"y"), Json::Bool(true)])),
        ]);
        assert_eq!(j.render(), r#"{"a":1.5,"b":2,"c":["x\"y",true]}"#);
    }
}

//! Shared pieces of the serving load harnesses (`repro serve-open`,
//! `repro serve-storm`): the request template pool with each template's
//! cold-pipeline oracle bytes, the zipf sampler that picks from it, the
//! client socket setup, and the `GET /metrics` scrape plus the
//! Prometheus schema check the harnesses run after their load windows.
//!
//! Every client request leaves as one `write` of `line + "\n"` on a
//! `TCP_NODELAY` socket (`frames`, `connect`). With the terminator
//! in a second write, Nagle's algorithm holds it until the server's
//! delayed ACK, which costs tens of milliseconds per request.

use cachemap_core::{Mapper, MapperConfig, Version};
use cachemap_polyhedral::DataSpace;
use cachemap_service::MapRequest;
use cachemap_storage::{HierarchyTree, PlatformConfig};
use cachemap_util::check::Gen;
use cachemap_util::ToJson;
use cachemap_workloads::{suite, Scale};
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// One pooled request: its JSON-lines form (no terminator) and the
/// mapping bytes an uncached `Mapper::map` run produces for it.
pub(crate) struct Template {
    pub(crate) line: String,
    pub(crate) cold_bytes: String,
}

/// Builds the template pool: 8 apps × 2 versions × 2 mapper variants,
/// with each template's cold-pipeline oracle bytes computed up front.
pub(crate) fn build_templates(app_limit: usize) -> Vec<Template> {
    let platform = PlatformConfig::tiny();
    let tree = HierarchyTree::from_config(&platform).expect("tiny config is valid");
    let mappers = [
        MapperConfig::default(),
        MapperConfig {
            refine_passes: 1,
            ..MapperConfig::default()
        },
    ];
    let mut apps = suite(Scale::Test);
    if app_limit > 0 {
        apps.truncate(app_limit);
    }
    let mut out = Vec::new();
    for app in apps {
        let data = DataSpace::new(&app.program.arrays, platform.chunk_bytes);
        for version in [Version::InterProcessor, Version::InterProcessorScheduled] {
            for mapper in mappers {
                let cold_bytes = Mapper::new(mapper)
                    .map(&app.program, &data, &platform, &tree, version)
                    .to_json()
                    .to_string_compact();
                let req = MapRequest {
                    id: out.len() as u64,
                    program: app.program.clone(),
                    platform: platform.clone(),
                    mapper,
                    version,
                    deadline_ms: None,
                    tenant: None,
                };
                out.push(Template {
                    line: req.to_json().to_string_compact(),
                    cold_bytes,
                });
            }
        }
    }
    out
}

/// `line + "\n"` for every template, built once so each request is a
/// single write.
pub(crate) fn frames(templates: &[Template]) -> Vec<Vec<u8>> {
    templates
        .iter()
        .map(|t| format!("{}\n", t.line).into_bytes())
        .collect()
}

/// A client connection with Nagle off.
pub(crate) fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    Ok(stream)
}

/// Zipf(s = 1.2) sampler over `n` ranks via inverse-CDF table lookup.
pub(crate) struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub(crate) fn new(n: usize) -> Self {
        let weights: Vec<f64> = (0..n).map(|r| 1.0 / ((r + 1) as f64).powf(1.2)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    pub(crate) fn sample(&self, g: &mut Gen) -> usize {
        let u = g.f64();
        self.cdf
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.cdf.len() - 1)
    }
}

/// Checks one Prometheus text exposition for schema validity: every
/// sample line is `name{label="value",…} number`, with legal metric and
/// label identifiers.
pub fn validate_prometheus(text: &str) -> Result<(), String> {
    fn ident_ok(s: &str, allow_colon: bool) -> bool {
        !s.is_empty()
            && s.chars().enumerate().all(|(i, c)| {
                c.is_ascii_alphabetic()
                    || c == '_'
                    || (allow_colon && c == ':')
                    || (i > 0 && c.is_ascii_digit())
            })
    }
    for (ln, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value: {line:?}", ln + 1))?;
        if !(value == "+Inf" || value == "-Inf" || value == "NaN" || value.parse::<f64>().is_ok()) {
            return Err(format!("line {}: bad value {value:?}", ln + 1));
        }
        let (name, labels) = match series.split_once('{') {
            None => (series, None),
            Some((n, rest)) => {
                let body = rest
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {}: unterminated label set", ln + 1))?;
                (n, Some(body))
            }
        };
        if !ident_ok(name, true) {
            return Err(format!("line {}: bad metric name {name:?}", ln + 1));
        }
        if let Some(body) = labels {
            for pair in body.split(',') {
                let (k, v) = pair
                    .split_once('=')
                    .ok_or_else(|| format!("line {}: bad label pair {pair:?}", ln + 1))?;
                if !ident_ok(k, false) {
                    return Err(format!("line {}: bad label name {k:?}", ln + 1));
                }
                if !(v.len() >= 2 && v.starts_with('"') && v.ends_with('"')) {
                    return Err(format!("line {}: unquoted label value {v:?}", ln + 1));
                }
            }
        }
    }
    Ok(())
}

/// Scrapes `GET /metrics` from a live server over plain HTTP.
pub fn scrape_metrics(addr: SocketAddr) -> Result<String, String> {
    let mut stream = connect(addr)?;
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n")
        .map_err(|e| format!("write: {e}"))?;
    let mut raw = String::new();
    BufReader::new(stream)
        .read_to_string(&mut raw)
        .map_err(|e| format!("read: {e}"))?;
    if !raw.starts_with("HTTP/1.1 200") {
        return Err(format!(
            "unexpected response: {:?}",
            raw.lines().next().unwrap_or("")
        ));
    }
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .ok_or("no body")?;
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(32);
        let mut g = Gen::from_seed(7);
        let mut counts = [0usize; 32];
        for _ in 0..2000 {
            counts[z.sample(&mut g)] += 1;
        }
        assert!(counts[0] > counts[31], "rank 0 must dominate rank 31");
        assert!(counts.iter().sum::<usize>() == 2000);
    }

    #[test]
    fn prometheus_validator_accepts_real_and_rejects_junk() {
        let good = "# HELP x_total help\n# TYPE x_total counter\n\
                    x_total{op=\"map\",outcome=\"ok\"} 3\n\
                    lat_bucket{le=\"+Inf\"} 7\nlat_sum 0.25\n";
        validate_prometheus(good).unwrap();
        for bad in [
            "1bad_name 3\n",
            "x{op=map} 3\n",
            "x{op=\"map\"} notanumber\n",
            "x{op=\"map\" 3\n",
        ] {
            assert!(validate_prometheus(bad).is_err(), "{bad:?}");
        }
    }
}

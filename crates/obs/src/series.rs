//! Simulated-time metric series: the engine-side [`Recorder`] and the
//! [`EngineObs`] snapshot it produces.
//!
//! The engine stamps every observation with its deterministic simulated
//! clock; the recorder folds observations into fixed-width buckets
//! (`t_ns / bucket_ns`). Because the clock is simulated, the resulting
//! series is byte-for-byte reproducible for a fixed seed — unlike the
//! wall-clock spans in [`crate::span`].
//!
//! The default recorder is disabled ([`Recorder::disabled`]): its inner
//! state is `None` and every recording method is an inlined early
//! return, so an uninstrumented run pays one branch per call site.

use cachemap_util::{Json, ToJson};
use std::collections::BTreeMap;

/// Cache level of an observed node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Client-side cache.
    L1,
    /// I/O-node cache.
    L2,
    /// Storage-node cache.
    L3,
}

impl Level {
    /// Prometheus / JSON label for the level.
    pub fn label(&self) -> &'static str {
        match self {
            Level::L1 => "l1",
            Level::L2 => "l2",
            Level::L3 => "l3",
        }
    }

    /// Parses a level label back.
    pub fn from_label(s: &str) -> Option<Level> {
        match s {
            "l1" => Some(Level::L1),
            "l2" => Some(Level::L2),
            "l3" => Some(Level::L3),
            _ => None,
        }
    }
}

/// Network hop class of a recorded transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LinkHop {
    /// Client ⇄ I/O node.
    ClientIo,
    /// I/O node ⇄ storage node.
    IoStorage,
    /// Storage node ⇄ peer storage node (stripe forwarding).
    StoragePeer,
}

impl LinkHop {
    /// Prometheus / JSON label for the hop.
    pub fn label(&self) -> &'static str {
        match self {
            LinkHop::ClientIo => "client-io",
            LinkHop::IoStorage => "io-storage",
            LinkHop::StoragePeer => "storage-peer",
        }
    }

    /// Parses a hop label back.
    pub fn from_label(s: &str) -> Option<LinkHop> {
        match s {
            "client-io" => Some(LinkHop::ClientIo),
            "io-storage" => Some(LinkHop::IoStorage),
            "storage-peer" => Some(LinkHop::StoragePeer),
            _ => None,
        }
    }
}

/// Per-bucket cache-node statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BucketStats {
    /// Cache hits in this bucket.
    pub hits: u64,
    /// Cache misses in this bucket.
    pub misses: u64,
    /// Evictions (clean + dirty) in this bucket.
    pub evictions: u64,
    /// Dirty evictions that triggered a writeback.
    pub writebacks: u64,
    /// Total time requests spent queued behind this node, ns.
    pub queue_ns: u64,
}

impl BucketStats {
    /// Accumulates another bucket into this one.
    pub fn add(&mut self, o: &BucketStats) {
        self.hits += o.hits;
        self.misses += o.misses;
        self.evictions += o.evictions;
        self.writebacks += o.writebacks;
        self.queue_ns += o.queue_ns;
    }
}

/// Per-bucket client activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientBucketStats {
    /// Simulated time spent in I/O, ns.
    pub io_ns: u64,
    /// Simulated time spent computing, ns.
    pub compute_ns: u64,
    /// Chunk accesses issued.
    pub accesses: u64,
}

impl ClientBucketStats {
    /// Accumulates another bucket into this one.
    pub fn add(&mut self, o: &ClientBucketStats) {
        self.io_ns += o.io_ns;
        self.compute_ns += o.compute_ns;
        self.accesses += o.accesses;
    }
}

/// Hot-chunk table cap in [`Recorder::finish`].
pub const HOT_CHUNKS_CAP: usize = 64;

#[derive(Debug, Default)]
struct RecorderInner {
    bucket_ns: u64,
    nodes: BTreeMap<(Level, usize), BTreeMap<u64, BucketStats>>,
    clients: BTreeMap<usize, BTreeMap<u64, ClientBucketStats>>,
    links: BTreeMap<(LinkHop, usize, usize), u64>,
    chunks: BTreeMap<u64, u64>,
}

impl RecorderInner {
    fn bucket(&self, t_ns: u64) -> u64 {
        t_ns / self.bucket_ns
    }
}

/// Engine-side metric recorder. Disabled by default; every recording
/// method on a disabled recorder is an inlined no-op.
#[derive(Debug, Default)]
pub struct Recorder {
    inner: Option<Box<RecorderInner>>,
}

impl Recorder {
    /// A recorder that drops everything (the default).
    pub fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// A recorder folding observations into `bucket_ns`-wide buckets of
    /// simulated time. `bucket_ns` is clamped to at least 1.
    pub fn enabled(bucket_ns: u64) -> Self {
        Recorder {
            inner: Some(Box::new(RecorderInner {
                bucket_ns: bucket_ns.max(1),
                ..RecorderInner::default()
            })),
        }
    }

    /// Whether observations are being kept.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records one cache access on `(level, node)` at simulated time `t_ns`.
    #[inline]
    pub fn cache_access(&mut self, level: Level, node: usize, t_ns: u64, hit: bool) {
        let Some(inner) = self.inner.as_deref_mut() else {
            return;
        };
        let b = inner.bucket(t_ns);
        let s = inner
            .nodes
            .entry((level, node))
            .or_default()
            .entry(b)
            .or_default();
        if hit {
            s.hits += 1;
        } else {
            s.misses += 1;
        }
    }

    /// Records an eviction (dirty evictions also count as writebacks).
    #[inline]
    pub fn eviction(&mut self, level: Level, node: usize, t_ns: u64, dirty: bool) {
        let Some(inner) = self.inner.as_deref_mut() else {
            return;
        };
        let b = inner.bucket(t_ns);
        let s = inner
            .nodes
            .entry((level, node))
            .or_default()
            .entry(b)
            .or_default();
        s.evictions += 1;
        if dirty {
            s.writebacks += 1;
        }
    }

    /// Records time a request waited behind `(level, node)`.
    #[inline]
    pub fn queue_wait(&mut self, level: Level, node: usize, t_ns: u64, wait_ns: u64) {
        let Some(inner) = self.inner.as_deref_mut() else {
            return;
        };
        let b = inner.bucket(t_ns);
        inner
            .nodes
            .entry((level, node))
            .or_default()
            .entry(b)
            .or_default()
            .queue_ns += wait_ns;
    }

    /// Records an I/O interval for a client, attributed to its start bucket.
    #[inline]
    pub fn client_io(&mut self, client: usize, t_ns: u64, dur_ns: u64) {
        let Some(inner) = self.inner.as_deref_mut() else {
            return;
        };
        let b = inner.bucket(t_ns);
        let s = inner
            .clients
            .entry(client)
            .or_default()
            .entry(b)
            .or_default();
        s.io_ns += dur_ns;
        s.accesses += 1;
    }

    /// Records a compute interval for a client.
    #[inline]
    pub fn client_compute(&mut self, client: usize, t_ns: u64, dur_ns: u64) {
        let Some(inner) = self.inner.as_deref_mut() else {
            return;
        };
        let b = inner.bucket(t_ns);
        inner
            .clients
            .entry(client)
            .or_default()
            .entry(b)
            .or_default()
            .compute_ns += dur_ns;
    }

    /// Counts one access to `chunk` (for the hot-chunk table).
    #[inline]
    pub fn chunk_access(&mut self, chunk: u64) {
        let Some(inner) = self.inner.as_deref_mut() else {
            return;
        };
        *inner.chunks.entry(chunk).or_insert(0) += 1;
    }

    /// Adds `bytes` to the `(hop, src, dst)` link tally.
    #[inline]
    pub fn link_transfer(&mut self, hop: LinkHop, src: usize, dst: usize, bytes: u64) {
        let Some(inner) = self.inner.as_deref_mut() else {
            return;
        };
        *inner.links.entry((hop, src, dst)).or_insert(0) += bytes;
    }

    /// Consumes the recorder and produces the deterministic snapshot.
    /// Returns `None` for a disabled recorder.
    pub fn finish(self) -> Option<EngineObs> {
        let inner = self.inner?;
        let mut hot: Vec<(u64, u64)> = inner.chunks.into_iter().collect();
        // Most-accessed first; chunk id breaks ties so the order is total.
        hot.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        hot.truncate(HOT_CHUNKS_CAP);
        Some(EngineObs {
            bucket_ns: inner.bucket_ns,
            nodes: inner.nodes,
            clients: inner.clients,
            links: inner.links,
            hot_chunks: hot,
        })
    }
}

/// Deterministic snapshot of one engine run's metric series.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineObs {
    /// Bucket width in simulated ns.
    pub bucket_ns: u64,
    /// Per-`(level, node)` sparse bucket series.
    pub nodes: BTreeMap<(Level, usize), BTreeMap<u64, BucketStats>>,
    /// Per-client sparse bucket series.
    pub clients: BTreeMap<usize, BTreeMap<u64, ClientBucketStats>>,
    /// Total bytes per `(hop, src, dst)` link.
    pub links: BTreeMap<(LinkHop, usize, usize), u64>,
    /// Top accessed chunks `(chunk, count)`, count-descending, capped at
    /// [`HOT_CHUNKS_CAP`].
    pub hot_chunks: Vec<(u64, u64)>,
}

impl EngineObs {
    /// Sums every bucket of every node at `level` into one aggregate.
    pub fn level_totals(&self, level: Level) -> BucketStats {
        let mut total = BucketStats::default();
        for ((l, _), series) in &self.nodes {
            if *l == level {
                for s in series.values() {
                    total.add(s);
                }
            }
        }
        total
    }

    /// Sums every bucket of one client's series.
    pub fn client_totals(&self, client: usize) -> ClientBucketStats {
        let mut total = ClientBucketStats::default();
        if let Some(series) = self.clients.get(&client) {
            for s in series.values() {
                total.add(s);
            }
        }
        total
    }

    /// Highest bucket index present anywhere in the series.
    pub fn max_bucket(&self) -> u64 {
        let node_max = self
            .nodes
            .values()
            .filter_map(|s| s.keys().next_back())
            .max()
            .copied();
        let client_max = self
            .clients
            .values()
            .filter_map(|s| s.keys().next_back())
            .max()
            .copied();
        node_max.into_iter().chain(client_max).max().unwrap_or(0)
    }

    /// Rebuilds a snapshot from its [`ToJson`] form.
    pub fn from_json(json: &Json) -> Result<EngineObs, String> {
        let bucket_ns = json
            .get("bucket_ns")
            .and_then(Json::as_u64)
            .ok_or("engine obs: missing \"bucket_ns\"")?;
        let mut obs = EngineObs {
            bucket_ns,
            ..EngineObs::default()
        };
        for row in req_array(json, "nodes")? {
            let level = row
                .get("level")
                .and_then(Json::as_str)
                .and_then(Level::from_label)
                .ok_or("node row: bad \"level\"")?;
            let node = req_u64(row, "node")? as usize;
            let mut series = BTreeMap::new();
            for b in req_array(row, "buckets")? {
                series.insert(
                    req_u64(b, "b")?,
                    BucketStats {
                        hits: req_u64(b, "hits")?,
                        misses: req_u64(b, "misses")?,
                        evictions: req_u64(b, "evictions")?,
                        writebacks: req_u64(b, "writebacks")?,
                        queue_ns: req_u64(b, "queue_ns")?,
                    },
                );
            }
            obs.nodes.insert((level, node), series);
        }
        for row in req_array(json, "clients")? {
            let client = req_u64(row, "client")? as usize;
            let mut series = BTreeMap::new();
            for b in req_array(row, "buckets")? {
                series.insert(
                    req_u64(b, "b")?,
                    ClientBucketStats {
                        io_ns: req_u64(b, "io_ns")?,
                        compute_ns: req_u64(b, "compute_ns")?,
                        accesses: req_u64(b, "accesses")?,
                    },
                );
            }
            obs.clients.insert(client, series);
        }
        for row in req_array(json, "links")? {
            let hop = row
                .get("hop")
                .and_then(Json::as_str)
                .and_then(LinkHop::from_label)
                .ok_or("link row: bad \"hop\"")?;
            obs.links.insert(
                (
                    hop,
                    req_u64(row, "src")? as usize,
                    req_u64(row, "dst")? as usize,
                ),
                req_u64(row, "bytes")?,
            );
        }
        for row in req_array(json, "hot_chunks")? {
            obs.hot_chunks
                .push((req_u64(row, "chunk")?, req_u64(row, "count")?));
        }
        Ok(obs)
    }
}

fn req_array<'a>(json: &'a Json, key: &str) -> Result<&'a [Json], String> {
    json.get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("engine obs: missing \"{key}\" array"))
}

fn req_u64(json: &Json, key: &str) -> Result<u64, String> {
    json.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("engine obs: missing \"{key}\""))
}

impl ToJson for EngineObs {
    fn to_json(&self) -> Json {
        let nodes = Json::Array(
            self.nodes
                .iter()
                .map(|((level, node), series)| {
                    Json::object(vec![
                        ("level", Json::Str(level.label().to_string())),
                        ("node", Json::UInt(*node as u64)),
                        (
                            "buckets",
                            Json::Array(
                                series
                                    .iter()
                                    .map(|(b, s)| {
                                        Json::object(vec![
                                            ("b", Json::UInt(*b)),
                                            ("hits", Json::UInt(s.hits)),
                                            ("misses", Json::UInt(s.misses)),
                                            ("evictions", Json::UInt(s.evictions)),
                                            ("writebacks", Json::UInt(s.writebacks)),
                                            ("queue_ns", Json::UInt(s.queue_ns)),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        );
        let clients = Json::Array(
            self.clients
                .iter()
                .map(|(client, series)| {
                    Json::object(vec![
                        ("client", Json::UInt(*client as u64)),
                        (
                            "buckets",
                            Json::Array(
                                series
                                    .iter()
                                    .map(|(b, s)| {
                                        Json::object(vec![
                                            ("b", Json::UInt(*b)),
                                            ("io_ns", Json::UInt(s.io_ns)),
                                            ("compute_ns", Json::UInt(s.compute_ns)),
                                            ("accesses", Json::UInt(s.accesses)),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        );
        let links = Json::Array(
            self.links
                .iter()
                .map(|((hop, src, dst), bytes)| {
                    Json::object(vec![
                        ("hop", Json::Str(hop.label().to_string())),
                        ("src", Json::UInt(*src as u64)),
                        ("dst", Json::UInt(*dst as u64)),
                        ("bytes", Json::UInt(*bytes)),
                    ])
                })
                .collect(),
        );
        let hot = Json::Array(
            self.hot_chunks
                .iter()
                .map(|(chunk, count)| {
                    Json::object(vec![
                        ("chunk", Json::UInt(*chunk)),
                        ("count", Json::UInt(*count)),
                    ])
                })
                .collect(),
        );
        Json::object(vec![
            ("bucket_ns", Json::UInt(self.bucket_ns)),
            ("nodes", nodes),
            ("clients", clients),
            ("links", links),
            ("hot_chunks", hot),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut r = Recorder::disabled();
        assert!(!r.is_enabled());
        r.cache_access(Level::L1, 0, 100, true);
        assert!(r.finish().is_none());
    }

    #[test]
    fn observations_land_in_simulated_time_buckets() {
        let mut r = Recorder::enabled(1000);
        r.cache_access(Level::L2, 3, 10, true);
        r.cache_access(Level::L2, 3, 999, false);
        r.cache_access(Level::L2, 3, 1000, true);
        r.queue_wait(Level::L2, 3, 1500, 250);
        let obs = r.finish().unwrap();
        let series = &obs.nodes[&(Level::L2, 3)];
        assert_eq!(series[&0].hits, 1);
        assert_eq!(series[&0].misses, 1);
        assert_eq!(series[&1].hits, 1);
        assert_eq!(series[&1].queue_ns, 250);
        let totals = obs.level_totals(Level::L2);
        assert_eq!((totals.hits, totals.misses), (2, 1));
    }

    #[test]
    fn hot_chunks_are_sorted_and_capped() {
        let mut r = Recorder::enabled(100);
        for chunk in 0..(HOT_CHUNKS_CAP as u64 + 10) {
            for _ in 0..=chunk {
                r.chunk_access(chunk);
            }
        }
        let obs = r.finish().unwrap();
        assert_eq!(obs.hot_chunks.len(), HOT_CHUNKS_CAP);
        assert_eq!(obs.hot_chunks[0].0, HOT_CHUNKS_CAP as u64 + 9);
        assert!(obs.hot_chunks.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let mut r = Recorder::enabled(500);
        r.cache_access(Level::L1, 0, 10, true);
        r.cache_access(Level::L3, 2, 700, false);
        r.eviction(Level::L2, 1, 600, true);
        r.client_io(4, 20, 300);
        r.client_compute(4, 400, 80);
        r.link_transfer(LinkHop::IoStorage, 1, 0, 65536);
        r.chunk_access(7);
        r.chunk_access(7);
        r.chunk_access(9);
        let obs = r.finish().unwrap();
        let json = obs.to_json();
        let back = EngineObs::from_json(&json).unwrap();
        assert_eq!(obs, back);
        assert_eq!(json.to_string_compact(), back.to_json().to_string_compact());
    }
}

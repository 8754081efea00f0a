//! Platform configuration (the paper's Table 1).
//!
//! | Parameter | Paper default |
//! |---|---|
//! | Number of client nodes | 64 |
//! | Number of I/O nodes | 32 |
//! | Number of storage nodes | 16 |
//! | Data striping | all 16 storage nodes |
//! | Stripe size | 64 KB |
//! | Storage capacity/disk | 40 GB |
//! | RPM | 10 000 |
//! | Data chunk size | 64 KB |
//! | Cache capacity/node (client, I/O, storage) | (2 GB, 2 GB, 2 GB) |
//!
//! A full-size run would need hundreds of GB of simulated data, so the
//! simulator keeps the node counts and all latency parameters but scales
//! *capacities* (cache sizes in chunks, dataset sizes) down together,
//! preserving the cache-pressure regime. [`PlatformConfig::paper_default`]
//! encodes Table 1 at the default scale used throughout the harness.

/// A structural problem with a [`PlatformConfig`], found by
/// [`PlatformConfig::validate`].
///
/// Every simulation entry point ([`crate::Simulator::new`],
/// [`crate::HierarchyTree::from_config`]) validates and surfaces this
/// typed error rather than trusting callers or panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// One of the `w`/`x`/`y` node counts is zero.
    ZeroNodeCount,
    /// `num_clients` is not a multiple of `num_io_nodes`, so clients
    /// cannot be divided contiguously over I/O nodes.
    ClientsNotDivisible {
        /// Configured number of clients.
        clients: usize,
        /// Configured number of I/O nodes.
        io_nodes: usize,
    },
    /// `num_io_nodes` is not a multiple of `num_storage_nodes`.
    IoNodesNotDivisible {
        /// Configured number of I/O nodes.
        io_nodes: usize,
        /// Configured number of storage nodes.
        storage_nodes: usize,
    },
    /// `chunk_bytes` is zero.
    ZeroChunkSize,
    /// One of the per-level cache capacities (in chunks) is zero.
    ZeroCacheCapacity,
    /// One of the physical rates (`rpm`, disk bandwidth, network
    /// bandwidth) is zero, which would make service times undefined.
    ZeroRate,
    /// `disks_per_node` is zero.
    ZeroDisksPerNode,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroNodeCount => write!(f, "node counts must be positive"),
            ConfigError::ClientsNotDivisible { clients, io_nodes } => write!(
                f,
                "clients ({clients}) must divide evenly over I/O nodes ({io_nodes})"
            ),
            ConfigError::IoNodesNotDivisible {
                io_nodes,
                storage_nodes,
            } => write!(
                f,
                "I/O nodes ({io_nodes}) must divide evenly over storage nodes ({storage_nodes})"
            ),
            ConfigError::ZeroChunkSize => write!(f, "chunk size must be positive"),
            ConfigError::ZeroCacheCapacity => write!(f, "cache capacities must be positive"),
            ConfigError::ZeroRate => write!(f, "rates must be positive"),
            ConfigError::ZeroDisksPerNode => write!(f, "disks per node must be positive"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Replacement policy selector for the storage caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Least-recently-used (the paper's policy).
    Lru,
    /// First-in-first-out (ablation).
    Fifo,
    /// Least-frequently-used with FIFO tie-breaking (ablation). It never
    /// ages, so a once-hot line can outstay its popularity.
    Lfu,
    /// Segmented LRU: a probationary segment absorbs single-use lines
    /// (sequential scans) while re-referenced lines are promoted into a
    /// protected segment — scan-resistant.
    Slru,
    /// LFU with dynamic aging: eviction priority is access count plus a
    /// cache age that ratchets to each victim's priority, so stale
    /// once-popular lines eventually age out.
    Lfuda,
}

impl PolicyKind {
    /// Every policy, in the canonical sweep order used by ablations and
    /// the advisor.
    pub const ALL: [PolicyKind; 5] = [
        PolicyKind::Lru,
        PolicyKind::Fifo,
        PolicyKind::Lfu,
        PolicyKind::Slru,
        PolicyKind::Lfuda,
    ];

    /// Stable lower-case label, also the wire name (see `storage::wire`).
    pub fn label(&self) -> &'static str {
        match self {
            PolicyKind::Lru => "lru",
            PolicyKind::Fifo => "fifo",
            PolicyKind::Lfu => "lfu",
            PolicyKind::Slru => "slru",
            PolicyKind::Lfuda => "lfuda",
        }
    }
}

/// Full platform description consumed by the simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformConfig {
    /// Number of client (compute) nodes `w`.
    pub num_clients: usize,
    /// Number of I/O nodes `x`.
    pub num_io_nodes: usize,
    /// Number of storage nodes `y`.
    pub num_storage_nodes: usize,

    /// Data chunk size in bytes (= stripe size; 64 KB in Table 1).
    pub chunk_bytes: u64,

    /// L1 (client) cache capacity per node, in chunks.
    pub client_cache_chunks: usize,
    /// L2 (I/O node) cache capacity per node, in chunks.
    pub io_cache_chunks: usize,
    /// L3 (storage node) cache capacity per node, in chunks.
    pub storage_cache_chunks: usize,

    /// Replacement policy per cache level, indexed `[L1, L2, L3]`
    /// (client, I/O node, storage node). The paper runs LRU everywhere;
    /// the policy zoo sweeps levels independently.
    pub policies: [PolicyKind; 3],

    /// Spindles per storage node (PVFS stripes node-local data across
    /// them round-robin; Table 1's "40 GB per disk" with several disks
    /// per node).
    pub disks_per_node: usize,
    /// Disk rotational speed (10 000 RPM in Table 1).
    pub rpm: u32,
    /// Average seek time in nanoseconds.
    pub seek_ns: u64,
    /// Disk sustained transfer bandwidth in bytes per second.
    pub disk_bw_bytes_per_s: u64,

    /// One-way network latency per hop in nanoseconds (client↔I/O and
    /// I/O↔storage hops).
    pub net_hop_ns: u64,
    /// Network bandwidth per link in bytes per second (10 GigE in the
    /// Blue Gene/P configuration the paper describes).
    pub net_bw_bytes_per_s: u64,

    /// Storage-node read-ahead: on a disk read, this many following
    /// sequential chunks of the same spindle are pulled into the L3
    /// cache asynchronously (0 disables; PVFS-style server read-ahead).
    pub readahead_chunks: usize,

    /// Local (same-node) cache access time in nanoseconds.
    pub cache_access_ns: u64,
    /// Inter-client synchronization overhead in nanoseconds (used by the
    /// dependence extension of Section 5.4).
    pub sync_ns: u64,
}

impl PlatformConfig {
    /// The paper's Table 1 configuration at the harness's default scale.
    ///
    /// Node counts, chunk size, RPM, and all latency parameters match the
    /// paper. Cache capacities are expressed in chunks and scaled so that
    /// the per-node-cache : dataset ratio matches the paper's
    /// 2 GB : ~300 GB ≈ 0.6% when used with the default workload scale
    /// (datasets of roughly 2-5 Ki chunks): 32 chunks per node ≈ 0.6-1.5%
    /// of a workload's data, and the cumulative L1 (64 × 32 = 2048
    /// chunks) covers roughly a third to a half of a dataset, as in the
    /// paper (128 GB of cumulative L1 vs. 190-423 GB datasets).
    pub fn paper_default() -> Self {
        PlatformConfig {
            num_clients: 64,
            num_io_nodes: 32,
            num_storage_nodes: 16,
            chunk_bytes: 64 * 1024,
            client_cache_chunks: 32,
            io_cache_chunks: 128,
            storage_cache_chunks: 384,
            policies: [PolicyKind::Lru; 3],
            disks_per_node: 4,
            rpm: 10_000,
            seek_ns: 4_000_000,            // 4 ms average seek
            disk_bw_bytes_per_s: 80 << 20, // 80 MB/s sustained (2010-era disk)
            net_hop_ns: 30_000,            // 30 µs per hop
            net_bw_bytes_per_s: 1 << 30,   // ~10 GigE effective
            readahead_chunks: 0,           // server read-ahead off by default
            cache_access_ns: 2_000,        // 2 µs DRAM-cache lookup
            sync_ns: 50_000,               // 50 µs barrier/signal cost
        }
    }

    /// A small configuration for unit tests: 4 clients, 2 I/O nodes,
    /// 1 storage node (the Figure 7 example topology), tiny caches.
    pub fn tiny() -> Self {
        PlatformConfig {
            num_clients: 4,
            num_io_nodes: 2,
            num_storage_nodes: 1,
            chunk_bytes: 1024,
            client_cache_chunks: 4,
            io_cache_chunks: 8,
            storage_cache_chunks: 16,
            ..Self::paper_default()
        }
    }

    /// Returns a copy with a different `(w, x, y)` topology (the Figure 12
    /// sensitivity axis).
    pub fn with_topology(mut self, w: usize, x: usize, y: usize) -> Self {
        self.num_clients = w;
        self.num_io_nodes = x;
        self.num_storage_nodes = y;
        self
    }

    /// Returns a copy with different per-node cache capacities in chunks
    /// (the Figure 13 sensitivity axis).
    pub fn with_cache_chunks(mut self, l1: usize, l2: usize, l3: usize) -> Self {
        self.client_cache_chunks = l1;
        self.io_cache_chunks = l2;
        self.storage_cache_chunks = l3;
        self
    }

    /// Returns a copy with server read-ahead enabled (prefetch ablation).
    pub fn with_readahead(mut self, chunks: usize) -> Self {
        self.readahead_chunks = chunks;
        self
    }

    /// Returns a copy running one replacement policy at every level (the
    /// uniform-policy ablation axis).
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policies = [policy; 3];
        self
    }

    /// Returns a copy with independent per-level replacement policies
    /// `(L1, L2, L3)` — the policy-zoo / advisor axis.
    pub fn with_level_policies(mut self, l1: PolicyKind, l2: PolicyKind, l3: PolicyKind) -> Self {
        self.policies = [l1, l2, l3];
        self
    }

    /// The single policy shared by all levels, or `None` when levels
    /// differ. The wire codec uses this to keep the uniform encoding
    /// byte-identical to the pre-zoo format.
    pub fn uniform_policy(&self) -> Option<PolicyKind> {
        if self.policies[1] == self.policies[0] && self.policies[2] == self.policies[0] {
            Some(self.policies[0])
        } else {
            None
        }
    }

    /// Returns a copy with a different chunk size in bytes (the Figure 14
    /// sensitivity axis). Cache capacities are in chunks, so halving the
    /// chunk size with fixed chunk counts also halves byte capacity; the
    /// harness compensates by scaling chunk counts to keep byte capacity
    /// constant, as the paper does.
    pub fn with_chunk_bytes(mut self, bytes: u64) -> Self {
        self.chunk_bytes = bytes;
        self
    }

    /// Validates internal consistency (divisibility of the tree fan-outs,
    /// non-zero capacities).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.num_clients == 0 || self.num_io_nodes == 0 || self.num_storage_nodes == 0 {
            return Err(ConfigError::ZeroNodeCount);
        }
        if !self.num_clients.is_multiple_of(self.num_io_nodes) {
            return Err(ConfigError::ClientsNotDivisible {
                clients: self.num_clients,
                io_nodes: self.num_io_nodes,
            });
        }
        if !self.num_io_nodes.is_multiple_of(self.num_storage_nodes) {
            return Err(ConfigError::IoNodesNotDivisible {
                io_nodes: self.num_io_nodes,
                storage_nodes: self.num_storage_nodes,
            });
        }
        if self.chunk_bytes == 0 {
            return Err(ConfigError::ZeroChunkSize);
        }
        if self.client_cache_chunks == 0
            || self.io_cache_chunks == 0
            || self.storage_cache_chunks == 0
        {
            return Err(ConfigError::ZeroCacheCapacity);
        }
        if self.rpm == 0 || self.disk_bw_bytes_per_s == 0 || self.net_bw_bytes_per_s == 0 {
            return Err(ConfigError::ZeroRate);
        }
        if self.disks_per_node == 0 {
            return Err(ConfigError::ZeroDisksPerNode);
        }
        Ok(())
    }

    /// Clients served by each I/O node (`w/x`).
    pub fn clients_per_io(&self) -> usize {
        self.num_clients / self.num_io_nodes
    }

    /// I/O nodes served by each storage node (`x/y`).
    pub fn ios_per_storage(&self) -> usize {
        self.num_io_nodes / self.num_storage_nodes
    }

    /// Clients ultimately served by each storage node (`w/y`).
    pub fn clients_per_storage(&self) -> usize {
        self.num_clients / self.num_storage_nodes
    }

    /// Half-rotation latency in nanoseconds (average rotational delay).
    pub fn rotational_ns(&self) -> u64 {
        // Half a revolution: 60 s / rpm / 2.
        (30_000_000_000u64) / self.rpm as u64
    }

    /// Time to transfer one chunk from disk, in nanoseconds.
    pub fn disk_transfer_ns(&self) -> u64 {
        self.chunk_bytes * 1_000_000_000 / self.disk_bw_bytes_per_s
    }

    /// Time to push one chunk over one network link, in nanoseconds
    /// (latency + serialization).
    pub fn net_chunk_ns(&self) -> u64 {
        self.net_hop_ns + self.chunk_bytes * 1_000_000_000 / self.net_bw_bytes_per_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_table1_shape() {
        let c = PlatformConfig::paper_default();
        assert_eq!(
            (c.num_clients, c.num_io_nodes, c.num_storage_nodes),
            (64, 32, 16)
        );
        assert_eq!(c.chunk_bytes, 64 * 1024);
        assert_eq!(c.rpm, 10_000);
        assert!(c.validate().is_ok());
        assert_eq!(c.clients_per_io(), 2);
        assert_eq!(c.ios_per_storage(), 2);
        assert_eq!(c.clients_per_storage(), 4);
    }

    #[test]
    fn rotational_latency_10krpm_is_3ms() {
        let c = PlatformConfig::paper_default();
        assert_eq!(c.rotational_ns(), 3_000_000);
    }

    #[test]
    fn chunk_transfer_includes_serialization() {
        let c = PlatformConfig::paper_default();
        assert!(c.net_chunk_ns() > c.net_hop_ns);
    }

    #[test]
    fn disk_transfer_time_64kb_at_80mbs() {
        let c = PlatformConfig::paper_default();
        // 65536 B / (80 MiB/s) ≈ 781 µs.
        let t = c.disk_transfer_ns();
        assert!((700_000..900_000).contains(&t), "{t}");
    }

    #[test]
    fn invalid_fanout_rejected() {
        let c = PlatformConfig::paper_default().with_topology(64, 24, 16);
        assert_eq!(
            c.validate(),
            Err(ConfigError::ClientsNotDivisible {
                clients: 64,
                io_nodes: 24
            })
        );
        let c = PlatformConfig::paper_default().with_topology(64, 32, 12);
        assert_eq!(
            c.validate(),
            Err(ConfigError::IoNodesNotDivisible {
                io_nodes: 32,
                storage_nodes: 12
            })
        );
    }

    #[test]
    fn zero_parameters_rejected_with_typed_errors() {
        let mut c = PlatformConfig::tiny();
        c.num_clients = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroNodeCount));
        let mut c = PlatformConfig::tiny();
        c.chunk_bytes = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroChunkSize));
        let mut c = PlatformConfig::tiny();
        c.io_cache_chunks = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroCacheCapacity));
        let mut c = PlatformConfig::tiny();
        c.rpm = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroRate));
        let mut c = PlatformConfig::tiny();
        c.disks_per_node = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroDisksPerNode));
        // Errors render as readable messages.
        assert!(ConfigError::ZeroRate.to_string().contains("positive"));
    }

    #[test]
    fn sensitivity_builders() {
        let c = PlatformConfig::paper_default()
            .with_topology(128, 32, 16)
            .with_cache_chunks(48, 96, 192)
            .with_chunk_bytes(16 * 1024);
        assert!(c.validate().is_ok());
        assert_eq!(c.num_clients, 128);
        assert_eq!(c.client_cache_chunks, 48);
        assert_eq!(c.chunk_bytes, 16 * 1024);
        assert_eq!(c.clients_per_io(), 4);
    }

    #[test]
    fn policy_builders_and_uniformity() {
        let c = PlatformConfig::paper_default();
        assert_eq!(c.uniform_policy(), Some(PolicyKind::Lru));
        let c = c.with_policy(PolicyKind::Fifo);
        assert_eq!(c.policies, [PolicyKind::Fifo; 3]);
        assert_eq!(c.uniform_policy(), Some(PolicyKind::Fifo));
        let c = c.with_level_policies(PolicyKind::Slru, PolicyKind::Lru, PolicyKind::Lfuda);
        assert_eq!(c.uniform_policy(), None);
        assert!(c.validate().is_ok());
        // Labels are unique and stable — they key wire names and metric
        // labels.
        let labels: std::collections::HashSet<&str> =
            PolicyKind::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(labels.len(), PolicyKind::ALL.len());
        assert_eq!(PolicyKind::Slru.label(), "slru");
    }

    #[test]
    fn tiny_matches_figure7() {
        let c = PlatformConfig::tiny();
        assert!(c.validate().is_ok());
        assert_eq!(
            (c.num_clients, c.num_io_nodes, c.num_storage_nodes),
            (4, 2, 1)
        );
    }
}

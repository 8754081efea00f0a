//! Disk and striping model.
//!
//! Each storage node owns one disk. File data is striped across all
//! storage nodes at stripe-size (= chunk-size) granularity, PVFS-style
//! (Table 1: "Data Striping uses all 16 storage nodes"). A chunk read
//! costs average seek + average rotational delay + transfer, unless the
//! request is sequential on that disk (the immediately following chunk),
//! in which case positioning is skipped — this is what makes the
//! lexicographic "original" mapping stream reasonably well and gives the
//! locality schemes something real to beat.

use crate::cache::Chunk;
use crate::config::PlatformConfig;

/// State of one storage-node disk, with its service times computed once
/// from the platform.
#[derive(Debug, Clone)]
pub struct Disk {
    /// Chunk that the head is positioned right after, if any.
    last_chunk: Option<Chunk>,
    /// Chunk-id distance between neighbours on this spindle.
    stride: usize,
    /// Service time of a read that follows on from the last chunk, ns.
    sequential_ns: u64,
    /// Service time of any other read, and of every write, ns.
    positioned_ns: u64,
    /// Total reads serviced.
    pub reads: u64,
    /// Total writes serviced.
    pub writes: u64,
    /// Reads that were sequential (no positioning cost).
    pub sequential_reads: u64,
}

impl Disk {
    /// A disk of platform `cfg` with an unpositioned head.
    pub fn new(cfg: &PlatformConfig) -> Self {
        let transfer = cfg.disk_transfer_ns();
        Disk {
            last_chunk: None,
            stride: striping_stride(cfg),
            sequential_ns: transfer,
            positioned_ns: cfg.seek_ns + cfg.rotational_ns() + transfer,
            reads: 0,
            writes: 0,
            sequential_reads: 0,
        }
    }

    /// Services a read of `chunk`; returns the service time in ns.
    pub fn read(&mut self, chunk: Chunk) -> u64 {
        self.reads += 1;
        let sequential = self.last_chunk == Some(chunk.wrapping_sub(self.stride));
        self.last_chunk = Some(chunk);
        if sequential {
            self.sequential_reads += 1;
            self.sequential_ns
        } else {
            self.positioned_ns
        }
    }

    /// Services a write-back of `chunk`; returns the service time in ns.
    /// Writes always pay positioning (they interrupt a read stream).
    pub fn write(&mut self, chunk: Chunk) -> u64 {
        self.writes += 1;
        self.last_chunk = Some(chunk);
        self.positioned_ns
    }
}

/// The storage node that owns a chunk under round-robin striping across
/// all storage nodes.
pub fn owner_of_chunk(chunk: Chunk, cfg: &PlatformConfig) -> usize {
    chunk % cfg.num_storage_nodes
}

/// The spindle within the owning storage node that holds a chunk:
/// node-local data is striped round-robin over the node's disks.
pub fn spindle_of_chunk(chunk: Chunk, cfg: &PlatformConfig) -> usize {
    (chunk / cfg.num_storage_nodes) % cfg.disks_per_node
}

/// Flat disk index (node-major) for the engine's disk table.
pub fn disk_index(chunk: Chunk, cfg: &PlatformConfig) -> usize {
    owner_of_chunk(chunk, cfg) * cfg.disks_per_node + spindle_of_chunk(chunk, cfg)
}

/// Total spindles in the system.
pub fn total_disks(cfg: &PlatformConfig) -> usize {
    cfg.num_storage_nodes * cfg.disks_per_node
}

/// The global-chunk-id stride between consecutive chunks on the same
/// spindle: with two-level round-robin striping, chunk `c` and
/// `c + num_storage_nodes · disks_per_node` are adjacent on disk.
pub fn striping_stride(cfg: &PlatformConfig) -> usize {
    cfg.num_storage_nodes * cfg.disks_per_node
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> PlatformConfig {
        PlatformConfig::paper_default()
    }

    #[test]
    fn striping_round_robin() {
        let c = cfg();
        assert_eq!(owner_of_chunk(0, &c), 0);
        assert_eq!(owner_of_chunk(15, &c), 15);
        assert_eq!(owner_of_chunk(16, &c), 0);
        assert_eq!(owner_of_chunk(17, &c), 1);
        // Node-local spindle striping: chunks 0, 16, 32, 48 live on node
        // 0's spindles 0, 1, 2, 3; chunk 64 wraps back to spindle 0.
        assert_eq!(spindle_of_chunk(0, &c), 0);
        assert_eq!(spindle_of_chunk(16, &c), 1);
        assert_eq!(spindle_of_chunk(48, &c), 3);
        assert_eq!(spindle_of_chunk(64, &c), 0);
        assert_eq!(disk_index(17, &c), c.disks_per_node + 1);
        assert_eq!(total_disks(&c), 64);
    }

    #[test]
    fn random_read_pays_positioning() {
        let c = cfg();
        let mut d = Disk::new(&c);
        let t = d.read(5);
        assert_eq!(t, c.seek_ns + c.rotational_ns() + c.disk_transfer_ns());
        assert_eq!(d.reads, 1);
        assert_eq!(d.sequential_reads, 0);
    }

    #[test]
    fn sequential_read_skips_positioning() {
        let c = cfg();
        let mut d = Disk::new(&c);
        // Spindle (0,0) holds chunks 0, 64, 128, … — reading them in
        // order is sequential after the first.
        d.read(0);
        let t = d.read(64);
        assert_eq!(t, c.disk_transfer_ns());
        assert_eq!(d.sequential_reads, 1);
        let t2 = d.read(192); // skipped 128 → not sequential
        assert!(t2 > c.disk_transfer_ns());
    }

    #[test]
    fn write_pays_positioning_and_disturbs_stream() {
        let c = cfg();
        let mut d = Disk::new(&c);
        d.read(0);
        let tw = d.write(100);
        assert_eq!(tw, c.seek_ns + c.rotational_ns() + c.disk_transfer_ns());
        assert_eq!(d.writes, 1);
        // Next read of 64 is no longer sequential (head moved).
        let t = d.read(64);
        assert!(t > c.disk_transfer_ns());
    }
}

//! The storage cache hierarchy tree (Figure 1 / Section 4.3).
//!
//! The mapper's clustering algorithm descends this tree level by level:
//! the root is the (possibly dummy) top of the storage layer, its
//! children are storage-node caches, then I/O-node caches, and the leaves
//! are the client-node (L1) caches. Two clients *have affinity at cache
//! level ℓ* when the same level-ℓ cache sits on both of their paths to
//! the root — the central definition of Section 3.

use crate::config::{ConfigError, PlatformConfig};

/// Index of a node in the hierarchy tree.
pub type NodeId = usize;

/// Why a [`HierarchyTree::prune_clients`] call could not produce a
/// degraded tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PruneError {
    /// A failed-client index does not exist in this tree.
    UnknownClient {
        /// The offending client index.
        client: usize,
        /// Number of clients in the tree.
        num_clients: usize,
    },
    /// Every client was marked failed; no survivors remain to remap onto.
    NoSurvivors,
}

impl std::fmt::Display for PruneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PruneError::UnknownClient {
                client,
                num_clients,
            } => write!(
                f,
                "failed client {client} out of range (tree has {num_clients} clients)"
            ),
            PruneError::NoSurvivors => write!(f, "all clients failed; nothing to remap onto"),
        }
    }
}

impl std::error::Error for PruneError {}

/// Which layer of the storage hierarchy a cache belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheLevel {
    /// Client-node cache (the paper's L1).
    Client,
    /// I/O-node cache (L2).
    Io,
    /// Storage-node cache (L3).
    Storage,
    /// Hypothetical unified root inserted when there are multiple storage
    /// nodes (Section 4.3: "we create a dummy node as the root node").
    DummyRoot,
}

impl CacheLevel {
    /// Index of this level in per-level `[L1, L2, L3]` arrays such as
    /// [`PlatformConfig::policies`](crate::config::PlatformConfig) and
    /// the engine's eviction tallies; `None` for the dummy root, which
    /// holds no cache.
    pub fn cache_index(self) -> Option<usize> {
        match self {
            CacheLevel::Client => Some(0),
            CacheLevel::Io => Some(1),
            CacheLevel::Storage => Some(2),
            CacheLevel::DummyRoot => None,
        }
    }
}

/// One node of the hierarchy tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeNode {
    /// Node id (index into the tree's node table).
    pub id: NodeId,
    /// Which hierarchy layer this cache lives in.
    pub level: CacheLevel,
    /// Parent node, `None` for the root.
    pub parent: Option<NodeId>,
    /// Children in the tree (empty for leaves).
    pub children: Vec<NodeId>,
    /// For `Client` leaves: the client index `0..w`.
    /// For `Io`/`Storage` nodes: the node index within its layer.
    pub layer_index: usize,
}

/// The storage cache hierarchy tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierarchyTree {
    nodes: Vec<TreeNode>,
    root: NodeId,
    clients: Vec<NodeId>,       // leaf node id per client index
    io_nodes: Vec<NodeId>,      // node id per I/O-node index
    storage_nodes: Vec<NodeId>, // node id per storage-node index
}

impl HierarchyTree {
    /// Builds the three-level tree of a [`PlatformConfig`]: clients are
    /// divided contiguously over I/O nodes, and I/O nodes contiguously
    /// over storage nodes (the Blue Gene/P-style partitioning Section 3
    /// describes). A dummy root is added when there are multiple storage
    /// nodes.
    ///
    /// # Errors
    /// Returns the [`ConfigError`] of [`PlatformConfig::validate`] when
    /// the config is structurally invalid.
    pub fn from_config(cfg: &PlatformConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let mut nodes: Vec<TreeNode> = Vec::new();
        let mut alloc = |level, parent, layer_index| {
            let id = nodes.len();
            nodes.push(TreeNode {
                id,
                level,
                parent,
                children: Vec::new(),
                layer_index,
            });
            id
        };

        let root = if cfg.num_storage_nodes > 1 {
            Some(alloc(CacheLevel::DummyRoot, None, 0))
        } else {
            None
        };

        let mut storage_nodes = Vec::with_capacity(cfg.num_storage_nodes);
        for s in 0..cfg.num_storage_nodes {
            let id = alloc(CacheLevel::Storage, root, s);
            storage_nodes.push(id);
        }
        let mut io_nodes = Vec::with_capacity(cfg.num_io_nodes);
        for i in 0..cfg.num_io_nodes {
            let parent = storage_nodes[i / cfg.ios_per_storage()];
            let id = alloc(CacheLevel::Io, Some(parent), i);
            io_nodes.push(id);
        }
        let mut clients = Vec::with_capacity(cfg.num_clients);
        for c in 0..cfg.num_clients {
            let parent = io_nodes[c / cfg.clients_per_io()];
            let id = alloc(CacheLevel::Client, Some(parent), c);
            clients.push(id);
        }

        // Wire children.
        for id in 0..nodes.len() {
            if let Some(p) = nodes[id].parent {
                nodes[p].children.push(id);
            }
        }

        let root = root.unwrap_or(storage_nodes[0]);
        Ok(HierarchyTree {
            nodes,
            root,
            clients,
            io_nodes,
            storage_nodes,
        })
    }

    /// The root node id.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// All nodes.
    pub fn nodes(&self) -> &[TreeNode] {
        &self.nodes
    }

    /// A node by id.
    pub fn node(&self, id: NodeId) -> &TreeNode {
        &self.nodes[id]
    }

    /// Number of clients (leaves).
    pub fn num_clients(&self) -> usize {
        self.clients.len()
    }

    /// Leaf node id of a client index.
    pub fn client_leaf(&self, client: usize) -> NodeId {
        self.clients[client]
    }

    /// Node id of an I/O node index.
    pub fn io_node(&self, io: usize) -> NodeId {
        self.io_nodes[io]
    }

    /// Node id of a storage node index.
    pub fn storage_node(&self, s: usize) -> NodeId {
        self.storage_nodes[s]
    }

    /// Index of the I/O node serving a client.
    ///
    /// Invariant: construction (and pruning) always wires every client
    /// leaf under an I/O node, so the parent lookup cannot fail.
    pub fn io_of_client(&self, client: usize) -> usize {
        let leaf = self.clients[client];
        match self.nodes[leaf].parent {
            Some(io) => self.nodes[io].layer_index,
            None => {
                debug_assert!(false, "client leaf {client} has no I/O parent");
                0
            }
        }
    }

    /// Index of the storage node serving a client (via its I/O node).
    ///
    /// Invariant: every I/O node is wired under a storage node by
    /// construction, so the parent lookup cannot fail.
    pub fn storage_of_client(&self, client: usize) -> usize {
        self.storage_of_io(self.io_of_client(client))
    }

    /// Index of the storage node above an I/O node.
    ///
    /// Invariant: every I/O node has a storage parent by construction.
    pub fn storage_of_io(&self, io: usize) -> usize {
        let io_id = self.io_nodes[io];
        match self.nodes[io_id].parent {
            Some(s) => self.nodes[s].layer_index,
            None => {
                debug_assert!(false, "I/O node {io} has no storage parent");
                0
            }
        }
    }

    /// Layer indices of the I/O nodes sharing a storage parent with `io`
    /// (excluding `io` itself), in increasing order. These are the
    /// failover candidates when I/O node `io` crashes.
    pub fn io_siblings(&self, io: usize) -> Vec<usize> {
        let io_id = self.io_nodes[io];
        let Some(parent) = self.nodes[io_id].parent else {
            return Vec::new();
        };
        self.nodes[parent]
            .children
            .iter()
            .map(|&c| self.nodes[c].layer_index)
            .filter(|&i| i != io)
            .collect()
    }

    /// Client indices under an arbitrary tree node (in increasing order).
    pub fn clients_under(&self, id: NodeId) -> Vec<usize> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            let node = &self.nodes[n];
            if node.level == CacheLevel::Client {
                out.push(node.layer_index);
            } else {
                stack.extend(node.children.iter().copied());
            }
        }
        out.sort_unstable();
        out
    }

    /// Path of node ids from a client leaf up to (and including) the root.
    pub fn path_to_root(&self, client: usize) -> Vec<NodeId> {
        let mut path = Vec::new();
        let mut cursor = self.clients[client];
        loop {
            path.push(cursor);
            match self.nodes[cursor].parent {
                Some(p) => cursor = p,
                None => return path,
            }
        }
    }

    /// Builds the degraded tree left after the given clients fail: the
    /// failed leaves are removed, along with any internal node that no
    /// longer has a surviving client beneath it. Returns the pruned tree
    /// plus the survivor map — `map[new_client] = original_client` — so a
    /// distribution over the pruned tree can be translated back to
    /// original client indices.
    ///
    /// Node and layer indices are renumbered contiguously (in original
    /// order), keeping every [`HierarchyTree`] invariant intact, so the
    /// clustering algorithms run on a pruned tree unchanged.
    ///
    /// # Errors
    /// [`PruneError::UnknownClient`] if a failed index is out of range,
    /// [`PruneError::NoSurvivors`] if no client remains.
    pub fn prune_clients(
        &self,
        failed: &[usize],
    ) -> Result<(HierarchyTree, Vec<usize>), PruneError> {
        let n = self.clients.len();
        let mut is_failed = vec![false; n];
        for &c in failed {
            if c >= n {
                return Err(PruneError::UnknownClient {
                    client: c,
                    num_clients: n,
                });
            }
            is_failed[c] = true;
        }
        let survivors: Vec<usize> = (0..n).filter(|&c| !is_failed[c]).collect();
        if survivors.is_empty() {
            return Err(PruneError::NoSurvivors);
        }

        // Keep every surviving leaf and its ancestor chain.
        let mut keep = vec![false; self.nodes.len()];
        for &c in &survivors {
            let mut cursor = Some(self.clients[c]);
            while let Some(id) = cursor {
                if keep[id] {
                    break;
                }
                keep[id] = true;
                cursor = self.nodes[id].parent;
            }
        }

        // Renumber kept nodes in original id order (deterministic).
        let mut new_id = vec![usize::MAX; self.nodes.len()];
        let mut kept_ids = Vec::new();
        for id in 0..self.nodes.len() {
            if keep[id] {
                new_id[id] = kept_ids.len();
                kept_ids.push(id);
            }
        }

        let mut nodes = Vec::with_capacity(kept_ids.len());
        let mut clients = Vec::new();
        let mut io_nodes = Vec::new();
        let mut storage_nodes = Vec::new();
        for &old in &kept_ids {
            let src = &self.nodes[old];
            let id = new_id[old];
            let layer_index = match src.level {
                CacheLevel::Client => {
                    clients.push(id);
                    clients.len() - 1
                }
                CacheLevel::Io => {
                    io_nodes.push(id);
                    io_nodes.len() - 1
                }
                CacheLevel::Storage => {
                    storage_nodes.push(id);
                    storage_nodes.len() - 1
                }
                CacheLevel::DummyRoot => 0,
            };
            nodes.push(TreeNode {
                id,
                level: src.level,
                parent: src.parent.map(|p| new_id[p]),
                children: src
                    .children
                    .iter()
                    .filter(|&&c| keep[c])
                    .map(|&c| new_id[c])
                    .collect(),
                layer_index,
            });
        }

        Ok((
            HierarchyTree {
                nodes,
                root: new_id[self.root],
                clients,
                io_nodes,
                storage_nodes,
            },
            survivors,
        ))
    }

    /// True if the two clients have affinity at a cache of the given
    /// level: some level-`level` cache lies on both root paths
    /// (Section 3's affinity definition).
    pub fn have_affinity_at(&self, c1: usize, c2: usize, level: CacheLevel) -> bool {
        let p1 = self.path_to_root(c1);
        let p2 = self.path_to_root(c2);
        p1.iter()
            .any(|&n| self.nodes[n].level == level && p2.contains(&n))
    }

    /// The deepest shared cache level of two clients, or `None` if they
    /// share nothing but a dummy root.
    pub fn deepest_shared_level(&self, c1: usize, c2: usize) -> Option<CacheLevel> {
        let p2: Vec<NodeId> = self.path_to_root(c2);
        for &n in &self.path_to_root(c1) {
            if p2.contains(&n) && self.nodes[n].level != CacheLevel::DummyRoot {
                return Some(self.nodes[n].level);
            }
        }
        None
    }

    /// The levels of the clustering descent, root-first, each with the
    /// list of nodes at that level. The mapper's hierarchical algorithm
    /// iterates these from just below the root down to the client leaves.
    pub fn levels(&self) -> Vec<(CacheLevel, Vec<NodeId>)> {
        let mut out: Vec<(CacheLevel, Vec<NodeId>)> = Vec::new();
        let mut frontier = vec![self.root];
        loop {
            let level = self.nodes[frontier[0]].level;
            out.push((level, frontier.clone()));
            let next: Vec<NodeId> = frontier
                .iter()
                .flat_map(|&n| self.nodes[n].children.iter().copied())
                .collect();
            if next.is_empty() {
                break;
            }
            frontier = next;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure7_tree() -> HierarchyTree {
        // 4 clients, 2 I/O nodes, 1 storage node — Figure 7.
        HierarchyTree::from_config(&PlatformConfig::tiny()).unwrap()
    }

    fn paper_tree() -> HierarchyTree {
        HierarchyTree::from_config(&PlatformConfig::paper_default()).unwrap()
    }

    #[test]
    fn figure7_structure() {
        let t = figure7_tree();
        assert_eq!(t.num_clients(), 4);
        // Single storage node is the root (no dummy).
        assert_eq!(t.node(t.root()).level, CacheLevel::Storage);
        assert_eq!(t.io_of_client(0), 0);
        assert_eq!(t.io_of_client(1), 0);
        assert_eq!(t.io_of_client(2), 1);
        assert_eq!(t.io_of_client(3), 1);
        assert_eq!(t.storage_of_client(3), 0);
    }

    #[test]
    fn figure1_affinity() {
        // Paper default: each L2 shared by 2 clients, each L3 by 4.
        let t = paper_tree();
        assert!(t.have_affinity_at(0, 1, CacheLevel::Io));
        assert!(!t.have_affinity_at(0, 2, CacheLevel::Io));
        assert!(t.have_affinity_at(0, 3, CacheLevel::Storage));
        assert!(!t.have_affinity_at(0, 4, CacheLevel::Storage));
        assert_eq!(t.deepest_shared_level(0, 1), Some(CacheLevel::Io));
        assert_eq!(t.deepest_shared_level(0, 2), Some(CacheLevel::Storage));
        assert_eq!(t.deepest_shared_level(0, 63), None);
        assert_eq!(t.deepest_shared_level(5, 5), Some(CacheLevel::Client));
    }

    #[test]
    fn cache_index_addresses_per_level_policies() {
        use crate::config::PolicyKind;
        let cfg = PlatformConfig::tiny().with_level_policies(
            PolicyKind::Slru,
            PolicyKind::Lfuda,
            PolicyKind::Lfu,
        );
        let t = HierarchyTree::from_config(&cfg).unwrap();
        for node in t.nodes() {
            let policy = node.level.cache_index().map(|i| cfg.policies[i]);
            match node.level {
                CacheLevel::Client => assert_eq!(policy, Some(PolicyKind::Slru)),
                CacheLevel::Io => assert_eq!(policy, Some(PolicyKind::Lfuda)),
                CacheLevel::Storage => assert_eq!(policy, Some(PolicyKind::Lfu)),
                CacheLevel::DummyRoot => assert_eq!(policy, None),
            }
        }
    }

    #[test]
    fn dummy_root_added_for_multiple_storage_nodes() {
        let t = paper_tree();
        assert_eq!(t.node(t.root()).level, CacheLevel::DummyRoot);
        assert_eq!(t.node(t.root()).children.len(), 16);
    }

    #[test]
    fn clients_under_nodes() {
        let t = figure7_tree();
        assert_eq!(t.clients_under(t.io_node(0)), vec![0, 1]);
        assert_eq!(t.clients_under(t.io_node(1)), vec![2, 3]);
        assert_eq!(t.clients_under(t.root()), vec![0, 1, 2, 3]);
        assert_eq!(t.clients_under(t.client_leaf(2)), vec![2]);
    }

    #[test]
    fn levels_descend_root_to_clients() {
        let t = figure7_tree();
        let levels = t.levels();
        assert_eq!(levels.len(), 3);
        assert_eq!(levels[0].0, CacheLevel::Storage);
        assert_eq!(levels[1].0, CacheLevel::Io);
        assert_eq!(levels[1].1.len(), 2);
        assert_eq!(levels[2].0, CacheLevel::Client);
        assert_eq!(levels[2].1.len(), 4);
    }

    #[test]
    fn levels_with_dummy_root() {
        let t = paper_tree();
        let levels = t.levels();
        assert_eq!(levels.len(), 4);
        assert_eq!(levels[0].0, CacheLevel::DummyRoot);
        assert_eq!(levels[3].1.len(), 64);
    }

    #[test]
    fn path_to_root_lengths() {
        let t = paper_tree();
        assert_eq!(t.path_to_root(17).len(), 4); // client, io, storage, dummy
        let t2 = figure7_tree();
        assert_eq!(t2.path_to_root(0).len(), 3);
    }

    #[test]
    fn contiguous_partitioning() {
        let t = paper_tree();
        // Client 10 → I/O node 5 → storage node 2.
        assert_eq!(t.io_of_client(10), 5);
        assert_eq!(t.storage_of_client(10), 2);
        assert_eq!(t.clients_under(t.storage_node(2)), vec![8, 9, 10, 11]);
    }

    #[test]
    fn io_siblings_share_the_storage_parent() {
        let t = paper_tree();
        // 32 I/O nodes over 16 storage nodes → pairs {0,1}, {2,3}, …
        assert_eq!(t.io_siblings(0), vec![1]);
        assert_eq!(t.io_siblings(1), vec![0]);
        assert_eq!(t.io_siblings(5), vec![4]);
        let t2 = figure7_tree(); // 2 I/O nodes under 1 storage node
        assert_eq!(t2.io_siblings(0), vec![1]);
        assert_eq!(t2.storage_of_io(1), 0);
    }

    #[test]
    fn prune_removes_failed_subtrees_and_maps_survivors() {
        let t = figure7_tree();
        // Clients 0 and 1 fail → I/O node 0 loses all leaves and is
        // pruned; survivors 2, 3 renumber to 0, 1.
        let (pruned, map) = t.prune_clients(&[0, 1]).unwrap();
        assert_eq!(pruned.num_clients(), 2);
        assert_eq!(map, vec![2, 3]);
        assert_eq!(pruned.io_of_client(0), 0); // old io 1, renumbered
        assert_eq!(pruned.clients_under(pruned.root()), vec![0, 1]);
        assert_eq!(pruned.levels().len(), 3);
    }

    #[test]
    fn prune_keeps_partial_subtrees() {
        let t = figure7_tree();
        let (pruned, map) = t.prune_clients(&[1]).unwrap();
        assert_eq!(map, vec![0, 2, 3]);
        // I/O node 0 survives with one client; io 1 keeps two.
        assert_eq!(pruned.io_of_client(0), 0);
        assert_eq!(pruned.io_of_client(1), 1);
        assert_eq!(pruned.io_of_client(2), 1);
        assert_eq!(pruned.deepest_shared_level(1, 2), Some(CacheLevel::Io));
    }

    #[test]
    fn prune_rejects_bad_inputs() {
        let t = figure7_tree();
        assert_eq!(
            t.prune_clients(&[7]),
            Err(PruneError::UnknownClient {
                client: 7,
                num_clients: 4
            })
        );
        assert_eq!(t.prune_clients(&[0, 1, 2, 3]), Err(PruneError::NoSurvivors));
    }

    #[test]
    fn prune_drops_empty_storage_nodes_and_dummy_root_logic_holds() {
        let t = paper_tree();
        // Fail every client except the four under storage node 0: the
        // pruned tree keeps the dummy root only if >1 storage node
        // survives — here exactly one survives, but the dummy root is
        // retained as the ancestor chain (still a valid tree).
        let failed: Vec<usize> = (4..64).collect();
        let (pruned, map) = t.prune_clients(&failed).unwrap();
        assert_eq!(pruned.num_clients(), 4);
        assert_eq!(map, vec![0, 1, 2, 3]);
        assert_eq!(pruned.storage_of_client(3), 0);
        assert_eq!(pruned.clients_under(pruned.root()), vec![0, 1, 2, 3]);
    }
}

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
    clients: Vec<NodeId>,  // leaf node id per client index
    io_nodes: Vec<NodeId>, // node id per I/O-node index
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

    /// Index of the I/O node serving a client.
    ///
    /// Invariant: construction always wires every client leaf under an
    /// I/O node, so the parent lookup cannot fail.
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

    /// The levels met walking first children from the root to a leaf.
    fn first_child_descent(t: &HierarchyTree) -> Vec<CacheLevel> {
        let mut out = Vec::new();
        let mut cursor = Some(t.root());
        while let Some(id) = cursor {
            out.push(t.node(id).level);
            cursor = t.node(id).children.first().copied();
        }
        out
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
        assert_eq!(t.storage_of_io(t.io_of_client(3)), 0);
    }

    #[test]
    fn figure1_affinity() {
        // Paper default: each L2 shared by 2 clients, each L3 by 4.
        let t = paper_tree();
        let storage_of = |c: usize| t.storage_of_io(t.io_of_client(c));
        assert_eq!(t.io_of_client(0), t.io_of_client(1));
        assert_ne!(t.io_of_client(0), t.io_of_client(2));
        assert_eq!(storage_of(0), storage_of(3));
        assert_ne!(storage_of(0), storage_of(4));
        for node in t.nodes() {
            let width = match node.level {
                CacheLevel::Client => 1,
                CacheLevel::Io => 2,
                CacheLevel::Storage => 4,
                CacheLevel::DummyRoot => 64,
            };
            assert_eq!(t.clients_under(node.id).len(), width, "{node:?}");
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
        let io = &t.node(t.root()).children;
        assert_eq!(t.clients_under(io[0]), vec![0, 1]);
        assert_eq!(t.clients_under(io[1]), vec![2, 3]);
        assert_eq!(t.clients_under(t.root()), vec![0, 1, 2, 3]);
        assert_eq!(t.clients_under(t.node(io[1]).children[0]), vec![2]);
    }

    #[test]
    fn levels_descend_root_to_clients() {
        let t = figure7_tree();
        assert_eq!(
            first_child_descent(&t),
            [CacheLevel::Storage, CacheLevel::Io, CacheLevel::Client]
        );
        let io = &t.node(t.root()).children;
        assert_eq!(io.len(), 2);
        assert!(io.iter().all(|&n| t.node(n).children.len() == 2));
    }

    #[test]
    fn levels_with_dummy_root() {
        let t = paper_tree();
        assert_eq!(
            first_child_descent(&t),
            [
                CacheLevel::DummyRoot,
                CacheLevel::Storage,
                CacheLevel::Io,
                CacheLevel::Client
            ]
        );
        assert_eq!(t.clients_under(t.root()).len(), 64);
    }

    #[test]
    fn contiguous_partitioning() {
        let t = paper_tree();
        // Client 10 → I/O node 5 → storage node 2.
        assert_eq!(t.io_of_client(10), 5);
        assert_eq!(t.storage_of_io(5), 2);
        let storage2 = t.node(t.root()).children[2];
        assert_eq!(t.clients_under(storage2), vec![8, 9, 10, 11]);
    }
}

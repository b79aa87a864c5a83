//! Query network description: a DAG of operators, as in Fig. 2 of the
//! paper ("multiple queries form a network of operators so that they can
//! share computations").

use crate::operator::OperatorLogic;
use crate::time::SimDuration;
use std::fmt;

/// Identifier of a node (operator instance) in a query network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// Index into the network's node list.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op{}", self.0)
    }
}

/// An edge target: a downstream node and the input port to deliver to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeTarget {
    /// Destination node.
    pub node: NodeId,
    /// Destination input port.
    pub port: usize,
}

/// A node of the query network.
pub struct Node {
    /// Human-readable name.
    pub name: String,
    /// CPU cost per invocation (per input tuple processed).
    pub cost: SimDuration,
    /// The operator behaviour.
    pub logic: Box<dyn OperatorLogic>,
    /// Output edges, grouped by branch: `outputs[branch]` is the broadcast
    /// set for that branch. Unary operators emit on branch 0 via
    /// `OutputBuffer::emit` (broadcast to *all* branches).
    pub outputs: Vec<Vec<EdgeTarget>>,
    /// Whether this node is an entry point of the network.
    pub is_entry: bool,
}

impl fmt::Debug for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Node")
            .field("name", &self.name)
            .field("cost", &self.cost)
            .field("kind", &self.logic.kind())
            .field("outputs", &self.outputs)
            .field("is_entry", &self.is_entry)
            .finish()
    }
}

/// Errors from [`NetworkBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetworkError {
    /// The graph contains a cycle (query networks must be DAGs).
    Cyclic,
    /// No entry points were declared.
    NoEntry,
    /// An edge targets a port beyond the operator's port count.
    BadPort {
        /// Offending destination node.
        node: usize,
        /// Offending port index.
        port: usize,
        /// Number of ports the operator actually has.
        ports: usize,
    },
    /// A node is unreachable from every entry point.
    Unreachable(usize),
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkError::Cyclic => write!(f, "query network contains a cycle"),
            NetworkError::NoEntry => write!(f, "no entry points declared"),
            NetworkError::BadPort { node, port, ports } => write!(
                f,
                "edge targets port {port} of op{node}, which has {ports} port(s)"
            ),
            NetworkError::Unreachable(n) => {
                write!(f, "op{n} is unreachable from every entry point")
            }
        }
    }
}

impl std::error::Error for NetworkError {}

/// A validated query network.
pub struct QueryNetwork {
    nodes: Vec<Node>,
    entries: Vec<NodeId>,
    topo_order: Vec<NodeId>,
    downstream_load_us: Vec<f64>,
}

impl QueryNetwork {
    /// Nodes of the network.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Mutable access to nodes (the simulator owns operator state).
    pub(crate) fn nodes_mut(&mut self) -> &mut [Node] {
        &mut self.nodes
    }

    /// Entry-point nodes.
    pub fn entries(&self) -> &[NodeId] {
        &self.entries
    }

    /// Nodes in a topological order (every edge goes forward).
    pub fn topo_order(&self) -> &[NodeId] {
        &self.topo_order
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the network has no operators.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Expected remaining CPU (µs) a tuple sitting in front of `node`
    /// will consume before leaving the network, accounting for operator
    /// selectivities: `L(n) = cost(n) + sel(n) · Σ_children L(child)`.
    ///
    /// This is the per-tuple "load" used by load-based shedding (§4.5.2).
    pub fn downstream_load_us(&self, node: NodeId) -> f64 {
        self.downstream_load_us[node.0]
    }

    /// Expected total CPU (µs) per tuple admitted at an entry point —
    /// the model's per-tuple cost `c`, averaged over entries.
    pub fn expected_cost_per_tuple_us(&self) -> f64 {
        let entries = &self.entries;
        assert!(!entries.is_empty());
        entries
            .iter()
            .map(|&e| self.downstream_load_us[e.0])
            .sum::<f64>()
            / entries.len() as f64
    }
}

impl fmt::Debug for QueryNetwork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueryNetwork")
            .field("nodes", &self.nodes.len())
            .field("entries", &self.entries)
            .finish()
    }
}

/// Incrementally constructs a [`QueryNetwork`].
#[derive(Default)]
pub struct NetworkBuilder {
    nodes: Vec<Node>,
}

impl NetworkBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an operator node with the given per-invocation CPU cost.
    pub fn add(
        &mut self,
        name: impl Into<String>,
        cost: SimDuration,
        logic: impl OperatorLogic + 'static,
    ) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            name: name.into(),
            cost,
            logic: Box::new(logic),
            outputs: vec![Vec::new()],
            is_entry: false,
        });
        id
    }

    /// Marks a node as an entry point (stream data is admitted here).
    pub fn entry(&mut self, node: NodeId) -> &mut Self {
        self.nodes[node.0].is_entry = true;
        self
    }

    /// Connects `from` (branch 0) to input port 0 of `to`.
    pub fn connect(&mut self, from: NodeId, to: NodeId) -> &mut Self {
        self.connect_port(from, 0, to, 0)
    }

    /// Connects a specific output branch of `from` to a specific input
    /// port of `to`.
    pub fn connect_port(
        &mut self,
        from: NodeId,
        branch: usize,
        to: NodeId,
        port: usize,
    ) -> &mut Self {
        let outputs = &mut self.nodes[from.0].outputs;
        while outputs.len() <= branch {
            outputs.push(Vec::new());
        }
        outputs[branch].push(EdgeTarget { node: to, port });
        self
    }

    /// Validates and finalises the network.
    pub fn build(self) -> Result<QueryNetwork, NetworkError> {
        let nodes = self.nodes;
        let n = nodes.len();

        // Port validation.
        for node in &nodes {
            for branch in &node.outputs {
                for edge in branch {
                    let ports = nodes[edge.node.0].logic.ports();
                    if edge.port >= ports {
                        return Err(NetworkError::BadPort {
                            node: edge.node.0,
                            port: edge.port,
                            ports,
                        });
                    }
                }
            }
        }

        let entries: Vec<NodeId> = (0..n)
            .filter(|&i| nodes[i].is_entry)
            .map(NodeId)
            .collect();
        if entries.is_empty() {
            return Err(NetworkError::NoEntry);
        }

        // Kahn's algorithm for topological order.
        let mut indegree = vec![0usize; n];
        for node in &nodes {
            for branch in &node.outputs {
                for edge in branch {
                    indegree[edge.node.0] += 1;
                }
            }
        }
        let mut stack: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut topo = Vec::with_capacity(n);
        while let Some(i) = stack.pop() {
            topo.push(NodeId(i));
            for branch in &nodes[i].outputs {
                for edge in branch {
                    indegree[edge.node.0] -= 1;
                    if indegree[edge.node.0] == 0 {
                        stack.push(edge.node.0);
                    }
                }
            }
        }
        if topo.len() != n {
            return Err(NetworkError::Cyclic);
        }

        // Reachability from entries.
        let mut reachable = vec![false; n];
        let mut frontier: Vec<usize> = entries.iter().map(|e| e.0).collect();
        for &e in &frontier {
            reachable[e] = true;
        }
        while let Some(i) = frontier.pop() {
            for branch in &nodes[i].outputs {
                for edge in branch {
                    if !reachable[edge.node.0] {
                        reachable[edge.node.0] = true;
                        frontier.push(edge.node.0);
                    }
                }
            }
        }
        if let Some(bad) = (0..n).find(|&i| !reachable[i]) {
            return Err(NetworkError::Unreachable(bad));
        }

        // Downstream load: process in reverse topological order.
        // For a node with B branches, a Split routes each tuple to one
        // branch; other operators broadcast to all branches. We estimate
        // the split case with the declared branch-0 fraction when
        // available, otherwise uniformly.
        let mut load = vec![0.0f64; n];
        for &NodeId(i) in topo.iter().rev() {
            let node = &nodes[i];
            let sel = node.logic.expected_selectivity();
            let branches = &node.outputs;
            let child_sum = if node.logic.kind() == "split" && branches.len() > 1 {
                // Expected over the routing distribution (uniform here; the
                // builder does not expose Split internals — uniform is the
                // neutral prior and only affects shed-plan estimates).
                let per_branch: f64 = branches
                    .iter()
                    .map(|b| b.iter().map(|e| load[e.node.0]).sum::<f64>())
                    .sum();
                per_branch / branches.len() as f64
            } else {
                branches
                    .iter()
                    .flat_map(|b| b.iter())
                    .map(|e| load[e.node.0])
                    .sum()
            };
            load[i] = node.cost.as_micros() as f64 + sel * child_sum;
        }

        Ok(QueryNetwork {
            nodes,
            entries,
            topo_order: topo,
            downstream_load_us: load,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{Filter, Map, Union};
    use crate::time::millis;

    #[test]
    fn linear_chain_builds() {
        let mut b = NetworkBuilder::new();
        let a = b.add("a", millis(1), Map::identity());
        let c = b.add("c", millis(2), Map::identity());
        b.connect(a, c);
        b.entry(a);
        let net = b.build().unwrap();
        assert_eq!(net.len(), 2);
        assert_eq!(net.entries(), &[NodeId(0)]);
        // Load at entry = 1ms + 2ms.
        assert!((net.downstream_load_us(NodeId(0)) - 3000.0).abs() < 1e-9);
        assert!((net.expected_cost_per_tuple_us() - 3000.0).abs() < 1e-9);
    }

    #[test]
    fn selectivity_discounts_downstream_load() {
        let mut b = NetworkBuilder::new();
        let f = b.add("f", millis(1), Filter::value_below(0.5));
        let m = b.add("m", millis(4), Map::identity());
        b.connect(f, m);
        b.entry(f);
        let net = b.build().unwrap();
        // 1ms + 0.5 · 4ms = 3ms
        assert!((net.downstream_load_us(NodeId(0)) - 3000.0).abs() < 1e-9);
    }

    #[test]
    fn cycle_rejected() {
        let mut b = NetworkBuilder::new();
        let a = b.add("a", millis(1), Map::identity());
        let c = b.add("c", millis(1), Map::identity());
        b.connect(a, c);
        b.connect(c, a);
        b.entry(a);
        assert_eq!(b.build().unwrap_err(), NetworkError::Cyclic);
    }

    #[test]
    fn missing_entry_rejected() {
        let mut b = NetworkBuilder::new();
        b.add("a", millis(1), Map::identity());
        assert_eq!(b.build().unwrap_err(), NetworkError::NoEntry);
    }

    #[test]
    fn bad_port_rejected() {
        let mut b = NetworkBuilder::new();
        let a = b.add("a", millis(1), Map::identity());
        let m = b.add("m", millis(1), Map::identity()); // unary: 1 port
        b.connect_port(a, 0, m, 1);
        b.entry(a);
        assert!(matches!(
            b.build().unwrap_err(),
            NetworkError::BadPort { port: 1, .. }
        ));
    }

    #[test]
    fn unreachable_node_rejected() {
        let mut b = NetworkBuilder::new();
        let a = b.add("a", millis(1), Map::identity());
        b.add("orphan", millis(1), Map::identity());
        b.entry(a);
        assert_eq!(b.build().unwrap_err(), NetworkError::Unreachable(1));
    }

    #[test]
    fn union_accepts_two_ports() {
        let mut b = NetworkBuilder::new();
        let a = b.add("a", millis(1), Map::identity());
        let c = b.add("c", millis(1), Map::identity());
        let u = b.add("u", millis(1), Union);
        b.connect_port(a, 0, u, 0);
        b.connect_port(c, 0, u, 1);
        b.entry(a);
        b.entry(c);
        let net = b.build().unwrap();
        assert_eq!(net.entries().len(), 2);
    }

    #[test]
    fn topo_order_respects_edges() {
        let mut b = NetworkBuilder::new();
        let a = b.add("a", millis(1), Map::identity());
        let c = b.add("c", millis(1), Map::identity());
        let d = b.add("d", millis(1), Map::identity());
        b.connect(a, c);
        b.connect(c, d);
        b.entry(a);
        let net = b.build().unwrap();
        let pos: Vec<usize> = (0..3)
            .map(|i| {
                net.topo_order()
                    .iter()
                    .position(|&n| n.0 == i)
                    .unwrap()
            })
            .collect();
        assert!(pos[0] < pos[1] && pos[1] < pos[2]);
    }
}

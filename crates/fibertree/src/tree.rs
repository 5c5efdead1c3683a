use crate::error::FibertreeError;

/// Name and shape of one rank (tensor dimension) in a [`Fibertree`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankInfo {
    /// Rank name, e.g. `"C"`, `"RS"`, `"C0"`.
    pub name: String,
    /// Dimension size: the shape of every fiber in this rank.
    pub shape: usize,
}

impl RankInfo {
    /// Creates a new rank descriptor.
    pub fn new(name: impl Into<String>, shape: usize) -> Self {
        Self {
            name: name.into(),
            shape,
        }
    }
}

/// One fiber's element in the arena: a scalar (lowest rank) or the arena
/// index of the child fiber (intermediate ranks).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Slot {
    Value(f64),
    Child(u32),
}

/// One fiber's storage: its `(coordinate, slot)` pairs, kept sorted and
/// unique by coordinate. The fiber's shape is implied by its rank.
#[derive(Debug, Clone, PartialEq, Default)]
struct Node {
    elems: Vec<(usize, Slot)>,
}

/// A fibertree: a rank-ordered, zero-free representation of a tensor.
///
/// The tree stores only nonzero values. Ranks are ordered highest (outermost)
/// to lowest (innermost); the lowest rank's payloads are scalar values.
/// Content-preserving transformations — [`reorder`](Self::reorder),
/// [`flatten_ranks`](Self::flatten_ranks), and [`split_rank`](Self::split_rank)
/// — implement the rank manipulations the paper's sparsity specifications are
/// built from (§3.2).
///
/// Fibers live in a single index-linked arena (`nodes`, root at index 0)
/// rather than one heap allocation per fiber: inserts walk child indices
/// instead of cloning sub-fibers, and traversals chase small integers with
/// no pointer-per-node overhead. Fibers are exposed through the borrowed
/// [`FiberView`] handle.
#[derive(Debug, Clone)]
pub struct Fibertree {
    ranks: Vec<RankInfo>,
    nodes: Vec<Node>,
    nnz: usize,
}

impl Fibertree {
    /// Builds a fibertree from dense row-major data, dropping zeros.
    ///
    /// `shape` and `names` are ordered highest rank first (e.g. `["C","R","S"]`
    /// for a CRS weight tensor).
    ///
    /// # Errors
    /// Returns an error if the data length does not match the shape, the name
    /// count does not match the dimension count, or any dimension is zero.
    pub fn from_dense(
        data: &[f64],
        shape: &[usize],
        names: &[&str],
    ) -> Result<Self, FibertreeError> {
        if shape.contains(&0) || shape.is_empty() {
            return Err(FibertreeError::EmptyDimension);
        }
        if names.len() != shape.len() {
            return Err(FibertreeError::RankCountMismatch {
                names: names.len(),
                dims: shape.len(),
            });
        }
        let total: usize = shape.iter().product();
        if data.len() != total {
            return Err(FibertreeError::ShapeMismatch {
                data_len: data.len(),
                shape_len: total,
            });
        }
        let ranks: Vec<RankInfo> = names
            .iter()
            .zip(shape)
            .map(|(n, &s)| RankInfo::new(*n, s))
            .collect();
        // Row-major data visits coordinates in lexicographic order, so the
        // tree is built append-only: each nonzero shares its path with the
        // previous one down to the first rank whose coordinate changed
        // since, gets fresh child fibers from there down, and is appended
        // to its lowest fiber. Nodes are pushed in the order `insert`
        // would push them, so the arena layout is the same.
        let mut tree = Self::empty(ranks);
        let last = shape.len() - 1;
        let mut coords = vec![0usize; shape.len()];
        // `path[d]`: arena index of the rank-`d` fiber on the current path.
        let mut path = vec![0u32; shape.len()];
        // Highest rank whose coordinate changed since the last nonzero.
        let mut changed = 0usize;
        for &v in data {
            if v != 0.0 {
                for d in changed..last {
                    let child = u32::try_from(tree.nodes.len()).expect("arena index overflow");
                    tree.nodes.push(Node::default());
                    tree.nodes[path[d] as usize]
                        .elems
                        .push((coords[d], Slot::Child(child)));
                    path[d + 1] = child;
                }
                tree.nodes[path[last] as usize]
                    .elems
                    .push((coords[last], Slot::Value(v)));
                tree.nnz += 1;
                changed = last;
            }
            // Step the odometer; a carry moves the change up a rank.
            let mut d = last;
            coords[d] += 1;
            while coords[d] == shape[d] && d > 0 {
                coords[d] = 0;
                d -= 1;
                coords[d] += 1;
            }
            changed = changed.min(d);
        }
        Ok(tree)
    }

    /// Builds an empty fibertree with the given rank descriptors.
    ///
    /// # Panics
    /// Panics if `ranks` is empty or any shape is zero.
    pub fn empty(ranks: Vec<RankInfo>) -> Self {
        assert!(!ranks.is_empty(), "fibertree needs at least one rank");
        assert!(
            ranks.iter().all(|r| r.shape > 0),
            "fiber shape must be positive"
        );
        Self {
            ranks,
            nodes: vec![Node::default()],
            nnz: 0,
        }
    }

    /// The rank descriptors, highest rank first.
    pub fn ranks(&self) -> &[RankInfo] {
        &self.ranks
    }

    /// Number of ranks (tensor dimensions).
    pub fn rank_count(&self) -> usize {
        self.ranks.len()
    }

    /// The root fiber (highest rank).
    pub fn root(&self) -> FiberView<'_> {
        FiberView {
            tree: self,
            node: 0,
            depth: 0,
        }
    }

    /// Total number of possible positions (product of shapes).
    pub fn volume(&self) -> usize {
        self.ranks.iter().map(|r| r.shape).product()
    }

    /// Number of nonzero values stored.
    pub fn nonzeros(&self) -> usize {
        self.nnz
    }

    /// Fraction of positions that are nonzero.
    pub fn density(&self) -> f64 {
        self.nonzeros() as f64 / self.volume() as f64
    }

    /// Fraction of positions that are zero (`1 - density`).
    pub fn sparsity(&self) -> f64 {
        1.0 - self.density()
    }

    /// Inserts a nonzero value at the given coordinate tuple.
    ///
    /// Inserting `0.0` is ignored (fibertrees store only nonzeros).
    ///
    /// # Panics
    /// Panics if `coords.len()` differs from the rank count or any coordinate
    /// is out of bounds.
    pub fn insert(&mut self, coords: &[usize], value: f64) {
        assert_eq!(coords.len(), self.ranks.len(), "coordinate arity mismatch");
        if value == 0.0 {
            return;
        }
        let mut node = 0usize;
        let last = coords.len() - 1;
        for (d, &c) in coords.iter().enumerate() {
            let shape = self.ranks[d].shape;
            assert!(c < shape, "coordinate {c} out of bounds for shape {shape}");
            let pos = self.nodes[node]
                .elems
                .binary_search_by_key(&c, |(cc, _)| *cc);
            if d == last {
                match pos {
                    Ok(i) => self.nodes[node].elems[i].1 = Slot::Value(value),
                    Err(i) => {
                        self.nodes[node].elems.insert(i, (c, Slot::Value(value)));
                        self.nnz += 1;
                    }
                }
            } else {
                let child = match pos {
                    Ok(i) => match self.nodes[node].elems[i].1 {
                        Slot::Child(ch) => ch,
                        Slot::Value(_) => unreachable!("intermediate rank holds a value"),
                    },
                    Err(i) => {
                        let ch = u32::try_from(self.nodes.len()).expect("arena index overflow");
                        self.nodes.push(Node::default());
                        self.nodes[node].elems.insert(i, (c, Slot::Child(ch)));
                        ch
                    }
                };
                node = child as usize;
            }
        }
    }

    /// Returns the value at the coordinate tuple, or `0.0` if absent.
    ///
    /// # Panics
    /// Panics if the coordinate arity mismatches.
    pub fn get(&self, coords: &[usize]) -> f64 {
        assert_eq!(coords.len(), self.ranks.len(), "coordinate arity mismatch");
        let mut node = 0usize;
        for (d, &c) in coords.iter().enumerate() {
            let elems = &self.nodes[node].elems;
            match elems.binary_search_by_key(&c, |(cc, _)| *cc) {
                Err(_) => return 0.0,
                Ok(i) => match elems[i].1 {
                    Slot::Value(v) => {
                        debug_assert_eq!(d, coords.len() - 1);
                        return v;
                    }
                    Slot::Child(ch) => node = ch as usize,
                },
            }
        }
        unreachable!("lowest rank must hold values")
    }

    /// Iterates over all `(coordinate tuple, value)` pairs in order.
    pub fn iter(&self) -> Vec<(Vec<usize>, f64)> {
        let mut out = Vec::with_capacity(self.nonzeros());
        let mut prefix = Vec::with_capacity(self.ranks.len());
        self.walk(0, &mut prefix, &mut out);
        out
    }

    fn walk(&self, node: usize, prefix: &mut Vec<usize>, out: &mut Vec<(Vec<usize>, f64)>) {
        for &(c, s) in &self.nodes[node].elems {
            prefix.push(c);
            match s {
                Slot::Value(v) => out.push((prefix.clone(), v)),
                Slot::Child(ch) => self.walk(ch as usize, prefix, out),
            }
            prefix.pop();
        }
    }

    /// Converts back to dense row-major data in the current rank order.
    pub fn to_dense(&self) -> Vec<f64> {
        let shapes: Vec<usize> = self.ranks.iter().map(|r| r.shape).collect();
        let mut out = vec![0.0; self.volume()];
        for (coords, v) in self.iter() {
            let mut idx = 0usize;
            for (d, &c) in coords.iter().enumerate() {
                idx = idx * shapes[d] + c;
            }
            out[idx] = v;
        }
        out
    }

    /// Returns a tree with ranks permuted: output rank `i` is input rank
    /// `perm[i]`.
    ///
    /// # Errors
    /// Returns an error if `perm` is not a permutation of `0..rank_count()`.
    pub fn reorder(&self, perm: &[usize]) -> Result<Self, FibertreeError> {
        let n = self.ranks.len();
        let mut seen = vec![false; n];
        if perm.len() != n {
            return Err(FibertreeError::InvalidPermutation);
        }
        for &p in perm {
            if p >= n || seen[p] {
                return Err(FibertreeError::InvalidPermutation);
            }
            seen[p] = true;
        }
        let ranks: Vec<RankInfo> = perm.iter().map(|&p| self.ranks[p].clone()).collect();
        let mut tree = Self::empty(ranks);
        let mut newc = vec![0usize; n];
        for (coords, v) in self.iter() {
            for (i, &p) in perm.iter().enumerate() {
                newc[i] = coords[p];
            }
            tree.insert(&newc, v);
        }
        Ok(tree)
    }

    /// Flattens adjacent ranks `rank` and `rank + 1` into one rank.
    ///
    /// The combined coordinate is `c_hi * shape_lo + c_lo` and the combined
    /// name is the concatenation of the two names (e.g. `R`,`S` → `RS`).
    ///
    /// # Errors
    /// Returns an error if `rank + 1` is out of bounds.
    pub fn flatten_ranks(&self, rank: usize) -> Result<Self, FibertreeError> {
        let n = self.ranks.len();
        if rank + 1 >= n {
            return Err(FibertreeError::RankOutOfBounds {
                rank: rank + 1,
                ranks: n,
            });
        }
        let mut ranks = Vec::with_capacity(n - 1);
        for (i, r) in self.ranks.iter().enumerate() {
            if i == rank {
                ranks.push(RankInfo::new(
                    format!("{}{}", r.name, self.ranks[i + 1].name),
                    r.shape * self.ranks[i + 1].shape,
                ));
            } else if i != rank + 1 {
                ranks.push(r.clone());
            }
        }
        let lo_shape = self.ranks[rank + 1].shape;
        let mut tree = Self::empty(ranks);
        for (coords, v) in self.iter() {
            let mut newc = Vec::with_capacity(n - 1);
            for (i, &c) in coords.iter().enumerate() {
                if i == rank {
                    newc.push(c * lo_shape + coords[i + 1]);
                } else if i != rank + 1 {
                    newc.push(c);
                }
            }
            tree.insert(&newc, v);
        }
        Ok(tree)
    }

    /// Splits (partitions) rank `rank` into an upper rank of blocks and a
    /// lower rank of `block` coordinates each: `c → (c / block, c % block)`.
    ///
    /// Names follow the paper's convention: splitting `C` yields `C1` and
    /// `C0`; splitting `C1` again would yield `C11`/`C10` — callers wanting
    /// the paper's `C2→C1→C0` naming can use
    /// [`split_rank_named`](Self::split_rank_named).
    ///
    /// # Errors
    /// Returns an error if the rank is out of bounds, or `block` is zero or
    /// larger than the rank shape, or does not divide the rank shape.
    pub fn split_rank(&self, rank: usize, block: usize) -> Result<Self, FibertreeError> {
        let name = match self.ranks.get(rank) {
            Some(r) => r.name.clone(),
            None => {
                return Err(FibertreeError::RankOutOfBounds {
                    rank,
                    ranks: self.ranks.len(),
                })
            }
        };
        self.split_rank_named(rank, block, &format!("{name}1"), &format!("{name}0"))
    }

    /// Like [`split_rank`](Self::split_rank) but with explicit names for the
    /// upper and lower result ranks.
    ///
    /// # Errors
    /// Same conditions as [`split_rank`](Self::split_rank).
    pub fn split_rank_named(
        &self,
        rank: usize,
        block: usize,
        upper: &str,
        lower: &str,
    ) -> Result<Self, FibertreeError> {
        let n = self.ranks.len();
        if rank >= n {
            return Err(FibertreeError::RankOutOfBounds { rank, ranks: n });
        }
        let shape = self.ranks[rank].shape;
        if block == 0 || block > shape || !shape.is_multiple_of(block) {
            return Err(FibertreeError::InvalidSplit { block, shape });
        }
        let mut ranks = Vec::with_capacity(n + 1);
        for (i, r) in self.ranks.iter().enumerate() {
            if i == rank {
                ranks.push(RankInfo::new(upper, shape / block));
                ranks.push(RankInfo::new(lower, block));
            } else {
                ranks.push(r.clone());
            }
        }
        let mut tree = Self::empty(ranks);
        for (coords, v) in self.iter() {
            let mut newc = Vec::with_capacity(n + 1);
            for (i, &c) in coords.iter().enumerate() {
                if i == rank {
                    newc.push(c / block);
                    newc.push(c % block);
                } else {
                    newc.push(c);
                }
            }
            tree.insert(&newc, v);
        }
        Ok(tree)
    }

    /// Collects every fiber at depth `rank` (0 = root rank), in depth-first
    /// coordinate order.
    ///
    /// Only *non-empty* fibers are reachable; an absent coordinate at a higher
    /// rank implies an all-zero (pruned) subtree.
    pub fn fibers_at(&self, rank: usize) -> Vec<FiberView<'_>> {
        let mut out = Vec::new();
        self.collect_at(0, 0, rank, &mut out);
        out
    }

    fn collect_at<'a>(
        &'a self,
        node: u32,
        depth: usize,
        target: usize,
        out: &mut Vec<FiberView<'a>>,
    ) {
        if depth == target {
            out.push(FiberView {
                tree: self,
                node,
                depth,
            });
            return;
        }
        for &(_, s) in &self.nodes[node as usize].elems {
            if let Slot::Child(ch) = s {
                self.collect_at(ch, depth + 1, target, out);
            }
        }
    }

    /// Per-fiber occupancies at depth `rank`, *including* fibers that are
    /// implicitly empty because an ancestor coordinate is pruned.
    ///
    /// The result always has `prod(shape[0..rank])` entries, so statistics
    /// computed from it reflect the whole tensor.
    pub fn occupancies_at(&self, rank: usize) -> Vec<usize> {
        let total: usize = self.ranks[..rank].iter().map(|r| r.shape).product();
        let mut out = vec![0usize; total];
        self.occupancies_rec(0, 0, rank, 0, &mut out);
        out
    }

    fn occupancies_rec(
        &self,
        node: usize,
        depth: usize,
        target: usize,
        index: usize,
        out: &mut [usize],
    ) {
        if depth == target {
            out[index] = self.nodes[node].elems.len();
            return;
        }
        let shape = self.ranks[depth].shape;
        for &(c, s) in &self.nodes[node].elems {
            if let Slot::Child(ch) = s {
                self.occupancies_rec(ch as usize, depth + 1, target, index * shape + c, out);
            }
        }
    }
}

impl PartialEq for Fibertree {
    /// Content equality: same ranks and same `(coordinate, value)` set.
    ///
    /// Arena layout is insert-order dependent, so equality compares the
    /// ordered traversal instead of the raw node storage.
    fn eq(&self, other: &Self) -> bool {
        self.ranks == other.ranks && self.nnz == other.nnz && self.iter() == other.iter()
    }
}

/// A borrowed view of one fiber in a [`Fibertree`] arena.
///
/// Exposes the per-fiber queries (shape, occupancy, child navigation) that
/// the pointer-based [`Fiber`](crate::Fiber) offers, without owning storage.
#[derive(Clone, Copy)]
pub struct FiberView<'a> {
    tree: &'a Fibertree,
    node: u32,
    depth: usize,
}

impl<'a> FiberView<'a> {
    fn node(&self) -> &'a Node {
        &self.tree.nodes[self.node as usize]
    }

    /// The number of possible coordinates in this fiber.
    pub fn shape(&self) -> usize {
        self.tree.ranks[self.depth].shape
    }

    /// The number of coordinates present (associated with nonzero content).
    pub fn occupancy(&self) -> usize {
        self.node().elems.len()
    }

    /// True if no coordinates are present.
    pub fn is_empty(&self) -> bool {
        self.node().elems.is_empty()
    }

    /// Occupancy divided by shape.
    pub fn density(&self) -> f64 {
        self.occupancy() as f64 / self.shape() as f64
    }

    /// The sorted list of present coordinates.
    pub fn coords(&self) -> Vec<usize> {
        self.node().elems.iter().map(|(c, _)| *c).collect()
    }

    /// The value stored at `coord`, if this fiber is at the lowest rank and
    /// the coordinate is present.
    pub fn value(&self, coord: usize) -> Option<f64> {
        match self.slot(coord)? {
            Slot::Value(v) => Some(v),
            Slot::Child(_) => None,
        }
    }

    /// The child fiber at `coord`, if this fiber is at an intermediate rank
    /// and the coordinate is present.
    pub fn child(&self, coord: usize) -> Option<FiberView<'a>> {
        match self.slot(coord)? {
            Slot::Value(_) => None,
            Slot::Child(ch) => Some(FiberView {
                tree: self.tree,
                node: ch,
                depth: self.depth + 1,
            }),
        }
    }

    /// Number of scalar values reachable from this fiber.
    pub fn value_count(&self) -> usize {
        let mut n = 0usize;
        let mut stack = vec![self.node];
        while let Some(idx) = stack.pop() {
            for &(_, s) in &self.tree.nodes[idx as usize].elems {
                match s {
                    Slot::Value(_) => n += 1,
                    Slot::Child(ch) => stack.push(ch),
                }
            }
        }
        n
    }

    fn slot(&self, coord: usize) -> Option<Slot> {
        let elems = &self.node().elems;
        elems
            .binary_search_by_key(&coord, |(c, _)| *c)
            .ok()
            .map(|i| elems[i].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fiber::{Fiber, Payload};

    fn sample_tree() -> Fibertree {
        // 2x2x4 CRS tensor from the paper's Fig. 3 flavour.
        #[rustfmt::skip]
        let data = vec![
            // c=0
            1.0, 0.0, 2.0, 0.0,
            0.0, 3.0, 0.0, 0.0,
            // c=1
            0.0, 0.0, 0.0, 0.0,
            4.0, 5.0, 0.0, 6.0,
        ];
        Fibertree::from_dense(&data, &[2, 2, 4], &["C", "R", "S"]).unwrap()
    }

    #[test]
    fn from_dense_roundtrip() {
        let t = sample_tree();
        assert_eq!(t.nonzeros(), 6);
        assert_eq!(t.volume(), 16);
        assert!((t.density() - 6.0 / 16.0).abs() < 1e-12);
        let dense = t.to_dense();
        assert_eq!(dense[0], 1.0);
        assert_eq!(dense[2], 2.0);
        assert_eq!(dense[12], 4.0);
        assert_eq!(dense.iter().filter(|&&v| v != 0.0).count(), 6);
    }

    #[test]
    fn get_present_and_absent() {
        let t = sample_tree();
        assert_eq!(t.get(&[0, 0, 0]), 1.0);
        assert_eq!(t.get(&[1, 1, 3]), 6.0);
        assert_eq!(t.get(&[1, 0, 0]), 0.0);
    }

    #[test]
    fn reorder_moves_rank() {
        let t = sample_tree();
        // CRS -> RSC
        let r = t.reorder(&[1, 2, 0]).unwrap();
        assert_eq!(r.ranks()[0].name, "R");
        assert_eq!(r.ranks()[2].name, "C");
        assert_eq!(r.get(&[0, 0, 0]), 1.0); // was C=0,R=0,S=0
        assert_eq!(r.get(&[1, 3, 1]), 6.0); // was C=1,R=1,S=3
        assert_eq!(r.nonzeros(), 6);
    }

    #[test]
    fn reorder_rejects_bad_perm() {
        let t = sample_tree();
        assert!(t.reorder(&[0, 0, 1]).is_err());
        assert!(t.reorder(&[0, 1]).is_err());
    }

    #[test]
    fn flatten_combines_ranks() {
        let t = sample_tree();
        let f = t.flatten_ranks(1).unwrap(); // C, RS
        assert_eq!(f.rank_count(), 2);
        assert_eq!(f.ranks()[1].name, "RS");
        assert_eq!(f.ranks()[1].shape, 8);
        assert_eq!(f.get(&[0, 2]), 2.0); // R=0,S=2 -> RS=2
        assert_eq!(f.get(&[1, 7]), 6.0); // R=1,S=3 -> RS=7
    }

    #[test]
    fn split_partitions_rank() {
        let t = sample_tree();
        let s = t.split_rank(2, 2).unwrap(); // S -> S1 (shape 2), S0 (shape 2)
        assert_eq!(s.rank_count(), 4);
        assert_eq!(s.ranks()[2].name, "S1");
        assert_eq!(s.ranks()[3].name, "S0");
        assert_eq!(s.get(&[0, 0, 1, 0]), 2.0); // S=2 -> (1,0)
        assert_eq!(s.get(&[1, 1, 1, 1]), 6.0); // S=3 -> (1,1)
    }

    #[test]
    fn split_rejects_nondivisible_block() {
        let t = sample_tree();
        assert!(t.split_rank(2, 3).is_err());
        assert!(t.split_rank(2, 0).is_err());
        assert!(t.split_rank(9, 2).is_err());
    }

    #[test]
    fn split_then_flatten_is_identity() {
        let t = sample_tree();
        let s = t.split_rank(2, 2).unwrap();
        let back = s.flatten_ranks(2).unwrap();
        assert_eq!(back.to_dense(), t.to_dense());
    }

    #[test]
    fn fibers_at_counts() {
        let t = sample_tree();
        // Rank 1 (R): non-empty R-fibers: c=0 has one, c=1 has one.
        assert_eq!(t.fibers_at(1).len(), 2);
        // Rank 2 (S): (0,0), (0,1), (1,1) are non-empty.
        assert_eq!(t.fibers_at(2).len(), 3);
    }

    #[test]
    fn occupancies_include_empty_fibers() {
        let t = sample_tree();
        let occ = t.occupancies_at(2);
        assert_eq!(occ.len(), 4); // C*R = 4 S-fibers
        assert_eq!(occ, vec![2, 1, 0, 3]);
    }

    #[test]
    fn empty_tree_queries() {
        let t = Fibertree::empty(vec![RankInfo::new("M", 2), RankInfo::new("K", 2)]);
        assert_eq!(t.nonzeros(), 0);
        assert_eq!(t.get(&[1, 1]), 0.0);
        assert_eq!(t.sparsity(), 1.0);
    }

    #[test]
    fn root_and_child_navigation() {
        let t = sample_tree();
        let root = t.root();
        assert_eq!(root.shape(), 2);
        assert_eq!(root.occupancy(), 2);
        assert_eq!(root.coords(), vec![0, 1]);
        assert_eq!(root.value_count(), 6);
        let s_fiber = root.child(1).unwrap().child(1).unwrap();
        assert_eq!(s_fiber.coords(), vec![0, 1, 3]);
        assert_eq!(s_fiber.value(3), Some(6.0));
        assert_eq!(s_fiber.value(2), None);
        assert!(s_fiber.child(0).is_none()); // lowest rank holds values
        assert!((s_fiber.density() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn insert_replaces_existing_value() {
        let mut t = Fibertree::empty(vec![RankInfo::new("M", 2), RankInfo::new("K", 2)]);
        t.insert(&[0, 1], 1.0);
        t.insert(&[0, 1], 2.5);
        assert_eq!(t.nonzeros(), 1);
        assert_eq!(t.get(&[0, 1]), 2.5);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn insert_out_of_bounds_panics() {
        let mut t = Fibertree::empty(vec![RankInfo::new("M", 2)]);
        t.insert(&[2], 1.0);
    }

    #[test]
    fn content_equality_ignores_insert_order() {
        let mut a = Fibertree::empty(vec![RankInfo::new("M", 2), RankInfo::new("K", 2)]);
        let mut b = a.clone();
        a.insert(&[0, 0], 1.0);
        a.insert(&[1, 1], 2.0);
        b.insert(&[1, 1], 2.0);
        b.insert(&[0, 0], 1.0);
        assert_eq!(a, b);
        b.insert(&[0, 1], 3.0);
        assert_ne!(a, b);
    }

    /// Reference walker over the pointer-based [`Fiber`] implementation.
    fn reference_walk(fiber: &Fiber, prefix: &mut Vec<usize>, out: &mut Vec<(Vec<usize>, f64)>) {
        for (c, p) in fiber.iter() {
            prefix.push(c);
            match p {
                Payload::Value(v) => out.push((prefix.clone(), *v)),
                Payload::Fiber(fb) => reference_walk(fb, prefix, out),
            }
            prefix.pop();
        }
    }

    fn reference_insert(fiber: &mut Fiber, shapes: &[usize], coords: &[usize], value: f64) {
        let c = coords[0];
        if coords.len() == 1 {
            fiber.insert(c, Payload::Value(value));
            return;
        }
        if fiber.payload(c).is_none() {
            fiber.insert(c, Payload::Fiber(Fiber::new(shapes[1])));
        }
        let mut sub = match fiber.payload(c).expect("just inserted") {
            Payload::Fiber(fb) => fb.clone(),
            Payload::Value(_) => unreachable!(),
        };
        reference_insert(&mut sub, &shapes[1..], &coords[1..], value);
        fiber.insert(c, Payload::Fiber(sub));
    }

    /// Property: the arena tree's traversal order, occupancies, and values
    /// match the naive pointer-based `Fiber` implementation on pseudo-random
    /// tensors inserted in scrambled order.
    #[test]
    fn arena_matches_pointer_reference_on_random_tensors() {
        let shapes = [3usize, 4, 5];
        // Deterministic LCG so the test needs no RNG dependency.
        let mut state = 0x9E37_79B9_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for round in 0..8 {
            let mut tree = Fibertree::empty(
                shapes
                    .iter()
                    .enumerate()
                    .map(|(i, &s)| RankInfo::new(format!("R{i}"), s))
                    .collect(),
            );
            let mut reference = Fiber::new(shapes[0]);
            let inserts = 1 + (round * 13) % 40;
            for _ in 0..inserts {
                let coords = [next() % shapes[0], next() % shapes[1], next() % shapes[2]];
                let value = (1 + next() % 9) as f64;
                tree.insert(&coords, value);
                reference_insert(&mut reference, &shapes, &coords, value);
            }
            let mut prefix = Vec::new();
            let mut want = Vec::new();
            reference_walk(&reference, &mut prefix, &mut want);
            assert_eq!(tree.iter(), want, "round {round}");
            assert_eq!(tree.nonzeros(), want.len(), "round {round}");
            // fibers_at occupancy sequences must match the reference order.
            for rank in 0..shapes.len() {
                let got: Vec<usize> = tree.fibers_at(rank).iter().map(|f| f.occupancy()).collect();
                let mut refs = Vec::new();
                fn collect<'a>(f: &'a Fiber, d: usize, t: usize, out: &mut Vec<&'a Fiber>) {
                    if d == t {
                        out.push(f);
                        return;
                    }
                    for (_, p) in f.iter() {
                        if let Payload::Fiber(fb) = p {
                            collect(fb, d + 1, t, out);
                        }
                    }
                }
                collect(&reference, 0, rank, &mut refs);
                let want_occ: Vec<usize> = refs.iter().map(|f| f.occupancy()).collect();
                assert_eq!(got, want_occ, "round {round} rank {rank}");
            }
        }
    }
}

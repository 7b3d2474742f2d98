//! A plain disjoint-set forest (union by size, path halving).
//!
//! Shared by the topology layer (base-station/server infrastructure
//! components) and the game layer (resource components joined by the
//! players' strategies). Deterministic: component representatives depend
//! only on the sequence of `union` calls, never on hashing or allocation
//! order, and [`UnionFind::component_ids`] numbers components by their
//! smallest member so downstream shard ordering is reproducible.

/// Disjoint-set forest over `0..len`.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<usize>,
    size: Vec<usize>,
    components: usize,
}

impl UnionFind {
    /// `len` singleton sets.
    pub fn new(len: usize) -> Self {
        Self { parent: (0..len).collect(), size: vec![1; len], components: len }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the forest is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Current number of disjoint sets.
    pub fn components(&self) -> usize {
        self.components
    }

    /// The representative of `x`'s set (with path halving).
    pub fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Merges the sets of `a` and `b`; returns `true` if they were disjoint.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra;
        self.size[ra] += self.size[rb];
        self.components -= 1;
        true
    }

    /// Whether `a` and `b` are in the same set.
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Flattens the forest into dense component ids `0..components`, one per
    /// element, numbered in order of each component's smallest member (so
    /// component 0 contains element 0).
    pub fn component_ids(&mut self) -> Vec<usize> {
        let len = self.len();
        let mut ids = vec![usize::MAX; len];
        let mut next = 0;
        let mut out = Vec::with_capacity(len);
        for x in 0..len {
            let root = self.find(x);
            if ids[root] == usize::MAX {
                ids[root] = next;
                next += 1;
            }
            out.push(ids[root]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_then_unions() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.components(), 5);
        assert!(uf.union(0, 2));
        assert!(uf.union(2, 4));
        assert!(!uf.union(0, 4));
        assert_eq!(uf.components(), 3);
        assert!(uf.connected(0, 4));
        assert!(!uf.connected(0, 1));
    }

    #[test]
    fn component_ids_are_dense_and_smallest_member_ordered() {
        let mut uf = UnionFind::new(6);
        uf.union(5, 3);
        uf.union(1, 2);
        let ids = uf.component_ids();
        // Components by smallest member: {0}=0, {1,2}=1, {3,5}=2, {4}=3.
        assert_eq!(ids, vec![0, 1, 1, 2, 3, 2]);
    }

    #[test]
    fn empty_forest() {
        let mut uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert_eq!(uf.components(), 0);
        assert!(uf.component_ids().is_empty());
    }
}

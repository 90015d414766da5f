//! Control-flow-graph utilities: predecessors, successors, reverse
//! post-order, reachability and back-edge detection.

use crate::function::Function;
use crate::ids::BlockId;

/// Precomputed CFG adjacency for one function, in flat tables: one
/// adjacency list of `2n` rows for `n` blocks, where row `b` holds
/// `b`'s successors in terminator order and row `n + b` its
/// predecessors in block order. A `condbr` whose two arms name one
/// block lists that block twice, and the block lists it as a
/// predecessor twice.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// `adj[at[r]..at[r + 1]]` is row `r`.
    at: Vec<u32>,
    adj: Vec<BlockId>,
    rpo: Vec<BlockId>,
    /// Bit `b` is set when block `b` is reachable from the entry.
    reachable: Vec<u64>,
    entry: BlockId,
}

impl Cfg {
    /// Computes the CFG of `func`.
    pub fn new(func: &Function) -> Cfg {
        let n = func.block_count();
        // Count each row's entries, shifted by one, then prefix-sum them
        // into row starts.
        let mut at = vec![0u32; 2 * n + 1];
        for block in func.blocks() {
            for s in block.term.successors() {
                at[block.id.index() + 1] += 1;
                at[n + s.index() + 1] += 1;
            }
        }
        for r in 0..2 * n {
            at[r + 1] += at[r];
        }
        // Fill each row from its start; `at[r]` ends at row `r`'s end,
        // which is row `r + 1`'s start, so one shift restores the starts.
        let mut adj = vec![BlockId(0); at[2 * n] as usize];
        for block in func.blocks() {
            for s in block.term.successors() {
                for (row, b) in [(block.id.index(), s), (n + s.index(), block.id)] {
                    adj[at[row] as usize] = b;
                    at[row] += 1;
                }
            }
        }
        at.copy_within(0..2 * n, 1);
        at[0] = 0;
        let mut cfg = Cfg {
            at,
            adj,
            rpo: Vec::new(),
            reachable: vec![0; n.div_ceil(64)],
            entry: func.entry(),
        };
        cfg.rpo = cfg.reverse_post_order();
        cfg
    }

    fn row(&self, r: usize) -> &[BlockId] {
        &self.adj[self.at[r] as usize..self.at[r + 1] as usize]
    }

    fn block_count(&self) -> usize {
        (self.at.len() - 1) / 2
    }

    /// The entry block.
    pub fn entry(&self) -> BlockId {
        self.entry
    }

    /// Predecessors of `b`.
    pub fn preds(&self, b: BlockId) -> &[BlockId] {
        self.row(self.block_count() + b.index())
    }

    /// Successors of `b`.
    pub fn succs(&self, b: BlockId) -> &[BlockId] {
        debug_assert!(b.index() < self.block_count(), "{b} is past the CFG");
        self.row(b.index())
    }

    /// Blocks in reverse post-order from the entry (unreachable blocks are
    /// excluded).
    pub fn rpo(&self) -> &[BlockId] {
        &self.rpo
    }

    /// Whether `b` is reachable from the entry.
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.reachable
            .get(b.index() >> 6)
            .is_some_and(|w| w & (1 << (b.index() & 63)) != 0)
    }

    /// All back edges `(from, to)` where `to` is an ancestor of `from` on
    /// the DFS spanning tree (the heads of natural loops).
    pub fn back_edges(&self) -> Vec<(BlockId, BlockId)> {
        #[derive(Clone, Copy, PartialEq)]
        enum State {
            Unvisited,
            Active,
            Done,
        }
        let mut state = vec![State::Unvisited; self.block_count()];
        let mut out = Vec::new();
        // Iterative DFS with explicit edge stack to track the active path.
        let mut stack: Vec<(BlockId, usize)> = vec![(self.entry, 0)];
        state[self.entry.index()] = State::Active;
        while let Some(&mut (b, ref mut next)) = stack.last_mut() {
            let succs = self.succs(b);
            if *next < succs.len() {
                let s = succs[*next];
                *next += 1;
                match state[s.index()] {
                    State::Active => out.push((b, s)),
                    State::Unvisited => {
                        state[s.index()] = State::Active;
                        stack.push((s, 0));
                    }
                    State::Done => {}
                }
            } else {
                state[b.index()] = State::Done;
                stack.pop();
            }
        }
        out
    }

    /// Whether the reachable CFG contains any cycle.
    pub fn has_cycle(&self) -> bool {
        !self.back_edges().is_empty()
    }

    /// The reverse post-order of an iterative DFS from the entry, marking
    /// every block it visits in `reachable`.
    fn reverse_post_order(&mut self) -> Vec<BlockId> {
        let n = self.block_count();
        let mut post = Vec::with_capacity(n);
        let mut stack: Vec<(BlockId, usize)> = Vec::with_capacity(n);
        stack.push((self.entry, 0));
        self.mark(self.entry);
        while let Some(&mut (b, ref mut next)) = stack.last_mut() {
            let ss = self.row(b.index());
            if *next < ss.len() {
                let s = ss[*next];
                *next += 1;
                if self.mark(s) {
                    stack.push((s, 0));
                }
            } else {
                post.push(b);
                stack.pop();
            }
        }
        post.reverse();
        post
    }

    /// Marks `b` reachable; whether it was not already.
    fn mark(&mut self, b: BlockId) -> bool {
        let (w, bit) = (b.index() >> 6, 1u64 << (b.index() & 63));
        let fresh = self.reachable[w] & bit == 0;
        self.reachable[w] |= bit;
        fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::inst::CmpPred;
    use crate::types::Width;

    /// entry -> loop_head <-> loop_body; loop_head -> exit
    fn looped_function() -> crate::Module {
        let mut mb = ModuleBuilder::new("m");
        let (_, mut fb) = mb.function("loopy", &[Width::W64], Some(Width::W64));
        let p = fb.param(0);
        let entry = fb.current_block();
        let head = fb.new_block();
        let body = fb.new_block();
        let exit = fb.new_block();
        fb.br(head);
        fb.switch_to(head);
        let zero = fb.const_int(0, Width::W64);
        let c = fb.cmp(CmpPred::Gt, p, zero);
        fb.cond_br(c, body, exit);
        fb.switch_to(body);
        fb.br(head);
        fb.switch_to(exit);
        fb.ret(Some(p));
        assert_eq!(entry.index(), 0);
        mb.finish_function(fb);
        mb.finish()
    }

    #[test]
    fn preds_succs_and_rpo() {
        let m = looped_function();
        let f = m.function_by_name("loopy").unwrap();
        let cfg = Cfg::new(f);
        assert_eq!(cfg.succs(BlockId(0)), &[BlockId(1)]);
        assert_eq!(cfg.preds(BlockId(1)).len(), 2); // entry + body
        assert_eq!(cfg.rpo().first(), Some(&BlockId(0)));
        assert_eq!(cfg.rpo().len(), 4);
        assert!(cfg.is_reachable(BlockId(3)));
    }

    #[test]
    fn detects_back_edge() {
        let m = looped_function();
        let f = m.function_by_name("loopy").unwrap();
        let cfg = Cfg::new(f);
        assert!(cfg.has_cycle());
        assert_eq!(cfg.back_edges(), vec![(BlockId(2), BlockId(1))]);
    }

    #[test]
    fn acyclic_function_has_no_back_edge() {
        let mut mb = ModuleBuilder::new("m");
        let (_, mut fb) = mb.function("f", &[], None);
        let next = fb.new_block();
        fb.br(next);
        fb.switch_to(next);
        fb.ret(None);
        mb.finish_function(fb);
        let m = mb.finish();
        let cfg = Cfg::new(m.function_by_name("f").unwrap());
        assert!(!cfg.has_cycle());
        assert!(cfg.back_edges().is_empty());
    }

    /// A `condbr` whose arms both name one block, a self-loop and an
    /// unreachable block, pinned table by table:
    ///
    /// ```text
    /// bb0: condbr c, bb1, bb1
    /// bb1: condbr c, bb1, bb2   (self-loop)
    /// bb2: ret
    /// bb3: br bb2               (unreachable)
    /// ```
    #[test]
    fn duplicate_arms_self_loop_and_unreachable_block() {
        let mut mb = ModuleBuilder::new("m");
        let (_, mut fb) = mb.function("f", &[Width::W1], None);
        let c = fb.param(0);
        let b1 = fb.new_block();
        let b2 = fb.new_block();
        let b3 = fb.new_block();
        fb.cond_br(c, b1, b1);
        fb.switch_to(b1);
        fb.cond_br(c, b1, b2);
        fb.switch_to(b2);
        fb.ret(None);
        fb.switch_to(b3);
        fb.br(b2);
        mb.finish_function(fb);
        let m = mb.finish();
        let cfg = Cfg::new(m.function_by_name("f").unwrap());
        let b = |i: u32| BlockId(i);
        assert_eq!(cfg.succs(b(0)), &[b(1), b(1)]);
        assert_eq!(cfg.succs(b(1)), &[b(1), b(2)]);
        assert_eq!(cfg.succs(b(2)), &[]);
        assert_eq!(cfg.succs(b(3)), &[b(2)]);
        assert_eq!(cfg.preds(b(0)), &[]);
        assert_eq!(cfg.preds(b(1)), &[b(0), b(0), b(1)]);
        assert_eq!(cfg.preds(b(2)), &[b(1), b(3)]);
        assert_eq!(cfg.preds(b(3)), &[]);
        assert_eq!(cfg.rpo(), &[b(0), b(1), b(2)]);
        let reachable: Vec<bool> = (0..4).map(|i| cfg.is_reachable(b(i))).collect();
        assert_eq!(reachable, [true, true, true, false]);
        assert!(
            !cfg.is_reachable(b(64)),
            "a block past the end is unreachable"
        );
        assert_eq!(cfg.back_edges(), vec![(b(1), b(1))]);
        assert!(cfg.has_cycle());
        assert_eq!(cfg.entry(), b(0));
    }

    #[test]
    fn unreachable_block_excluded_from_rpo() {
        let mut mb = ModuleBuilder::new("m");
        let (_, mut fb) = mb.function("f", &[], None);
        let dead = fb.new_block();
        fb.ret(None);
        fb.switch_to(dead);
        fb.ret(None);
        mb.finish_function(fb);
        let m = mb.finish();
        let cfg = Cfg::new(m.function_by_name("f").unwrap());
        assert!(!cfg.is_reachable(dead));
        assert_eq!(cfg.rpo().len(), 1);
    }
}

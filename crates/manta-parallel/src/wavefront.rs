//! Wavefront scheduling over SCC-condensed dependency graphs.
//!
//! Several subsystems share the same scheduling shape: a dependency
//! graph over work units (functions in a call graph, modules in a
//! batch), condensed into strongly-connected components and arranged
//! into bottom-up *wavefronts* — levels whose members are mutually
//! independent and depend only on earlier levels. Each level is then
//! dispatched across the pool with [`crate::par_map`], and levels run
//! in order so every unit sees its dependencies' results.
//!
//! This module is the shared home for that shape, and [`condense`] is
//! the workspace's one SCC condensation: the summary solve schedules
//! its recompute wavefronts through it, and `Engine::analyze_batch`
//! dispatches independent modules as a single wavefront.
//!
//! The condensation is deterministic: SCC ids are ordered by smallest
//! member, members are sorted, and levels are sorted — the output is a
//! pure function of the node count and edge set, independent of DFS
//! traversal details or thread count.

/// The SCC condensation of a dependency graph, arranged into bottom-up
/// wavefronts. Produced by [`condense`].
#[derive(Clone, Debug)]
pub struct Condensation {
    /// `scc_of[n]` = the SCC id containing node `n`.
    pub scc_of: Vec<u32>,
    /// Members of each SCC, sorted; ids are ordered by smallest member.
    pub sccs: Vec<Vec<u32>>,
    /// `level_of[s]` = the wavefront level of SCC `s`.
    pub level_of: Vec<u32>,
    /// `levels[k]` = SCC ids at level `k`, sorted. Level 0 components
    /// depend on nothing outside themselves; level `k` components only
    /// on levels `< k`. SCCs within one level are mutually independent.
    pub levels: Vec<Vec<u32>>,
}

impl Condensation {
    /// Widths of the wavefronts (number of independent SCCs per level):
    /// the available parallelism at each scheduling step.
    #[must_use]
    pub fn widths(&self) -> Vec<usize> {
        self.levels.iter().map(Vec::len).collect()
    }

    /// Per-node wavefront level: `node_levels()[n]` is the level of the
    /// SCC containing node `n`. Convenience for callers that schedule
    /// nodes rather than components.
    #[must_use]
    pub fn node_levels(&self) -> Vec<u32> {
        self.scc_of
            .iter()
            .map(|&s| self.level_of[s as usize])
            .collect()
    }
}

/// Condenses a dependency graph into SCC wavefronts. `edges` are
/// `(from, to)` pairs meaning *`from` depends on `to`* (for a call
/// graph: caller depends on callee), so level 0 holds the leaves and a
/// bottom-up sweep visits callees before callers. Edges naming nodes
/// `>= nodes` are ignored.
///
/// Deterministic: iterative Tarjan in node order; component ids are
/// relabeled by smallest member and levels assigned from the
/// condensation's pop order, so the result depends only on `(nodes,
/// edges)`.
#[must_use]
pub fn condense(nodes: usize, edges: &[(u32, u32)]) -> Condensation {
    let n = nodes;
    let mut deps: Vec<Vec<u32>> = vec![Vec::new(); n];
    for &(from, to) in edges {
        if (from as usize) < n && (to as usize) < n {
            deps[from as usize].push(to);
        }
    }
    const UNSEEN: u32 = u32::MAX;
    let mut discovery = vec![UNSEEN; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut comp_of = vec![0u32; n];
    // Components in Tarjan pop order: a component is completed only
    // after everything it depends on, so pop order is a bottom-up
    // topological order of the condensation.
    let mut comps: Vec<Vec<u32>> = Vec::new();
    let mut next = 0u32;
    let mut call: Vec<(u32, usize)> = Vec::new();
    for root in 0..n as u32 {
        if discovery[root as usize] != UNSEEN {
            continue;
        }
        call.push((root, 0));
        while let Some(&(v, ei)) = call.last() {
            let vi = v as usize;
            if ei == 0 {
                discovery[vi] = next;
                low[vi] = next;
                next += 1;
                stack.push(v);
                on_stack[vi] = true;
            }
            if ei < deps[vi].len() {
                if let Some(frame) = call.last_mut() {
                    frame.1 += 1;
                }
                let w = deps[vi][ei] as usize;
                if discovery[w] == UNSEEN {
                    call.push((w as u32, 0));
                } else if on_stack[w] {
                    low[vi] = low[vi].min(discovery[w]);
                }
            } else {
                call.pop();
                if let Some(&(p, _)) = call.last() {
                    let pi = p as usize;
                    low[pi] = low[pi].min(low[vi]);
                }
                if low[vi] == discovery[vi] {
                    let mut comp = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w as usize] = false;
                        comp_of[w as usize] = comps.len() as u32;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    comps.push(comp);
                }
            }
        }
    }
    // Levels in pop order: every out-of-component dependency was popped
    // earlier, so its level is already final.
    let mut pop_level = vec![0u32; comps.len()];
    for (c, members) in comps.iter().enumerate() {
        for &v in members {
            for &w in &deps[v as usize] {
                let d = comp_of[w as usize] as usize;
                if d != c {
                    pop_level[c] = pop_level[c].max(pop_level[d] + 1);
                }
            }
        }
    }
    // Relabel components by smallest member so ids are independent of
    // DFS traversal details.
    let mut order: Vec<usize> = (0..comps.len()).collect();
    order.sort_unstable_by_key(|&c| comps[c].first().copied().unwrap_or(u32::MAX));
    let mut new_id = vec![0u32; comps.len()];
    for (pos, &c) in order.iter().enumerate() {
        new_id[c] = pos as u32;
    }
    let mut sccs = vec![Vec::new(); comps.len()];
    let mut level_of = vec![0u32; comps.len()];
    let depth = pop_level
        .iter()
        .copied()
        .max()
        .map_or(0, |m| m as usize + 1);
    let mut levels = vec![Vec::new(); depth];
    for (c, members) in comps.into_iter().enumerate() {
        let id = new_id[c];
        level_of[id as usize] = pop_level[c];
        levels[pop_level[c] as usize].push(id);
        sccs[id as usize] = members;
    }
    for l in &mut levels {
        l.sort_unstable();
    }
    let scc_of = comp_of.into_iter().map(|c| new_id[c as usize]).collect();
    Condensation {
        scc_of,
        sccs,
        level_of,
        levels,
    }
}

/// Groups keyed work items by wavefront level (dependencies before
/// dependents), preserving input order within a level and dropping
/// empty levels. `level_of` maps an item's key to its level.
pub fn group_by_level<K: Copy, T>(
    items: Vec<(K, T)>,
    level_of: impl Fn(K) -> u32,
) -> Vec<Vec<(K, T)>> {
    let max_level = items
        .iter()
        .map(|(k, _)| level_of(*k))
        .max()
        .map(|l| l as usize + 1)
        .unwrap_or(0);
    let mut levels: Vec<Vec<(K, T)>> = (0..max_level).map(|_| Vec::new()).collect();
    for (k, item) in items {
        levels[level_of(k) as usize].push((k, item));
    }
    levels.retain(|l| !l.is_empty());
    levels
}

/// Dispatches work level by level across the pool: each inner vec is
/// one wavefront whose items run concurrently via [`crate::par_map`];
/// levels run in order. Results come back flattened in input order.
/// `counter` names the telemetry counter bumped once per dispatched
/// level (e.g. `"summary.wavefronts"`, `"engine.batch_wavefronts"`),
/// so each consumer keeps its own observability surface.
pub fn wavefront_dispatch<T: Send, R: Send>(
    levels: Vec<Vec<T>>,
    counter: &str,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let mut out = Vec::new();
    for level in levels {
        if level.is_empty() {
            continue;
        }
        manta_telemetry::counter(counter, 1);
        out.extend(crate::par_map(level, &f));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn condense_chain_levels_are_bottom_up() {
        // 0 -> 1 -> 2 (0 depends on 1, 1 on 2); 3 isolated.
        let c = condense(4, &[(0, 1), (1, 2)]);
        assert_eq!(c.sccs.len(), 4);
        let lvl = c.node_levels();
        assert_eq!(lvl[2], 0);
        assert_eq!(lvl[1], 1);
        assert_eq!(lvl[0], 2);
        assert_eq!(lvl[3], 0);
    }

    #[test]
    fn condense_collapses_cycles() {
        // 0 <-> 1 form one SCC; 2 depends on the cycle.
        let c = condense(3, &[(0, 1), (1, 0), (2, 0)]);
        assert_eq!(c.scc_of[0], c.scc_of[1]);
        assert_ne!(c.scc_of[0], c.scc_of[2]);
        assert_eq!(c.sccs[c.scc_of[0] as usize], vec![0, 1]);
        let lvl = c.node_levels();
        assert_eq!(lvl[0], 0);
        assert!(lvl[2] > lvl[0]);
    }

    #[test]
    fn condense_matches_on_edge_permutations() {
        let a = condense(5, &[(0, 1), (1, 2), (3, 1), (2, 0)]);
        let b = condense(5, &[(2, 0), (3, 1), (1, 2), (0, 1)]);
        assert_eq!(a.scc_of, b.scc_of);
        assert_eq!(a.sccs, b.sccs);
        assert_eq!(a.levels, b.levels);
    }

    #[test]
    fn condense_ignores_out_of_range_edges() {
        let c = condense(2, &[(0, 1), (1, 9), (9, 0)]);
        assert_eq!(c.sccs.len(), 2);
        assert_eq!(c.node_levels(), vec![1, 0]);
    }

    #[test]
    fn group_by_level_orders_and_drops_empties() {
        let items = vec![(2u32, 'a'), (0, 'b'), (2, 'c')];
        let grouped = group_by_level(items, |k| k);
        assert_eq!(grouped.len(), 2);
        assert_eq!(grouped[0], vec![(0, 'b')]);
        assert_eq!(grouped[1], vec![(2, 'a'), (2, 'c')]);
    }

    #[test]
    fn dispatch_flattens_in_input_order() {
        let levels = vec![vec![1, 2], vec![], vec![3]];
        let out = wavefront_dispatch(levels, "test.wavefronts", |x| x * 10);
        assert_eq!(out, vec![10, 20, 30]);
    }
}

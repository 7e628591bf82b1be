//! Pass 2b: effect inference over the call graph (TNB-FLOW01..03).
//!
//! Each fn's *direct* effects come from the curated seed tables
//! (`ALLOC_TOKENS`, `PANIC_MACROS`/`UNWRAP_TOKENS`, `CLOCK_TOKENS`/
//! `HASH_TOKENS`); transitive effects are the union over call edges,
//! propagated to a fixed point. The lattice is a bit set — joining is
//! bitwise OR, so the fixpoint exists and is reached in at most
//! `|fns|` rounds.
//!
//! Escape hatches compose: an allowed seed line never seeds (the
//! justification covers the transitive story), and an
//! `allow(TNB-FLOW0x)` on a *call* line cuts that effect's propagation
//! across the edge.

use crate::callgraph::Graph;
use crate::diagnostics::Diagnostic;
use crate::model::{EffectKind, FileModel, Seed};
use crate::rules::{DETERMINISM_CRATES, PANIC_FREE_CRATES};
use crate::source::SourceFile;
use std::collections::BTreeMap;

pub const ALLOC: u8 = 1;
pub const PANIC: u8 = 2;
pub const CLOCK: u8 = 4;
pub const NONDET: u8 = 8;
pub const BLOCKING: u8 = 16;

/// Hot-path entry points that must stay annotated as `no_alloc_root`:
/// (file suffix, fn name). Enforced only when the file is among the
/// lint inputs, so single-fixture runs are unaffected. Deleting a
/// directive from one of these fns flips the lint red (TNB-FLOW01).
pub const REQUIRED_NO_ALLOC_ROOTS: [(&str, &str); 16] = [
    ("crates/dsp/src/fft.rs", "forward"),
    ("crates/dsp/src/fft.rs", "inverse"),
    ("crates/dsp/src/channelizer.rs", "step"),
    ("crates/dsp/src/peakfinder.rs", "find_peaks"),
    ("crates/phy/src/demodulate.rs", "complex_spectrum_scratch"),
    (
        "crates/phy/src/demodulate.rs",
        "complex_spectrum_down_scratch",
    ),
    ("crates/phy/src/demodulate.rs", "fold_into"),
    ("crates/phy/src/demodulate.rs", "signal_vector_scratch"),
    ("crates/phy/src/demodulate.rs", "signal_vector_down_scratch"),
    ("crates/core/src/sync.rs", "fractional_sync_observed"),
    ("crates/core/src/sigcalc.rs", "symbol_vector"),
    ("crates/core/src/thrive/mod.rs", "assign_checkpoint"),
    ("crates/core/src/sic.rs", "rotate_cfo"),
    ("crates/core/src/sic.rs", "estimate_block_gains"),
    ("crates/core/src/sic.rs", "mean_gain_power"),
    ("crates/core/src/sic.rs", "subtract_replica"),
];

fn seed_bit(kind: EffectKind) -> u8 {
    match kind {
        EffectKind::Alloc => ALLOC,
        EffectKind::Panic => PANIC,
        EffectKind::Clock => CLOCK,
        EffectKind::NondetOrder => NONDET,
        EffectKind::Blocking => BLOCKING,
    }
}

/// Effect mask an `allow(TNB-FLOW0x)`/`allow(flow)` on a call line cuts.
fn cut_mask(src: &SourceFile, line: usize) -> u8 {
    let mut cut = 0;
    if src.is_allowed(line, "TNB-FLOW01", "flow") {
        cut |= ALLOC;
    }
    if src.is_allowed(line, "TNB-FLOW02", "flow") {
        cut |= PANIC;
    }
    if src.is_allowed(line, "TNB-FLOW03", "flow") {
        cut |= CLOCK | NONDET;
    }
    cut
}

/// Direct seed mask of one fn. `tnb-metrics` is the determinism
/// barrier: its sinks are merged deterministically after worker join,
/// so clock/order seeds inside it never taint callers.
fn seed_mask(m: &FileModel, seeds: &[Seed]) -> u8 {
    let barrier = m.scope.crate_name == "tnb-metrics";
    seeds
        .iter()
        .map(|s| seed_bit(s.kind))
        .filter(|&b| !(barrier && (b == CLOCK || b == NONDET)))
        .fold(0, |acc, b| acc | b)
}

/// The computed effect state: per-fn transitive masks plus per-edge cuts.
pub struct Effects {
    /// Transitive effect mask per global fn id (seed ∪ callees).
    pub mask: Vec<u8>,
    /// Direct seed mask per global fn id.
    pub seeds: Vec<u8>,
    /// Per-edge cut mask, parallel to `graph.edges` (outer: fn id).
    pub cuts: Vec<Vec<u8>>,
}

/// Propagates seed effects over the graph to a fixed point.
pub fn propagate(models: &[FileModel], srcs: &[SourceFile], graph: &Graph) -> Effects {
    let n = graph.fns.len();
    let mut seeds = vec![0u8; n];
    for (id, r) in graph.fns.iter().enumerate() {
        seeds[id] = seed_mask(&models[r.file], &models[r.file].fns[r.item].seeds);
    }
    let cuts: Vec<Vec<u8>> = (0..n)
        .map(|id| {
            let file = graph.fns[id].file;
            graph.edges[id]
                .iter()
                .map(|e| cut_mask(&srcs[file], e.line))
                .collect()
        })
        .collect();
    let mut mask = seeds.clone();
    loop {
        let mut changed = false;
        for id in 0..n {
            let mut m = mask[id];
            for (ei, e) in graph.edges[id].iter().enumerate() {
                m |= mask[e.callee] & !cuts[id][ei];
            }
            if m != mask[id] {
                mask[id] = m;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    Effects { mask, seeds, cuts }
}

/// Runs the three flow rules, appending diagnostics.
pub fn check(
    models: &[FileModel],
    srcs: &[SourceFile],
    graph: &Graph,
    fx: &Effects,
    diags: &mut Vec<Diagnostic>,
) {
    check_required_roots(models, srcs, diags);
    check_flow01(models, srcs, graph, fx, diags);
    check_flow02(models, graph, fx, diags);
    check_flow03(models, graph, fx, diags);
}

/// TNB-FLOW01 (registry half): every required hot-path entry fn must
/// exist and carry its `no_alloc_root` directive.
fn check_required_roots(models: &[FileModel], srcs: &[SourceFile], diags: &mut Vec<Diagnostic>) {
    for (suffix, fn_name) in REQUIRED_NO_ALLOC_ROOTS {
        let Some(fi) = models.iter().position(|m| m.rel_path.ends_with(suffix)) else {
            continue; // file not among the inputs (fixture runs)
        };
        let m = &models[fi];
        match m.fns.iter().find(|f| f.name == fn_name) {
            None => diags.push(Diagnostic {
                file: m.rel_path.clone(),
                line: 1,
                col: 1,
                rule: "TNB-FLOW01",
                message: format!(
                    "required no_alloc root fn `{fn_name}` not found; hot-path entry points \
                     are registered in xtask's REQUIRED_NO_ALLOC_ROOTS — update the registry \
                     if the fn was renamed"
                ),
            }),
            Some(f) if !f.is_root => {
                if srcs[fi].is_allowed(f.sig_line, "TNB-FLOW01", "flow") {
                    continue;
                }
                diags.push(Diagnostic {
                    file: m.rel_path.clone(),
                    line: f.sig_line + 1,
                    col: 1,
                    rule: "TNB-FLOW01",
                    message: format!(
                        "hot-path entry fn `{fn_name}` must carry `// tnb-lint: no_alloc_root` \
                         (it seeds the interprocedural allocation check)"
                    ),
                });
            }
            Some(_) => {}
        }
    }
}

/// BFS from `start` over non-`bit`-cut edges, recording parents.
/// Returns (visit order, parent map).
fn reach(
    graph: &Graph,
    fx: &Effects,
    start: usize,
    bit: u8,
) -> (Vec<usize>, BTreeMap<usize, usize>) {
    let mut order = Vec::new();
    let mut parent = BTreeMap::new();
    let mut queue = std::collections::VecDeque::from([start]);
    let mut seen = vec![false; graph.fns.len()];
    seen[start] = true;
    while let Some(id) = queue.pop_front() {
        order.push(id);
        for (ei, e) in graph.edges[id].iter().enumerate() {
            if fx.cuts[id][ei] & bit != 0 || seen[e.callee] {
                continue;
            }
            seen[e.callee] = true;
            parent.insert(e.callee, id);
            queue.push_back(e.callee);
        }
    }
    (order, parent)
}

/// `root -> a -> b` chain string from the BFS parent map.
fn chain(
    graph: &Graph,
    models: &[FileModel],
    parent: &BTreeMap<usize, usize>,
    start: usize,
    end: usize,
) -> String {
    let mut names = vec![graph.fn_name(models, end).to_string()];
    let mut cur = end;
    while cur != start {
        let Some(&p) = parent.get(&cur) else { break };
        names.push(graph.fn_name(models, p).to_string());
        cur = p;
    }
    names.reverse();
    names.join(" -> ")
}

/// TNB-FLOW01 (graph half): a fn reachable from a `no_alloc_root`
/// transitively allocates. Reported at the seed site; the root's own
/// body and lexically `no_alloc`-marked lines are TNB-ALLOC01's domain
/// and excluded here.
fn check_flow01(
    models: &[FileModel],
    srcs: &[SourceFile],
    graph: &Graph,
    fx: &Effects,
    diags: &mut Vec<Diagnostic>,
) {
    let mut reported: BTreeMap<(usize, usize, usize), ()> = BTreeMap::new();
    for (root, r) in graph.fns.iter().enumerate() {
        if !models[r.file].fns[r.item].is_root {
            continue;
        }
        let (order, parent) = reach(graph, fx, root, ALLOC);
        for &id in order.iter().skip(1) {
            if fx.seeds[id] & ALLOC == 0 {
                continue;
            }
            let fr = graph.fns[id];
            let f = &models[fr.file].fns[fr.item];
            if f.is_root {
                continue; // its own region is lexically checked
            }
            for s in &f.seeds {
                if seed_bit(s.kind) != ALLOC || srcs[fr.file].lines[s.line].no_alloc {
                    continue;
                }
                if reported.insert((fr.file, s.line, s.col), ()).is_some() {
                    continue;
                }
                diags.push(Diagnostic {
                    file: models[fr.file].rel_path.clone(),
                    line: s.line + 1,
                    col: s.col + 1,
                    rule: "TNB-FLOW01",
                    message: format!(
                        "`{}` allocates on a hot path reachable from no_alloc root `{}` \
                         ({}): {}",
                        s.token,
                        graph.fn_name(models, root),
                        models[r.file].rel_path,
                        chain(graph, models, &parent, root, id),
                    ),
                });
            }
        }
    }
}

/// TNB-FLOW02: a panic-free crate's public API transitively reaches a
/// panic seed. Reported at the seed site (the lexical TNB-PANIC rules
/// may also fire there — one lists the site, the other the path).
fn check_flow02(models: &[FileModel], graph: &Graph, fx: &Effects, diags: &mut Vec<Diagnostic>) {
    let mut reported: BTreeMap<(usize, usize, usize), ()> = BTreeMap::new();
    for (src_fn, r) in graph.fns.iter().enumerate() {
        let m = &models[r.file];
        if !PANIC_FREE_CRATES.contains(&m.scope.crate_name.as_str())
            || !m.fns[r.item].is_pub
            || fx.mask[src_fn] & PANIC == 0
        {
            continue;
        }
        let (order, parent) = reach(graph, fx, src_fn, PANIC);
        for &id in order.iter().skip(1) {
            if fx.seeds[id] & PANIC == 0 {
                continue;
            }
            let fr = graph.fns[id];
            for s in &models[fr.file].fns[fr.item].seeds {
                if seed_bit(s.kind) != PANIC {
                    continue;
                }
                if reported.insert((fr.file, s.line, s.col), ()).is_some() {
                    continue;
                }
                diags.push(Diagnostic {
                    file: models[fr.file].rel_path.clone(),
                    line: s.line + 1,
                    col: s.col + 1,
                    rule: "TNB-FLOW02",
                    message: format!(
                        "`{}` may panic and is reachable from panic-free crate {}'s public \
                         `{}`: {}",
                        s.token,
                        m.scope.crate_name,
                        graph.fn_name(models, src_fn),
                        chain(graph, models, &parent, src_fn, id),
                    ),
                });
            }
        }
    }
}

/// First clock/order seed reachable from `start` (for the diagnostic).
fn representative_seed<'m>(
    models: &'m [FileModel],
    graph: &Graph,
    fx: &Effects,
    start: usize,
) -> Option<(&'m FileModel, &'m Seed)> {
    let (order, _) = reach(graph, fx, start, CLOCK | NONDET);
    for id in order {
        if fx.seeds[id] & (CLOCK | NONDET) == 0 {
            continue;
        }
        let fr = graph.fns[id];
        let m = &models[fr.file];
        if let Some(s) = m.fns[fr.item]
            .seeds
            .iter()
            .find(|s| seed_bit(s.kind) & (CLOCK | NONDET) != 0)
        {
            return Some((m, s));
        }
    }
    None
}

/// TNB-FLOW03: a call edge inside a determinism crate's decode path
/// whose callee transitively reads the wall clock or iterates a
/// hash-randomized collection. Reported at the call site.
fn check_flow03(models: &[FileModel], graph: &Graph, fx: &Effects, diags: &mut Vec<Diagnostic>) {
    for (caller, r) in graph.fns.iter().enumerate() {
        let m = &models[r.file];
        if !DETERMINISM_CRATES.contains(&m.scope.crate_name.as_str()) {
            continue;
        }
        for (ei, e) in graph.edges[caller].iter().enumerate() {
            let taint = fx.mask[e.callee] & (CLOCK | NONDET) & !fx.cuts[caller][ei];
            if taint == 0 {
                continue;
            }
            let what = match (taint & CLOCK != 0, taint & NONDET != 0) {
                (true, true) => "reads the wall clock and iterates hash-randomized collections",
                (true, false) => "reads the wall clock",
                _ => "iterates hash-randomized collections",
            };
            let seed = representative_seed(models, graph, fx, e.callee)
                .map(|(sm, s)| format!(" (seed: `{}` at {}:{})", s.token, sm.rel_path, s.line + 1))
                .unwrap_or_default();
            diags.push(Diagnostic {
                file: m.rel_path.clone(),
                line: e.line + 1,
                col: e.col + 1,
                rule: "TNB-FLOW03",
                message: format!(
                    "call to `{}` transitively {} in decode-path crate {}{}",
                    graph.fn_name(models, e.callee),
                    what,
                    m.scope.crate_name,
                    seed,
                ),
            });
        }
    }
}

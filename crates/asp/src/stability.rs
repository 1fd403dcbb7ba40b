//! Model-guided stability check (Gelfond–Lifschitz).
//!
//! The CNF translation captures the *completion* of the ground program,
//! whose models can include self-supported positive loops that are not
//! stable models. After each SAT model we compute the least model of the
//! program's reduct w.r.t. the candidate; atoms in the candidate but not
//! in the least model form an *unfounded set*, which the solve loop turns
//! into loop clauses (CEGAR). Ground programs whose positive dependency
//! graph is acyclic ([`is_tight`]) — like the concretizer's, where
//! ground recursion follows acyclic package DAGs — skip the check: by
//! Fages' theorem every model of their completion is stable.

use crate::ground::GroundProgram;
use crate::term::AtomId;
use rustc_hash::{FxHashMap, FxHashSet};

/// Result of a stability check.
pub enum Stability {
    /// The candidate is a stable model.
    Stable,
    /// The candidate is not stable; the unfounded atoms are returned.
    Unfounded(Vec<AtomId>),
}

/// Whether `gp` is *tight*: its positive dependency graph is acyclic.
///
/// Nodes are the interned atoms plus one node per choice instance.
/// Each positive body atom has an edge to its rule's head; each positive
/// choice-body atom has an edge to the choice node, which has an edge to
/// each element, so the graph stays linear in program size. Negated
/// atoms add no edges. Kahn's algorithm decides acyclicity.
///
/// On a tight program [`check_stability`] cannot fail for a model of the
/// whole completion (Fages' theorem). Take the atoms in topological
/// order: a true atom has a true supporting body (completion), whose
/// positive atoms come earlier and so are in the reduct's least model,
/// and whose negated atoms are false, so the rule survives the reduct.
pub fn is_tight(gp: &GroundProgram) -> bool {
    let atoms = gp.atom_count();
    let nodes = atoms + gp.choices.len();
    // Edges in compressed rows: node `v`'s successors are
    // `succ[start[v]..start[v + 1]]`.
    let mut start = vec![0usize; nodes + 1];
    for r in &gp.rules {
        for p in r.pos.iter() {
            start[p.0 as usize + 1] += 1;
        }
    }
    for (ci, c) in gp.choices.iter().enumerate() {
        for p in c.pos.iter() {
            start[p.0 as usize + 1] += 1;
        }
        start[atoms + ci + 1] += c.elements.len();
    }
    for v in 0..nodes {
        start[v + 1] += start[v];
    }
    let mut next = start.clone();
    let mut succ = vec![0u32; start[nodes]];
    let mut indegree = vec![0u32; nodes];
    let mut edge = |from: usize, to: usize| {
        succ[next[from]] = to as u32;
        next[from] += 1;
        indegree[to] += 1;
    };
    for r in &gp.rules {
        for p in r.pos.iter() {
            edge(p.0 as usize, r.head.0 as usize);
        }
    }
    for (ci, c) in gp.choices.iter().enumerate() {
        let node = atoms + ci;
        for p in c.pos.iter() {
            edge(p.0 as usize, node);
        }
        for e in c.elements.iter() {
            edge(node, e.0 as usize);
        }
    }

    let mut ready: Vec<u32> = (0..nodes as u32)
        .filter(|&v| indegree[v as usize] == 0)
        .collect();
    let mut ordered = 0;
    while let Some(v) = ready.pop() {
        ordered += 1;
        let v = v as usize;
        for &w in &succ[start[v]..start[v + 1]] {
            indegree[w as usize] -= 1;
            if indegree[w as usize] == 0 {
                ready.push(w);
            }
        }
    }
    ordered == nodes
}

/// Check whether `model` (the set of true atoms) is a stable model of
/// `gp`.
///
/// Computes the least model `L` of the reduct: a normal rule fires when
/// its positive body is in `L` and no negated atom is in `model`; a
/// choice instance justifies exactly those of its elements that are in
/// `model`, when its body fires. The candidate is stable iff every true
/// atom is in `L`.
pub fn check_stability(gp: &GroundProgram, model: &FxHashSet<AtomId>) -> Stability {
    let mut least: FxHashSet<AtomId> = FxHashSet::default();
    let mut queue: Vec<AtomId> = Vec::new();

    // Rule activation tracking: count distinct positive atoms still
    // missing from `least`; fire when zero.
    #[derive(Clone)]
    enum Deriver {
        Rule(usize),
        Choice(usize),
    }
    let mut waiting: FxHashMap<AtomId, Vec<usize>> = FxHashMap::default();
    let mut missing: Vec<usize> = Vec::new();
    let mut derivers: Vec<Deriver> = Vec::new();

    let add_deriver = |pos: &[AtomId],
                           neg: &[AtomId],
                           d: Deriver,
                           waiting: &mut FxHashMap<AtomId, Vec<usize>>,
                           missing: &mut Vec<usize>,
                           derivers: &mut Vec<Deriver>|
     -> Option<usize> {
        // Reduct: drop the rule if any negated atom is true in the model.
        if neg.iter().any(|a| model.contains(a)) {
            return None;
        }
        let idx = derivers.len();
        derivers.push(d);
        let unique: FxHashSet<AtomId> = pos.iter().copied().collect();
        missing.push(unique.len());
        for a in unique {
            waiting.entry(a).or_default().push(idx);
        }
        Some(idx)
    };

    let mut fire: Vec<usize> = Vec::new(); // derivers with empty bodies
    for (ri, r) in gp.rules.iter().enumerate() {
        if let Some(idx) = add_deriver(
            &r.pos,
            &r.neg,
            Deriver::Rule(ri),
            &mut waiting,
            &mut missing,
            &mut derivers,
        ) {
            if missing[idx] == 0 {
                fire.push(idx);
            }
        }
    }
    for (ci, c) in gp.choices.iter().enumerate() {
        if let Some(idx) = add_deriver(
            &c.pos,
            &c.neg,
            Deriver::Choice(ci),
            &mut waiting,
            &mut missing,
            &mut derivers,
        ) {
            if missing[idx] == 0 {
                fire.push(idx);
            }
        }
    }

    let derive = |idx: usize,
                      least: &mut FxHashSet<AtomId>,
                      queue: &mut Vec<AtomId>,
                      derivers: &Vec<Deriver>| {
        match derivers[idx] {
            Deriver::Rule(ri) => {
                let h = gp.rules[ri].head;
                if least.insert(h) {
                    queue.push(h);
                }
            }
            Deriver::Choice(ci) => {
                // GL reduct of a choice: chosen elements become facts.
                for &e in gp.choices[ci].elements.iter() {
                    if model.contains(&e) && least.insert(e) {
                        queue.push(e);
                    }
                }
            }
        }
    };

    for idx in fire {
        derive(idx, &mut least, &mut queue, &derivers);
    }
    let mut satisfied: FxHashMap<usize, usize> = FxHashMap::default();
    while let Some(a) = queue.pop() {
        if let Some(idxs) = waiting.get(&a) {
            for &idx in idxs {
                let done = {
                    let got = satisfied.entry(idx).or_insert(0);
                    *got += 1;
                    *got == missing[idx]
                };
                if done {
                    derive(idx, &mut least, &mut queue, &derivers);
                }
            }
        }
    }

    let unfounded: Vec<AtomId> = model
        .iter()
        .copied()
        .filter(|a| !least.contains(a))
        .collect();
    if unfounded.is_empty() {
        Stability::Stable
    } else {
        Stability::Unfounded(unfounded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground::ground;
    use crate::parser::parse_program;

    fn gp_of(text: &str) -> GroundProgram {
        ground(&parse_program(text).unwrap()).unwrap()
    }

    fn atoms(gp: &GroundProgram, names: &[&str]) -> FxHashSet<AtomId> {
        let mut out = FxHashSet::default();
        for name in names {
            let found = (0..gp.atom_count() as u32)
                .map(AtomId)
                .find(|&a| gp.store.format_atom(a) == *name)
                .unwrap_or_else(|| panic!("atom {name} not interned"));
            out.insert(found);
        }
        out
    }

    #[test]
    fn positive_loops_are_not_tight() {
        // The grounder emits no rule whose positive body can never hold,
        // so a leading choice makes each loop's atoms possible.
        for text in [
            "{ a }. a :- a.",
            "{ a }. a :- b. b :- a.",
            "{ q }. { p } :- q. q :- p.",
        ] {
            assert!(!is_tight(&gp_of(text)), "{text} has a positive loop");
        }
    }

    #[test]
    fn acyclic_and_negative_dependencies_are_tight() {
        for text in [
            "a. b.",
            "a. b :- a. c :- b, a. { d } :- c. e :- d.",
            "a :- not b. b :- not a.",
            "b. a :- b, b.",
        ] {
            assert!(is_tight(&gp_of(text)), "{text} has no positive loop");
        }
    }

    #[test]
    fn facts_and_consequences_are_stable() {
        let gp = gp_of("a. b :- a.");
        let m = atoms(&gp, &["a", "b"]);
        assert!(matches!(check_stability(&gp, &m), Stability::Stable));
    }

    #[test]
    fn self_supported_loop_is_unfounded() {
        // p gives a/b a grounding path, but with p false the completion
        // still admits the self-supported {a, b} — which is not stable.
        let gp = gp_of(
            r#"
            { p }.
            a :- p.
            a :- b.
            b :- a.
        "#,
        );
        let m = atoms(&gp, &["a", "b"]); // p false
        match check_stability(&gp, &m) {
            Stability::Unfounded(u) => assert_eq!(u.len(), 2),
            Stability::Stable => panic!("loop model must be unfounded"),
        }
        // With p chosen, {p, a, b} is stable (a externally supported).
        let m2 = atoms(&gp, &["p", "a", "b"]);
        assert!(matches!(check_stability(&gp, &m2), Stability::Stable));
        // The empty model is stable too.
        let empty = FxHashSet::default();
        assert!(matches!(check_stability(&gp, &empty), Stability::Stable));
    }

    #[test]
    fn loop_with_external_support_is_stable() {
        let gp = gp_of("a :- b. b :- a. b :- c. c.");
        let m = atoms(&gp, &["a", "b", "c"]);
        assert!(matches!(check_stability(&gp, &m), Stability::Stable));
    }

    #[test]
    fn negation_reduct() {
        // b :- not c. With c false, b must hold; {b} is stable, {} isn't
        // checked here (it's not a completion model anyway).
        let gp = gp_of("b :- not c.");
        let m = atoms(&gp, &["b"]);
        assert!(matches!(check_stability(&gp, &m), Stability::Stable));
    }

    #[test]
    fn chosen_elements_are_justified() {
        let gp = gp_of("f(\"x\"). { p(V) : f(V) }.");
        let m = atoms(&gp, &["f(\"x\")", "p(\"x\")"]);
        assert!(matches!(check_stability(&gp, &m), Stability::Stable));
        let m2 = atoms(&gp, &["f(\"x\")"]);
        assert!(matches!(check_stability(&gp, &m2), Stability::Stable));
    }

    #[test]
    fn choice_behind_false_body_cannot_justify() {
        // g/h form a loop reachable only through g0; with g0 false the
        // candidate's g, h and the choice-derived p("x") are unfounded.
        let gp = gp_of(
            r#"
            f("x").
            { g0 }.
            g :- g0.
            g :- h.
            h :- g.
            { p(V) : f(V) } :- g.
        "#,
        );
        let m = atoms(&gp, &["f(\"x\")", "p(\"x\")", "g", "h"]); // g0 false
        match check_stability(&gp, &m) {
            Stability::Unfounded(u) => assert_eq!(u.len(), 3), // g, h, p(x)
            Stability::Stable => panic!("must be unfounded"),
        }
    }
}

//! Model-guided stability check (Gelfond–Lifschitz), and the least-model
//! fixpoint it shares with the grounder's certainty closure.
//!
//! The CNF translation captures the *completion* of the ground program,
//! whose models can include self-supported positive loops that are not
//! stable models. After each SAT model we compute the least model of the
//! program's reduct w.r.t. the candidate; atoms in the candidate but not
//! in the least model form an *unfounded set*, which the solve loop turns
//! into loop clauses (CEGAR). Ground programs whose positive dependency
//! graph is acyclic ([`is_tight`]) skip the check: by Fages' theorem
//! every model of their completion is stable. The concretizer's ground
//! programs are tight, since ground recursion follows acyclic package
//! DAGs (the oracle's `program_equality.rs` asserts it for every
//! benchmark goal), so a concretizer solve never runs the check; UNSAT
//! explanations ([`crate::explain`]) and non-tight programs do.
//!
//! `least_model` is the one fixpoint: the stability check takes the
//! reduct by the candidate, with choices deriving the candidate's
//! elements; the grounder's certainty closure takes the reduct of the
//! normal rules by the possible atoms. [`crate::certify`] keeps a naive
//! fixpoint of its own, so that it checks this one independently.

use crate::ground::{GroundChoice, GroundProgram, GroundRule};
use crate::term::{group_by_key, AtomId, AtomSet};

/// Result of a stability check.
pub enum Stability {
    /// The candidate is a stable model.
    Stable,
    /// The candidate is not stable; the unfounded atoms are returned, in
    /// id order.
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
    // `(from, to)` per edge.
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for r in &gp.rules {
        edges.extend(r.pos.iter().map(|p| (p.0, r.head.0)));
    }
    for (ci, c) in gp.choices.iter().enumerate() {
        let node = (atoms + ci) as u32;
        edges.extend(c.pos.iter().map(|p| (p.0, node)));
        edges.extend(c.elements.iter().map(|e| (node, e.0)));
    }
    let mut indegree = vec![0u32; nodes];
    for &(_, to) in &edges {
        indegree[to as usize] += 1;
    }
    // Node `v`'s successors are `succ[start[v]..start[v + 1]]`.
    let (start, succ) = group_by_key(nodes, &edges);
    drop(edges);

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
/// `gp`: the candidate is stable iff every true atom is in the least
/// model of the program's reduct by it.
pub fn check_stability(gp: &GroundProgram, model: &AtomSet) -> Stability {
    let least = least_model(&gp.rules, &gp.choices, model, gp.atom_count());
    let unfounded: Vec<AtomId> = model.iter().filter(|&a| !least.contains(a)).collect();
    if unfounded.is_empty() {
        Stability::Stable
    } else {
        Stability::Unfounded(unfounded)
    }
}

/// The least model of the Gelfond–Lifschitz reduct of `rules` and
/// `choices` by `by`, over the atoms `0..atoms`. A rule or choice takes
/// part when none of its negated atoms is in `by`; once every atom of
/// its positive body is derived, a rule derives its head and a choice
/// those of its elements that are in `by` (the reduct makes a chosen
/// element a fact).
///
/// Each rule or choice taking part counts the distinct atoms of its
/// positive body not yet derived, and each atom lists those waiting on
/// it (rows by [`group_by_key`]: rules in index order, then choices); a
/// count that reaches zero fires.
pub(crate) fn least_model(
    rules: &[GroundRule],
    choices: &[GroundChoice],
    by: &AtomSet,
    atoms: usize,
) -> AtomSet {
    let bodies = rules
        .iter()
        .map(|r| (&r.pos, &r.neg))
        .chain(choices.iter().map(|c| (&c.pos, &c.neg)));
    let mut remaining: Vec<u32> = vec![0; rules.len() + choices.len()];
    // `(atom, rule or choice)` per distinct atom of a positive body.
    let mut waits: Vec<(u32, u32)> = Vec::new();
    // Rules and choices whose bodies hold, not yet fired.
    let mut fire: Vec<u32> = Vec::new();
    let mut body: Vec<AtomId> = Vec::new();
    for (d, (pos, neg)) in bodies.enumerate() {
        if neg.iter().any(|&n| by.contains(n)) {
            continue; // dropped by the reduct
        }
        body.clear();
        body.extend_from_slice(pos);
        body.sort_unstable();
        body.dedup();
        if body.is_empty() {
            fire.push(d as u32);
        }
        remaining[d] = body.len() as u32;
        waits.extend(body.iter().map(|a| (a.0, d as u32)));
    }
    let (first, waiting) = group_by_key(atoms, &waits);
    drop(waits);

    let mut least = AtomSet::default();
    let mut derived: Vec<AtomId> = Vec::new();
    loop {
        while let Some(d) = fire.pop() {
            let d = d as usize;
            match rules.get(d) {
                Some(r) => {
                    if least.insert(r.head) {
                        derived.push(r.head);
                    }
                }
                None => {
                    for &e in choices[d - rules.len()].elements.iter() {
                        if by.contains(e) && least.insert(e) {
                            derived.push(e);
                        }
                    }
                }
            }
        }
        let Some(a) = derived.pop() else {
            return least;
        };
        for &d in &waiting[first[a.0 as usize]..first[a.0 as usize + 1]] {
            let left = &mut remaining[d as usize];
            *left -= 1;
            if *left == 0 {
                fire.push(d);
            }
        }
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

    fn atoms(gp: &GroundProgram, names: &[&str]) -> AtomSet {
        let mut out = AtomSet::default();
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
        let empty = AtomSet::default();
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

//! Predicate-level static analysis over non-ground programs: the
//! predicate dependency graph, derivability and relevance closures, and
//! stratification of the negation fragment.
//!
//! The `spackle-audit` static analyzer reports these closures as
//! findings. Everything here works on the *predicate* abstraction of the
//! program — `(name, arity)` pairs — so
//! the closures are cheap over-approximations of what the grounder's
//! possible-atom closure computes at the ground level:
//!
//! * a predicate outside [`derivable_preds`] can never have a true (or
//!   even possible) ground atom, so rules positively depending on it can
//!   never fire;
//! * a predicate outside [`relevant_preds`] cannot influence the goal
//!   predicates, any constraint, any choice, or any `#minimize` cost.

use crate::program::{BodyElem, Head, Program};
use crate::term::Atom;
use spackle_spec::Sym;
use std::collections::{BTreeMap, BTreeSet};

/// A predicate key: name plus arity.
pub type PredKey = (Sym, usize);

/// The predicate key of an atom.
pub fn pred_of(atom: &Atom) -> PredKey {
    (atom.pred, atom.args.len())
}

/// Render a predicate key as `name/arity`.
pub fn pred_name(p: &PredKey) -> String {
    format!("{}/{}", p.0, p.1)
}

/// Whether a `head -> body` dependency runs through negation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum EdgeKind {
    /// Positive body literal.
    Pos,
    /// Negated body literal (`not atom`).
    Neg,
}

/// The predicate dependency graph of a program.
///
/// Nodes are every predicate occurring anywhere (heads, bodies, choice
/// elements and conditions, constraint bodies, minimize conditions,
/// heuristic atoms and conditions). An
/// edge `(head, body, kind)` records that deriving `head` depends on
/// `body`; choice elements count as heads of their enclosing rule's body
/// and of their own condition.
#[derive(Clone, Debug, Default)]
pub struct PredGraph {
    /// All predicates in the program.
    pub preds: BTreeSet<PredKey>,
    /// Dependency edges `(head, body, kind)`, deduplicated.
    pub edges: BTreeSet<(PredKey, PredKey, EdgeKind)>,
}

impl PredGraph {
    /// Build the dependency graph of `program`.
    pub fn build(program: &Program) -> PredGraph {
        let mut g = PredGraph::default();
        let note_body = |g: &mut PredGraph, head: Option<PredKey>, body: &[BodyElem]| {
            for e in body {
                let (atom, kind) = match e {
                    BodyElem::Pos(a) => (a, EdgeKind::Pos),
                    BodyElem::Neg(a) => (a, EdgeKind::Neg),
                    BodyElem::Cmp(..) => continue,
                };
                let b = pred_of(atom);
                g.preds.insert(b);
                if let Some(h) = head {
                    g.edges.insert((h, b, kind));
                }
            }
        };
        for rule in &program.rules {
            match &rule.head {
                Head::Atom(a) => {
                    let h = pred_of(a);
                    g.preds.insert(h);
                    note_body(&mut g, Some(h), &rule.body);
                }
                Head::Choice { elements, .. } => {
                    for el in elements {
                        let h = pred_of(&el.atom);
                        g.preds.insert(h);
                        note_body(&mut g, Some(h), &rule.body);
                        note_body(&mut g, Some(h), &el.condition);
                    }
                    if elements.is_empty() {
                        note_body(&mut g, None, &rule.body);
                    }
                }
                Head::None => note_body(&mut g, None, &rule.body),
            }
        }
        for me in &program.minimize {
            note_body(&mut g, None, &me.condition);
        }
        // A heuristic derives nothing: its atom and condition are uses.
        for h in &program.heuristics {
            g.preds.insert(pred_of(&h.atom));
            note_body(&mut g, None, &h.condition);
        }
        g
    }

    /// Predicates that appear in some body but head no rule, choice
    /// element, or fact — typos and stale references ground to nothing.
    pub fn undefined_preds(&self, program: &Program) -> BTreeSet<PredKey> {
        let defined = head_preds(program);
        self.preds
            .iter()
            .filter(|p| !defined.contains(*p))
            .copied()
            .collect()
    }
}

/// Predicates that head at least one rule, fact, or choice element.
pub fn head_preds(program: &Program) -> BTreeSet<PredKey> {
    let mut out = BTreeSet::new();
    for rule in &program.rules {
        match &rule.head {
            Head::Atom(a) => {
                out.insert(pred_of(a));
            }
            Head::Choice { elements, .. } => {
                for el in elements {
                    out.insert(pred_of(&el.atom));
                }
            }
            Head::None => {}
        }
    }
    out
}

fn pos_preds_hold(body: &[BodyElem], derivable: &BTreeSet<PredKey>) -> bool {
    body.iter().all(|e| match e {
        BodyElem::Pos(a) => derivable.contains(&pred_of(a)),
        _ => true,
    })
}

/// Predicates that can possibly have a true ground atom: the least
/// fixpoint of "all positive body predicates derivable ⟹ head predicate
/// derivable", ignoring negation and comparisons. This is the predicate
/// abstraction of the grounder's possible-atom closure, so any predicate
/// outside this set grounds to the empty relation.
pub fn derivable_preds(program: &Program) -> BTreeSet<PredKey> {
    let mut derivable: BTreeSet<PredKey> = BTreeSet::new();
    loop {
        let mut changed = false;
        for rule in &program.rules {
            if !pos_preds_hold(&rule.body, &derivable) {
                continue;
            }
            match &rule.head {
                Head::Atom(a) => {
                    if derivable.insert(pred_of(a)) {
                        changed = true;
                    }
                }
                Head::Choice { elements, .. } => {
                    for el in elements {
                        if pos_preds_hold(&el.condition, &derivable)
                            && derivable.insert(pred_of(&el.atom))
                        {
                            changed = true;
                        }
                    }
                }
                Head::None => {}
            }
        }
        if !changed {
            break;
        }
    }
    derivable
}

fn seed_body(body: &[BodyElem], relevant: &mut BTreeSet<PredKey>) {
    for e in body {
        match e {
            BodyElem::Pos(a) | BodyElem::Neg(a) => {
                relevant.insert(pred_of(a));
            }
            BodyElem::Cmp(..) => {}
        }
    }
}

/// Predicates that can influence the outcome: backward closure from the
/// goal predicates (matched by name, any arity), every constraint body,
/// every choice rule (bodies, conditions, and elements — choices both
/// generate atoms and enforce cardinality bounds), and every `#minimize`
/// condition. Rules whose head predicate lies outside this set derive
/// atoms nothing ever reads.
pub fn relevant_preds(program: &Program, goal_preds: &[Sym]) -> BTreeSet<PredKey> {
    let goals: BTreeSet<Sym> = goal_preds.iter().copied().collect();
    let mut relevant: BTreeSet<PredKey> = BTreeSet::new();
    // Seeds.
    for rule in &program.rules {
        match &rule.head {
            Head::Atom(a) => {
                if goals.contains(&a.pred) {
                    relevant.insert(pred_of(a));
                }
            }
            Head::Choice { elements, .. } => {
                seed_body(&rule.body, &mut relevant);
                for el in elements {
                    relevant.insert(pred_of(&el.atom));
                    seed_body(&el.condition, &mut relevant);
                }
            }
            Head::None => seed_body(&rule.body, &mut relevant),
        }
        for e in &rule.body {
            if let BodyElem::Pos(a) | BodyElem::Neg(a) = e {
                if goals.contains(&a.pred) {
                    relevant.insert(pred_of(a));
                }
            }
        }
    }
    for me in &program.minimize {
        seed_body(&me.condition, &mut relevant);
    }
    // Backward closure over normal-rule definitions.
    loop {
        let mut changed = false;
        for rule in &program.rules {
            let Head::Atom(a) = &rule.head else { continue };
            if !relevant.contains(&pred_of(a)) {
                continue;
            }
            let before = relevant.len();
            seed_body(&rule.body, &mut relevant);
            if relevant.len() != before {
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    relevant
}

/// Result of stratification analysis over a [`PredGraph`].
#[derive(Clone, Debug, Default)]
pub struct Stratification {
    /// Strongly connected components of the dependency graph (over both
    /// positive and negative edges), in reverse topological order.
    pub sccs: Vec<Vec<PredKey>>,
    /// Negative edges `(head, body)` with both endpoints in the same SCC:
    /// recursion through negation. Empty iff the program is stratified.
    pub unstratified: Vec<(PredKey, PredKey)>,
}

/// Compute SCCs of the dependency graph (Tarjan, iterative) and flag
/// negative edges internal to an SCC. A program with no such edge is
/// stratified: its stable model semantics never needs the solver's
/// unfounded-set (CEGAR) machinery.
pub fn stratify(graph: &PredGraph) -> Stratification {
    let nodes: Vec<PredKey> = graph.preds.iter().copied().collect();
    let index_of: BTreeMap<PredKey, usize> =
        nodes.iter().enumerate().map(|(i, p)| (*p, i)).collect();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for (h, b, _) in &graph.edges {
        adj[index_of[h]].push(index_of[b]);
    }

    // Iterative Tarjan.
    const UNSEEN: usize = usize::MAX;
    let n = nodes.len();
    let mut index = vec![UNSEEN; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut scc_of = vec![UNSEEN; n];
    let mut sccs: Vec<Vec<PredKey>> = Vec::new();

    for root in 0..n {
        if index[root] != UNSEEN {
            continue;
        }
        // (node, next child position)
        let mut call: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&(v, ci)) = call.last() {
            if ci == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = adj[v].get(ci) {
                call.last_mut().expect("frame present").1 += 1;
                if index[w] == UNSEEN {
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        scc_of[w] = sccs.len();
                        comp.push(nodes[w]);
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(comp);
                }
                let lv = low[v];
                call.pop();
                if let Some(&(p, _)) = call.last() {
                    low[p] = low[p].min(lv);
                }
            }
        }
    }

    let mut unstratified = Vec::new();
    for (h, b, kind) in &graph.edges {
        if *kind == EdgeKind::Neg && scc_of[index_of[h]] == scc_of[index_of[b]] {
            unstratified.push((*h, *b));
        }
    }
    Stratification { sccs, unstratified }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn keys(set: &BTreeSet<PredKey>) -> Vec<String> {
        set.iter().map(pred_name).collect()
    }

    #[test]
    fn derivable_ignores_negation_and_drops_undefined() {
        let p = parse_program(
            r#"
            a. b :- a, not c.
            d :- ghost.
            "#,
        )
        .unwrap();
        let d = derivable_preds(&p);
        assert_eq!(keys(&d), ["a/0", "b/0"]);
    }

    #[test]
    fn derivable_through_choice_elements() {
        let p = parse_program(
            r#"
            f(1).
            { q(X) : f(X) }.
            r(X) :- q(X).
            s(X) :- missing(X), q(X).
            "#,
        )
        .unwrap();
        let d = derivable_preds(&p);
        assert_eq!(keys(&d), ["f/1", "q/1", "r/1"]);
    }

    #[test]
    fn relevance_closes_backward_from_goals_and_constraints() {
        let p = parse_program(
            r#"
            base. mid :- base. goal :- mid.
            side :- base.
            checked :- base.
            :- checked.
            "#,
        )
        .unwrap();
        let r = relevant_preds(&p, &[Sym::intern("goal")]);
        // side/0 derives an atom nothing reads.
        assert_eq!(keys(&r), ["base/0", "checked/0", "goal/0", "mid/0"]);
    }

    #[test]
    fn stratified_program_has_no_internal_negative_edge() {
        let p = parse_program("a. b :- a, not c. c :- a.").unwrap();
        let s = stratify(&PredGraph::build(&p));
        assert!(s.unstratified.is_empty());
    }

    #[test]
    fn even_negation_loop_is_unstratified() {
        let p = parse_program("p :- not q. q :- not p.").unwrap();
        let s = stratify(&PredGraph::build(&p));
        assert_eq!(s.unstratified.len(), 2);
        let scc_sizes: Vec<usize> = s.sccs.iter().map(Vec::len).collect();
        assert!(scc_sizes.contains(&2));
    }

    #[test]
    fn undefined_preds_found() {
        let p = parse_program("a :- phantom. :- ghost, a.").unwrap();
        let g = PredGraph::build(&p);
        let und = g.undefined_preds(&p);
        assert_eq!(keys(&und), ["ghost/0", "phantom/0"]);
    }
}

//! Answer-set (model) representation and query API.

use crate::ground::GroundProgram;
use crate::term::{AtomId, AtomSet, GroundStore, GroundTerm, TermId};
use spackle_spec::Sym;
use std::sync::Arc;

/// A stable model: the set of true atoms plus the ground program that
/// produced it (needed to decode atoms and to certificate-check the
/// model), and the achieved cost vector.
///
/// The true atoms are an [`AtomSet`] over the program's atom ids, so
/// every query reads them in id order without copying or sorting. The
/// ground program is shared behind an `Arc`, so a model keeps its whole
/// grounding alive: callers decode what they need and drop it.
#[derive(Clone)]
pub struct Model {
    ground: Arc<GroundProgram>,
    true_atoms: AtomSet,
    /// `(priority, cost)` pairs, highest priority first.
    pub cost: Vec<(i64, i64)>,
}

impl Model {
    pub(crate) fn new(
        ground: Arc<GroundProgram>,
        true_atoms: AtomSet,
        cost: Vec<(i64, i64)>,
    ) -> Model {
        Model {
            ground,
            true_atoms,
            cost,
        }
    }

    /// The ground program this model was found for. Atom ids in
    /// [`Model::true_atoms`] index into this program's store, so the
    /// model can be validated against the exact grounding that produced
    /// it (see [`crate::certify`]).
    pub fn ground(&self) -> &GroundProgram {
        &self.ground
    }

    /// The underlying term store (for decoding arguments).
    pub fn store(&self) -> &GroundStore {
        &self.ground.store
    }

    /// Is the atom true?
    pub fn contains(&self, a: AtomId) -> bool {
        self.true_atoms.contains(a)
    }

    /// Iterate over the true atoms, in id order.
    pub fn true_atoms(&self) -> impl Iterator<Item = AtomId> + '_ {
        self.true_atoms.iter()
    }

    /// Number of true atoms.
    pub fn len(&self) -> usize {
        self.true_atoms.len()
    }

    /// True when no atom holds.
    pub fn is_empty(&self) -> bool {
        self.true_atoms.is_empty()
    }

    /// The argument tuples of the true atoms with predicate `pred`, in
    /// atom-id order.
    pub fn atoms_of(&self, pred: &str) -> impl Iterator<Item = &[TermId]> + '_ {
        let p = Sym::intern(pred);
        self.true_atoms.iter().filter_map(move |a| {
            let (ap, args) = self.store().atom_data(a);
            (ap == p).then_some(args)
        })
    }

    /// All true atoms rendered as text, sorted (test/debug helper).
    pub fn render(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .true_atoms
            .iter()
            .map(|a| self.store().format_atom(a))
            .collect();
        v.sort();
        v
    }

    /// Does a ground atom with this predicate and these exact string
    /// arguments hold? (Convenience for tests.)
    pub fn holds_str(&self, pred: &str, args: &[&str]) -> bool {
        let p = Sym::intern(pred);
        self.true_atoms.iter().any(|a| {
            let (ap, aargs) = self.store().atom_data(a);
            ap == p
                && aargs.len() == args.len()
                && aargs.iter().zip(args).all(|(&tid, &want)| {
                    matches!(self.store().term_data(tid), GroundTerm::Str(s) if s.as_str() == want)
                })
        })
    }

    // ---- term decoding helpers ----

    /// Decode a term as a quoted string.
    pub fn as_str(&self, t: TermId) -> Option<&'static str> {
        match self.store().term_data(t) {
            GroundTerm::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Decode a compound term as (functor name, argument ids).
    pub fn as_func(&self, t: TermId) -> Option<(&'static str, &[TermId])> {
        match self.store().term_data(t) {
            GroundTerm::Func(name, args) => Some((name.as_str(), args)),
            _ => None,
        }
    }
}

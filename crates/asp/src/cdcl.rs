//! A MiniSat-style CDCL SAT solver: two watched literals with blockers,
//! first-UIP conflict analysis, VSIDS-style activity ordering with a
//! fixed decision polarity per variable (false unless the caller sets
//! it; the translation sets it from `#heuristic` directives), and
//! activity-ranked learnt-clause deletion.
//! Supports incremental clause addition between `solve` calls (used by
//! the optimizer's branch-and-bound loop and the stability CEGAR loop).
//! Search runs directly on the translated CNF.

use crate::cancel::CancelToken;

/// A boolean variable, numbered from 0.
pub type Var = u32;

/// A literal: variable plus sign. `Lit(2v)` is the positive literal,
/// `Lit(2v+1)` the negative.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Lit(pub u32);

impl Lit {
    /// Positive literal of `v`.
    pub fn pos(v: Var) -> Lit {
        Lit(v << 1)
    }
    /// Negative literal of `v`.
    pub fn neg(v: Var) -> Lit {
        Lit((v << 1) | 1)
    }
    /// The underlying variable.
    pub fn var(self) -> Var {
        self.0 >> 1
    }
    /// True for negative literals.
    pub fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }
    /// The complementary literal.
    pub fn negate(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum LBool {
    True,
    False,
    Undef,
}

impl LBool {
    fn from_bool(b: bool) -> LBool {
        if b {
            LBool::True
        } else {
            LBool::False
        }
    }
}

#[derive(Clone, Copy)]
struct Watcher {
    clause: u32,
    blocker: Lit,
}

/// Outcome of a `solve` call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SatResult {
    /// A satisfying assignment was found (query it with [`Sat::value`]).
    Sat,
    /// The formula is unsatisfiable.
    Unsat,
    /// The conflict budget was exhausted before an answer was reached.
    Unknown,
    /// The search was cancelled cooperatively before an answer was
    /// reached — `deadline` is true when a wall-clock deadline fired,
    /// false for an explicit cancel. The solver remains usable.
    Cancelled {
        /// Whether the cancellation came from a deadline.
        deadline: bool,
    },
}

/// Search statistics, cumulative across `solve` calls.
#[derive(Clone, Copy, Default, Debug)]
pub struct SatStats {
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of literal propagations.
    pub propagations: u64,
    /// Number of learnt clauses deleted by database reductions.
    pub deleted_clauses: u64,
    /// Number of clause-database reductions.
    pub reductions: u64,
}

/// The CDCL solver.
///
/// `Clone` copies the complete solver state (clause arena, watches,
/// heuristics). Cloning a freshly-translated instance and searching on
/// the clone is indistinguishable from translating again — the basis
/// for re-solving one translation any number of times
/// (`Solver::solve_translated`).
#[derive(Clone)]
pub struct Sat {
    // Clause storage. Original and learnt clauses share the arena;
    // learnt ones are marked and may be deleted by clause-DB reduction
    // (tombstoned in place; watchers are dropped lazily).
    clauses: Vec<Box<[Lit]>>,
    learnt: Vec<bool>,
    deleted: Vec<bool>,
    clause_activity: Vec<f64>,
    cla_inc: f64,
    n_learnt_live: usize,
    max_learnts: usize,
    watches: Vec<Vec<Watcher>>, // indexed by Lit.0

    assign: Vec<LBool>,  // per var
    level: Vec<u32>,     // per var
    reason: Vec<u32>,    // per var; u32::MAX = decision/none
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,

    activity: Vec<f64>,
    /// Per var: decide true first (default false first).
    polarity: Vec<bool>,
    var_inc: f64,
    heap: Vec<Var>,       // binary max-heap on activity
    heap_index: Vec<u32>, // var -> heap slot, u32::MAX if absent

    seen: Vec<bool>, // scratch for conflict analysis

    // Final-conflict analysis: after an Unsat result from `solve_with`,
    // the subset of the assumptions that participated in the conflict
    // (MiniSat's `conflict` vector). Empty when the formula is
    // unsatisfiable without any assumptions.
    final_core: Vec<Lit>,

    // Scratch for `add_clause`'s normalization, reused from clause to
    // clause.
    add_buf: Vec<Lit>,

    ok: bool, // false once a top-level conflict proves UNSAT
    /// Cumulative statistics.
    pub stats: SatStats,
    conflict_budget: u64,
    cancel: CancelToken,
}

const NO_REASON: u32 = u32::MAX;

impl Default for Sat {
    fn default() -> Self {
        Self::new()
    }
}

impl Sat {
    /// Fresh empty solver.
    pub fn new() -> Sat {
        Sat {
            clauses: Vec::new(),
            learnt: Vec::new(),
            deleted: Vec::new(),
            clause_activity: Vec::new(),
            cla_inc: 1.0,
            n_learnt_live: 0,
            max_learnts: 4000,
            watches: Vec::new(),
            assign: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            polarity: Vec::new(),
            var_inc: 1.0,
            heap: Vec::new(),
            heap_index: Vec::new(),
            seen: Vec::new(),
            final_core: Vec::new(),
            add_buf: Vec::new(),
            ok: true,
            stats: SatStats::default(),
            conflict_budget: u64::MAX,
            cancel: CancelToken::none(),
        }
    }

    /// Limit the number of conflicts per `solve` call (`u64::MAX` = none).
    pub fn set_conflict_budget(&mut self, budget: u64) {
        self.conflict_budget = budget;
    }

    /// Install a cooperative cancellation token, polled between search
    /// steps. The default [`CancelToken::none`] never fires.
    pub fn set_cancel(&mut self, cancel: CancelToken) {
        self.cancel = cancel;
    }

    /// Set the learnt-clause count that triggers a database reduction
    /// (the threshold then grows geometrically). Mainly for tests.
    pub fn set_max_learnts(&mut self, n: usize) {
        self.max_learnts = n;
    }

    /// Allocate a new variable.
    pub fn new_var(&mut self) -> Var {
        let v = self.assign.len() as Var;
        self.assign.push(LBool::Undef);
        self.level.push(0);
        self.reason.push(NO_REASON);
        self.activity.push(0.0);
        self.polarity.push(false);
        self.seen.push(false);
        self.heap_index.push(u32::MAX);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.heap_insert(v);
        v
    }

    /// Decide `v` true first when `true_first` is set, false first
    /// otherwise (the default). A polarity changes which model a search
    /// finds first, never whether one exists.
    pub fn set_polarity(&mut self, v: Var, true_first: bool) {
        self.polarity[v as usize] = true_first;
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    fn lit_value(&self, l: Lit) -> LBool {
        match self.assign[l.var() as usize] {
            LBool::Undef => LBool::Undef,
            LBool::True => {
                if l.is_neg() {
                    LBool::False
                } else {
                    LBool::True
                }
            }
            LBool::False => {
                if l.is_neg() {
                    LBool::True
                } else {
                    LBool::False
                }
            }
        }
    }

    /// Add a clause. Must be called with the solver at decision level 0
    /// (it backtracks there itself). Returns `false` when the formula has
    /// become trivially unsatisfiable.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        if !self.ok {
            return false;
        }
        self.backtrack(0);
        let mut c = std::mem::take(&mut self.add_buf);
        c.clear();
        c.extend_from_slice(lits);
        let ok = self.add_normalized(&mut c);
        self.add_buf = c;
        ok
    }

    /// [`Sat::add_clause`] on a scratch copy of the clause: sort, dedupe,
    /// drop false-at-0, detect tautology and satisfied-at-0, then attach
    /// (boxing only the clause kept) or enqueue.
    fn add_normalized(&mut self, c: &mut Vec<Lit>) -> bool {
        c.sort_unstable();
        c.dedup();
        if c.windows(2).any(|w| w[0].var() == w[1].var()) {
            return true; // x and !x: tautology
        }
        c.retain(|&l| {
            debug_assert!((l.var() as usize) < self.assign.len(), "unknown var");
            self.lit_value(l) != LBool::False
        });
        if c.iter().any(|&l| self.lit_value(l) == LBool::True) {
            return true; // satisfied at level 0
        }
        match c.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.enqueue(c[0], NO_REASON);
                if self.propagate().is_some() {
                    self.ok = false;
                    false
                } else {
                    true
                }
            }
            _ => {
                self.attach_clause(c.as_slice().into(), false);
                true
            }
        }
    }

    fn attach_clause(&mut self, c: Box<[Lit]>, learnt: bool) -> u32 {
        let idx = self.clauses.len() as u32;
        self.deleted.push(false);
        self.clause_activity.push(if learnt { self.cla_inc } else { 0.0 });
        if learnt {
            self.n_learnt_live += 1;
        }
        let w0 = Watcher {
            clause: idx,
            blocker: c[1],
        };
        let w1 = Watcher {
            clause: idx,
            blocker: c[0],
        };
        self.watches[c[0].negate().0 as usize].push(w0);
        self.watches[c[1].negate().0 as usize].push(w1);
        self.clauses.push(c);
        self.learnt.push(learnt);
        idx
    }

    fn enqueue(&mut self, l: Lit, reason: u32) {
        debug_assert_eq!(self.lit_value(l), LBool::Undef);
        let v = l.var() as usize;
        self.assign[v] = LBool::from_bool(!l.is_neg());
        self.level[v] = self.trail_lim.len() as u32;
        self.reason[v] = reason;
        self.trail.push(l);
    }

    /// Propagate until fixpoint; returns the conflicting clause index.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = p.negate();
            // Take the watch list; rebuild it as we go.
            let mut ws = std::mem::take(&mut self.watches[p.0 as usize]);
            let mut kept = 0;
            let mut conflict = None;
            let mut wi = 0;
            while wi < ws.len() {
                let w = ws[wi];
                wi += 1;
                if self.deleted[w.clause as usize] {
                    continue; // lazily drop watchers of deleted clauses
                }
                if self.lit_value(w.blocker) == LBool::True {
                    ws[kept] = w;
                    kept += 1;
                    continue;
                }
                let ci = w.clause as usize;
                // Ensure false_lit is at position 1.
                if self.clauses[ci][0] == false_lit {
                    self.clauses[ci].swap(0, 1);
                }
                debug_assert_eq!(self.clauses[ci][1], false_lit);
                let first = self.clauses[ci][0];
                if first != w.blocker && self.lit_value(first) == LBool::True {
                    ws[kept] = Watcher {
                        clause: w.clause,
                        blocker: first,
                    };
                    kept += 1;
                    continue;
                }
                // Find a new watch.
                let mut found = false;
                for k in 2..self.clauses[ci].len() {
                    if self.lit_value(self.clauses[ci][k]) != LBool::False {
                        self.clauses[ci].swap(1, k);
                        let new_watch = self.clauses[ci][1];
                        self.watches[new_watch.negate().0 as usize].push(Watcher {
                            clause: w.clause,
                            blocker: first,
                        });
                        found = true;
                        break;
                    }
                }
                if found {
                    continue;
                }
                // Unit or conflict.
                ws[kept] = w;
                kept += 1;
                if self.lit_value(first) == LBool::False {
                    // Conflict: keep the remaining watchers and stop.
                    while wi < ws.len() {
                        ws[kept] = ws[wi];
                        kept += 1;
                        wi += 1;
                    }
                    self.qhead = self.trail.len();
                    conflict = Some(w.clause);
                } else {
                    self.enqueue(first, w.clause);
                }
            }
            ws.truncate(kept);
            self.watches[p.0 as usize] = ws;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn backtrack(&mut self, target: u32) {
        if self.decision_level() <= target {
            return;
        }
        let lim = self.trail_lim[target as usize];
        for i in (lim..self.trail.len()).rev() {
            let v = self.trail[i].var();
            self.assign[v as usize] = LBool::Undef;
            self.reason[v as usize] = NO_REASON;
            if self.heap_index[v as usize] == u32::MAX {
                self.heap_insert(v);
            }
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(target as usize);
        self.qhead = self.trail.len();
    }

    // --- activity heap ---

    fn heap_insert(&mut self, v: Var) {
        let slot = self.heap.len() as u32;
        self.heap.push(v);
        self.heap_index[v as usize] = slot;
        self.heap_up(slot as usize);
    }

    fn heap_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.activity[self.heap[i] as usize] > self.activity[self.heap[parent] as usize] {
                self.heap_swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn heap_down(&mut self, mut i: usize) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut best = i;
            if l < self.heap.len()
                && self.activity[self.heap[l] as usize] > self.activity[self.heap[best] as usize]
            {
                best = l;
            }
            if r < self.heap.len()
                && self.activity[self.heap[r] as usize] > self.activity[self.heap[best] as usize]
            {
                best = r;
            }
            if best == i {
                break;
            }
            self.heap_swap(i, best);
            i = best;
        }
    }

    fn heap_swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.heap_index[self.heap[a] as usize] = a as u32;
        self.heap_index[self.heap[b] as usize] = b as u32;
    }

    fn heap_pop(&mut self) -> Option<Var> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        self.heap_index[top as usize] = u32::MAX;
        let last = self.heap.pop().expect("non-empty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.heap_index[last as usize] = 0;
            self.heap_down(0);
        }
        Some(top)
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v as usize] += self.var_inc;
        if self.activity[v as usize] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        let slot = self.heap_index[v as usize];
        if slot != u32::MAX {
            self.heap_up(slot as usize);
        }
    }

    fn decay_activity(&mut self) {
        self.var_inc /= 0.95;
    }

    // --- conflict analysis ---

    /// First-UIP analysis. Returns the learnt clause (asserting literal
    /// first) and the backtrack level.
    fn analyze(&mut self, confl: u32) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // slot for the asserting lit
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut clause = confl;
        let current_level = self.decision_level();

        loop {
            let start = usize::from(p.is_some());
            // Iterate clause literals except the already-resolved one.
            for k in start..self.clauses[clause as usize].len() {
                let q = self.clauses[clause as usize][k];
                let v = q.var() as usize;
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump_var(q.var());
                    if self.level[v] >= current_level {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Pick the next literal on the trail to resolve.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var() as usize] {
                    break;
                }
            }
            let lit = self.trail[index];
            let v = lit.var() as usize;
            self.seen[v] = false;
            counter -= 1;
            if counter == 0 {
                p = Some(lit);
                break;
            }
            clause = self.reason[v];
            debug_assert_ne!(clause, NO_REASON);
            self.bump_clause(clause);
            p = Some(lit);
        }
        learnt[0] = p.expect("UIP found").negate();

        // Clause minimization: drop literals implied by the rest.
        let mut minimized: Vec<Lit> = Vec::with_capacity(learnt.len());
        minimized.push(learnt[0]);
        for &l in &learnt[1..] {
            if !self.is_redundant(l) {
                minimized.push(l);
            }
        }
        for &l in &learnt[1..] {
            self.seen[l.var() as usize] = false;
        }

        // Backtrack level: second-highest level in the clause.
        let bt = if minimized.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..minimized.len() {
                if self.level[minimized[i].var() as usize]
                    > self.level[minimized[max_i].var() as usize]
                {
                    max_i = i;
                }
            }
            minimized.swap(1, max_i);
            self.level[minimized[1].var() as usize]
        };
        (minimized, bt)
    }

    /// Local (non-recursive) redundancy test: a literal is redundant if
    /// its reason clause's literals are all already in the learnt clause
    /// (marked seen) or assigned at level 0.
    fn is_redundant(&self, l: Lit) -> bool {
        let v = l.var() as usize;
        let r = self.reason[v];
        if r == NO_REASON {
            return false;
        }
        self.clauses[r as usize].iter().skip(1).all(|&q| {
            let qv = q.var() as usize;
            self.seen[qv] || self.level[qv] == 0
        })
    }

    fn bump_clause(&mut self, c: u32) {
        let ci = c as usize;
        if !self.learnt[ci] {
            return;
        }
        self.clause_activity[ci] += self.cla_inc;
        if self.clause_activity[ci] > 1e20 {
            for a in &mut self.clause_activity {
                *a *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// Delete the less active half of the learnt clauses. Binary
    /// clauses and clauses currently serving as reasons are kept.
    /// Deletion tombstones the clause; its watchers are dropped lazily
    /// by `propagate`.
    fn reduce_db(&mut self) {
        self.stats.reductions += 1;
        self.cla_inc *= 1.001; // slight protection for recent clauses
        let locked: std::collections::HashSet<u32> = self
            .trail
            .iter()
            .map(|l| self.reason[l.var() as usize])
            .filter(|&r| r != NO_REASON)
            .collect();
        let mut cands: Vec<(f64, u32)> = (0..self.clauses.len() as u32)
            .filter(|&i| {
                let ci = i as usize;
                self.learnt[ci]
                    && !self.deleted[ci]
                    && self.clauses[ci].len() > 2
                    && !locked.contains(&i)
            })
            .map(|i| (self.clause_activity[i as usize], i))
            .collect();
        cands.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        let to_delete = cands.len() / 2;
        for &(_, i) in cands.iter().take(to_delete) {
            self.deleted[i as usize] = true;
            self.n_learnt_live -= 1;
            self.stats.deleted_clauses += 1;
        }
    }

    // --- main search ---

    fn pick_branch(&mut self) -> Option<Lit> {
        while let Some(v) = self.heap_pop() {
            if self.assign[v as usize] == LBool::Undef {
                return Some(if self.polarity[v as usize] {
                    Lit::pos(v)
                } else {
                    Lit::neg(v)
                });
            }
        }
        None
    }

    /// Solve the current formula.
    pub fn solve(&mut self) -> SatResult {
        self.solve_with(&[])
    }

    /// Solve under assumptions: the given literals are treated as
    /// temporary decisions. An `Unsat` result with a non-empty assumption
    /// set means "unsatisfiable under these assumptions"; the solver
    /// remains usable, and only a level-0 conflict marks the formula
    /// globally unsatisfiable.
    pub fn solve_with(&mut self, assumps: &[Lit]) -> SatResult {
        self.final_core.clear();
        if !self.ok {
            return SatResult::Unsat;
        }
        self.backtrack(0);
        if self.propagate().is_some() {
            self.ok = false;
            return SatResult::Unsat;
        }
        let mut conflicts_this_call: u64 = 0;
        // Each loop iteration is one conflict or one decision, so this
        // polls the token at a bounded interval without an `Instant`
        // syscall per step. `is_cancellable` keeps the common
        // non-cancellable path to a single branch.
        let mut steps: u64 = 0;
        let poll = self.cancel.is_cancellable();

        loop {
            steps += 1;
            if poll && steps & 1023 == 1 {
                if let Some(deadline) = self.cancel.check() {
                    self.backtrack(0);
                    return SatResult::Cancelled { deadline };
                }
            }
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_this_call += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return SatResult::Unsat;
                }
                let (learnt, bt) = self.analyze(confl);
                self.backtrack(bt);
                if learnt.len() == 1 {
                    self.enqueue(learnt[0], NO_REASON);
                } else {
                    let idx = self.attach_clause(learnt.clone().into_boxed_slice(), true);
                    self.enqueue(learnt[0], idx);
                }
                self.decay_activity();
                if self.n_learnt_live > self.max_learnts {
                    self.backtrack(0);
                    self.reduce_db();
                    self.max_learnts = self.max_learnts + self.max_learnts / 2;
                }
                if conflicts_this_call >= self.conflict_budget {
                    self.backtrack(0);
                    return SatResult::Unknown;
                }
            } else {
                // Re-establish assumptions before free decisions.
                let mut next: Option<Lit> = None;
                let mut assumption_conflict: Option<Lit> = None;
                while (self.decision_level() as usize) < assumps.len() {
                    let a = assumps[self.decision_level() as usize];
                    match self.lit_value(a) {
                        LBool::True => {
                            // Already implied: open a dummy level to keep
                            // the level/assumption correspondence.
                            self.trail_lim.push(self.trail.len());
                        }
                        LBool::False => {
                            assumption_conflict = Some(a);
                            break;
                        }
                        LBool::Undef => {
                            next = Some(a);
                            break;
                        }
                    }
                }
                if let Some(a) = assumption_conflict {
                    self.analyze_final(a);
                    self.backtrack(0);
                    return SatResult::Unsat;
                }
                match next.or_else(|| self.pick_branch()) {
                    None => return SatResult::Sat,
                    Some(l) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        self.enqueue(l, NO_REASON);
                    }
                }
            }
        }
    }

    /// After an `Unsat` answer from [`Sat::solve_with`], the subset of
    /// the assumptions that participated in the final conflict — an
    /// (unminimized) assumption core. Empty when the formula is
    /// unsatisfiable without any assumptions (a level-0 conflict), and
    /// cleared at the start of every `solve_with` call.
    pub fn final_core(&self) -> &[Lit] {
        &self.final_core
    }

    /// MiniSat-style final-conflict analysis. `a` is an assumption found
    /// falsified while re-establishing the assumption prefix; every
    /// trail level below the current one is an assumption level. Walks
    /// the implication trail backwards from `¬a`, collecting the
    /// above-level-0 decisions (i.e. earlier assumptions) the conflict
    /// transitively depends on.
    fn analyze_final(&mut self, a: Lit) {
        self.final_core.clear();
        self.final_core.push(a);
        if self.trail_lim.is_empty() {
            // ¬a is implied by the clauses alone at level 0: {a} is the
            // whole conflicting assumption set.
            return;
        }
        self.seen[a.var() as usize] = true;
        for i in (self.trail_lim[0]..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var() as usize;
            if !self.seen[v] {
                continue;
            }
            let r = self.reason[v];
            if r == NO_REASON {
                // A decision above level 0 in the assumption-
                // re-establishment phase is necessarily an assumption.
                self.final_core.push(l);
            } else {
                for &p in self.clauses[r as usize].iter() {
                    let pv = p.var() as usize;
                    if pv != v && self.level[pv] > 0 {
                        self.seen[pv] = true;
                    }
                }
            }
            self.seen[v] = false;
        }
        // ¬a may itself sit at level 0 (implied before any assumption
        // level); the walk above never clears its scratch bit then.
        self.seen[a.var() as usize] = false;
    }

    /// Model value of `v` after a `Sat` result. Unassigned vars (possible
    /// when they occur in no clause) read as `false`.
    pub fn value(&self, v: Var) -> bool {
        matches!(self.assign[v as usize], LBool::True)
    }

    /// Number of live problem clauses of two or more literals (learnt
    /// clauses excluded; units sit on the level-0 trail, not in the
    /// clause store).
    pub(crate) fn num_clauses(&self) -> usize {
        (0..self.clauses.len())
            .filter(|&i| !self.learnt[i] && !self.deleted[i])
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(v: Var) -> Lit {
        Lit::pos(v)
    }
    fn n(v: Var) -> Lit {
        Lit::neg(v)
    }

    #[test]
    fn lit_encoding() {
        assert_eq!(p(3).var(), 3);
        assert_eq!(n(3).var(), 3);
        assert!(!p(3).is_neg());
        assert!(n(3).is_neg());
        assert_eq!(p(3).negate(), n(3));
    }

    #[test]
    fn trivial_sat() {
        let mut s = Sat::new();
        let a = s.new_var();
        s.add_clause(&[p(a)]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert!(s.value(a));
    }

    #[test]
    fn trivial_unsat() {
        let mut s = Sat::new();
        let a = s.new_var();
        assert!(s.add_clause(&[p(a)]));
        assert!(!s.add_clause(&[n(a)]));
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn implication_chain() {
        let mut s = Sat::new();
        let vars: Vec<Var> = (0..20).map(|_| s.new_var()).collect();
        for w in vars.windows(2) {
            s.add_clause(&[n(w[0]), p(w[1])]);
        }
        s.add_clause(&[p(vars[0])]);
        assert_eq!(s.solve(), SatResult::Sat);
        for &v in &vars {
            assert!(s.value(v));
        }
    }

    #[test]
    fn xor_chain_sat() {
        // (a XOR b) via clauses; satisfiable.
        let mut s = Sat::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[p(a), p(b)]);
        s.add_clause(&[n(a), n(b)]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert_ne!(s.value(a), s.value(b));
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // 3 pigeons, 2 holes: vars x[i][j] = pigeon i in hole j.
        let mut s = Sat::new();
        let mut x = [[0u32; 2]; 3];
        for row in &mut x {
            for cell in row {
                *cell = s.new_var();
            }
        }
        for row in &x {
            s.add_clause(&[p(row[0]), p(row[1])]);
        }
        for i1 in 0..3 {
            for i2 in (i1 + 1)..3 {
                for (&a, &b) in x[i1].iter().zip(&x[i2]) {
                    s.add_clause(&[n(a), n(b)]);
                }
            }
        }
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn pigeonhole_4_into_3_unsat() {
        let np = 4;
        let nh = 3;
        let mut s = Sat::new();
        let x: Vec<Vec<Var>> = (0..np)
            .map(|_| (0..nh).map(|_| s.new_var()).collect())
            .collect();
        for row in &x {
            let c: Vec<Lit> = row.iter().map(|&v| p(v)).collect();
            s.add_clause(&c);
        }
        for i1 in 0..np {
            for i2 in (i1 + 1)..np {
                for (&a, &b) in x[i1].iter().zip(&x[i2]) {
                    s.add_clause(&[n(a), n(b)]);
                }
            }
        }
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn tautology_ignored() {
        let mut s = Sat::new();
        let a = s.new_var();
        assert!(s.add_clause(&[p(a), n(a)]));
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn duplicate_literals_collapse() {
        let mut s = Sat::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[p(a), p(a), p(b), p(b)]);
        s.add_clause(&[n(a)]);
        s.add_clause(&[n(b), p(a)]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn incremental_strengthening() {
        let mut s = Sat::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[p(a), p(b)]);
        assert_eq!(s.solve(), SatResult::Sat);
        // Forbid the found model piece by piece; eventually UNSAT.
        s.add_clause(&[n(a)]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert!(!s.value(a));
        assert!(s.value(b));
        s.add_clause(&[n(b)]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn new_vars_after_solve() {
        let mut s = Sat::new();
        let a = s.new_var();
        s.add_clause(&[p(a)]);
        assert_eq!(s.solve(), SatResult::Sat);
        let b = s.new_var();
        s.add_clause(&[n(a), p(b)]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert!(s.value(b));
    }

    #[test]
    fn model_enumeration_count() {
        // Count models of (a ∨ b ∨ c) by blocking: should be 7.
        let mut s = Sat::new();
        let vars: Vec<Var> = (0..3).map(|_| s.new_var()).collect();
        s.add_clause(&[p(vars[0]), p(vars[1]), p(vars[2])]);
        let mut count = 0;
        while s.solve() == SatResult::Sat {
            count += 1;
            assert!(count <= 7, "too many models");
            let block: Vec<Lit> = vars
                .iter()
                .map(|&v| if s.value(v) { n(v) } else { p(v) })
                .collect();
            s.add_clause(&block);
        }
        assert_eq!(count, 7);
    }

    #[test]
    fn random_3sat_vs_bruteforce() {
        // Deterministic pseudo-random instances cross-checked against
        // exhaustive enumeration.
        let mut seed = 0x243F6A8885A308D3u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for round in 0..60 {
            let nvars = 6 + (round % 4) as u32;
            let nclauses = 10 + (round % 17);
            let mut clauses: Vec<Vec<Lit>> = Vec::new();
            for _ in 0..nclauses {
                let mut c = Vec::new();
                for _ in 0..3 {
                    let v = (next() % nvars as u64) as Var;
                    let neg = next() % 2 == 0;
                    c.push(if neg { n(v) } else { p(v) });
                }
                clauses.push(c);
            }
            // Brute force.
            let mut brute_sat = false;
            'outer: for m in 0..(1u32 << nvars) {
                for c in &clauses {
                    if !c.iter().any(|l| {
                        let val = (m >> l.var()) & 1 == 1;
                        val != l.is_neg()
                    }) {
                        continue 'outer;
                    }
                }
                brute_sat = true;
                break;
            }
            // CDCL.
            let mut s = Sat::new();
            for _ in 0..nvars {
                s.new_var();
            }
            for c in &clauses {
                s.add_clause(c);
            }
            let got = s.solve();
            assert_eq!(
                got == SatResult::Sat,
                brute_sat,
                "round {round}: mismatch (cdcl={got:?}, brute={brute_sat})"
            );
            if got == SatResult::Sat {
                // Verify the model actually satisfies every clause.
                for c in &clauses {
                    assert!(
                        c.iter().any(|l| s.value(l.var()) != l.is_neg()),
                        "round {round}: model does not satisfy clause"
                    );
                }
            }
        }
    }

    #[test]
    fn clause_db_reduction_preserves_answers() {
        // PHP(7,6): UNSAT with thousands of conflicts. Force aggressive
        // reductions and check the proof still lands.
        let np = 7;
        let nh = 6;
        let mut s = Sat::new();
        s.set_max_learnts(50);
        let x: Vec<Vec<Var>> = (0..np)
            .map(|_| (0..nh).map(|_| s.new_var()).collect())
            .collect();
        for row in &x {
            let c: Vec<Lit> = row.iter().map(|&v| p(v)).collect();
            s.add_clause(&c);
        }
        for i1 in 0..np {
            for i2 in (i1 + 1)..np {
                for (&a, &b) in x[i1].iter().zip(&x[i2]) {
                    s.add_clause(&[n(a), n(b)]);
                }
            }
        }
        assert_eq!(s.solve(), SatResult::Unsat);
        assert!(s.stats.reductions > 0, "reduction must have triggered");
        assert!(s.stats.deleted_clauses > 0);
    }

    #[test]
    fn reduction_with_sat_instances() {
        // Random satisfiable-ish instances under a tiny threshold still
        // produce verified models.
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..10 {
            let nvars = 30u32;
            let mut s = Sat::new();
            s.set_max_learnts(20);
            for _ in 0..nvars {
                s.new_var();
            }
            let mut clauses = Vec::new();
            for _ in 0..90 {
                let mut c = Vec::new();
                for _ in 0..3 {
                    let v = (next() % nvars as u64) as Var;
                    c.push(if next() % 2 == 0 { n(v) } else { p(v) });
                }
                clauses.push(c.clone());
                s.add_clause(&c);
            }
            if s.solve() == SatResult::Sat {
                for c in &clauses {
                    assert!(c.iter().any(|l| s.value(l.var()) != l.is_neg()));
                }
            }
        }
    }

    #[test]
    fn free_variables_are_decided_false_after_a_solve() {
        // A solve under an assumption leaves no trace on later
        // decisions: once the assumption is gone, both variables are
        // free again and branch false.
        let mut s = Sat::new();
        let x = s.new_var();
        let y = s.new_var();
        s.add_clause(&[n(x), p(y)]);
        assert_eq!(s.solve_with(&[p(x)]), SatResult::Sat);
        assert!(s.value(x) && s.value(y));
        assert_eq!(s.solve(), SatResult::Sat);
        assert!(!s.value(x) && !s.value(y));
    }

    #[test]
    fn polarity_picks_the_first_model() {
        // x ∨ y: false-first finds {y}; x true-first finds {x}.
        let mut s = Sat::new();
        let x = s.new_var();
        let y = s.new_var();
        s.add_clause(&[p(x), p(y)]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert!(!s.value(x) && s.value(y));
        s.set_polarity(x, true);
        assert_eq!(s.solve(), SatResult::Sat);
        assert!(s.value(x) && !s.value(y));
    }

    #[test]
    fn stats_account_search_effort() {
        let mut s = Sat::new();
        let vars: Vec<Var> = (0..12).map(|_| s.new_var()).collect();
        for w in vars.windows(2) {
            s.add_clause(&[n(w[0]), p(w[1])]);
        }
        s.add_clause(&[p(vars[0])]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert!(s.stats.propagations >= vars.len() as u64 - 1);
        let before = s.stats;
        assert_eq!(s.solve(), SatResult::Sat);
        assert!(
            s.stats.propagations >= before.propagations,
            "stats are cumulative"
        );
    }
}

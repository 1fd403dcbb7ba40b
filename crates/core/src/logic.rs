//! The concretizer's logic program (paper §3.3, §5.1, §5.3, §5.4),
//! written in the ASP fragment `spackle-asp` implements. The encoder
//! (see [`crate::encode`]) builds the compiled facts and per-directive
//! rules as data; these constants carry the program's invariant
//! semantics, and are the only text a solve's program is parsed from.
//! Each is parsed once per process; a solve appends clones of the
//! parsed rules after its directive rules.

use spackle_asp::{parse_program, Program};
use std::sync::OnceLock;

/// A static logic fragment: its label, its text, and its parse, made on
/// first use.
pub(crate) struct Fragment {
    /// Label in provenance (`"base"`, `"reuse-indirect"`, ...).
    pub(crate) label: &'static str,
    /// The fragment's ASP text.
    pub(crate) text: &'static str,
    parsed: OnceLock<Program>,
}

impl Fragment {
    const fn new(label: &'static str, text: &'static str) -> Fragment {
        Fragment {
            label,
            text,
            parsed: OnceLock::new(),
        }
    }

    /// The fragment's parsed program.
    pub(crate) fn program(&self) -> &Program {
        self.parsed
            .get_or_init(|| parse_program(self.text).expect("static logic fragments parse"))
    }
}

/// [`BASE_PROGRAM`] as a fragment.
pub(crate) static BASE: Fragment = Fragment::new("base", BASE_PROGRAM);
/// [`REUSE_DIRECT`] as a fragment.
pub(crate) static DIRECT: Fragment = Fragment::new("reuse-direct", REUSE_DIRECT);
/// [`REUSE_INDIRECT`] as a fragment.
pub(crate) static INDIRECT: Fragment = Fragment::new("reuse-indirect", REUSE_INDIRECT);
/// [`SPLICE_FRAGMENT`] as a fragment.
pub(crate) static SPLICE: Fragment = Fragment::new("splice", SPLICE_FRAGMENT);
/// [`NO_SPLICE_STUB`] as a fragment.
pub(crate) static NO_SPLICE: Fragment = Fragment::new("no-splice", NO_SPLICE_STUB);

/// Core concretization semantics: node derivation, one-version /
/// one-variant-value / one-os / one-target per node, virtual providers,
/// link-run reachability, reuse selection, the `impose` machinery, and
/// the optimization objectives.
pub const BASE_PROGRAM: &str = r#"
% ------------------------------------------------------------------
% Node derivation: roots plus everything depended on.
% ------------------------------------------------------------------
attr("node", node(P)) :- attr("root", node(P)).
attr("node", node(D)) :- attr("depends_on", node(P), node(D), T).

% ------------------------------------------------------------------
% Every node resolves exactly one declared version (paper 5.1).
% ------------------------------------------------------------------
1 { attr("version", node(P), V) : pkg_fact(P, version_declared(V, I)) } 1 :-
    attr("node", node(P)).

% Every declared variant takes exactly one allowed value.
1 { attr("variant", node(P), VN, Val) : pkg_fact(P, variant_value(VN, Val)) } 1 :-
    attr("node", node(P)), pkg_fact(P, variant(VN)).

% Exactly one operating system and microarchitecture target per node.
1 { attr("node_os", node(P), O) : os_declared(O) } 1 :- attr("node", node(P)).
1 { attr("node_target", node(P), T) : target_declared(T) } 1 :- attr("node", node(P)).

% All nodes run on the requesting machine: same OS, and a target whose
% binaries the requested microarchitecture executes.
:- attr("node_os", node(P), O), requested_os(RO), O != RO.
:- attr("node_target", node(P), T), requested_target(RT), not target_runs(RT, T).

% ------------------------------------------------------------------
% Virtual dependencies: one provider per needed virtual, and at most
% one provider node per virtual (Spack's single implementation rule,
% the premise of trivial ABI consistency in 1), linear in providers.
% ------------------------------------------------------------------
virtual_needed(V) :- attr("virtual_dep", node(P), V).
1 { virtual_chosen(V, Prov) : provider_decl(Prov, V) } 1 :- virtual_needed(V).
attr("depends_on", node(P), node(Prov), "link-run") :-
    attr("virtual_dep", node(P), V), virtual_chosen(V, Prov).
virtual_used(V) :- virtual_chosen(V, Prov).
% A provider node (e.g. imposed by a reused or spliced spec) puts its
% virtual in use, and forces the one pick onto itself.
virtual_used(V) :- provider_decl(P, V), attr("node", node(P)).
1 { provider_pick(V, P) : provider_decl(P, V) } 1 :- virtual_used(V).
:- provider_decl(P, V), attr("node", node(P)), not provider_pick(V, P).

% ------------------------------------------------------------------
% Link-run reachability from each reach_from(P) a ^-style reader seeds.
% ------------------------------------------------------------------
reach(P, D) :- reach_from(P), attr("depends_on", node(P), node(D), "link-run").
reach(P, E) :- reach(P, D), attr("depends_on", node(D), node(E), "link-run").

% ------------------------------------------------------------------
% Reuse (paper 5.1.2): choose at most one installed spec per node, and
% decide each choice true first; anything not reused must be built.
#heuristic attr("hash", node(P), H) : installed_hash(P, H). [1, sign]
{ attr("hash", node(P), H) : installed_hash(P, H) } 1 :- attr("node", node(P)).
reused(P) :- attr("hash", node(P), H).
build(P) :- attr("node", node(P)), not reused(P).
impose(H) :- attr("hash", node(P), H), installed_hash(P, H).

% Imposition machinery: reusing a spec imposes all of its attributes.
attr("version", node(P), V) :- impose(H), imposed_constraint(H, "version", P, V).
attr("node_os", node(P), O) :- impose(H), imposed_constraint(H, "node_os", P, O).
attr("node_target", node(P), T) :- impose(H), imposed_constraint(H, "node_target", P, T).
attr("variant", node(P), VN, Val) :- impose(H), imposed_constraint(H, "variant", P, VN, Val).
attr("depends_on", node(P), node(D), "link-run") :-
    impose(H), imposed_constraint(H, "depends_on", P, D).
attr("hash", node(D), CH) :- impose(H), imposed_constraint(H, "hash", D, CH).

% ------------------------------------------------------------------
% Optimization (highest priority first), using Spack's build-priority
% band scheme: attribute criteria for *built* nodes rank above the
% build count (so the solver never strips defaults just to skip a
% dependency), while the build count ranks above attribute criteria
% for reused nodes (so reuse is never sacrificed to fix an attribute).
%
%   250: version penalty, built nodes
%   240: non-default variant values, built nodes
%   230: target distance, built nodes
%   150: number of builds (the paper's top objective)
%   140: prefer plain reuse over splicing
%    50: version penalty, all nodes
%    40: non-default variant values, all nodes
%    30: target distance, all nodes
%    20: prefer earlier-declared virtual providers
% ------------------------------------------------------------------
variant_on_default(P, VN) :-
    attr("variant", node(P), VN, Val), pkg_fact(P, variant_default(VN, Val)).

#minimize { I@250,P : attr("version", node(P), V),
            pkg_fact(P, version_declared(V, I)), build(P) }.
#minimize { 1@240,P,VN : attr("node", node(P)), pkg_fact(P, variant(VN)),
            not variant_on_default(P, VN), build(P) }.
#minimize { Pen@230,P : attr("node_target", node(P), T),
            target_penalty(T, Pen), build(P) }.
#minimize { 100@150,P : build(P) }.
#minimize { 1@140,PH,C : splice_chosen(PH, C) }.
#minimize { I@50,P : attr("version", node(P), V), pkg_fact(P, version_declared(V, I)) }.
#minimize { 1@40,P,VN : attr("node", node(P)), pkg_fact(P, variant(VN)),
            not variant_on_default(P, VN) }.
#minimize { Pen@30,P : attr("node_target", node(P), T), target_penalty(T, Pen) }.
#minimize { W@20,V : virtual_chosen(V, Prov), provider_weight(V, Prov, W) }.
"#;

/// The *old* encoding of reusable specs (paper §5.1.2): the encoder emits
/// `imposed_constraint(...)` facts directly, so no bridge rules are
/// needed. This constant exists for symmetry and documentation.
pub const REUSE_DIRECT: &str = r#"
% Old encoding: imposed_constraint/3..5 are emitted directly as facts.
% Splicing is structurally impossible here: every reused spec drags in
% exactly the dependencies it was built with.
"#;

/// The *new* encoding (paper §5.3, Fig 3b): reusable specs are emitted as
/// `hash_attr(...)` facts, and bridge rules recover `imposed_constraint`.
/// The `hash` and `depends_on` tuples are the splice hook: they are
/// imposed only when the child is **not** spliced.
pub const REUSE_INDIRECT: &str = r#"
imposed_constraint(H, A, N) :- hash_attr(H, A, N).
imposed_constraint(H, A, N, V) :-
    hash_attr(H, A, N, V), A != "depends_on", A != "hash".
imposed_constraint(H, A, N, V1, V2) :- hash_attr(H, A, N, V1, V2).
imposed_constraint(PH, "hash", C, CH) :-
    hash_attr(PH, "hash", C, CH),
    not splice_chosen(PH, C).
imposed_constraint(PH, "depends_on", P, C) :-
    hash_attr(PH, "depends_on", P, C),
    hash_attr(PH, "hash", C, CH),
    not splice_chosen(PH, C).
"#;

/// Automatic splicing (paper §5.4, Fig 4b): when reusing a spec whose
/// child has declared ABI-compatible replacements, the solver may divert
/// the dependency to a replacement node instead of imposing the original
/// child. `splicer_decl(N, C)` (package N declares it can replace specs
/// of package C) and `splice_relevant(C)` are emitted from `can_splice`
/// directives; the `can_splice/3` validity rules are compiled
/// per-directive by the encoder (Fig 4a).
pub const SPLICE_FRAGMENT: &str = r#"
% For each reused spec child that has potential replacements, choose at
% most one replacement package to splice in.
{ splice_to(PH, C, N) : splicer_decl(N, C) } 1 :-
    impose(PH), hash_attr(PH, "hash", C, CH), splice_relevant(C).
splice_chosen(PH, C) :- splice_to(PH, C, N).

% The replacement node becomes part of the solution...
attr("node", node(N)) :- splice_to(PH, C, N).

% ...and must actually be a valid ABI-compatible replacement for the
% child being spliced out.
:- splice_to(PH, C, N), hash_attr(PH, "hash", C, CH),
   not can_splice(node(N), C, CH).

% The parent's dependency is rewired to the replacement (the original
% child's imposition is suppressed in the bridge rules above).
imposed_constraint(PH, "depends_on", P, N) :-
    splice_to(PH, C, N), hash_attr(PH, "depends_on", P, C).
"#;

/// In configurations without the splice fragment, `splice_chosen` and
/// `splice_to` have no deriving rules; this stub keeps the shared
/// `#minimize` statement and bridge-rule negations well-defined without
/// enabling any splices.
pub const NO_SPLICE_STUB: &str = r#"
% Splicing disabled: no rules derive splice_chosen/splice_to.
"#;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_program_parses() {
        let p = parse_program(BASE_PROGRAM).unwrap();
        assert!(p.rules.len() > 15);
        assert_eq!(p.minimize.len(), 9);
        assert_eq!(p.heuristics.len(), 1);
    }

    #[test]
    fn reuse_indirect_parses() {
        let p = parse_program(REUSE_INDIRECT).unwrap();
        assert_eq!(p.rules.len(), 5);
    }

    #[test]
    fn splice_fragment_parses() {
        let p = parse_program(SPLICE_FRAGMENT).unwrap();
        assert_eq!(p.rules.len(), 5);
    }

    #[test]
    fn stubs_parse() {
        assert!(parse_program(REUSE_DIRECT).unwrap().rules.is_empty());
        assert!(parse_program(NO_SPLICE_STUB).unwrap().rules.is_empty());
    }
}
